//! The PEARL architecture configuration (Tables I and II of the paper).

use pearl_noc::Frequency;
use pearl_workloads::Responder;

/// The optical crossbar flavour connecting the routers.
///
/// PEARL uses reservation-assisted SWMR; token-arbitrated MWSR (as in
/// Corona and the GPU-photonic work of §II-A) is provided as the design
/// alternative the paper argues against: "the on-chip network no longer
/// needs a complex token arbitration mechanism associated with MWSR".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// Reservation-assisted single-writer-multiple-reader: each router
    /// owns its data waveguide and broadcasts reservations (§III-A).
    RSwmr,
    /// Multiple-writer-single-reader with a circulating token per
    /// destination channel: a source transmits only while holding the
    /// destination's token.
    MwsrToken,
}

/// The architecture specification of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchSpec {
    /// Number of CPU cores.
    pub cpu_cores: u32,
    /// Hardware threads per CPU core.
    pub threads_per_core: u32,
    /// CPU clock (GHz).
    pub cpu_ghz: f64,
    /// CPU L1 instruction cache (kB).
    pub cpu_l1i_kb: u32,
    /// CPU L1 data cache (kB).
    pub cpu_l1d_kb: u32,
    /// CPU L2 cache (kB).
    pub cpu_l2_kb: u32,
    /// Number of GPU compute units.
    pub gpu_cus: u32,
    /// GPU clock (GHz).
    pub gpu_ghz: f64,
    /// GPU L1 cache (kB).
    pub gpu_l1_kb: u32,
    /// GPU L2 cache (kB).
    pub gpu_l2_kb: u32,
    /// Network clock (GHz).
    pub network_ghz: f64,
    /// Shared L3 cache (MB).
    pub l3_mb: u32,
    /// Main memory (GB).
    pub main_memory_gb: u32,
}

impl ArchSpec {
    /// The Table I values.
    pub const fn table_i() -> ArchSpec {
        ArchSpec {
            cpu_cores: 32,
            threads_per_core: 4,
            cpu_ghz: 4.0,
            cpu_l1i_kb: 32,
            cpu_l1d_kb: 64,
            cpu_l2_kb: 256,
            gpu_cus: 64,
            gpu_ghz: 2.0,
            gpu_l1_kb: 64,
            gpu_l2_kb: 512,
            network_ghz: 2.0,
            l3_mb: 8,
            main_memory_gb: 16,
        }
    }
}

impl Default for ArchSpec {
    fn default() -> Self {
        ArchSpec::table_i()
    }
}

/// A structural configuration error found by [`PearlConfig::check`].
///
/// Each variant carries the offending value so callers (CLI frontends,
/// sweep harnesses mutating configs programmatically) can report or
/// repair it rather than unwind through a panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Fewer than two clusters: the crossbar needs a source and a
    /// destination besides the L3.
    TooFewClusters {
        /// The rejected cluster count.
        clusters: usize,
    },
    /// The L3 router needs at least one data channel.
    NoL3Channels,
    /// A buffer is below its minimum slot count.
    BufferTooSmall {
        /// Which buffer (`"CPU"`, `"GPU"` or `"receive"`).
        buffer: &'static str,
        /// The rejected capacity in flit slots.
        slots: u32,
        /// The minimum capacity for this buffer.
        min: u32,
    },
    /// Ejection must drain at least one packet per cycle.
    ZeroEjectionRate,
    /// An outstanding-miss window of zero would deadlock issue.
    ZeroOutstandingWindow {
        /// Which core type (`"CPU"` or `"GPU"`).
        core: &'static str,
    },
    /// Laser turn-on time must be non-negative (NaN is also rejected).
    InvalidTurnOnTime {
        /// The rejected value in nanoseconds.
        ns: f64,
    },
    /// A windowed power policy with a zero reservation window would
    /// never reach a boundary.
    ZeroWindow,
    /// A capacity guard factor must be positive (NaN is also rejected).
    NonPositiveGuard {
        /// The rejected guard factor.
        guard: f64,
    },
    /// A fine-grained share step must lie in (0, 0.5] and divide 1
    /// evenly (NaN is also rejected).
    InvalidFineStep {
        /// The rejected step.
        step: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooFewClusters { clusters } => {
                write!(f, "at least two clusters required, got {clusters}")
            }
            ConfigError::NoL3Channels => write!(f, "L3 needs at least one channel"),
            ConfigError::BufferTooSmall { buffer, slots, min } => {
                write!(f, "{buffer} buffer too small: {slots} slots, minimum {min}")
            }
            ConfigError::ZeroEjectionRate => write!(f, "ejection rate must be ≥ 1"),
            ConfigError::ZeroOutstandingWindow { core } => {
                write!(f, "{core} outstanding window must be ≥ 1")
            }
            ConfigError::InvalidTurnOnTime { ns } => {
                write!(f, "turn-on time must be non-negative, got {ns} ns")
            }
            ConfigError::ZeroWindow => write!(f, "reservation window must be non-zero"),
            ConfigError::NonPositiveGuard { guard } => {
                write!(f, "guard factor must be positive, got {guard}")
            }
            ConfigError::InvalidFineStep { step } => {
                write!(f, "allocation step {step} must lie in (0, 0.5] and divide 1 evenly")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full simulator configuration for one PEARL network instance.
///
/// Buffer capacities are in 128-bit flit slots. The DBA occupancy bounds
/// (16 % CPU / 6 % GPU) and the reservation-window machinery live in
/// [`crate::policy::PearlPolicy`]; this struct holds the structural
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PearlConfig {
    /// Architecture spec (Table I).
    pub spec: ArchSpec,
    /// Number of CPU+GPU clusters (= cluster routers).
    pub clusters: usize,
    /// Parallel data channels at the L3 router. The L3 fronts 16 banks
    /// and two memory controllers behind an optical crossbar (§III-A),
    /// so it terminates several waveguides where a cluster router has
    /// one; eight channels cover the two MCs and bank-group ports.
    pub l3_channels: usize,
    /// CPU-side input buffer capacity per router (flit slots).
    pub cpu_buffer_slots: u32,
    /// GPU-side input buffer capacity per router (flit slots).
    pub gpu_buffer_slots: u32,
    /// Receive (BW_D) buffer capacity per router (flit slots).
    pub recv_buffer_slots: u32,
    /// Packets ejected from the receive buffer to local cores per cycle.
    pub ejection_packets_per_cycle: u32,
    /// Reservation-broadcast plus O/E pipeline latency added between the
    /// end of serialization and delivery at the destination (cycles).
    pub delivery_latency: u64,
    /// Laser turn-on (stabilization) time in nanoseconds (2 ns default,
    /// swept 2–32 ns in Fig. 11).
    pub laser_turn_on_ns: f64,
    /// Outstanding-miss window of a cluster's CPU cores (2 cores × 4
    /// MSHRs). When this many CPU requests are in flight the CPUs stall —
    /// the feedback that makes CPU service latency a throughput matter.
    pub cpu_outstanding_limit: u32,
    /// Outstanding-miss window of a cluster's GPU CUs (4 CUs × 32
    /// wavefront slots) — GPUs tolerate far more latency than CPUs.
    pub gpu_outstanding_limit: u32,
    /// Endpoint service model shared with the CMESH baseline.
    pub responder: Responder,
    /// Optical crossbar flavour (R-SWMR in the paper; MWSR for the
    /// token-arbitration ablation).
    pub fabric: Fabric,
    /// When true, an upward laser transition stalls the *whole* channel
    /// until stabilization completes ("no data is transmitted during
    /// laser stabilization", §IV's sensitivity study). When false (the
    /// default), only the newly lit banks are unusable and the channel
    /// keeps running at its previous state — the behaviour bank-gated
    /// laser arrays permit.
    pub full_channel_stall: bool,
}

impl PearlConfig {
    /// The paper's configuration.
    pub fn pearl() -> PearlConfig {
        PearlConfig {
            spec: ArchSpec::table_i(),
            clusters: 16,
            l3_channels: 8,
            cpu_buffer_slots: 64,
            gpu_buffer_slots: 128,
            recv_buffer_slots: 64,
            ejection_packets_per_cycle: 2,
            delivery_latency: 2,
            laser_turn_on_ns: 2.0,
            cpu_outstanding_limit: 8,
            gpu_outstanding_limit: 128,
            responder: Responder::pearl(),
            fabric: Fabric::RSwmr,
            full_channel_stall: false,
        }
    }

    /// The paper's configuration with the MWSR token-arbitration fabric
    /// swapped in (ablation).
    pub fn pearl_mwsr() -> PearlConfig {
        PearlConfig { fabric: Fabric::MwsrToken, ..PearlConfig::pearl() }
    }

    /// The network clock.
    pub fn network_clock(&self) -> Frequency {
        Frequency::from_ghz(self.spec.network_ghz)
    }

    /// Laser turn-on delay in network cycles.
    pub fn laser_turn_on_cycles(&self) -> u64 {
        self.network_clock().cycles_for_ns(self.laser_turn_on_ns)
    }

    /// Total endpoint count (cluster routers + the L3 router).
    pub fn endpoints(&self) -> usize {
        self.clusters + 1
    }

    /// Node index of the L3 router.
    pub fn l3_node(&self) -> usize {
        self.clusters
    }

    /// Checks structural invariants, returning the first violation.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.clusters < 2 {
            return Err(ConfigError::TooFewClusters { clusters: self.clusters });
        }
        if self.l3_channels < 1 {
            return Err(ConfigError::NoL3Channels);
        }
        for (buffer, slots, min) in [
            ("CPU", self.cpu_buffer_slots, 4),
            ("GPU", self.gpu_buffer_slots, 4),
            ("receive", self.recv_buffer_slots, 8),
        ] {
            if slots < min {
                return Err(ConfigError::BufferTooSmall { buffer, slots, min });
            }
        }
        if self.ejection_packets_per_cycle < 1 {
            return Err(ConfigError::ZeroEjectionRate);
        }
        if self.cpu_outstanding_limit < 1 {
            return Err(ConfigError::ZeroOutstandingWindow { core: "CPU" });
        }
        if self.gpu_outstanding_limit < 1 {
            return Err(ConfigError::ZeroOutstandingWindow { core: "GPU" });
        }
        if self.laser_turn_on_ns < 0.0 || self.laser_turn_on_ns.is_nan() {
            return Err(ConfigError::InvalidTurnOnTime { ns: self.laser_turn_on_ns });
        }
        Ok(())
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics when a field is out of its documented range; see
    /// [`Self::check`] for the non-panicking form.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

impl Default for PearlConfig {
    fn default() -> Self {
        PearlConfig::pearl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let s = ArchSpec::table_i();
        assert_eq!(s.cpu_cores, 32);
        assert_eq!(s.gpu_cus, 64);
        assert_eq!(s.cpu_ghz, 4.0);
        assert_eq!(s.gpu_ghz, 2.0);
        assert_eq!(s.network_ghz, 2.0);
        assert_eq!(s.l3_mb, 8);
        assert_eq!(s.main_memory_gb, 16);
    }

    #[test]
    fn pearl_config_validates() {
        let c = PearlConfig::pearl();
        c.validate();
        assert_eq!(c.endpoints(), 17);
        assert_eq!(c.l3_node(), 16);
    }

    #[test]
    fn turn_on_cycles_at_2ghz() {
        let mut c = PearlConfig::pearl();
        assert_eq!(c.laser_turn_on_cycles(), 4); // 2 ns @2 GHz
        c.laser_turn_on_ns = 32.0;
        assert_eq!(c.laser_turn_on_cycles(), 64);
    }

    #[test]
    #[should_panic(expected = "at least two clusters")]
    fn degenerate_cluster_count_rejected() {
        let mut c = PearlConfig::pearl();
        c.clusters = 1;
        c.validate();
    }

    #[test]
    fn check_returns_typed_errors() {
        let mut c = PearlConfig::pearl();
        assert_eq!(c.check(), Ok(()));
        c.clusters = 1;
        assert_eq!(c.check(), Err(ConfigError::TooFewClusters { clusters: 1 }));
        c = PearlConfig::pearl();
        c.l3_channels = 0;
        assert_eq!(c.check(), Err(ConfigError::NoL3Channels));
        c = PearlConfig::pearl();
        c.recv_buffer_slots = 2;
        assert_eq!(
            c.check(),
            Err(ConfigError::BufferTooSmall { buffer: "receive", slots: 2, min: 8 })
        );
        c = PearlConfig::pearl();
        c.ejection_packets_per_cycle = 0;
        assert_eq!(c.check(), Err(ConfigError::ZeroEjectionRate));
        c = PearlConfig::pearl();
        c.gpu_outstanding_limit = 0;
        assert_eq!(c.check(), Err(ConfigError::ZeroOutstandingWindow { core: "GPU" }));
        c = PearlConfig::pearl();
        c.laser_turn_on_ns = -1.0;
        assert_eq!(c.check(), Err(ConfigError::InvalidTurnOnTime { ns: -1.0 }));
        c.laser_turn_on_ns = f64::NAN;
        assert!(matches!(c.check(), Err(ConfigError::InvalidTurnOnTime { .. })));
    }

    #[test]
    fn config_error_displays_offending_values() {
        let e = ConfigError::BufferTooSmall { buffer: "CPU", slots: 1, min: 4 };
        assert_eq!(e.to_string(), "CPU buffer too small: 1 slots, minimum 4");
        let boxed: Box<dyn std::error::Error> = Box::new(ConfigError::NoL3Channels);
        assert_eq!(boxed.to_string(), "L3 needs at least one channel");
    }
}
