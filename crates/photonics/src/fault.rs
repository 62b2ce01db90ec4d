//! Seeded, deterministic fault injection for the photonic substrate.
//!
//! The paper assumes a perfect photonic layer; real silicon-photonic
//! NoCs lose individual wavelength channels when ring trimming fails to
//! track thermal drift, lose whole laser banks to aging, and corrupt
//! in-flight flits transiently (PROTEUS-style loss-aware adaptation is
//! built on exactly these fault classes). This module models all three:
//!
//! 1. **Wavelength-channel faults** — individual λs knocked out of a
//!    router's waveguide group, with an optional repair (re-trim)
//!    process. A faulted λ shrinks the *effective* wavelength state the
//!    network can use (see [`FaultModel::effective_state`]).
//! 2. **Laser degradation** — the maximum usable [`WavelengthState`]
//!    of a router's laser bank ratchets down (and may recover).
//! 3. **Transient flit corruption** — a per-packet corruption
//!    probability driving the network's CRC + retransmission path.
//!
//! ## Determinism contract
//!
//! The model owns two private RNG streams derived from
//! [`FaultConfig::seed`]: one for structural faults (λ and laser), one
//! for corruption. Structural draws happen at a fixed rate — exactly
//! [`DRAWS_PER_ROUTER_CYCLE`] draws per router per [`FaultModel::step`]
//! — regardless of outcomes, so runs with the *same seed but different
//! fault rates* see aligned event streams: raising a rate strictly
//! grows the set of injected faults. Corruption draws happen only per
//! queried packet and live on their own stream so traffic-dependent
//! query counts cannot perturb the structural schedule.
//!
//! When the configuration is [`FaultConfig::off`] (all rates zero) the
//! model draws **nothing** and mutates **nothing**, so a fault-free run
//! is bit-identical to one with no fault model at all.

use crate::wavelength::WavelengthState;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Structural RNG draws consumed per router per cycle (fixed so streams
/// stay aligned across fault-rate sweeps with a shared seed).
pub const DRAWS_PER_ROUTER_CYCLE: u32 = 4;

/// A λ can never take the channel below the W8 floor: at most
/// `64 - 8 = 56` of a router's 64 wavelengths may be failed at once.
/// This is the liveness guarantee — a fully-faulted waveguide still
/// carries a degraded (W8) channel rather than going dark.
pub const MAX_FAILED_LAMBDAS: u32 = 56;

/// Stream salt separating corruption draws from structural draws.
const CORRUPTION_SEED_SALT: u64 = 0x000F_A017_C044_u64;

/// Fault-injection rates and seeding.
///
/// All rates are per-cycle (or per-packet for corruption) Bernoulli
/// probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-router, per-cycle probability that one λ fails (ring
    /// trimming loses its channel).
    pub lambda_fail_per_cycle: f64,
    /// Per-router, per-cycle probability that one failed λ is repaired
    /// (re-trimmed onto its channel).
    pub lambda_repair_per_cycle: f64,
    /// Per-router, per-cycle probability that the laser ceiling drops
    /// one wavelength state (bank degradation).
    pub laser_degrade_per_cycle: f64,
    /// Per-router, per-cycle probability that a degraded laser ceiling
    /// recovers one state.
    pub laser_recover_per_cycle: f64,
    /// Per-packet probability of transient corruption in flight.
    pub corruption_per_packet: f64,
    /// Seed for the model's private RNG streams.
    pub seed: u64,
}

impl FaultConfig {
    /// The fault-free configuration: no faults, no RNG draws, and
    /// therefore bit-identical behaviour to a build without the fault
    /// layer.
    pub const fn off() -> FaultConfig {
        FaultConfig {
            lambda_fail_per_cycle: 0.0,
            lambda_repair_per_cycle: 0.0,
            laser_degrade_per_cycle: 0.0,
            laser_recover_per_cycle: 0.0,
            corruption_per_packet: 0.0,
            seed: 0,
        }
    }

    /// A uniform profile: λ faults at `rate`, repairs at a tenth of it,
    /// laser degradation at a hundredth, and corruption at `rate` per
    /// packet. The single knob used by the `faultsweep` harness.
    pub fn uniform(rate: f64, seed: u64) -> FaultConfig {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        FaultConfig {
            lambda_fail_per_cycle: rate,
            lambda_repair_per_cycle: rate * 0.1,
            laser_degrade_per_cycle: rate * 0.01,
            laser_recover_per_cycle: rate * 0.001,
            corruption_per_packet: rate,
            seed,
        }
    }

    /// Derives λ-fault rates from a [`crate::ThermalModel`] and the
    /// worst-case ambient swing the trimming loop must absorb: as the
    /// swing approaches the channel-crosstalk excursion
    /// ([`crate::ThermalModel::channel_crosstalk_excursion_k`]), rings
    /// start losing their channels. The quadratic shape keeps faults
    /// negligible for well-regulated dies and grows them sharply near
    /// the excursion limit.
    pub fn from_thermal(
        thermal: &crate::ThermalModel,
        ambient_swing_k: f64,
        seed: u64,
    ) -> FaultConfig {
        assert!(ambient_swing_k >= 0.0, "ambient swing must be non-negative");
        let excursion = thermal.channel_crosstalk_excursion_k();
        let stress = (ambient_swing_k / excursion).min(1.0);
        let lambda_rate = 1e-4 * stress * stress;
        FaultConfig {
            lambda_fail_per_cycle: lambda_rate,
            // Re-trimming succeeds more readily than channels are lost.
            lambda_repair_per_cycle: lambda_rate * 5.0,
            laser_degrade_per_cycle: lambda_rate * 0.01,
            laser_recover_per_cycle: lambda_rate * 0.05,
            // Marginal trimming also costs bit errors in flight.
            corruption_per_packet: 1e-3 * stress,
            seed,
        }
    }

    /// True when any fault class has a nonzero rate.
    pub fn is_enabled(&self) -> bool {
        self.lambda_fail_per_cycle > 0.0
            || self.lambda_repair_per_cycle > 0.0
            || self.laser_degrade_per_cycle > 0.0
            || self.laser_recover_per_cycle > 0.0
            || self.corruption_per_packet > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

/// Fault state of one router's photonic resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RouterFaults {
    /// λs currently failed out of the 64-λ waveguide group.
    failed_lambdas: u32,
    /// Maximum state the degraded laser bank can still reach.
    laser_ceiling: WavelengthState,
}

impl RouterFaults {
    const fn pristine() -> RouterFaults {
        RouterFaults { failed_lambdas: 0, laser_ceiling: WavelengthState::W64 }
    }
}

/// One discrete structural fault event, handed to the caller of
/// [`FaultModel::step`] as it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// One λ knocked out of the waveguide group.
    LambdaFail,
    /// One failed λ re-trimmed back into service.
    LambdaRepair,
    /// Laser ceiling dropped one wavelength state.
    LaserDegrade,
    /// Laser ceiling recovered one wavelength state.
    LaserRecover,
}

impl FaultEventKind {
    /// Every event kind, in a stable order.
    pub const ALL: [FaultEventKind; 4] = [
        FaultEventKind::LambdaFail,
        FaultEventKind::LambdaRepair,
        FaultEventKind::LaserDegrade,
        FaultEventKind::LaserRecover,
    ];
}

/// Cumulative fault-event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// λ channels knocked out.
    pub lambda_failures: u64,
    /// λ channels re-trimmed back into service.
    pub lambda_repairs: u64,
    /// Laser-ceiling downgrade events.
    pub laser_degradations: u64,
    /// Laser-ceiling recovery events.
    pub laser_recoveries: u64,
    /// Packets flagged corrupted.
    pub corrupted_packets: u64,
}

/// Complete dynamic state of a [`FaultModel`], for checkpointing. The
/// configuration is static (validated separately via the checkpoint's
/// config fingerprint) and is not part of the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModelState {
    /// Per-router `(failed λs, laser ceiling)`.
    pub routers: Vec<(u32, WavelengthState)>,
    /// Structural RNG `(state words, draws)`.
    pub structural_rng: ([u64; 4], u64),
    /// Corruption RNG `(state words, draws)`.
    pub corruption_rng: ([u64; 4], u64),
    /// Cumulative event counters.
    pub stats: FaultStats,
}

/// Deterministic, seeded fault injector for a set of routers.
#[derive(Debug, Clone)]
pub struct FaultModel {
    config: FaultConfig,
    routers: Vec<RouterFaults>,
    structural_rng: SmallRng,
    corruption_rng: SmallRng,
    stats: FaultStats,
}

impl FaultModel {
    /// Creates a fault model for `routers` routers.
    pub fn new(config: FaultConfig, routers: usize) -> FaultModel {
        FaultModel {
            config,
            routers: vec![RouterFaults::pristine(); routers],
            structural_rng: SmallRng::seed_from_u64(config.seed),
            corruption_rng: SmallRng::seed_from_u64(config.seed ^ CORRUPTION_SEED_SALT),
            stats: FaultStats::default(),
        }
    }

    /// A fault model that injects nothing and draws nothing.
    pub fn disabled(routers: usize) -> FaultModel {
        FaultModel::new(FaultConfig::off(), routers)
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when any fault class is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.config.is_enabled()
    }

    /// Cumulative event counters.
    #[inline]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Currently failed λs on `router`'s waveguide group.
    #[inline]
    pub fn failed_lambdas(&self, router: usize) -> u32 {
        self.routers[router].failed_lambdas
    }

    /// Current laser ceiling of `router` (W64 when undegraded).
    #[inline]
    pub fn laser_ceiling(&self, router: usize) -> WavelengthState {
        self.routers[router].laser_ceiling
    }

    /// Advances the structural fault processes by one cycle, handing
    /// each structural event (λ and laser, never corruption draws) to
    /// `on_event` with its router, in injection order. What the caller
    /// does with an event cannot reach the RNG streams or fault state.
    ///
    /// Draws exactly [`DRAWS_PER_ROUTER_CYCLE`] random values per
    /// router when enabled and **zero** when disabled.
    pub fn step(&mut self, mut on_event: impl FnMut(usize, FaultEventKind)) {
        if !self.is_enabled() {
            return;
        }
        let cfg = self.config;
        for (i, router) in self.routers.iter_mut().enumerate() {
            let fail: f64 = self.structural_rng.gen();
            if fail < cfg.lambda_fail_per_cycle && router.failed_lambdas < MAX_FAILED_LAMBDAS {
                router.failed_lambdas += 1;
                self.stats.lambda_failures += 1;
                on_event(i, FaultEventKind::LambdaFail);
            }
            let repair: f64 = self.structural_rng.gen();
            if repair < cfg.lambda_repair_per_cycle && router.failed_lambdas > 0 {
                router.failed_lambdas -= 1;
                self.stats.lambda_repairs += 1;
                on_event(i, FaultEventKind::LambdaRepair);
            }
            let degrade: f64 = self.structural_rng.gen();
            if degrade < cfg.laser_degrade_per_cycle && router.laser_ceiling > WavelengthState::W8 {
                router.laser_ceiling = router.laser_ceiling.step_down();
                self.stats.laser_degradations += 1;
                on_event(i, FaultEventKind::LaserDegrade);
            }
            let recover: f64 = self.structural_rng.gen();
            if recover < cfg.laser_recover_per_cycle && router.laser_ceiling < WavelengthState::W64
            {
                router.laser_ceiling = router.laser_ceiling.step_up();
                self.stats.laser_recoveries += 1;
                on_event(i, FaultEventKind::LaserRecover);
            }
        }
    }

    /// The state `router` can actually use when its laser offers
    /// `nominal`: capped by the degraded laser ceiling, then shrunk to
    /// the largest state whose λ count survives the failed channels.
    /// Never drops below [`WavelengthState::W8`] — the W8 floor is the
    /// liveness guarantee under total waveguide failure.
    pub fn effective_state(&self, router: usize, nominal: WavelengthState) -> WavelengthState {
        let faults = &self.routers[router];
        let capped = nominal.min(faults.laser_ceiling);
        if faults.failed_lambdas == 0 {
            return capped;
        }
        // Faults strike the full 64-λ waveguide group; the usable λ
        // count is whatever survives, further capped by the request.
        let surviving = 64u32.saturating_sub(faults.failed_lambdas).min(capped.wavelengths());
        WavelengthState::ALL
            .into_iter()
            .rev()
            .find(|s| s.wavelengths() <= surviving)
            .unwrap_or(WavelengthState::W8)
    }

    /// Captures the complete dynamic state for a checkpoint.
    pub fn export_state(&self) -> FaultModelState {
        FaultModelState {
            routers: self.routers.iter().map(|r| (r.failed_lambdas, r.laser_ceiling)).collect(),
            structural_rng: (self.structural_rng.state(), self.structural_rng.draws()),
            corruption_rng: (self.corruption_rng.state(), self.corruption_rng.draws()),
            stats: self.stats,
        }
    }

    /// Restores state captured by [`Self::export_state`] onto a model
    /// built from the identical configuration.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's router count differs from this model's —
    /// that indicates a configuration mismatch the caller should have
    /// caught via the checkpoint fingerprint.
    pub fn import_state(&mut self, state: &FaultModelState) {
        assert_eq!(state.routers.len(), self.routers.len(), "fault snapshot router count mismatch");
        self.routers = state
            .routers
            .iter()
            .map(|&(failed_lambdas, laser_ceiling)| RouterFaults { failed_lambdas, laser_ceiling })
            .collect();
        self.structural_rng = SmallRng::from_state(state.structural_rng.0, state.structural_rng.1);
        self.corruption_rng = SmallRng::from_state(state.corruption_rng.0, state.corruption_rng.1);
        self.stats = state.stats;
    }

    /// Decides whether one in-flight packet is corrupted. Draws from
    /// the corruption stream only when the corruption rate is nonzero.
    pub fn corrupts_packet(&mut self) -> bool {
        if self.config.corruption_per_packet <= 0.0 {
            return false;
        }
        let corrupted = self.corruption_rng.gen_bool(self.config.corruption_per_packet);
        if corrupted {
            self.stats.corrupted_packets += 1;
        }
        corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_never_mutates() {
        let mut m = FaultModel::disabled(16);
        for _ in 0..10_000 {
            m.step(|_, _| {});
            assert!(!m.corrupts_packet());
        }
        for r in 0..16 {
            assert_eq!(m.failed_lambdas(r), 0);
            assert_eq!(m.laser_ceiling(r), WavelengthState::W64);
            assert_eq!(m.effective_state(r, WavelengthState::W64), WavelengthState::W64);
        }
        assert_eq!(*m.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_trajectory() {
        let cfg = FaultConfig::uniform(0.01, 42);
        let mut a = FaultModel::new(cfg, 8);
        let mut b = FaultModel::new(cfg, 8);
        for _ in 0..5_000 {
            a.step(|_, _| {});
            b.step(|_, _| {});
        }
        for r in 0..8 {
            assert_eq!(a.failed_lambdas(r), b.failed_lambdas(r));
            assert_eq!(a.laser_ceiling(r), b.laser_ceiling(r));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn higher_rate_injects_superset_of_faults() {
        // Shared seed + fixed draw schedule: every fault injected at the
        // low rate is also injected at the high rate (with repairs off).
        let low = FaultConfig {
            lambda_fail_per_cycle: 1e-3,
            ..FaultConfig { seed: 7, ..FaultConfig::off() }
        };
        let high = FaultConfig { lambda_fail_per_cycle: 1e-2, ..low };
        let mut a = FaultModel::new(low, 4);
        let mut b = FaultModel::new(high, 4);
        for _ in 0..20_000 {
            a.step(|_, _| {});
            b.step(|_, _| {});
            for r in 0..4 {
                assert!(b.failed_lambdas(r) >= a.failed_lambdas(r));
            }
        }
        assert!(b.stats().lambda_failures > a.stats().lambda_failures);
    }

    #[test]
    fn effective_state_respects_failed_lambdas_and_floor() {
        let mut m = FaultModel::disabled(1);
        // Reach into state via the fault processes: drive failures with
        // probability 1 so the count is deterministic.
        m.config.lambda_fail_per_cycle = 1.0;
        for _ in 0..20 {
            m.step(|_, _| {});
        }
        assert_eq!(m.failed_lambdas(0), 20);
        // 64 − 20 = 44 surviving λs → largest state ≤ 44 is W32.
        assert_eq!(m.effective_state(0, WavelengthState::W64), WavelengthState::W32);
        // A low nominal state passes through when it fits.
        assert_eq!(m.effective_state(0, WavelengthState::W16), WavelengthState::W16);
        for _ in 0..100 {
            m.step(|_, _| {});
        }
        // Saturates at MAX_FAILED_LAMBDAS; the W8 floor survives.
        assert_eq!(m.failed_lambdas(0), MAX_FAILED_LAMBDAS);
        assert_eq!(m.effective_state(0, WavelengthState::W64), WavelengthState::W8);
        assert_eq!(m.effective_state(0, WavelengthState::W8), WavelengthState::W8);
    }

    #[test]
    fn laser_ceiling_caps_effective_state() {
        let mut m = FaultModel::disabled(1);
        m.config.laser_degrade_per_cycle = 1.0;
        m.step(|_, _| {});
        m.step(|_, _| {});
        assert_eq!(m.laser_ceiling(0), WavelengthState::W32);
        assert_eq!(m.effective_state(0, WavelengthState::W64), WavelengthState::W32);
        // Ceiling bottoms out at W8, never below.
        for _ in 0..10 {
            m.step(|_, _| {});
        }
        assert_eq!(m.laser_ceiling(0), WavelengthState::W8);
    }

    #[test]
    fn repairs_pull_failures_back_down() {
        let mut m = FaultModel::disabled(1);
        m.config.lambda_fail_per_cycle = 1.0;
        for _ in 0..10 {
            m.step(|_, _| {});
        }
        m.config.lambda_fail_per_cycle = 0.0;
        m.config.lambda_repair_per_cycle = 1.0;
        for _ in 0..10 {
            m.step(|_, _| {});
        }
        assert_eq!(m.failed_lambdas(0), 0);
        assert_eq!(m.stats().lambda_repairs, 10);
        assert_eq!(m.effective_state(0, WavelengthState::W64), WavelengthState::W64);
    }

    #[test]
    fn corruption_rate_extremes() {
        let mut never =
            FaultModel::new(FaultConfig { corruption_per_packet: 0.0, ..FaultConfig::off() }, 1);
        let mut always = FaultModel::new(
            FaultConfig { corruption_per_packet: 1.0, seed: 3, ..FaultConfig::off() },
            1,
        );
        for _ in 0..1_000 {
            assert!(!never.corrupts_packet());
            assert!(always.corrupts_packet());
        }
        assert_eq!(always.stats().corrupted_packets, 1_000);
    }

    #[test]
    fn event_log_matches_counters_and_is_opt_in() {
        // Events reach only a caller that collects them, and collecting
        // them leaves no trace in the model.
        let cfg = FaultConfig::uniform(0.05, 11);
        let mut silent = FaultModel::new(cfg, 4);
        let mut logged = FaultModel::new(cfg, 4);
        let mut events = Vec::new();
        for _ in 0..2_000 {
            silent.step(|_, _| {});
            logged.step(|router, kind| events.push((router, kind)));
        }
        // Collecting must not perturb the fault trajectory or state.
        for r in 0..4 {
            assert_eq!(silent.failed_lambdas(r), logged.failed_lambdas(r));
            assert_eq!(silent.laser_ceiling(r), logged.laser_ceiling(r));
        }
        assert_eq!(silent.stats(), logged.stats());
        assert_eq!(silent.export_state(), logged.export_state());
        // Event counts reconcile exactly with the cumulative counters.
        let count = |k: FaultEventKind| events.iter().filter(|(_, kind)| *kind == k).count() as u64;
        assert_eq!(count(FaultEventKind::LambdaFail), logged.stats().lambda_failures);
        assert_eq!(count(FaultEventKind::LambdaRepair), logged.stats().lambda_repairs);
        assert_eq!(count(FaultEventKind::LaserDegrade), logged.stats().laser_degradations);
        assert_eq!(count(FaultEventKind::LaserRecover), logged.stats().laser_recoveries);
        assert!(!events.is_empty());
        assert!(events.iter().all(|&(router, _)| router < 4));
    }

    #[test]
    fn thermal_derivation_scales_with_stress() {
        let t = crate::ThermalModel::soi();
        let mild = FaultConfig::from_thermal(&t, 0.1, 1);
        let harsh = FaultConfig::from_thermal(&t, 5.0, 1);
        assert!(mild.lambda_fail_per_cycle < harsh.lambda_fail_per_cycle);
        assert!(harsh.is_enabled());
        // Stress saturates at the crosstalk excursion.
        let beyond = FaultConfig::from_thermal(&t, 100.0, 1);
        assert!((beyond.lambda_fail_per_cycle - 1e-4).abs() < 1e-12);
    }
}
