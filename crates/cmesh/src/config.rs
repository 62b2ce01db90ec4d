//! CMESH configuration.

use pearl_noc::Frequency;
use pearl_workloads::Responder;

/// Structural parameters of the CMESH baseline.
///
/// Endpoint-side parameters (issue windows, service latencies, stall
/// threshold) mirror the PEARL simulator's so the two networks face the
/// same workload dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmeshConfig {
    /// Mesh width (and height — the paper's layout is square).
    pub width: usize,
    /// Virtual channels per input port (paper: 4).
    pub vcs_per_port: usize,
    /// Buffer slots per VC in 128-bit flits (paper: 4).
    pub slots_per_vc: usize,
    /// Network clock (GHz).
    pub network_ghz: f64,
    /// Cycles a mesh link needs per flit (1 = full-width 128-bit links;
    /// 2 and 4 emulate the proportionally bandwidth-reduced CMESH
    /// variants the paper compares against PEARL's 32 and 16 WL points
    /// in Fig. 5).
    pub link_cycles_per_flit: u64,
    /// Router node indices hosting the two L3/MC slices.
    pub l3_nodes: [usize; 2],
    /// Width of the L3 slices' local interface in flits per cycle — the
    /// on-die SRAM macro talks to its router over a wide (512-bit) port,
    /// unlike a cluster's 128-bit core interface.
    pub l3_local_width: u32,
    /// Outstanding-miss window of a cluster's CPU cores.
    pub cpu_outstanding_limit: u32,
    /// Outstanding-miss window of a cluster's GPU CUs.
    pub gpu_outstanding_limit: u32,
    /// Issue backlog capacity per core type, in packets.
    pub backlog_packets: usize,
    /// Backlog length at which a core counts as stalled.
    pub stall_backlog: usize,
    /// Endpoint service model (same as PEARL's).
    pub responder: Responder,
}

impl CmeshConfig {
    /// The paper's baseline at a bandwidth fraction `1/k` (k = 1, 2, 4
    /// for the 64/32/16 WL-equivalent points of Fig. 5). Narrower links
    /// shed the width-proportional share of static power; a fixed 40 %
    /// (clock tree, control) remains.
    pub fn bandwidth_reduced(k: u64) -> CmeshConfig {
        let mut config = CmeshConfig::pearl_baseline();
        config.link_cycles_per_flit = k;
        config
    }

    /// Static-power fraction retained at this bandwidth reduction.
    pub fn static_power_fraction(&self) -> f64 {
        0.4 + 0.6 / self.link_cycles_per_flit as f64
    }

    /// The paper's baseline: 4×4, 4 VCs × 4 slots, 2 GHz, L3 slices at
    /// the two central routers of the middle rows.
    pub fn pearl_baseline() -> CmeshConfig {
        CmeshConfig {
            width: 4,
            vcs_per_port: 4,
            slots_per_vc: 4,
            network_ghz: 2.0,
            link_cycles_per_flit: 1,
            l3_nodes: [5, 10],
            l3_local_width: 4,
            cpu_outstanding_limit: 8,
            gpu_outstanding_limit: 128,
            backlog_packets: 64,
            stall_backlog: 8,
            responder: Responder::pearl(),
        }
    }

    /// Number of cluster routers.
    pub fn clusters(&self) -> usize {
        self.width * self.width
    }

    /// The network clock.
    pub fn network_clock(&self) -> Frequency {
        Frequency::from_ghz(self.network_ghz)
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics when a field is out of range.
    pub fn validate(&self) {
        assert!(self.width >= 2, "mesh must be at least 2x2");
        assert!(self.vcs_per_port >= 1, "need at least one VC");
        // A router's occupancy mask holds one bit per (port, VC) in a u64.
        assert!(self.vcs_per_port <= 12, "at most 12 VCs per port (5 ports x VCs <= 64 mask bits)");
        assert!(self.slots_per_vc >= 1, "VCs need at least one slot");
        // A VC ring keeps its head position and length in a u16, and a
        // credit count is at most the slots per VC.
        assert!(
            self.slots_per_vc <= usize::from(u16::MAX),
            "at most 65535 slots per VC (VC ring positions are u16)"
        );
        assert!(
            self.l3_nodes.iter().all(|&n| n < self.clusters()),
            "L3 nodes {:?} outside the {}x{} mesh",
            self.l3_nodes,
            self.width,
            self.width
        );
        assert_ne!(self.l3_nodes[0], self.l3_nodes[1], "L3 slices must differ");
        assert!(self.l3_local_width >= 1, "L3 local width must be ≥ 1");
        assert!(self.link_cycles_per_flit >= 1, "link rate must be ≥ 1 cycle per flit");
        assert!(self.cpu_outstanding_limit >= 1 && self.gpu_outstanding_limit >= 1);
        assert!(self.stall_backlog <= self.backlog_packets);
    }
}

impl Default for CmeshConfig {
    fn default() -> Self {
        CmeshConfig::pearl_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_router_spec() {
        let c = CmeshConfig::pearl_baseline();
        c.validate();
        assert_eq!(c.vcs_per_port, 4);
        assert_eq!(c.slots_per_vc, 4);
        assert_eq!(c.clusters(), 16);
        assert!((c.network_clock().as_ghz() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn duplicate_l3_nodes_rejected() {
        let mut c = CmeshConfig::pearl_baseline();
        c.l3_nodes = [5, 5];
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at most 12 VCs")]
    fn too_many_vcs_for_the_occupancy_mask_rejected() {
        let mut c = CmeshConfig::pearl_baseline();
        c.vcs_per_port = 13;
        c.validate();
    }

    #[test]
    fn twelve_vcs_fill_the_occupancy_mask() {
        let mut c = CmeshConfig::pearl_baseline();
        c.vcs_per_port = 12;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at most 65535 slots per VC")]
    fn too_many_slots_for_the_ring_positions_rejected() {
        let mut c = CmeshConfig::pearl_baseline();
        c.slots_per_vc = 65_536;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_l3_rejected() {
        let mut c = CmeshConfig::pearl_baseline();
        c.l3_nodes = [5, 99];
        c.validate();
    }
}
