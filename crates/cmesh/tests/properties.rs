//! Property-based tests for the CMESH baseline.

use pearl_cmesh::{neighbor, xy_route, CmeshBuilder, Direction, FlitSlot, InputVcs, Port};
use pearl_noc::{FlitKind, Grid, NodeId, PacketKind, SimRng};
use pearl_workloads::{BenchmarkPair, CpuBenchmark, GpuBenchmark};
use proptest::prelude::*;

fn any_pair() -> impl Strategy<Value = BenchmarkPair> {
    (0usize..12, 0usize..12)
        .prop_map(|(c, g)| BenchmarkPair::new(CpuBenchmark::ALL[c], GpuBenchmark::ALL[g]))
}

#[test]
fn hooked_run_is_bit_identical_to_plain_run() {
    // Checkpointing between chunks must be an observer: chunking a run
    // and snapshotting at every boundary cannot perturb the state stream.
    let pair = BenchmarkPair::test_pairs()[0];
    let build = || CmeshBuilder::new().seed(5).build(pair);
    let mut plain = build();
    let plain_summary = plain.run(4_000);

    let mut hooked = build();
    let mut hook_cycles = Vec::new();
    let mut remaining = 4_000u64;
    let mut hooked_summary = None;
    while remaining > 0 {
        let chunk = remaining.min(1_500);
        hooked_summary = Some(hooked.run(chunk));
        remaining -= chunk;
        hook_cycles.push(hooked.stats().cycles());
        let _ = hooked.snapshot();
    }
    let hooked_summary = hooked_summary.expect("at least one chunk ran");
    assert_eq!(hook_cycles, vec![1_500, 3_000, 4_000]);
    assert_eq!(plain.state_hash(), hooked.state_hash());
    assert_eq!(plain_summary.delivered_flits, hooked_summary.delivered_flits);
    assert_eq!(plain_summary.energy_per_bit_j.to_bits(), hooked_summary.energy_per_bit_j.to_bits());
}

proptest! {
    // CMESH runs are comparatively slow; bound the case count so the
    // suite stays quick in debug builds.
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// XY routing reaches any destination on any rectangular grid in
    /// exactly the Manhattan distance.
    #[test]
    fn xy_route_is_minimal(w in 2usize..6, h in 2usize..6, s in 0usize..36, d in 0usize..36) {
        let grid = Grid::new(w, h);
        let src = NodeId(s % grid.len());
        let dst = NodeId(d % grid.len());
        let mut here = src;
        let mut hops = 0;
        loop {
            match xy_route(grid, here, dst) {
                Port::Local => break,
                Port::Mesh(dir) => {
                    here = neighbor(grid, here, dir).expect("route stays on grid");
                    hops += 1;
                    prop_assert!(hops <= w + h, "non-terminating route");
                }
            }
        }
        prop_assert_eq!(here, dst);
        prop_assert_eq!(hops, grid.hops(src, dst));
    }

    /// Neighbor relations are symmetric: going `dir` then `dir.opposite()`
    /// returns to the start.
    #[test]
    fn neighbors_are_symmetric(w in 2usize..6, h in 2usize..6, n in 0usize..36) {
        let grid = Grid::new(w, h);
        let node = NodeId(n % grid.len());
        for dir in Direction::ALL {
            if let Some(next) = neighbor(grid, node, dir) {
                prop_assert_eq!(neighbor(grid, next, dir.opposite()), Some(node));
            }
        }
    }

    /// A short CMESH run conserves packets and produces finite metrics
    /// for any workload and seed.
    #[test]
    fn cmesh_short_runs_are_sane(pair in any_pair(), seed in 0u64..300) {
        let mut net = CmeshBuilder::new().seed(seed).build(pair);
        let s = net.run(2_000);
        let stats = net.stats();
        prop_assert_eq!(
            stats.total_injected_packets(),
            stats.total_delivered_packets() + net.in_network_packets()
        );
        prop_assert!(s.throughput_flits_per_cycle.is_finite());
        prop_assert!(s.delivered_bits % 128 == 0, "bits are whole flits");
        prop_assert!(s.avg_power_w > 0.0);
    }

    /// Determinism: identical (pair, seed) produce identical deliveries.
    #[test]
    fn cmesh_is_deterministic(pair in any_pair(), seed in 0u64..300) {
        let a = CmeshBuilder::new().seed(seed).build(pair).run(1_500);
        let b = CmeshBuilder::new().seed(seed).build(pair).run(1_500);
        prop_assert_eq!(a.delivered_flits, b.delivered_flits);
        prop_assert_eq!(a.injection_stalls, b.injection_stalls);
    }
}

proptest! {
    /// A virtual channel never interleaves two packets' flits: replaying
    /// its accepted stream must always parse as whole packets.
    #[test]
    fn vc_never_interleaves(seed in 0u64..1_000) {
        let mut rng = SimRng::from_seed(seed);
        let mut vc = InputVcs::new(1, 64);
        let lengths: Vec<u16> = (0..6)
            .map(|_| if rng.chance(0.5) { PacketKind::Request } else { PacketKind::Response })
            .map(|kind| kind.flits() as u16)
            .collect();
        // Offer flits from all packets in random order; the VC must only
        // accept non-interleaved sequences.
        let mut streams: Vec<Vec<FlitSlot>> = lengths
            .iter()
            .zip(0..)
            .map(|(&n, pkt)| {
                let flit = |index: u16| FlitSlot { pkt, index, kind: FlitKind::of(index.into(), n.into()) };
                (0..n).map(flit).collect()
            })
            .collect();
        let mut accepted = Vec::new();
        for _ in 0..200 {
            let live: Vec<usize> =
                (0..streams.len()).filter(|&s| !streams[s].is_empty()).collect();
            if live.is_empty() {
                break;
            }
            let s = *rng.choose(&live);
            if vc.try_accept(0, streams[s][0]).is_ok() {
                accepted.push(streams[s].remove(0));
            }
        }
        // Replay: every accepted run must be head..tail of one packet.
        let mut current: Option<u32> = None;
        for f in &accepted {
            match current {
                None => {
                    prop_assert!(f.kind.is_head());
                    if !f.kind.is_tail() {
                        current = Some(f.pkt);
                    }
                }
                Some(pkt) => {
                    prop_assert_eq!(f.pkt, pkt);
                    prop_assert!(!f.kind.is_head());
                    if f.kind.is_tail() {
                        current = None;
                    }
                }
            }
        }
    }
}
