//! Property-based tests for traffic generation.

use pearl_noc::{CoreType, Cycle, SimRng};
use pearl_workloads::{
    BenchmarkPair, CpuBenchmark, Destination, GpuBenchmark, OnOffInjector, PhaseModulator,
    Responder, TrafficModel, TrafficSource,
};
use proptest::prelude::*;

fn any_pair() -> impl Strategy<Value = BenchmarkPair> {
    (0usize..12, 0usize..12)
        .prop_map(|(c, g)| BenchmarkPair::new(CpuBenchmark::ALL[c], GpuBenchmark::ALL[g]))
}

proptest! {
    /// Generated requests always target valid endpoints and never the
    /// originating cluster.
    #[test]
    fn destinations_are_valid(pair in any_pair(), seed in 0u64..1_000, clusters in 2usize..20) {
        let mut model = TrafficModel::new(pair, clusters, seed);
        for c in 0..2_000 {
            for req in model.step(Cycle(c)) {
                prop_assert!(req.cluster < clusters);
                match req.dst {
                    Destination::Cluster(d) => {
                        prop_assert!(d < clusters);
                        prop_assert_ne!(d, req.cluster);
                    }
                    Destination::L3 => {}
                }
            }
        }
    }

    /// Gating a source really silences it, and only it.
    #[test]
    fn gated_sources_stay_silent(pair in any_pair(), seed in 0u64..1_000) {
        let mut model = TrafficModel::new(pair, 8, seed);
        let mut requests = Vec::new();
        for c in 0..2_000 {
            let gated_cluster = (c % 8) as usize;
            requests.clear();
            model.generate(
                Cycle(c),
                &|cluster, core| cluster == gated_cluster && core == CoreType::Gpu,
                &mut requests,
            );
            for req in &requests {
                prop_assert!(!(req.cluster == gated_cluster && req.core == CoreType::Gpu));
            }
        }
    }

    /// The long-run injection rate of an ON/OFF source stays within 30 %
    /// of the profile's analytic mean.
    #[test]
    fn injector_tracks_profile_mean(cpu in 0usize..12, seed in 0u64..100) {
        let profile = CpuBenchmark::ALL[cpu].profile();
        let phases = PhaseModulator::new(profile.phase_period, profile.phase_depth);
        let mut injector = OnOffInjector::new(profile, SimRng::from_seed(seed), phases);
        let cycles = 300_000u64;
        let total: u64 = (0..cycles).map(|c| u64::from(injector.step(Cycle(c)))).sum();
        let measured = total as f64 / cycles as f64;
        let expected = profile.mean_rate();
        prop_assert!(
            (measured - expected).abs() / expected < 0.3,
            "measured {measured:.4} vs expected {expected:.4}"
        );
    }

    /// Responses always travel src↔dst reversed and arrive with the
    /// requester's core type.
    #[test]
    fn responder_reverses_requests(seed in 0u64..1_000) {
        use pearl_noc::{NodeId, Packet, TrafficClass};
        let mut rng = SimRng::from_seed(seed);
        let responder = Responder::pearl();
        for id in 0..100u64 {
            let core = if rng.chance(0.5) { CoreType::Cpu } else { CoreType::Gpu };
            let (src, dst) = (rng.below(17), rng.below(17));
            let req = Packet::request(
                id, NodeId(src), NodeId(dst), core, TrafficClass::CpuL2Down, Cycle(0),
            );
            let served_by_l3 = rng.chance(0.5);
            let rsp = responder.response_for(&req, id + 1_000, Cycle(10), served_by_l3);
            prop_assert_eq!(rsp.src, req.dst);
            prop_assert_eq!(rsp.dst, req.src);
            prop_assert_eq!(rsp.core, req.core);
            prop_assert_eq!(rsp.kind, pearl_noc::PacketKind::Response);
        }
    }

    /// Traffic generation is deterministic in (pair, seed, gating).
    #[test]
    fn generation_is_deterministic(pair in any_pair(), seed in 0u64..1_000) {
        let mut a = TrafficModel::new(pair, 16, seed);
        let mut b = TrafficModel::new(pair, 16, seed);
        for c in 0..500 {
            prop_assert_eq!(a.step(Cycle(c)), b.step(Cycle(c)));
        }
    }
}
