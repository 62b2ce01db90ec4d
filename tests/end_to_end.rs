//! Cross-crate integration tests: the full PEARL stack against the full
//! CMESH stack on identical workloads, the complete ML training
//! pipeline at reduced scale, and the `pearl-sim` front end.

use pearl::prelude::*;

const CYCLES: u64 = 20_000;

fn run_pearl(policy: PearlPolicy, pair: BenchmarkPair, seed: u64) -> RunSummary {
    NetworkBuilder::new().policy(policy).seed(seed).build(pair).run(CYCLES)
}

#[test]
fn pearl_outperforms_cmesh_on_every_test_pair_group() {
    // Averaged over four representative pairs to keep test time small.
    let pairs = &BenchmarkPair::test_pairs()[..4];
    let mut pearl_total = 0.0;
    let mut cmesh_total = 0.0;
    for (i, &pair) in pairs.iter().enumerate() {
        let seed = 500 + i as u64;
        pearl_total += run_pearl(PearlPolicy::dyn_64wl(), pair, seed).throughput_flits_per_cycle;
        cmesh_total +=
            CmeshBuilder::new().seed(seed).build(pair).run(CYCLES).throughput_flits_per_cycle;
    }
    assert!(
        pearl_total > cmesh_total * 1.1,
        "PEARL {pearl_total:.2} should clearly beat CMESH {cmesh_total:.2}"
    );
}

#[test]
fn photonic_energy_per_bit_beats_electrical() {
    let pair = BenchmarkPair::test_pairs()[0];
    let pearl = run_pearl(PearlPolicy::dyn_64wl(), pair, 1);
    let cmesh = CmeshBuilder::new().seed(1).build(pair).run(CYCLES);
    assert!(
        pearl.energy_per_bit_j < cmesh.energy_per_bit_j,
        "photonic {:.1} pJ/bit vs electrical {:.1} pJ/bit",
        pearl.energy_per_bit_j * 1e12,
        cmesh.energy_per_bit_j * 1e12
    );
}

#[test]
fn reactive_power_scaling_trades_throughput_for_power() {
    let pair = BenchmarkPair::test_pairs()[5];
    let baseline = run_pearl(PearlPolicy::dyn_64wl(), pair, 2);
    let scaled = run_pearl(PearlPolicy::reactive(500), pair, 2);
    assert!(scaled.power_saving_vs(&baseline) > 0.2, "expected >20% laser savings");
    assert!(scaled.throughput_vs(&baseline) > 0.75, "lost too much throughput");
}

#[test]
fn ml_pipeline_trains_and_deploys_end_to_end() {
    // Reduced-scale trainer: short collections keep this test fast while
    // still exercising both passes and λ selection.
    let trainer = MlTrainer {
        window: 500,
        cycles_per_pair: 4_000,
        seed: 9,
        guard: 1.0,
        expansion: None,
        jobs: 2,
    };
    let model = trainer.train().expect("training succeeds");
    assert!(model.validation_nrmse > 0.0, "model should beat the mean predictor");
    assert!(model.training_samples > 1_000);

    let pair = BenchmarkPair::test_pairs()[0];
    let baseline = run_pearl(PearlPolicy::dyn_64wl(), pair, 3);
    let scaled = run_pearl(PearlPolicy::ml(500, model.scaler, true), pair, 3);
    assert!(scaled.power_saving_vs(&baseline) > 0.1, "ML scaling should save laser power");
    assert!(scaled.throughput_vs(&baseline) > 0.6);
}

#[test]
fn identical_seeds_give_identical_results_across_the_stack() {
    let pair = BenchmarkPair::test_pairs()[7];
    let a = run_pearl(PearlPolicy::reactive(500), pair, 11);
    let b = run_pearl(PearlPolicy::reactive(500), pair, 11);
    assert_eq!(a.delivered_flits, b.delivered_flits);
    assert_eq!(a.laser_transitions, b.laser_transitions);
    let ca = CmeshBuilder::new().seed(11).build(pair).run(CYCLES);
    let cb = CmeshBuilder::new().seed(11).build(pair).run(CYCLES);
    assert_eq!(ca.delivered_flits, cb.delivered_flits);
}

#[test]
fn fcfs_hurts_cpu_latency_relative_to_dba() {
    let pair = BenchmarkPair::new(CpuBenchmark::X264, GpuBenchmark::Reduction);
    let dyn_ = run_pearl(PearlPolicy::dyn_64wl(), pair, 4);
    let fcfs = run_pearl(PearlPolicy::fcfs_64wl(), pair, 4);
    assert!(
        fcfs.avg_latency_cpu > dyn_.avg_latency_cpu,
        "FCFS CPU latency {:.1} should exceed DBA's {:.1}",
        fcfs.avg_latency_cpu,
        dyn_.avg_latency_cpu
    );
}

#[test]
fn conservation_packets_delivered_not_exceeding_injected() {
    for (i, &pair) in BenchmarkPair::test_pairs().iter().take(3).enumerate() {
        let s = run_pearl(PearlPolicy::dyn_64wl(), pair, 40 + i as u64);
        let injected = s.injected_cpu_packets + s.injected_gpu_packets;
        assert!(s.delivered_packets <= injected);
        // The network should not be sitting on most of its traffic.
        assert!(
            s.delivered_packets as f64 > injected as f64 * 0.5,
            "delivered {} of {injected}",
            s.delivered_packets
        );
    }
}

#[test]
fn lower_static_wavelength_states_reduce_both_power_and_capacity() {
    let pair = BenchmarkPair::test_pairs()[2];
    let w64 = run_pearl(PearlPolicy::dyn_64wl(), pair, 5);
    let w32 = run_pearl(PearlPolicy::dyn_static(WavelengthState::W32), pair, 5);
    let w16 = run_pearl(PearlPolicy::dyn_static(WavelengthState::W16), pair, 5);
    assert!(w32.avg_laser_power_w < w64.avg_laser_power_w);
    assert!(w16.avg_laser_power_w < w32.avg_laser_power_w);
    assert!(w16.throughput_flits_per_cycle <= w32.throughput_flits_per_cycle);
    assert!(w32.throughput_flits_per_cycle <= w64.throughput_flits_per_cycle * 1.001);
}

#[test]
fn residency_accounts_every_router_cycle() {
    let pair = BenchmarkPair::test_pairs()[9];
    let s = run_pearl(PearlPolicy::reactive(2000), pair, 6);
    // 17 routers × CYCLES cycles of laser residency.
    assert_eq!(s.residency.total_cycles(), 17 * CYCLES);
}

#[test]
fn pearl_sim_rejects_bad_input_with_a_message() {
    let cases: [&[&str]; 7] = [
        &["--timeline", "0"],
        &["--turn-on", "-5"],
        &["--turn-on", "nan"],
        &["--policy", "fine:0"],
        &["--policy", "fine:0.7"],
        &["--policy", "reactive:0"],
        &["--policy", "naive:0"],
    ];
    for args in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pearl-sim"))
            .args(args)
            .args(["--cycles", "100"])
            .output()
            .expect("pearl-sim starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty() && !stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
