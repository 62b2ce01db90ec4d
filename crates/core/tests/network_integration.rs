//! Integration tests of the PEARL network's instrumentation paths:
//! feature collection, timelines, stabilization modes and the MWSR
//! ablation fabric.

use pearl_core::{
    Fabric, FaultConfig, NetworkBuilder, PearlConfig, PearlPolicy, Timeline, TimelinePoint,
    FEATURE_COUNT,
};
use pearl_workloads::BenchmarkPair;

fn pair() -> BenchmarkPair {
    BenchmarkPair::test_pairs()[0]
}

#[test]
fn hooked_run_is_bit_identical_to_plain_run() {
    // Checkpointing between chunks (what pearl-serve does at each
    // watchdog boundary) must be an observer: chunking a run and
    // snapshotting at every boundary cannot perturb the state stream.
    let build = || NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(9).build(pair());
    let mut plain = build();
    let plain_summary = plain.run(6_000);

    for (every, boundaries) in
        [(1_000, &[1_000, 2_000, 3_000, 4_000, 5_000, 6_000][..]), (2_500, &[2_500, 5_000, 6_000])]
    {
        let mut hooked = build();
        let mut hook_cycles = Vec::new();
        let mut remaining = 6_000u64;
        let mut hooked_summary = None;
        while remaining > 0 {
            let chunk = remaining.min(every);
            hooked_summary = Some(hooked.run(chunk));
            remaining -= chunk;
            hook_cycles.push(hooked.stats().cycles());
            let _ = hooked.snapshot();
        }
        let hooked_summary = hooked_summary.expect("at least one chunk ran");
        assert_eq!(hook_cycles, boundaries);
        assert_eq!(plain.state_hash(), hooked.state_hash());
        assert_eq!(plain_summary.delivered_flits, hooked_summary.delivered_flits);
        assert_eq!(
            plain_summary.avg_laser_power_w.to_bits(),
            hooked_summary.avg_laser_power_w.to_bits()
        );
    }
}

#[test]
fn collected_features_are_well_formed() {
    let mut net = NetworkBuilder::new().policy(PearlPolicy::random_walk(500)).seed(3).build(pair());
    let data = net.run_collecting(12_000);
    assert!(data.len() > 200, "only {} samples", data.len());
    let mut l3_rows = 0usize;
    for row in data.features() {
        assert_eq!(row.len(), FEATURE_COUNT);
        // Feature 1 (L3 flag) is binary.
        assert!(row[0] == 0.0 || row[0] == 1.0);
        l3_rows += usize::from(row[0] == 1.0);
        // Buffer/link utilizations (features 2–6) are fractions.
        for (i, &v) in row[1..6].iter().enumerate() {
            assert!((0.0..=1.0).contains(&v), "feature {} = {v}", i + 2);
        }
        // Count features are non-negative integers.
        for &v in &row[6..29] {
            assert!(v >= 0.0 && v.fract() == 0.0, "count feature {v}");
        }
        // Feature 30 is a valid wavelength count.
        assert!([8.0, 16.0, 32.0, 48.0, 64.0].contains(&row[29]));
    }
    // Exactly one router in 17 is the L3: about 1/17 of samples.
    let fraction = l3_rows as f64 / data.len() as f64;
    assert!((fraction - 1.0 / 17.0).abs() < 0.02, "L3 rows fraction {fraction}");
}

/// `(at, flits, mean_wavelengths bits, stalls, retransmissions,
/// corruptions)` of each point.
type PointPin = (u64, u64, u64, u64, u64, u64);

fn pin(p: &TimelinePoint) -> PointPin {
    (p.at, p.flits, p.mean_wavelengths.to_bits(), p.stalls, p.retransmissions, p.corruptions)
}

/// Reactive RW500 at seed 5 sampled every 2,000 cycles for 20,000.
#[rustfmt::skip]
const REACTIVE_POINTS: [PointPin; 10] = [
    (2_000, 8_384, 0x4033c3c3c3c3c3c4, 0, 0, 0),
    (4_000, 6_299, 0x4033c3c3c3c3c3c4, 0, 0, 0),
    (6_000, 7_058, 0x4035a5a5a5a5a5a6, 0, 0, 0),
    (8_000, 9_258, 0x403e1e1e1e1e1e1e, 0, 0, 0),
    (10_000, 7_131, 0x4029696969696969, 0, 0, 0),
    (12_000, 10_439, 0x40343c3c3c3c3c3c, 0, 0, 0),
    (14_000, 8_981, 0x403a5a5a5a5a5a5a, 0, 0, 0),
    (16_000, 7_353, 0x403c3c3c3c3c3c3c, 0, 0, 0),
    (18_000, 9_786, 0x40334b4b4b4b4b4b, 0, 0, 0),
    (20_000, 9_714, 0x40334b4b4b4b4b4b, 0, 0, 0),
];

/// The same run with faults and corruption, 9,000 cycles long: four
/// full windows and a trailing partial one that is never sampled.
#[rustfmt::skip]
const FAULTED_POINTS: [PointPin; 4] = [
    (2_000, 5_923, 0x40361e1e1e1e1e1e, 0, 109, 109),
    (4_000, 2_005, 0x4020000000000000, 0, 35, 35),
    (6_000, 1_807, 0x4020000000000000, 0, 33, 33),
    (8_000, 1_904, 0x4020000000000000, 0, 38, 38),
];

#[test]
fn timeline_samples_cover_the_run() {
    let builder = || NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(5);
    let mut net = builder().build(pair());
    let mut timeline = Timeline::new(2_000);
    timeline.run(&mut net, 20_000);
    assert_eq!(timeline.points().iter().map(pin).collect::<Vec<_>>(), REACTIVE_POINTS);
    // Sum of window flits equals total delivered flits.
    let sum: u64 = timeline.points().iter().map(|p| p.flits).sum();
    assert_eq!(sum, net.stats().total_delivered_flits());
    // Scaling actually happened somewhere.
    let deepest = timeline.deepest_scaling().unwrap();
    assert!(deepest.mean_wavelengths < 64.0);

    let fault = FaultConfig { corruption_per_packet: 0.04, ..FaultConfig::uniform(0.02, 5) };
    let mut net = builder().fault_config(fault).build(pair());
    let mut timeline = Timeline::new(2_000);
    timeline.run(&mut net, 9_000);
    assert_eq!(timeline.points().iter().map(pin).collect::<Vec<_>>(), FAULTED_POINTS);
    assert_eq!(net.now().as_u64(), 9_000);
}

#[test]
fn full_channel_stall_is_never_faster() {
    let mut bank_gated = PearlConfig::pearl();
    bank_gated.laser_turn_on_ns = 32.0;
    let mut full_stall = bank_gated;
    full_stall.full_channel_stall = true;
    let policy = PearlPolicy::reactive(500);
    let a = NetworkBuilder::new()
        .config(bank_gated)
        .policy(policy.clone())
        .seed(9)
        .build(pair())
        .run(30_000);
    let b =
        NetworkBuilder::new().config(full_stall).policy(policy).seed(9).build(pair()).run(30_000);
    // The two stabilization models diverge through the closed loop, so
    // no strict ordering holds run-to-run; both must stay functional and
    // within the same operating regime.
    assert!(b.throughput_flits_per_cycle > 0.0);
    assert!(
        (b.throughput_flits_per_cycle / a.throughput_flits_per_cycle - 1.0).abs() < 0.10,
        "full stall {} vs bank gated {} diverged wildly",
        b.throughput_flits_per_cycle,
        a.throughput_flits_per_cycle
    );
    // Power is governed by the same scaler either way.
    assert!((b.avg_laser_power_w / a.avg_laser_power_w - 1.0).abs() < 0.15);
}

#[test]
fn mwsr_conserves_and_underperforms() {
    let policy = PearlPolicy::dyn_64wl();
    let rswmr = NetworkBuilder::new().policy(policy.clone()).seed(13).build(pair()).run(20_000);
    let config = PearlConfig::pearl_mwsr();
    config.validate();
    assert_eq!(config.fabric, Fabric::MwsrToken);
    let mwsr =
        NetworkBuilder::new().config(config).policy(policy).seed(13).build(pair()).run(20_000);
    assert!(mwsr.delivered_packets > 0);
    let injected = mwsr.injected_cpu_packets + mwsr.injected_gpu_packets;
    assert!(mwsr.delivered_packets <= injected);
    assert!(mwsr.throughput_flits_per_cycle < rswmr.throughput_flits_per_cycle);
}

#[test]
fn fine_grained_policy_respects_both_core_types() {
    let s = NetworkBuilder::new()
        .policy(PearlPolicy::dyn_fine(0.0625))
        .seed(17)
        .build(pair())
        .run(20_000);
    // Both lanes make progress under proportional sharing.
    assert!(s.injected_cpu_packets > 0 && s.injected_gpu_packets > 0);
    assert!(
        s.delivered_packets as f64 > 0.5 * (s.injected_cpu_packets + s.injected_gpu_packets) as f64
    );
}

#[test]
fn naive_policy_tracks_demand_up_and_down() {
    let s = NetworkBuilder::new()
        .policy(PearlPolicy::naive_power(500, 1.0, true))
        .seed(19)
        .build(pair())
        .run(40_000);
    // The naive scaler must visit both low and high states on bursty
    // traffic.
    use pearl_photonics::WavelengthState;
    let low =
        s.residency.fraction(WavelengthState::W8) + s.residency.fraction(WavelengthState::W16);
    let high = s.residency.fraction(WavelengthState::W64);
    assert!(low > 0.05, "never scaled down: low fraction {low}");
    assert!(high > 0.01, "never scaled up: high fraction {high}");
    assert!(s.laser_transitions > 50);
}
