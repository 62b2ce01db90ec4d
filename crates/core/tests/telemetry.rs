//! Telemetry-layer integration tests: the observability contract.
//!
//! Two properties anchor the layer. First, *zero perturbation*: a run
//! with a probe attached (null or recording) must produce a
//! bit-identical [`pearl_core::RunSummary`] and state hash to an
//! uninstrumented run — the probe observes the simulation, it never
//! steers it. Second,
//! *coverage*: an instrumented faulty run must surface every event
//! kind the tracing taxonomy defines.

use pearl_core::{
    FallbackConfig, FaultConfig, MlPowerScaler, NetworkBuilder, PearlPolicy, ScalingMode,
    FEATURE_COUNT,
};
use pearl_ml::{select_lambda, Dataset};
use pearl_telemetry::{LadderMode, NullProbe, Recorder, Shared, TraceEvent, TransitionCause};
use pearl_workloads::BenchmarkPair;
use proptest::prelude::*;

fn pair() -> BenchmarkPair {
    BenchmarkPair::test_pairs()[0]
}

/// A "trained" scaler that predicts roughly `value` flits regardless of
/// the features — the forcing device for ladder-transition coverage.
fn constant_scaler(value: f64) -> MlPowerScaler {
    let mut d = Dataset::new(FEATURE_COUNT);
    for i in 0..40 {
        let mut f = vec![0.0; FEATURE_COUNT];
        f[0] = (i % 2) as f64;
        d.push(f, value).unwrap();
    }
    let (train, val) = d.split_tail(0.25);
    MlPowerScaler::new(select_lambda(&train, &val, &[1.0]).unwrap())
}

/// Debug output covers every `RunSummary` field, so equal renderings
/// mean bit-identical summaries (floats print with full precision); the
/// state hash follows each summary.
fn summary_fingerprint(policy: PearlPolicy, seed: u64, cycles: u64) -> (String, String, String) {
    let mut plain = NetworkBuilder::new().policy(policy.clone()).seed(seed).build(pair());
    let plain_summary = plain.run(cycles);
    let mut with_null = NetworkBuilder::new().policy(policy.clone()).seed(seed).build(pair());
    with_null.attach_probe(Box::new(NullProbe));
    assert!(!with_null.probe_enabled(), "NullProbe must not arm the probe path");
    let null_summary = with_null.run(cycles);
    let mut with_recorder = NetworkBuilder::new().policy(policy).seed(seed).build(pair());
    with_recorder.attach_probe(Box::new(Recorder::new()));
    assert!(with_recorder.probe_enabled());
    let rec_summary = with_recorder.run(cycles);
    (
        format!("{plain_summary:?} {:016x}", plain.state_hash()),
        format!("{null_summary:?} {:016x}", with_null.state_hash()),
        format!("{rec_summary:?} {:016x}", with_recorder.state_hash()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Whatever the seed, attaching a probe (null or recording) leaves
    /// the simulated trajectory bit-identical to the uninstrumented run.
    #[test]
    fn probes_never_perturb_the_run(seed in 1u64..500) {
        let (plain, null, recorded) =
            summary_fingerprint(PearlPolicy::reactive(500), seed, 4_000);
        prop_assert_eq!(&plain, &null, "NullProbe perturbed seed {}", seed);
        prop_assert_eq!(&plain, &recorded, "Recorder perturbed seed {}", seed);
    }
}

#[test]
fn recording_a_faulty_ml_run_is_still_identical() {
    // The heaviest instrumentation path: fault events reported, ladder
    // active, retransmissions live. Identity must hold here too.
    let fault = FaultConfig { corruption_per_packet: 0.02, ..FaultConfig::uniform(0.01, 7) };
    let fallback = FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
    let policy = PearlPolicy::ml_with_fallback(500, constant_scaler(1e6), true, fallback);
    let build =
        || NetworkBuilder::new().policy(policy.clone()).fault_config(fault).seed(23).build(pair());
    let mut bare = build();
    let plain = bare.run(6_000);
    let mut instrumented = build();
    let recorder = Shared::new(Recorder::new());
    instrumented.attach_probe(Box::new(recorder.clone()));
    let recorded = instrumented.run(6_000);
    assert_eq!(format!("{plain:?}"), format!("{recorded:?}"));
    assert_eq!(bare.state_hash(), instrumented.state_hash());
    let faulted = recorder.with(|r| r.events().iter().any(|e| e.kind() == "fault"));
    assert!(faulted, "no fault event recorded");
}

#[test]
fn faulty_ml_run_covers_every_event_kind() {
    // Lambda failures + corruption + a wildly mispredicting scaler with
    // an armed ladder: every event kind in the taxonomy must appear.
    let fault = FaultConfig { corruption_per_packet: 0.05, ..FaultConfig::uniform(0.02, 9) };
    let fallback = FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
    let policy = PearlPolicy::ml_with_fallback(500, constant_scaler(1e6), true, fallback);
    let mut net = NetworkBuilder::new().policy(policy).fault_config(fault).seed(29).build(pair());
    let recorder = Shared::new(Recorder::new());
    net.attach_probe(Box::new(recorder.clone()));
    net.run(20_000);

    let events = recorder.with(|r| r.events().to_vec());
    let has = |kind: &str| events.iter().any(|e| e.kind() == kind);
    for kind in [
        "dba_realloc",
        "wavelength_transition",
        "ladder_transition",
        "retransmission",
        "window_close",
        "fault",
    ] {
        assert!(has(kind), "no {kind} event in a {}-event trace", events.len());
    }
    // The forced misprediction must actually demote: the first ladder
    // transition leaves ML-proactive mode.
    let demotion = events.iter().find_map(|e| match e {
        TraceEvent::LadderTransition { from, to, .. } => Some((*from, *to)),
        _ => None,
    });
    assert_eq!(demotion, Some((LadderMode::MlProactive, LadderMode::Reactive)));
    assert_eq!(net.scaling_mode(), Some(ScalingMode::Reactive));
    // Both transition causes occur: scaling decisions and fault clamps.
    let causes: Vec<TransitionCause> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::WavelengthTransition { cause, .. } => Some(*cause),
            _ => None,
        })
        .collect();
    assert!(causes.contains(&TransitionCause::Scaling));
    assert!(causes.contains(&TransitionCause::FaultCeiling));
}

#[test]
fn profiler_attributes_wall_time_across_sections() {
    let mut net = NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(31).build(pair());
    net.enable_profiling();
    let summary = net.run(5_000);
    let report = net.profile_report().expect("profiling enabled");
    assert_eq!(report.cycles, 5_000);
    assert!(report.cycles_per_sec() > 0.0);
    // Per-section attribution is real and never exceeds wall time.
    let attributed = report.attributed();
    assert!(attributed > std::time::Duration::ZERO);
    assert!(attributed <= report.wall, "attributed {attributed:?} > wall {:?}", report.wall);
    assert!(summary.delivered_packets > 0);
}
