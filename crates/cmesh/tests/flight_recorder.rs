//! Flight-recorder integration tests for the CMESH baseline: the black
//! box mirrors the PEARL contract — zero perturbation as a probe tee, a
//! live ring, and strict exclusion from snapshot state.

use pearl_cmesh::CmeshBuilder;
use pearl_telemetry::{
    FanoutProbe, SharedFlightRecorder, SharedRecorder, SharedSpanRecorder, TraceEvent,
};
use pearl_workloads::BenchmarkPair;

fn pair() -> BenchmarkPair {
    BenchmarkPair::test_pairs()[0]
}

const CYCLES: u64 = 4_000;

/// A fanout of the flight recorder and a span recorder, so the flight
/// recorder sees the span stream too.
fn with_spans(flight: &SharedFlightRecorder) -> Box<FanoutProbe> {
    Box::new(FanoutProbe::new(vec![Box::new(flight.clone()), Box::new(SharedSpanRecorder::new())]))
}

#[test]
fn flight_recorder_never_perturbs_the_run() {
    let build = || CmeshBuilder::new().seed(9).build(pair());

    let mut bare = build();
    let bare_summary = bare.run(CYCLES);

    let mut traced = build();
    let traced_probe = SharedRecorder::new();
    traced.attach_probe(Box::new(traced_probe.clone()));
    traced.run(CYCLES);

    let mut observed = build();
    let observed_probe = SharedRecorder::new();
    let flight = SharedFlightRecorder::new();
    observed.attach_probe(Box::new(FanoutProbe::new(vec![
        Box::new(observed_probe.clone()),
        with_spans(&flight),
    ])));
    let observed_summary = observed.run(CYCLES);

    assert_eq!(format!("{bare_summary:?}"), format!("{observed_summary:?}"));
    assert_eq!(bare.state_hash(), observed.state_hash());
    let events: Vec<TraceEvent> =
        observed_probe.events().into_iter().filter(|e| !matches!(e, TraceEvent::Span(_))).collect();
    assert_eq!(format!("{:?}", traced_probe.events()), format!("{events:?}"));
    // The mesh emits per-packet spans on ejection; the ring must have
    // seen them (probe events are sparse on a fault-free mesh, so the
    // span stream is the liveness witness here).
    assert!(flight.spans_seen() > 0, "flight recorder saw the span stream");
}

#[test]
fn flight_recorder_is_excluded_from_snapshots_and_state_hashes() {
    let build = || CmeshBuilder::new().seed(6).build(pair());
    let mut observed = build();
    let flight = SharedFlightRecorder::new();
    observed.attach_probe(with_spans(&flight));
    observed.run(CYCLES);
    let seen_mid = flight.spans_seen();
    assert!(seen_mid > 0, "the run recorded something");

    let checkpoint = observed.snapshot();
    let mut restored = build();
    restored.restore(&checkpoint).expect("checkpoint restores");
    assert_eq!(restored.state_hash(), observed.state_hash());

    observed.restore(&checkpoint).expect("self-restore");
    assert_eq!(flight.spans_seen(), seen_mid, "restore must not touch the ring");

    let a = observed.run(1_000);
    let b = restored.run(1_000);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(observed.state_hash(), restored.state_hash());
}
