//! Flight-recorder integration tests for the CMESH baseline: the black
//! box mirrors the PEARL contract — zero perturbation as a probe tee, a
//! live ring, and strict exclusion from snapshot state.

use pearl_cmesh::CmeshBuilder;
use pearl_telemetry::{FanoutProbe, FlightRecorder, Recorder, Shared, TraceEvent};
use pearl_workloads::BenchmarkPair;

fn pair() -> BenchmarkPair {
    BenchmarkPair::test_pairs()[0]
}

const CYCLES: u64 = 4_000;

#[test]
fn flight_recorder_never_perturbs_the_run() {
    let build = || CmeshBuilder::new().seed(9).build(pair());

    let mut bare = build();
    let bare_summary = bare.run(CYCLES);

    let mut traced = build();
    let traced_probe = Shared::new(Recorder::new());
    traced.attach_probe(Box::new(traced_probe.clone()));
    traced.run(CYCLES);

    let mut observed = build();
    let observed_probe = Shared::new(Recorder::with_spans());
    let flight = Shared::new(FlightRecorder::new());
    // A recorder that wants spans beside the flight recorder, so the
    // flight recorder sees the span stream too.
    observed.attach_probe(Box::new(FanoutProbe::new(vec![
        Box::new(observed_probe.clone()),
        Box::new(flight.clone()),
    ])));
    let observed_summary = observed.run(CYCLES);

    assert_eq!(format!("{bare_summary:?}"), format!("{observed_summary:?}"));
    assert_eq!(bare.state_hash(), observed.state_hash());
    let events: Vec<TraceEvent> = observed_probe.with(|r| {
        r.events().iter().filter(|e| !matches!(e, TraceEvent::Span(_))).cloned().collect()
    });
    assert_eq!(traced_probe.with(|r| format!("{:?}", r.events())), format!("{events:?}"));
    // The mesh emits per-packet spans on ejection; the ring must have
    // seen them (probe events are sparse on a fault-free mesh, so the
    // span stream is the liveness witness here).
    assert!(flight.with(|f| f.spans_seen()) > 0, "flight recorder saw the span stream");
}

#[test]
fn flight_recorder_is_excluded_from_snapshots_and_state_hashes() {
    let build = || CmeshBuilder::new().seed(6).build(pair());
    let mut observed = build();
    let flight = Shared::new(FlightRecorder::new());
    observed.attach_probe(Box::new(FanoutProbe::new(vec![
        Box::new(Recorder::with_spans()),
        Box::new(flight.clone()),
    ])));
    observed.run(CYCLES);
    let seen_mid = flight.with(|f| f.spans_seen());
    assert!(seen_mid > 0, "the run recorded something");

    let checkpoint = observed.snapshot();
    let mut restored = build();
    restored.restore(&checkpoint).expect("checkpoint restores");
    assert_eq!(restored.state_hash(), observed.state_hash());

    observed.restore(&checkpoint).expect("self-restore");
    assert_eq!(flight.with(|f| f.spans_seen()), seen_mid, "restore must not touch the ring");

    let a = observed.run(1_000);
    let b = restored.run(1_000);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(observed.state_hash(), restored.state_hash());
}
