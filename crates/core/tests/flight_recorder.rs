//! Flight-recorder integration tests: the black box obeys the same
//! observer contract as every other probe.
//!
//! Three properties anchor it. *Zero perturbation*: riding along as a
//! probe (alone or teed beside a recorder that wants spans through a
//! fanout) leaves the simulated trajectory — summary, state hash, and
//! every traced byte — bit-identical to a bare run. *Liveness*: the
//! ring actually captures the machinery the run exercises. *State
//! separation*: recorder state never enters snapshots, so
//! checkpoint/restore round-trips are oblivious to it.

use pearl_core::{NetworkBuilder, PearlPolicy};
use pearl_telemetry::{FanoutProbe, FlightRecorder, Recorder, Shared, TraceEvent};
use pearl_workloads::BenchmarkPair;

fn pair() -> BenchmarkPair {
    BenchmarkPair::test_pairs()[0]
}

const CYCLES: u64 = 4_000;

#[test]
fn flight_recorder_never_perturbs_the_run() {
    let build = || NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(11).build(pair());

    let mut bare = build();
    let bare_summary = bare.run(CYCLES);

    // The reference trace: a trace recorder alone.
    let mut traced = build();
    let traced_probe = Shared::new(Recorder::new());
    traced.attach_probe(Box::new(traced_probe.clone()));
    traced.run(CYCLES);

    // The flight recorder tees behind the trace recorder as the serve
    // runner wires it, with a recorder that wants spans switching span
    // tracking on.
    let mut observed = build();
    let observed_probe = Shared::new(Recorder::with_spans());
    let flight = Shared::new(FlightRecorder::new());
    observed.attach_probe(Box::new(FanoutProbe::new(vec![
        Box::new(observed_probe.clone()),
        Box::new(flight.clone()),
    ])));
    assert!(observed.span_enabled());
    let observed_summary = observed.run(CYCLES);

    assert_eq!(format!("{bare_summary:?}"), format!("{observed_summary:?}"));
    assert_eq!(bare.state_hash(), observed.state_hash());
    assert_eq!(bare.state_hash(), traced.state_hash());
    // Byte-level trace equality: the tee may not shift a single traced
    // event the offline recorder sees; the spans ride in between.
    let events: Vec<TraceEvent> = observed_probe.with(|r| {
        r.events().iter().filter(|e| !matches!(e, TraceEvent::Span(_))).cloned().collect()
    });
    assert_eq!(traced_probe.with(|r| format!("{:?}", r.events())), format!("{events:?}"));
    // And the contract is not vacuous: the black box really recorded.
    let (events_seen, spans_seen) = flight.with(|f| (f.events_seen(), f.spans_seen()));
    assert!(events_seen > 0, "flight recorder saw the probe stream");
    assert!(spans_seen > 0, "flight recorder saw the span stream");
}

#[test]
fn flight_recorder_is_excluded_from_snapshots_and_state_hashes() {
    let build = || NetworkBuilder::new().policy(PearlPolicy::dyn_64wl()).seed(7).build(pair());
    let mut observed = build();
    let flight = Shared::new(FlightRecorder::new());
    observed.attach_probe(Box::new(flight.clone()));
    assert!(!observed.span_enabled(), "the flight recorder alone never tracks spans");
    observed.run(CYCLES);
    let seen_mid = flight.with(|f| f.events_seen());
    assert!(seen_mid > 0, "the run recorded something");

    // The observed run hashes like a bare one.
    let mut bare = build();
    bare.run(CYCLES);
    assert_eq!(bare.state_hash(), observed.state_hash());

    // Restoring the checkpoint into a bare network reproduces the exact
    // state without ever seeing the recorder.
    let checkpoint = observed.snapshot();
    let mut restored = build();
    restored.restore(&checkpoint).expect("checkpoint restores");
    assert_eq!(restored.state_hash(), observed.state_hash());

    // Restoring *into* the observed network leaves the ring untouched —
    // recorder state is observer state, not simulation state.
    observed.restore(&checkpoint).expect("self-restore");
    assert_eq!(flight.with(|f| f.events_seen()), seen_mid);

    // Both continue from the checkpoint bit-identically even though one
    // still carries a live recorder.
    let a = observed.run(1_000);
    let b = restored.run(1_000);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(observed.state_hash(), restored.state_hash());
}
