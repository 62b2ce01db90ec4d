//! Work-counter integration tests: the wasted-work observatory, which
//! the self-profiler owns, obeys the same observer contract as the
//! probe and span layers.
//!
//! Three properties anchor it. *Zero perturbation*: profiling (and so
//! counting) leaves the simulated trajectory — summary, state hash, and
//! every traced byte — bit-identical to a bare run. *Honesty*: the collected counters
//! reconcile (useful ≤ visits pair-wise) and actually count the
//! machinery the policy exercises. *State separation*: counters never
//! enter snapshots or state hashes, so checkpoint/restore round-trips
//! are oblivious to them.

use pearl_core::{NetworkBuilder, PearlPolicy};
use pearl_telemetry::{Recorder, Shared, WorkCounters};
use pearl_workloads::BenchmarkPair;

fn pair() -> BenchmarkPair {
    BenchmarkPair::test_pairs()[0]
}

const CYCLES: u64 = 4_000;

#[test]
fn enabled_counters_never_perturb_the_run() {
    let build = || NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(11).build(pair());

    let mut bare = build();
    let bare_summary = bare.run(CYCLES);

    let mut traced = build();
    let traced_probe = Shared::new(Recorder::new());
    traced.attach_probe(Box::new(traced_probe.clone()));
    traced.run(CYCLES);

    let mut counted = build();
    let counted_probe = Shared::new(Recorder::new());
    counted.attach_probe(Box::new(counted_probe.clone()));
    counted.enable_profiling();
    let counted_summary = counted.run(CYCLES);

    assert_eq!(format!("{bare_summary:?}"), format!("{counted_summary:?}"));
    assert_eq!(bare.state_hash(), counted.state_hash());
    // Byte-level trace equality: the counters may not shift a single
    // traced event.
    let events = |probe: &Shared<Recorder>| probe.with(|r| format!("{:?}", r.events()));
    assert_eq!(events(&traced_probe), events(&counted_probe));
}

#[test]
fn counters_reconcile_and_cover_the_exercised_machinery() {
    let mut net = NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(3).build(pair());
    net.enable_profiling();
    net.run(CYCLES);
    let w = net.profile_report().expect("profiling enabled").work;
    w.reconcile().expect("pair inequalities hold");
    assert_eq!(w.cycles, CYCLES);
    // A reactive policy exercises every counter family: router scans,
    // scaling windows, DBA bookkeeping, power updates and arbitration.
    assert!(w.routers_scanned > 0);
    assert!(w.window_checks > 0, "reactive(500) polls scaling windows");
    assert!(w.windows_open > 0, "4000 cycles cross several 500-cycle windows");
    assert!(w.dba_invocations > 0);
    assert!(w.power_updates > 0);
    assert!(w.arb_attempts >= w.arb_grants && w.arb_grants > 0);
    assert!(w.loop_iterations > 0 && w.flits_moved > 0);
}

#[test]
fn counters_are_excluded_from_snapshots_and_state_hashes() {
    let build = || NetworkBuilder::new().policy(PearlPolicy::dyn_64wl()).seed(7).build(pair());
    let mut counted = build();
    counted.enable_profiling();
    counted.run(CYCLES);
    let mid_counters = counted.profile_report().expect("profiling enabled").work;
    assert_ne!(mid_counters, WorkCounters::new(), "the run counted something");

    // Restoring the checkpoint into a bare network reproduces the exact
    // state without ever seeing a counter.
    let checkpoint = counted.snapshot();
    let mut restored = build();
    restored.restore(&checkpoint).expect("checkpoint restores");
    assert_eq!(restored.state_hash(), counted.state_hash());
    assert!(restored.profile_report().is_none(), "restore must not conjure observer state");

    // And restoring *into* a counting network leaves its counters
    // untouched — they are observer state, not simulation state.
    counted.restore(&checkpoint).expect("self-restore");
    assert_eq!(counted.profile_report().map(|p| p.work), Some(mid_counters));

    // Both continue bit-identically despite different counter state.
    let a = counted.run(1_000);
    let b = restored.run(1_000);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(counted.state_hash(), restored.state_hash());
}
