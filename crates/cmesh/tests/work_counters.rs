//! Work-counter and self-profiler integration tests for the CMESH
//! baseline: the observatory mirrors the PEARL contract — zero
//! perturbation when enabled, honest counters, and strict exclusion
//! from snapshot state.

use pearl_cmesh::CmeshBuilder;
use pearl_telemetry::{Section, SubSection};
use pearl_workloads::BenchmarkPair;

fn pair() -> BenchmarkPair {
    BenchmarkPair::test_pairs()[0]
}

const CYCLES: u64 = 4_000;

#[test]
fn counters_and_profiler_never_perturb_the_run() {
    let build = || CmeshBuilder::new().seed(9).build(pair());
    let mut bare = build();
    let bare_summary = bare.run(CYCLES);

    let mut observed = build();
    observed.enable_profiling();
    let observed_summary = observed.run(CYCLES);

    assert_eq!(bare_summary.delivered_flits, observed_summary.delivered_flits);
    assert_eq!(format!("{bare_summary:?}"), format!("{observed_summary:?}"));
    assert_eq!(bare.state_hash(), observed.state_hash());
}

#[test]
fn counters_reconcile_and_the_meshless_machinery_stays_zero() {
    let mut net = CmeshBuilder::new().seed(2).build(pair());
    net.enable_profiling();
    net.run(CYCLES);
    let w = net.profile_report().expect("profiling enabled").work;
    w.reconcile().expect("pair inequalities hold");
    assert_eq!(w.cycles, CYCLES);
    assert!(w.routers_scanned > 0 && w.routers_with_work > 0);
    assert!(w.arb_attempts >= w.arb_grants && w.arb_grants > 0);
    assert!(w.loop_iterations > 0 && w.flits_moved > 0);
    // A mesh has no DBA, no scaling windows and no laser bookkeeping:
    // those ratios must read as None (never ran), not as 0% waste.
    assert_eq!(w.dba_invocations, 0);
    assert_eq!(w.window_checks, 0);
    assert_eq!(w.power_updates, 0);
    let ratios = w.ratios();
    assert_eq!(ratios.dba_noop, None);
    assert_eq!(ratios.closed_windows, None);
    assert_eq!(ratios.power_noop, None);
    assert!(ratios.idle_scan.is_some() && ratios.arb_loss.is_some());
}

#[test]
fn profiler_attributes_the_mesh_specific_sub_phases() {
    let mut net = CmeshBuilder::new().seed(4).build(pair());
    net.enable_profiling();
    net.run(CYCLES);
    let profile = net.profile_report().expect("profiling enabled");
    assert_eq!(profile.cycles, CYCLES);
    assert!(profile.section_time(Section::Transport) > std::time::Duration::ZERO);
    // The mesh decomposes transport into routing, switch allocation and
    // link traversal — sub-phases PEARL never uses.
    for sub in
        [SubSection::TransportRoutes, SubSection::TransportArbitration, SubSection::TransportLink]
    {
        assert!(profile.sub_time(sub) > std::time::Duration::ZERO, "{} unattributed", sub.name());
    }
    // Sub-phases are timed inside their section, so the attribution
    // reconciles by construction.
    assert!(profile.wall >= profile.attributed());
    let folded = profile.folded();
    assert!(folded.contains("step;transport;arbitration"), "{folded}");
}

#[test]
fn counters_are_excluded_from_snapshots_and_state_hashes() {
    let build = || CmeshBuilder::new().seed(6).build(pair());
    let mut counted = build();
    counted.enable_profiling();
    counted.run(CYCLES);
    let checkpoint = counted.snapshot();
    let mut restored = build();
    restored.restore(&checkpoint).expect("checkpoint restores");
    assert_eq!(restored.state_hash(), counted.state_hash());
    assert!(restored.profile_report().is_none());
    let a = counted.run(1_000);
    let b = restored.run(1_000);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(counted.state_hash(), restored.state_hash());
}
