//! Causal-span integration tests: latency attribution must reconcile.
//!
//! Three properties anchor the span layer. First, *accounting*: for
//! every ejected packet the recorded spans tile `[injected_at,
//! ejected_at]` with no gap or overlap, so the per-stage breakdown sums
//! exactly to the end-to-end latency — under faults, retransmissions
//! and ML-ladder demotions alike. Second, *zero perturbation*: a
//! [`NullProbe`] leaves span tracking off, and a recorder that wants
//! spans leaves the simulated trajectory and the state hash
//! bit-identical (spans are derived observers, never state). Third,
//! *resumability*: the span stream across a snapshot/restore boundary
//! is bit-identical to an uninterrupted run's.

use pearl_core::{
    FallbackConfig, FaultConfig, MlPowerScaler, NetworkBuilder, PearlNetwork, PearlPolicy,
    FEATURE_COUNT,
};
use pearl_ml::{select_lambda, Dataset};
use pearl_telemetry::{
    chrome_trace, critical_path, group_by_packet, latency_breakdown, validate_chrome_trace,
    NullProbe, PacketTrace, Probe, Recorder, Shared, Span, SpanKind,
};
use pearl_workloads::BenchmarkPair;
use proptest::prelude::*;

fn pair() -> BenchmarkPair {
    BenchmarkPair::test_pairs()[0]
}

/// A "trained" scaler that predicts roughly `value` flits regardless of
/// the features — the forcing device for ladder-demotion coverage.
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

/// The spans a shared recorder kept, in emission order.
fn spans(recorder: &Shared<Recorder>) -> Vec<Span> {
    recorder.with(|r| r.spans().cloned().collect())
}

/// Every complete trace (one per ejected packet) must tile its
/// lifetime: contiguous spans whose durations sum to the end-to-end
/// latency. Returns the complete traces for further inspection.
fn assert_reconciles(spans: &[Span], delivered: u64) -> Vec<PacketTrace> {
    let traces = group_by_packet(spans);
    let complete: Vec<PacketTrace> = traces.into_iter().filter(|t| t.ejected).collect();
    assert_eq!(
        complete.len() as u64,
        delivered,
        "every delivered packet must close with an eject_drain span"
    );
    for t in &complete {
        assert!(
            t.is_contiguous(),
            "packet {} spans leave a gap or overlap: {:?}",
            t.packet,
            t.spans
        );
        assert_eq!(
            t.total_cycles(),
            t.end_to_end(),
            "packet {}: stage cycles must sum to end-to-end latency",
            t.packet
        );
    }
    complete
}

/// The heaviest attribution path: corruption forcing retransmission
/// spans, laser faults, a mispredicting scaler demoting the ladder.
fn faulty_ml_network(seed: u64) -> PearlNetwork {
    let fault = FaultConfig { corruption_per_packet: 0.05, ..FaultConfig::uniform(0.02, 9) };
    let fallback = FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
    let policy = PearlPolicy::ml_with_fallback(500, constant_scaler(1e6), true, fallback);
    NetworkBuilder::new().policy(policy).fault_config(fault).seed(seed).build(pair())
}

#[test]
fn span_accounting_reconciles_under_faults_and_demotion() {
    let mut net = faulty_ml_network(29);
    let recorder = Shared::new(Recorder::with_spans());
    net.attach_probe(Box::new(recorder.clone()));
    assert!(net.span_enabled());
    let summary = net.run(20_000);
    assert!(summary.delivered_packets > 0);
    assert_eq!(recorder.with(|r| r.dropped()), 0, "recorder dropped spans mid-test");

    let spans = spans(&recorder);
    let complete = assert_reconciles(&spans, summary.delivered_packets);

    // Coverage: the faulted run exercises every stage in the taxonomy.
    for kind in SpanKind::ALL {
        assert!(
            spans.iter().any(|s| s.kind == kind),
            "no {kind} span in a {}-span trace",
            spans.len()
        );
    }
    // Retransmitted packets carry attempt-numbered spans.
    assert!(
        spans.iter().any(|s| s.kind == SpanKind::Retransmission && s.attempt > 0),
        "corruption must surface attempt-numbered retransmission spans"
    );
    // Responses are causally linked to the request that spawned them,
    // and every cited parent is itself a completed (ejected) packet.
    let ejected: std::collections::BTreeSet<u64> = complete.iter().map(|t| t.packet).collect();
    let linked: Vec<&PacketTrace> = complete.iter().filter(|t| t.parent.is_some()).collect();
    assert!(!linked.is_empty(), "no response trace carries a parent link");
    for t in &linked {
        let parent = t.parent.expect("filtered on parent");
        assert!(ejected.contains(&parent), "packet {} cites unejected parent {parent}", t.packet);
    }
}

/// Regression for the eject-before-inject accounting guard: per-packet
/// latency (`Packet::latency`) and the pre-launch span math both clamp
/// with `saturating_sub`, which used to *mask* an eject-before-inject
/// bug as a zero latency. Both sites now carry `debug_assert!`s with
/// packet-id context, and this suite runs with debug assertions on —
/// so driving the heaviest attribution paths (faults, retransmission,
/// ladder demotion, MWSR, plain dynamic) across several seeds proves
/// no packet is ever observed before its injection cycle.
#[test]
fn no_packet_is_observed_before_injection() {
    for seed in [3u64, 29, 101] {
        let mut net = faulty_ml_network(seed);
        let recorder = Shared::new(Recorder::with_spans());
        net.attach_probe(Box::new(recorder.clone()));
        let summary = net.run(12_000);
        assert!(summary.delivered_packets > 0);
        // Belt and braces next to the debug_assert: every recorded span
        // must begin at or after cycle 0 relative to its packet's
        // injection, i.e. no span may end before it starts.
        for span in spans(&recorder) {
            assert!(
                span.end >= span.start,
                "packet {} {} span runs backwards: [{}, {}]",
                span.packet,
                span.kind,
                span.start,
                span.end
            );
        }
    }
    for (policy, seed) in [
        (PearlPolicy::dyn_64wl(), 7u64),
        (PearlPolicy::fcfs_64wl(), 11),
        (PearlPolicy::reactive(500), 13),
    ] {
        let mut net = NetworkBuilder::new().policy(policy).seed(seed).build(pair());
        net.attach_probe(Box::new(NullProbe));
        let summary = net.run(8_000);
        assert!(summary.delivered_packets > 0);
    }
}

#[test]
fn breakdown_critical_path_and_chrome_trace_agree() {
    let mut net = faulty_ml_network(29);
    let recorder = Shared::new(Recorder::with_spans());
    net.attach_probe(Box::new(recorder.clone()));
    net.run(20_000);
    let spans = spans(&recorder);

    // The breakdown partitions the spans: counts and totals tie out.
    let rows = latency_breakdown(&spans);
    assert_eq!(rows.iter().map(|r| r.count).sum::<u64>(), spans.len() as u64);
    let attributed: u64 = rows.iter().map(|r| r.total).sum();
    let raw: u64 = spans.iter().map(Span::duration).sum();
    assert_eq!(attributed, raw);
    for r in &rows {
        assert!(r.p50 <= r.p95 && r.p95 <= r.p99 && r.p99 <= r.max, "{:?}", r);
    }

    // The critical path ranks complete packets by latency and its
    // per-stage totals sum back to that latency.
    let worst = critical_path(&spans, 5);
    assert_eq!(worst.len(), 5);
    for pair in worst.windows(2) {
        assert!(pair[0].latency >= pair[1].latency);
    }
    for entry in &worst {
        let total: u64 = entry.per_kind.iter().map(|(_, c)| *c).sum();
        assert_eq!(total, entry.latency, "packet {}", entry.packet);
        assert!(entry.per_kind.iter().any(|(k, _)| *k == entry.dominant));
    }

    // The Perfetto export round-trips structurally: every span becomes
    // a complete event on its router's track.
    let trace = chrome_trace(&spans);
    let summary = validate_chrome_trace(&trace).expect("exported trace must validate");
    assert_eq!(summary.span_events, spans.len() as u64);
    assert_eq!(summary.kinds, SpanKind::ALL.to_vec());
    assert!(summary.tracks > 1, "expected spans on multiple router tracks");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Whatever the seed, span accounting reconciles and recording
    /// spans never perturbs the simulated trajectory.
    #[test]
    fn span_accounting_reconciles_across_seeds(seed in 1u64..500) {
        let mut plain = NetworkBuilder::new()
            .policy(PearlPolicy::reactive(500))
            .seed(seed)
            .build(pair());
        let plain_summary = plain.run(4_000);

        let mut instrumented = NetworkBuilder::new()
            .policy(PearlPolicy::reactive(500))
            .seed(seed)
            .build(pair());
        let recorder = Shared::new(Recorder::with_spans());
        instrumented.attach_probe(Box::new(recorder.clone()));
        let summary = instrumented.run(4_000);

        prop_assert_eq!(
            format!("{plain_summary:?}"),
            format!("{summary:?}"),
            "span recording perturbed seed {}",
            seed
        );
        prop_assert_eq!(plain.state_hash(), instrumented.state_hash());
        let traces = group_by_packet(&spans(&recorder));
        let complete = traces.iter().filter(|t| t.ejected).count() as u64;
        prop_assert_eq!(complete, summary.delivered_packets);
        for t in traces.iter().filter(|t| t.ejected) {
            prop_assert!(t.is_contiguous(), "packet {} spans: {:?}", t.packet, t.spans);
            prop_assert_eq!(t.total_cycles(), t.end_to_end());
        }
    }
}

#[test]
fn null_sink_keeps_state_hash_identical() {
    // The null probe must not arm the span path at all: same summary,
    // same state hash as a never-instrumented network. Neither does a
    // probe that does not want spans, and one that does still hashes
    // like the bare run.
    let mut plain = faulty_ml_network(23);
    let plain_summary = plain.run(6_000);

    let mut with_null = faulty_ml_network(23);
    with_null.attach_probe(Box::new(NullProbe));
    assert!(!with_null.span_enabled(), "NullProbe must not arm the span path");
    let null_summary = with_null.run(6_000);
    assert_eq!(format!("{plain_summary:?}"), format!("{null_summary:?}"));
    assert_eq!(plain.state_hash(), with_null.state_hash());

    let mut with_events = faulty_ml_network(23);
    with_events.attach_probe(Box::new(Recorder::new()));
    assert!(!with_events.span_enabled(), "an event recorder must not arm the span path");
    let mut with_spans = faulty_ml_network(23);
    with_spans.attach_probe(Box::new(Recorder::with_spans()));
    assert!(with_spans.span_enabled());
    for observed in [&mut with_events, &mut with_spans] {
        assert_eq!(format!("{plain_summary:?}"), format!("{:?}", observed.run(6_000)));
        assert_eq!(plain.state_hash(), observed.state_hash());
    }
    // Attaching a probe that does not want spans drops the tracker.
    with_spans.attach_probe(Box::new(Recorder::new()));
    assert!(!with_spans.span_enabled());
}

#[test]
fn a_shared_probe_attaches_as_the_probe_it_wraps() {
    // The handle forwards `is_null` and `wants_spans`, so sharing a
    // probe changes neither whether it is kept nor whether it arms the
    // span path.
    let attached = |probe: Box<dyn Probe>| {
        let mut net = faulty_ml_network(5);
        net.attach_probe(probe);
        (net.probe_enabled(), net.span_enabled())
    };
    assert_eq!(attached(Box::new(Shared::new(NullProbe))), (false, false));
    assert_eq!(attached(Box::new(Shared::new(Recorder::new()))), (true, false));
    assert_eq!(attached(Box::new(Shared::new(Recorder::with_spans()))), (true, true));
}

#[test]
fn span_stream_is_bit_identical_across_resume() {
    let build = || {
        NetworkBuilder::new()
            .policy(PearlPolicy::reactive(500))
            .fault_config(FaultConfig {
                corruption_per_packet: 0.04,
                ..FaultConfig::uniform(0.02, 5)
            })
            .seed(53)
            .build(pair())
    };
    let (n, m) = (4_000u64, 3_000u64);

    let mut golden_net = build();
    let golden_rec = Shared::new(Recorder::with_spans());
    golden_net.attach_probe(Box::new(golden_rec.clone()));
    golden_net.run(n + m);

    let mut first = build();
    let pre_rec = Shared::new(Recorder::with_spans());
    first.attach_probe(Box::new(pre_rec.clone()));
    first.run(n);
    let cp = first.snapshot();

    let mut resumed = build();
    let post_rec = Shared::new(Recorder::with_spans());
    resumed.attach_probe(Box::new(post_rec.clone()));
    resumed.restore(&cp).expect("restore");
    assert!(resumed.span_enabled());
    resumed.run(m);

    let mut stitched = spans(&pre_rec);
    stitched.extend(spans(&post_rec));
    assert_eq!(spans(&golden_rec), stitched, "span stream diverged across the resume boundary");
    // The state text covers the span tracker; the state hash does not.
    assert_eq!(golden_net.snapshot().state.to_string(), resumed.snapshot().state.to_string());
}

#[test]
fn restore_reactivates_span_tracking_from_snapshot() {
    // Restore keeps a checkpoint's span tracker, or makes a fresh one,
    // only for a probe that wants spans; without one it drops it.
    let mut golden = faulty_ml_network(41);
    golden.attach_probe(Box::new(Recorder::with_spans()));
    golden.run(5_000);

    let mut first = faulty_ml_network(41);
    first.attach_probe(Box::new(Recorder::with_spans()));
    first.run(3_000);
    let cp = first.snapshot();

    // With a recorder that wants spans attached first, the checkpoint's
    // tracker resumes and the run rejoins the golden one, tracker
    // included.
    let mut resumed = faulty_ml_network(41);
    resumed.attach_probe(Box::new(Recorder::with_spans()));
    resumed.restore(&cp).expect("restore");
    assert!(resumed.span_enabled());
    resumed.run(2_000);
    assert_eq!(golden.snapshot().state.to_string(), resumed.snapshot().state.to_string());

    // Without one, the tracker is dropped and the run is a bare run.
    let mut bare = faulty_ml_network(41);
    bare.restore(&cp).expect("restore");
    assert!(!bare.span_enabled(), "no probe wants spans, so none are tracked");
    bare.run(2_000);
    assert_eq!(golden.state_hash(), bare.state_hash());
    assert_eq!(bare.snapshot().state.get("spans"), Some(&pearl_telemetry::JsonValue::Null));

    // A checkpoint without a tracker gets a fresh one for such a probe.
    let mut plain = faulty_ml_network(41);
    plain.run(3_000);
    let mut traced = faulty_ml_network(41);
    traced.attach_probe(Box::new(Recorder::with_spans()));
    traced.restore(&plain.snapshot()).expect("restore");
    assert!(traced.span_enabled());
}

#[test]
fn repeated_checkpoint_restore_with_spans_is_stable() {
    let mut net = faulty_ml_network(31);
    net.attach_probe(Box::new(Recorder::with_spans()));
    net.run(2_500);
    let cp1 = net.snapshot();

    let mut twin = faulty_ml_network(31);
    twin.attach_probe(Box::new(Recorder::with_spans()));
    twin.restore(&cp1).expect("restore");
    let cp2 = twin.snapshot();
    assert_eq!(
        cp1.to_json().to_string(),
        cp2.to_json().to_string(),
        "checkpoint with spans is not a fixed point"
    );
}
