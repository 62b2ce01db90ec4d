//! Causal-span tests for the CMESH baseline: the six-stage electrical
//! decomposition must tile every delivered packet's lifetime, recording
//! must never perturb the run or its state hash, and the span stream
//! must be bit-identical across a snapshot/restore boundary.

use pearl_cmesh::CmeshBuilder;
use pearl_telemetry::{
    group_by_packet, JsonValue, NullProbe, Probe, Recorder, Shared, Span, SpanKind,
};
use pearl_workloads::BenchmarkPair;

fn pair() -> BenchmarkPair {
    BenchmarkPair::test_pairs()[0]
}

/// The spans a shared recorder kept, in emission order.
fn spans(recorder: &Shared<Recorder>) -> Vec<Span> {
    recorder.with(|r| r.spans().cloned().collect())
}

#[test]
fn cmesh_span_accounting_reconciles() {
    let mut net = CmeshBuilder::new().seed(17).build(pair());
    let recorder = Shared::new(Recorder::with_spans());
    net.attach_probe(Box::new(recorder.clone()));
    assert!(net.span_enabled());
    let summary = net.run(10_000);
    assert!(summary.delivered_packets > 0);
    assert_eq!(recorder.with(|r| r.dropped()), 0);

    // CMESH emits a packet's whole decomposition at delivery time, so
    // every trace is complete and there is exactly one per delivery.
    let traces = group_by_packet(&spans(&recorder));
    assert_eq!(traces.len() as u64, summary.delivered_packets);
    for t in &traces {
        assert!(t.ejected, "packet {} trace lacks an eject_drain span", t.packet);
        assert_eq!(t.spans.len(), 6, "packet {}: expected the six-stage decomposition", t.packet);
        assert!(t.is_contiguous(), "packet {} spans: {:?}", t.packet, t.spans);
        assert_eq!(
            t.total_cycles(),
            t.end_to_end(),
            "packet {}: stage cycles must sum to end-to-end latency",
            t.packet
        );
    }
    // Every electrical stage appears; retransmission is photonic-only.
    for kind in SpanKind::ALL {
        let present = traces.iter().flat_map(|t| &t.spans).any(|s| s.kind == kind);
        assert_eq!(
            present,
            kind != SpanKind::Retransmission,
            "unexpected presence/absence of {kind} in the CMESH trace"
        );
    }
    // Responses carry the causal link back to the request.
    assert!(traces.iter().any(|t| t.parent.is_some()), "no response trace cites its parent");
}

#[test]
fn cmesh_span_sinks_never_perturb_the_run() {
    let mut plain = CmeshBuilder::new().seed(7).build(pair());
    let plain_summary = plain.run(6_000);

    let mut with_null = CmeshBuilder::new().seed(7).build(pair());
    with_null.attach_probe(Box::new(NullProbe));
    assert!(!with_null.span_enabled(), "NullProbe must not arm the span path");
    let null_summary = with_null.run(6_000);
    assert_eq!(format!("{plain_summary:?}"), format!("{null_summary:?}"));
    assert_eq!(plain.state_hash(), with_null.state_hash());

    let mut with_recorder = CmeshBuilder::new().seed(7).build(pair());
    let recorder = Shared::new(Recorder::with_spans());
    with_recorder.attach_probe(Box::new(recorder.clone()));
    let rec_summary = with_recorder.run(6_000);
    assert_eq!(format!("{plain_summary:?}"), format!("{rec_summary:?}"));
    assert_eq!(plain.state_hash(), with_recorder.state_hash());
    assert!(!spans(&recorder).is_empty());
}

#[test]
fn cmesh_shared_probe_attaches_as_the_probe_it_wraps() {
    // The handle forwards `is_null` and `wants_spans`, so sharing a
    // probe changes neither whether it is kept nor whether it arms the
    // span path.
    let attached = |probe: Box<dyn Probe>| {
        let mut net = CmeshBuilder::new().seed(5).build(pair());
        net.attach_probe(probe);
        (net.probe_enabled(), net.span_enabled())
    };
    assert_eq!(attached(Box::new(Shared::new(NullProbe))), (false, false));
    assert_eq!(attached(Box::new(Shared::new(Recorder::new()))), (true, false));
    assert_eq!(attached(Box::new(Shared::new(Recorder::with_spans()))), (true, true));
}

#[test]
fn cmesh_span_stream_is_bit_identical_across_resume() {
    let (n, m) = (5_000u64, 4_000u64);

    let mut golden_net = CmeshBuilder::new().seed(19).build(pair());
    let golden_rec = Shared::new(Recorder::with_spans());
    golden_net.attach_probe(Box::new(golden_rec.clone()));
    golden_net.run(n + m);

    let mut first = CmeshBuilder::new().seed(19).build(pair());
    let pre_rec = Shared::new(Recorder::with_spans());
    first.attach_probe(Box::new(pre_rec.clone()));
    first.run(n);
    let cp = first.snapshot();

    let mut resumed = CmeshBuilder::new().seed(19).build(pair());
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
fn cmesh_restore_reactivates_span_tracking_from_snapshot() {
    // Restore keeps a checkpoint's span tracker, or makes a fresh one,
    // only for a probe that wants spans; without one it drops it.
    let build = || CmeshBuilder::new().seed(11).build(pair());
    let mut golden = build();
    golden.attach_probe(Box::new(Recorder::with_spans()));
    golden.run(5_000);

    let mut first = build();
    first.attach_probe(Box::new(Recorder::with_spans()));
    first.run(3_000);
    let cp = first.snapshot();

    let mut resumed = build();
    resumed.attach_probe(Box::new(Recorder::with_spans()));
    resumed.restore(&cp).expect("restore");
    assert!(resumed.span_enabled());
    resumed.run(2_000);
    assert_eq!(golden.snapshot().state.to_string(), resumed.snapshot().state.to_string());

    let mut bare = build();
    bare.restore(&cp).expect("restore");
    assert!(!bare.span_enabled(), "no probe wants spans, so none are tracked");
    bare.run(2_000);
    assert_eq!(golden.state_hash(), bare.state_hash());
    assert_eq!(bare.snapshot().state.get("spans"), Some(&JsonValue::Null));

    let mut plain = build();
    plain.run(3_000);
    let mut traced = build();
    traced.attach_probe(Box::new(Recorder::with_spans()));
    traced.restore(&plain.snapshot()).expect("restore");
    assert!(traced.span_enabled());
}

#[test]
fn cmesh_repeated_checkpoint_restore_with_spans_is_stable() {
    let mut net = CmeshBuilder::new().seed(3).build(pair());
    net.attach_probe(Box::new(Recorder::with_spans()));
    net.run(2_500);
    let cp1 = net.snapshot();

    let mut twin = CmeshBuilder::new().seed(3).build(pair());
    twin.attach_probe(Box::new(Recorder::with_spans()));
    twin.restore(&cp1).expect("restore");
    let cp2 = twin.snapshot();
    assert_eq!(
        cp1.to_json().to_string(),
        cp2.to_json().to_string(),
        "checkpoint with spans is not a fixed point"
    );
}
