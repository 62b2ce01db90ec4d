//! Per-packet causal spans and latency attribution.
//!
//! The [`crate::TraceEvent`] stream records *that* things happened (a
//! retransmission, a window close); it cannot say *why this packet was
//! slow*. A [`Span`] is a closed cycle interval of one packet's life
//! attributed to a pipeline stage ([`SpanKind`]):
//! the simulators emit, for every delivered packet, a set of spans
//! that tile `[injected_at, ejected_at]` exactly — no unattributed
//! cycles, no double counting — so the sum of a packet's span
//! durations *is* its end-to-end latency. That contract is pinned by
//! property tests in `pearl-core` and `pearl-cmesh`.
//!
//! Spans ride the probe seam as [`crate::TraceEvent::Span`]: a
//! simulator tracks spans only while its attached probe wants them
//! ([`crate::Probe::wants_spans`]), so without such a probe every span
//! site costs one predictable branch, and with one the simulated state
//! is still bit-identical (span bookkeeping never enters the state
//! hash). [`crate::Recorder::with_spans`] is the probe that wants them;
//! it keeps them among the events, in emission order, under its one
//! cap.
//!
//! Post-processing lives here too: grouping spans into per-packet
//! [`PacketTrace`]s, the per-stage percentile [`latency_breakdown`],
//! the [`critical_path`] of the slowest packets, and the
//! [`chrome_trace`] exporter whose JSON loads directly in Perfetto or
//! `chrome://tracing` (one track per router).

use crate::json::JsonValue;
use pearl_noc::CoreType;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The pipeline stage a span attributes cycles to.
///
/// The taxonomy covers both simulators: a PEARL packet walks
/// `inject_queue → reservation_wait → arbitration → serialization →
/// link_traversal → eject_drain` with `retransmission` (plus a second
/// `reservation_wait`/`serialization`/`link_traversal` round) inserted
/// per CRC-failed flight; a CMESH packet maps VC allocation onto
/// `arbitration`, credit stalls onto `reservation_wait` and the
/// wormhole hop pipeline onto `link_traversal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Waiting in the core's issue backlog / input buffer before
    /// becoming head of its injection lane.
    InjectQueue,
    /// Head of lane but the destination's receive buffer has no
    /// headroom (PEARL reservation protocol), or the stream is stalled
    /// on downstream credits (CMESH).
    ReservationWait,
    /// Head of lane but losing channel/switch arbitration (PEARL
    /// weighted arbiter, MWSR token wait) or waiting for a free
    /// virtual channel (CMESH VC allocation).
    Arbitration,
    /// Occupying the serializer: flits × per-flit cycles at the
    /// DBA-resized wavelength state (PEARL), or feeding flits into the
    /// local input VC one per cycle (CMESH).
    Serialization,
    /// Time of flight on the waveguide (PEARL) or the wormhole hop
    /// pipeline between source tail-out and destination head-in
    /// (CMESH).
    LinkTraversal,
    /// CRC/NACK backoff between a failed delivery and the cycle the
    /// retry becomes eligible.
    Retransmission,
    /// Landed in the destination receive buffer, waiting for the
    /// ejection port to drain it to the core.
    EjectDrain,
}

impl SpanKind {
    /// Every kind, in canonical pipeline order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::InjectQueue,
        SpanKind::ReservationWait,
        SpanKind::Arbitration,
        SpanKind::Serialization,
        SpanKind::LinkTraversal,
        SpanKind::Retransmission,
        SpanKind::EjectDrain,
    ];

    /// Stable snake_case name used in JSONL artifacts and Chrome
    /// trace event names.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::InjectQueue => "inject_queue",
            SpanKind::ReservationWait => "reservation_wait",
            SpanKind::Arbitration => "arbitration",
            SpanKind::Serialization => "serialization",
            SpanKind::LinkTraversal => "link_traversal",
            SpanKind::Retransmission => "retransmission",
            SpanKind::EjectDrain => "eject_drain",
        }
    }

    /// Parses the name produced by [`SpanKind::name`].
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One closed interval `[start, end]` of a packet's life attributed to
/// a [`SpanKind`]. Zero-length spans (`start == end`) are legal and
/// emitted — skipping them would make stage coverage depend on timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The packet this interval belongs to (stable monotonic id from
    /// `pearl-noc`; retransmitted flights keep the id, so every flight
    /// of one packet joins here).
    pub packet: u64,
    /// Causal parent: the packet id whose ejection spawned this one
    /// (a response's parent is its request). `None` for root packets.
    pub parent: Option<u64>,
    /// The stage the cycles are attributed to.
    pub kind: SpanKind,
    /// Router the stage ran at (source router for injection-side
    /// stages, destination router for `eject_drain`); doubles as the
    /// Chrome trace track id.
    pub router: usize,
    /// Traffic class of the packet (CPU or GPU lane).
    pub core: CoreType,
    /// Delivery attempt the span belongs to (0 = first flight).
    pub attempt: u32,
    /// First cycle of the interval.
    pub start: u64,
    /// One past the last attributed cycle (`end - start` = duration).
    pub end: u64,
}

impl Span {
    /// Attributed cycles.
    #[inline]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Every span of one packet, sorted by interval, plus the derived
/// attribution facts the reconciliation contract is stated over.
#[derive(Debug, Clone)]
pub struct PacketTrace {
    /// The packet id.
    pub packet: u64,
    /// Causal parent packet, if any span carried one.
    pub parent: Option<u64>,
    /// Traffic class.
    pub core: CoreType,
    /// The packet's spans sorted by `(start, end)`.
    pub spans: Vec<Span>,
    /// True when an `eject_drain` span is present — the packet
    /// completed its journey inside the traced window.
    pub ejected: bool,
}

impl PacketTrace {
    /// Earliest span start (the injection cycle for complete packets).
    pub fn first_start(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.start)
    }

    /// Latest span end (the ejection cycle for complete packets).
    pub fn last_end(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.end)
    }

    /// `last_end - first_start`: the packet's end-to-end latency when
    /// the trace is complete and contiguous.
    pub fn end_to_end(&self) -> u64 {
        self.last_end() - self.first_start()
    }

    /// Sum of span durations — equals [`PacketTrace::end_to_end`] iff
    /// the spans tile the interval with no gap or overlap.
    pub fn total_cycles(&self) -> u64 {
        self.spans.iter().map(Span::duration).sum()
    }

    /// True when the sorted spans tile `[first_start, last_end]`
    /// exactly: every span starts where the previous one ended.
    pub fn is_contiguous(&self) -> bool {
        let mut cursor = self.first_start();
        for s in &self.spans {
            if s.start != cursor {
                return false;
            }
            cursor = s.end;
        }
        cursor == self.last_end()
    }

    /// Total attributed cycles per kind, in [`SpanKind::ALL`] order
    /// (kinds with zero cycles and zero spans are omitted).
    pub fn per_kind(&self) -> Vec<(SpanKind, u64)> {
        let mut totals: BTreeMap<SpanKind, u64> = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.kind).or_insert(0) += s.duration();
        }
        SpanKind::ALL.into_iter().filter_map(|k| totals.get(&k).map(|&t| (k, t))).collect()
    }
}

/// Groups spans by packet id (ascending), sorting each packet's spans
/// by `(start, end)` — zero-length boundary spans order before the
/// interval they abut.
pub fn group_by_packet(spans: &[Span]) -> Vec<PacketTrace> {
    let mut by_packet: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_packet.entry(s.packet).or_default().push(s.clone());
    }
    by_packet
        .into_iter()
        .map(|(packet, mut spans)| {
            spans.sort_by_key(|s| (s.start, s.end));
            let parent = spans.iter().find_map(|s| s.parent);
            let core = spans[0].core;
            let ejected = spans.iter().any(|s| s.kind == SpanKind::EjectDrain);
            PacketTrace { packet, parent, core, spans, ejected }
        })
        .collect()
}

/// One row of the per-stage latency breakdown.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// The stage.
    pub kind: SpanKind,
    /// The traffic class the row aggregates.
    pub core: CoreType,
    /// Number of spans.
    pub count: u64,
    /// Total attributed cycles.
    pub total: u64,
    /// Median span duration (nearest-rank).
    pub p50: u64,
    /// 95th-percentile span duration.
    pub p95: u64,
    /// 99th-percentile span duration.
    pub p99: u64,
    /// Longest span duration.
    pub max: u64,
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in
/// `(0, 100]`). Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregates spans into per-`(kind, core)` percentile rows, kind-major
/// in [`SpanKind::ALL`] order (CPU before GPU); empty cells are
/// omitted.
pub fn latency_breakdown(spans: &[Span]) -> Vec<BreakdownRow> {
    let mut cells: BTreeMap<(SpanKind, bool), Vec<u64>> = BTreeMap::new();
    for s in spans {
        cells.entry((s.kind, s.core == CoreType::Gpu)).or_default().push(s.duration());
    }
    let mut rows = Vec::new();
    for kind in SpanKind::ALL {
        for (gpu, core) in [(false, CoreType::Cpu), (true, CoreType::Gpu)] {
            if let Some(durations) = cells.get_mut(&(kind, gpu)) {
                durations.sort_unstable();
                rows.push(BreakdownRow {
                    kind,
                    core,
                    count: durations.len() as u64,
                    total: durations.iter().sum(),
                    p50: percentile(durations, 50.0),
                    p95: percentile(durations, 95.0),
                    p99: percentile(durations, 99.0),
                    max: *durations.last().expect("non-empty cell"),
                });
            }
        }
    }
    rows
}

/// Where one of the slowest packets spent its cycles.
#[derive(Debug, Clone)]
pub struct CriticalPathEntry {
    /// The packet.
    pub packet: u64,
    /// Its traffic class.
    pub core: CoreType,
    /// End-to-end latency in cycles.
    pub latency: u64,
    /// Number of delivery attempts observed (1 = no retransmission).
    pub attempts: u32,
    /// Total attributed cycles per stage, pipeline order.
    pub per_kind: Vec<(SpanKind, u64)>,
    /// The stage that dominates the latency.
    pub dominant: SpanKind,
}

/// The critical-path summary: the `worst` highest-latency *complete*
/// packets (those with an `eject_drain` span), each decomposed into
/// per-stage totals with the dominant stage called out. Ties break
/// toward the lower packet id so the summary is deterministic.
pub fn critical_path(spans: &[Span], worst: usize) -> Vec<CriticalPathEntry> {
    let mut complete: Vec<PacketTrace> =
        group_by_packet(spans).into_iter().filter(|t| t.ejected).collect();
    complete.sort_by_key(|t| (std::cmp::Reverse(t.end_to_end()), t.packet));
    complete
        .into_iter()
        .take(worst)
        .map(|t| {
            let per_kind = t.per_kind();
            let dominant = per_kind
                .iter()
                .max_by_key(|(_, cycles)| *cycles)
                .map_or(SpanKind::InjectQueue, |(k, _)| *k);
            let attempts = t.spans.iter().map(|s| s.attempt).max().unwrap_or(0) + 1;
            CriticalPathEntry {
                packet: t.packet,
                core: t.core,
                latency: t.end_to_end(),
                attempts,
                per_kind,
                dominant,
            }
        })
        .collect()
}

fn core_name(core: CoreType) -> &'static str {
    match core {
        CoreType::Cpu => "cpu",
        CoreType::Gpu => "gpu",
    }
}

/// Renders spans as a Chrome trace-event JSON object loadable in
/// Perfetto or `chrome://tracing`: one process (`pid` 0), one track
/// (`tid`) per router, each span a complete (`"ph": "X"`) event whose
/// timestamp/duration are simulation cycles (displayed as µs), with
/// packet id, traffic class, attempt and causal parent in `args`.
pub fn chrome_trace(spans: &[Span]) -> JsonValue {
    let routers: BTreeSet<usize> = spans.iter().map(|s| s.router).collect();
    let mut events = Vec::with_capacity(spans.len() + routers.len() + 1);
    events.push(JsonValue::obj(vec![
        ("name", JsonValue::str("process_name")),
        ("ph", JsonValue::str("M")),
        ("pid", JsonValue::u64(0)),
        ("tid", JsonValue::u64(0)),
        ("args", JsonValue::obj(vec![("name", JsonValue::str("pearl"))])),
    ]));
    for router in routers {
        events.push(JsonValue::obj(vec![
            ("name", JsonValue::str("thread_name")),
            ("ph", JsonValue::str("M")),
            ("pid", JsonValue::u64(0)),
            ("tid", JsonValue::u64(router as u64)),
            ("args", JsonValue::obj(vec![("name", JsonValue::str(format!("router {router}")))])),
        ]));
    }
    for s in spans {
        let mut args = vec![
            ("packet", JsonValue::u64(s.packet)),
            ("core", JsonValue::str(core_name(s.core))),
            ("attempt", JsonValue::u64(u64::from(s.attempt))),
        ];
        if let Some(parent) = s.parent {
            args.push(("parent", JsonValue::u64(parent)));
        }
        events.push(JsonValue::obj(vec![
            ("name", JsonValue::str(s.kind.name())),
            ("cat", JsonValue::str("span")),
            ("ph", JsonValue::str("X")),
            ("ts", JsonValue::u64(s.start)),
            ("dur", JsonValue::u64(s.duration())),
            ("pid", JsonValue::u64(0)),
            ("tid", JsonValue::u64(s.router as u64)),
            ("args", JsonValue::obj(args)),
        ]));
    }
    JsonValue::obj(vec![
        ("traceEvents", JsonValue::Arr(events)),
        ("displayTimeUnit", JsonValue::str("ms")),
    ])
}

/// Shape summary of a parsed Chrome trace, produced by
/// [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Number of `"ph": "X"` span events.
    pub span_events: u64,
    /// Distinct span kinds present, pipeline order.
    pub kinds: Vec<SpanKind>,
    /// Distinct router tracks carrying span events.
    pub tracks: u64,
}

/// Validates a parsed Chrome trace object: `traceEvents` must be an
/// array, every complete event must carry numeric `ts`/`dur`/`tid` and
/// a name that parses as a [`SpanKind`].
///
/// # Errors
///
/// A static description of the first structural violation.
pub fn validate_chrome_trace(v: &JsonValue) -> Result<ChromeTraceSummary, &'static str> {
    let events =
        v.get("traceEvents").and_then(JsonValue::as_arr).ok_or("missing traceEvents array")?;
    let mut span_events = 0u64;
    let mut kinds = BTreeSet::new();
    let mut tracks = BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).ok_or("event without ph")?;
        if ph != "X" {
            continue;
        }
        let name = e.get("name").and_then(JsonValue::as_str).ok_or("span event without name")?;
        let kind = SpanKind::from_name(name).ok_or("span event name is not a SpanKind")?;
        e.get("ts").and_then(JsonValue::as_u64).ok_or("span event without numeric ts")?;
        e.get("dur").and_then(JsonValue::as_u64).ok_or("span event without numeric dur")?;
        let tid = e.get("tid").and_then(JsonValue::as_u64).ok_or("span event without tid")?;
        span_events += 1;
        kinds.insert(kind);
        tracks.insert(tid);
    }
    Ok(ChromeTraceSummary {
        span_events,
        kinds: kinds.into_iter().collect(),
        tracks: tracks.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(packet: u64, kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            packet,
            parent: None,
            kind,
            router: packet as usize % 4,
            core: if packet.is_multiple_of(2) { CoreType::Cpu } else { CoreType::Gpu },
            attempt: 0,
            start,
            end,
        }
    }

    /// A complete, contiguous packet: 0..2 queue, 2..3 res, 3..3 arb
    /// (zero-length), 3..7 serialization, 7..12 link, 12..14 drain.
    fn complete_packet(packet: u64, offset: u64) -> Vec<Span> {
        [
            (SpanKind::InjectQueue, 0, 2),
            (SpanKind::ReservationWait, 2, 3),
            (SpanKind::Arbitration, 3, 3),
            (SpanKind::Serialization, 3, 7),
            (SpanKind::LinkTraversal, 7, 12),
            (SpanKind::EjectDrain, 12, 14),
        ]
        .into_iter()
        .map(|(k, s, e)| span(packet, k, s + offset, e + offset))
        .collect()
    }

    #[test]
    fn kind_names_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(k.name()), Some(k));
        }
        assert_eq!(SpanKind::from_name("bogus"), None);
    }

    #[test]
    fn null_sink_identifies_itself() {
        use crate::{NullProbe, Probe, Recorder, Shared};
        // The null probe neither records nor asks for spans; the span
        // recorder is a live probe that does, also behind a shared handle.
        assert!(NullProbe.is_null() && !NullProbe.wants_spans());
        let recorder = Recorder::with_spans();
        assert!(!recorder.is_null() && recorder.wants_spans());
        let shared = Shared::new(Recorder::with_spans());
        assert!(!shared.is_null() && shared.wants_spans());
        assert!(!Shared::new(Recorder::new()).wants_spans());
    }

    #[test]
    fn packet_trace_reconciles_contiguous_spans() {
        let mut spans = complete_packet(4, 100);
        // Deliberately shuffle emission order; grouping must sort.
        spans.reverse();
        let traces = group_by_packet(&spans);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert!(t.ejected);
        assert!(t.is_contiguous());
        assert_eq!(t.first_start(), 100);
        assert_eq!(t.last_end(), 114);
        assert_eq!(t.total_cycles(), t.end_to_end());
        assert_eq!(t.end_to_end(), 14);
    }

    #[test]
    fn gaps_and_overlaps_fail_contiguity() {
        let gap = vec![
            span(1, SpanKind::InjectQueue, 0, 2),
            span(1, SpanKind::Serialization, 3, 5), // gap 2..3
        ];
        assert!(!group_by_packet(&gap)[0].is_contiguous());
        let overlap = vec![
            span(1, SpanKind::InjectQueue, 0, 3),
            span(1, SpanKind::Serialization, 2, 5), // overlap 2..3
        ];
        assert!(!group_by_packet(&overlap)[0].is_contiguous());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 95.0), 95);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn breakdown_groups_by_kind_and_core() {
        let mut spans = complete_packet(2, 0); // CPU
        spans.extend(complete_packet(3, 50)); // GPU
        let rows = latency_breakdown(&spans);
        // 6 kinds × 2 cores, no retransmission cell.
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.kind != SpanKind::Retransmission));
        let ser_cpu = rows
            .iter()
            .find(|r| r.kind == SpanKind::Serialization && r.core == CoreType::Cpu)
            .unwrap();
        assert_eq!(ser_cpu.count, 1);
        assert_eq!(ser_cpu.p50, 4);
        assert_eq!(ser_cpu.total, 4);
        assert_eq!(ser_cpu.max, 4);
        // Kind-major ordering follows the pipeline.
        let kind_positions: Vec<SpanKind> = rows.iter().map(|r| r.kind).collect();
        let mut sorted = kind_positions.clone();
        sorted.sort();
        assert_eq!(kind_positions, sorted);
    }

    #[test]
    fn critical_path_ranks_complete_packets_by_latency() {
        let mut spans = complete_packet(1, 0);
        // Packet 2: same shape plus a retransmission round — slower.
        spans.extend(complete_packet(2, 0));
        spans.push(Span { attempt: 1, ..span(2, SpanKind::Retransmission, 14, 64) });
        spans.push(Span { attempt: 1, ..span(2, SpanKind::Serialization, 64, 68) });
        spans.push(Span { attempt: 1, ..span(2, SpanKind::EjectDrain, 68, 70) });
        // Packet 3 never ejects: excluded.
        spans.push(span(3, SpanKind::InjectQueue, 0, 1_000));
        let path = critical_path(&spans, 2);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].packet, 2);
        assert_eq!(path[0].latency, 70);
        assert_eq!(path[0].attempts, 2);
        assert_eq!(path[0].dominant, SpanKind::Retransmission);
        assert_eq!(path[1].packet, 1);
        assert_eq!(path[1].latency, 14);
    }

    #[test]
    fn chrome_trace_exports_and_validates() {
        let mut spans = complete_packet(10, 0);
        spans.push(Span { parent: Some(10), ..span(11, SpanKind::Retransmission, 20, 30) });
        let trace = chrome_trace(&spans);
        // The exporter's own output must parse and validate.
        let parsed = JsonValue::parse(&trace.to_string()).expect("chrome trace JSON parses");
        let summary = validate_chrome_trace(&parsed).expect("chrome trace validates");
        assert_eq!(summary.span_events, spans.len() as u64);
        assert!(summary.kinds.contains(&SpanKind::Retransmission));
        assert!(summary.tracks >= 1);
        // Metadata names each router track.
        let text = trace.to_string();
        assert!(text.contains("thread_name"));
        assert!(text.contains("\"displayTimeUnit\""));
    }

    #[test]
    fn chrome_trace_validation_rejects_alien_shapes() {
        let bad =
            JsonValue::parse("{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"mystery\"}]}").unwrap();
        assert!(validate_chrome_trace(&bad).is_err());
        let not_an_array = JsonValue::parse("{\"traceEvents\":3}").unwrap();
        assert!(validate_chrome_trace(&not_an_array).is_err());
    }
}
