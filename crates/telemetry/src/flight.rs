//! The black-box flight recorder: a bounded ring of the most recent
//! trace events and spans, dumpable as a sealed post-mortem artifact.
//!
//! The offline [`crate::Recorder`] buffers the head of a whole run for
//! later analysis. A [`FlightRecorder`] is the live complement: it
//! keeps only the last N events and the last N spans (evicting the
//! oldest, with explicit eviction counters — never silent truncation)
//! plus a complete per-kind census of everything it ever saw. When a
//! run stalls, panics or is asked for a health dump,
//! [`FlightRecorder::dump`] writes a sealed `flightrec v1`
//! artifact through the [`Storage`] trait; [`FlightDump::read`] reads
//! one back and [`FlightDump::reconcile`] checks its internal invariants
//! (ring + evicted = seen, census sums match) so a corrupted or
//! hand-edited post-mortem is caught instead of trusted.
//!
//! Harnesses hold it through a [`crate::Shared`] handle, which is
//! `Send + Sync`: a post-mortem dump must be reachable from a
//! `std::panic::set_hook` closure while the same recorder is attached
//! to a network as a probe. The recorder obeys the observer contract:
//! owners call it only while it is attached as a live probe, and it is
//! never part of a checkpoint or a state hash, so attaching it cannot
//! perturb simulation results.
//!
//! The recorder does not ask for spans ([`Probe::wants_spans`] stays
//! false): `pearl-serve` always attaches one, and span bookkeeping
//! would cost every served run. Its span ring fills only when it sits
//! in a [`crate::FanoutProbe`] beside a probe that wants spans, such as
//! [`crate::Recorder::with_spans`].

use crate::event::{Probe, TraceEvent};
use crate::journal::{read_sealed, write_sealed};
use crate::json::JsonValue;
use crate::jsonl::{event_from_json, event_to_json};
use crate::span::Span;
use crate::storage::Storage;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

/// Default ring capacity for both the event and the span ring: small
/// enough to dump instantly, large enough to show the final window of a
/// wedged run.
pub const DEFAULT_FLIGHT_CAP: usize = 4096;

/// `kind` tag of the sealed flight-recorder artifact.
pub const FLIGHTREC_KIND: &str = "flightrec";

/// Schema tag inside the payload; bumped on incompatible layout change.
pub const FLIGHTREC_SCHEMA: &str = "flightrec v1";

/// A bounded ring of the most recent events and spans with a complete
/// per-kind census of everything seen.
#[derive(Debug)]
pub struct FlightRecorder {
    events: VecDeque<TraceEvent>,
    event_cap: usize,
    events_seen: u64,
    events_evicted: u64,
    /// Keyed by [`TraceEvent::kind`], so counting allocates nothing
    /// once a kind has been seen.
    event_census: BTreeMap<&'static str, u64>,
    spans: VecDeque<Span>,
    span_cap: usize,
    spans_seen: u64,
    spans_evicted: u64,
    /// Keyed by [`crate::SpanKind::name`].
    span_census: BTreeMap<&'static str, u64>,
}

impl FlightRecorder {
    /// A recorder with the default ring capacities.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_caps(DEFAULT_FLIGHT_CAP, DEFAULT_FLIGHT_CAP)
    }

    /// A recorder keeping at most `event_cap` events and `span_cap`
    /// spans (both clamped to ≥ 1).
    pub fn with_caps(event_cap: usize, span_cap: usize) -> FlightRecorder {
        FlightRecorder {
            events: VecDeque::new(),
            event_cap: event_cap.max(1),
            events_seen: 0,
            events_evicted: 0,
            event_census: BTreeMap::new(),
            spans: VecDeque::new(),
            span_cap: span_cap.max(1),
            spans_seen: 0,
            spans_evicted: 0,
            span_census: BTreeMap::new(),
        }
    }

    /// Records one event: census always, ring with oldest-first
    /// eviction.
    pub fn record_event(&mut self, event: &TraceEvent) {
        self.events_seen += 1;
        *self.event_census.entry(event.kind()).or_insert(0) += 1;
        if self.events.len() == self.event_cap {
            self.events.pop_front();
            self.events_evicted += 1;
        }
        self.events.push_back(event.clone());
    }

    /// Records one closed span: census always, ring with oldest-first
    /// eviction.
    pub fn record_span(&mut self, span: &Span) {
        self.spans_seen += 1;
        *self.span_census.entry(span.kind.name()).or_insert(0) += 1;
        if self.spans.len() == self.span_cap {
            self.spans.pop_front();
            self.spans_evicted += 1;
        }
        self.spans.push_back(span.clone());
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Spans currently in the ring, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Total events ever recorded (ring + evicted).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Total spans ever recorded (ring + evicted).
    pub fn spans_seen(&self) -> u64 {
        self.spans_seen
    }

    /// Events evicted from the front of the ring.
    pub fn events_evicted(&self) -> u64 {
        self.events_evicted
    }

    /// Spans evicted from the front of the ring.
    pub fn spans_evicted(&self) -> u64 {
        self.spans_evicted
    }

    /// The `flightrec v1` payload: schema tag, totals, per-kind census
    /// and both rings (spans ride as `"span"` trace-event lines so one
    /// reader covers both arrays).
    pub fn payload(&self) -> JsonValue {
        let census = |m: &BTreeMap<&'static str, u64>| {
            JsonValue::Obj(m.iter().map(|(k, v)| (k.to_string(), JsonValue::u64(*v))).collect())
        };
        JsonValue::obj(vec![
            ("schema", JsonValue::str(FLIGHTREC_SCHEMA)),
            ("events_seen", JsonValue::u64(self.events_seen)),
            ("events_evicted", JsonValue::u64(self.events_evicted)),
            ("spans_seen", JsonValue::u64(self.spans_seen)),
            ("spans_evicted", JsonValue::u64(self.spans_evicted)),
            ("event_census", census(&self.event_census)),
            ("span_census", census(&self.span_census)),
            ("events", JsonValue::Arr(self.events.iter().map(event_to_json).collect())),
            (
                "spans",
                JsonValue::Arr(
                    self.spans
                        .iter()
                        .map(|s| event_to_json(&TraceEvent::Span(s.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the sealed artifact to `path` through `storage`
    /// (atomically, parents created).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn dump(&self, storage: &dyn Storage, path: &Path) -> std::io::Result<()> {
        write_sealed(storage, path, FLIGHTREC_KIND, &self.payload())
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

/// Spans go to the span ring, every other event to the event ring.
impl Probe for FlightRecorder {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Span(span) => self.record_span(span),
            event => self.record_event(event),
        }
    }
}

/// A parsed `flightrec v1` artifact, ready for rendering and
/// reconciliation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// The schema tag found in the payload.
    pub schema: String,
    /// Total events the recorder ever saw.
    pub events_seen: u64,
    /// Events evicted from the ring.
    pub events_evicted: u64,
    /// Total spans the recorder ever saw.
    pub spans_seen: u64,
    /// Spans evicted from the ring.
    pub spans_evicted: u64,
    /// Per-kind event counts over the whole run, sorted by kind.
    pub event_census: Vec<(String, u64)>,
    /// Per-kind span counts over the whole run, sorted by kind.
    pub span_census: Vec<(String, u64)>,
    /// The surviving event ring, oldest first.
    pub events: Vec<TraceEvent>,
    /// The surviving span ring, oldest first.
    pub spans: Vec<Span>,
}

impl FlightDump {
    /// Reads and unseals the artifact at `path`, then parses the
    /// payload. Reconciliation is separate — see
    /// [`FlightDump::reconcile`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first seal, shape or parse
    /// failure.
    pub fn read(storage: &dyn Storage, path: &Path) -> Result<FlightDump, String> {
        let payload = read_sealed(storage, path, FLIGHTREC_KIND)
            .map_err(|e| format!("unseal {}: {e:?}", path.display()))?;
        FlightDump::from_payload(&payload)
    }

    /// Parses an unsealed `flightrec v1` payload.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_payload(payload: &JsonValue) -> Result<FlightDump, String> {
        let schema = payload
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing schema tag")?
            .to_string();
        let count = |key: &str| {
            payload.get(key).and_then(JsonValue::as_u64).ok_or(format!("missing count {key}"))
        };
        let census = |key: &str| -> Result<Vec<(String, u64)>, String> {
            match payload.get(key) {
                Some(JsonValue::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        v.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or(format!("non-integer census entry {key}.{k}"))
                    })
                    .collect(),
                _ => Err(format!("missing census {key}")),
            }
        };
        let events = payload
            .get("events")
            .and_then(JsonValue::as_arr)
            .ok_or("missing events array")?
            .iter()
            .enumerate()
            .map(|(i, v)| event_from_json(v).ok_or(format!("unparseable event at index {i}")))
            .collect::<Result<Vec<_>, _>>()?;
        let spans = payload
            .get("spans")
            .and_then(JsonValue::as_arr)
            .ok_or("missing spans array")?
            .iter()
            .enumerate()
            .map(|(i, v)| match event_from_json(v) {
                Some(TraceEvent::Span(s)) => Ok(s),
                _ => Err(format!("unparseable span at index {i}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FlightDump {
            schema,
            events_seen: count("events_seen")?,
            events_evicted: count("events_evicted")?,
            spans_seen: count("spans_seen")?,
            spans_evicted: count("spans_evicted")?,
            event_census: census("event_census")?,
            span_census: census("span_census")?,
            events,
            spans,
        })
    }

    /// Checks the artifact's internal invariants: the schema tag, that
    /// ring + evicted equals seen on both sides, that each census sums
    /// to its seen total, and that no kind has more ring entries than
    /// its census claims.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn reconcile(&self) -> Result<(), String> {
        if self.schema != FLIGHTREC_SCHEMA {
            return Err(format!("schema {:?}, expected {FLIGHTREC_SCHEMA:?}", self.schema));
        }
        let sides = [
            ("event", self.events.len() as u64, self.events_evicted, self.events_seen),
            ("span", self.spans.len() as u64, self.spans_evicted, self.spans_seen),
        ];
        for (what, ring, evicted, seen) in sides {
            if ring + evicted != seen {
                return Err(format!("{what} ring {ring} + evicted {evicted} != seen {seen}"));
            }
        }
        let census_total: u64 = self.event_census.iter().map(|(_, n)| n).sum();
        if census_total != self.events_seen {
            return Err(format!("event census sums to {census_total}, seen {}", self.events_seen));
        }
        let span_census_total: u64 = self.span_census.iter().map(|(_, n)| n).sum();
        if span_census_total != self.spans_seen {
            return Err(format!(
                "span census sums to {span_census_total}, seen {}",
                self.spans_seen
            ));
        }
        for (kind, claimed) in &self.event_census {
            let in_ring = self.events.iter().filter(|e| e.kind() == kind).count() as u64;
            if in_ring > *claimed {
                return Err(format!(
                    "{in_ring} ring events of kind {kind}, census claims {claimed}"
                ));
            }
        }
        for (kind, claimed) in &self.span_census {
            let in_ring = self.spans.iter().filter(|s| s.kind.name() == *kind).count() as u64;
            if in_ring > *claimed {
                return Err(format!(
                    "{in_ring} ring spans of kind {kind}, census claims {claimed}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Shared;
    use crate::span::SpanKind;
    use crate::storage::OsStorage;
    use pearl_noc::CoreType;

    fn event(at: u64) -> TraceEvent {
        TraceEvent::InjectionStall { router: 3, at, core: CoreType::Gpu }
    }

    fn span(at: u64) -> Span {
        Span {
            packet: at,
            parent: None,
            kind: SpanKind::Serialization,
            router: 1,
            core: CoreType::Cpu,
            attempt: 0,
            start: at,
            end: at + 4,
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pearl-telemetry-flight-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let mut fr = FlightRecorder::with_caps(3, 2);
        for at in 0..10 {
            fr.record_event(&event(at));
        }
        for at in 0..5 {
            fr.record_span(&span(at));
        }
        assert_eq!(fr.events_seen(), 10);
        assert_eq!(fr.events_evicted(), 7);
        let ats: Vec<u64> = fr.events().map(TraceEvent::at).collect();
        assert_eq!(ats, [7, 8, 9], "oldest evicted, newest kept");
        assert_eq!(fr.spans_seen(), 5);
        assert_eq!(fr.spans_evicted(), 3);
        assert_eq!(fr.spans().map(|s| s.start).collect::<Vec<_>>(), [3, 4]);
    }

    #[test]
    fn dump_round_trips_and_reconciles() {
        let dir = scratch("roundtrip");
        let path = dir.join("flightrec.json");
        let mut fr = FlightRecorder::with_caps(4, 4);
        for at in 0..9 {
            fr.record_event(&event(at));
        }
        fr.record_event(&TraceEvent::Retransmission {
            packet: 1,
            src: 0,
            dst: 16,
            at: 99,
            attempts: 1,
            backoff_cycles: 8,
        });
        fr.record_span(&span(7));
        fr.dump(&OsStorage, &path).unwrap();

        let dump = FlightDump::read(&OsStorage, &path).unwrap();
        dump.reconcile().unwrap();
        assert_eq!(dump.events_seen, 10);
        assert_eq!(dump.events.len(), 4);
        assert_eq!(dump.events_evicted, 6);
        assert_eq!(
            dump.event_census,
            vec![("injection_stall".to_string(), 9), ("retransmission".to_string(), 1)]
        );
        assert_eq!(dump.spans, vec![span(7)]);
        assert_eq!(dump.span_census, vec![("serialization".to_string(), 1)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reconcile_rejects_inconsistent_totals() {
        let mut fr = FlightRecorder::new();
        fr.record_event(&event(1));
        let mut dump = FlightDump::from_payload(&fr.payload()).unwrap();
        dump.reconcile().unwrap();
        dump.events_seen = 7;
        let err = dump.reconcile().unwrap_err();
        assert!(err.contains("ring 1 + evicted 0 != seen 7"), "got: {err}");
    }

    #[test]
    fn tampered_artifact_fails_the_seal() {
        let dir = scratch("tamper");
        let path = dir.join("flightrec.json");
        let mut fr = FlightRecorder::new();
        fr.record_event(&event(5));
        fr.dump(&OsStorage, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"events_seen\":1", "\"events_seen\":2")).unwrap();
        assert!(FlightDump::read(&OsStorage, &path).unwrap_err().contains("HashMismatch"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_handle_works_as_probe_sink_and_across_threads() {
        let shared = Shared::new(FlightRecorder::with_caps(8, 8));
        let mut probe: Box<dyn Probe> = Box::new(shared.clone());
        assert!(!probe.wants_spans(), "the flight recorder never switches span tracking on");
        probe.record(&event(1));
        // A span handed to the probe lands in the span ring.
        probe.record(&TraceEvent::Span(span(2)));

        // The same handle must be usable from another thread — the
        // panic-hook requirement.
        let other = shared.clone();
        std::thread::spawn(move || {
            let mut h = other;
            h.record(&event(3));
        })
        .join()
        .unwrap();
        assert_eq!(shared.with(|r| (r.events_seen(), r.spans_seen())), (2, 1));
    }

    #[test]
    fn shared_handle_survives_a_panic_inside_with() {
        let dir = scratch("poison");
        let path = dir.join("flightrec.json");
        let shared = Shared::new(FlightRecorder::with_caps(8, 8));
        let mut probe = shared.clone();
        probe.record(&event(1));

        // A clone panics while holding the lock, poisoning it.
        let other = shared.clone();
        let joined = std::thread::spawn(move || {
            other.with(|r| {
                r.record_event(&event(2));
                panic!("injected panic inside with");
            })
        })
        .join();
        assert!(joined.is_err(), "the other thread panicked");

        // Every path through the handle still works after the poison.
        probe.record(&event(3));
        probe.record(&TraceEvent::Span(span(4)));
        assert_eq!(shared.with(|r| (r.events_seen(), r.spans_seen())), (3, 1));
        shared.with(|r| r.dump(&OsStorage, &path)).unwrap();
        let dump = FlightDump::read(&OsStorage, &path).unwrap();
        dump.reconcile().unwrap();
        assert_eq!(dump.events.iter().map(TraceEvent::at).collect::<Vec<_>>(), [1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
