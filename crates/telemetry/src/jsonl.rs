//! JSON Lines serialization of [`TraceEvent`]s.
//!
//! One event per line, each a flat object with a snake_case `"event"`
//! tag. Wavelength states are written as their λ counts (8/16/32/48/64)
//! so traces are greppable without knowing the enum; core types as
//! `"cpu"`/`"gpu"`; fault kinds by their snake_case names. The reader
//! rejects unknown tags and malformed fields — round-tripping every
//! variant is pinned by tests.
//!
//! [`write_trace_file`] and [`read_trace_file`] persist a trace through
//! the [`Storage`] they take first, so trace artifacts share the
//! atomic-write contract and the fault injection of every other
//! artifact.

use crate::event::{LadderMode, TraceEvent, TransitionCause};
use crate::json::{JsonError, JsonValue};
use crate::span::{Span, SpanKind};
use crate::storage::Storage;
use pearl_noc::CoreType;
use pearl_photonics::{FaultEventKind, WavelengthState};
use std::fmt;
use std::io::{BufRead, Write};
use std::path::Path;

/// A serialization or deserialization failure.
#[derive(Debug)]
pub enum JsonlError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse as JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// Parser diagnostic.
        source: JsonError,
    },
    /// A line parsed as JSON but not as a known event.
    BadEvent {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: &'static str,
        /// The offending line, verbatim, so callers can print exactly
        /// what was rejected instead of silently skipping it.
        content: String,
    },
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonlError::Io(e) => write!(f, "I/O error: {e}"),
            JsonlError::Json { line, source } => write!(f, "line {line}: {source}"),
            JsonlError::BadEvent { line, reason, content } => {
                write!(f, "line {line}: {reason}: {content}")
            }
        }
    }
}

impl std::error::Error for JsonlError {}

impl From<std::io::Error> for JsonlError {
    fn from(e: std::io::Error) -> Self {
        JsonlError::Io(e)
    }
}

fn state_json(s: WavelengthState) -> JsonValue {
    JsonValue::u64(u64::from(s.wavelengths()))
}

fn state_from_json(v: &JsonValue) -> Option<WavelengthState> {
    let n = v.as_u64()?;
    WavelengthState::from_wavelengths(u32::try_from(n).ok()?)
}

fn core_json(c: CoreType) -> JsonValue {
    JsonValue::str(match c {
        CoreType::Cpu => "cpu",
        CoreType::Gpu => "gpu",
    })
}

fn core_from_json(v: &JsonValue) -> Option<CoreType> {
    match v.as_str()? {
        "cpu" => Some(CoreType::Cpu),
        "gpu" => Some(CoreType::Gpu),
        _ => None,
    }
}

fn fault_kind_name(k: FaultEventKind) -> &'static str {
    match k {
        FaultEventKind::LambdaFail => "lambda_fail",
        FaultEventKind::LambdaRepair => "lambda_repair",
        FaultEventKind::LaserDegrade => "laser_degrade",
        FaultEventKind::LaserRecover => "laser_recover",
    }
}

fn fault_kind_from_name(name: &str) -> Option<FaultEventKind> {
    match name {
        "lambda_fail" => Some(FaultEventKind::LambdaFail),
        "lambda_repair" => Some(FaultEventKind::LambdaRepair),
        "laser_degrade" => Some(FaultEventKind::LaserDegrade),
        "laser_recover" => Some(FaultEventKind::LaserRecover),
        _ => None,
    }
}

/// Renders one event as its single-line JSON object.
pub fn event_to_json(event: &TraceEvent) -> JsonValue {
    let tag = JsonValue::str(event.kind());
    match event {
        TraceEvent::DbaRealloc { router, at, beta_cpu, beta_gpu, cpu_share } => {
            JsonValue::obj(vec![
                ("event", tag),
                ("at", JsonValue::u64(*at)),
                ("router", JsonValue::u64(*router as u64)),
                ("beta_cpu", JsonValue::Num(*beta_cpu)),
                ("beta_gpu", JsonValue::Num(*beta_gpu)),
                ("cpu_share", JsonValue::Num(*cpu_share)),
            ])
        }
        TraceEvent::WavelengthTransition { router, at, from, to, cause } => JsonValue::obj(vec![
            ("event", tag),
            ("at", JsonValue::u64(*at)),
            ("router", JsonValue::u64(*router as u64)),
            ("from", state_json(*from)),
            ("to", state_json(*to)),
            ("cause", JsonValue::str(cause.name())),
        ]),
        TraceEvent::LadderTransition { at, from, to, score } => JsonValue::obj(vec![
            ("event", tag),
            ("at", JsonValue::u64(*at)),
            ("from", JsonValue::str(from.name())),
            ("to", JsonValue::str(to.name())),
            ("score", score.map_or(JsonValue::Null, JsonValue::Num)),
        ]),
        TraceEvent::Retransmission { packet, src, dst, at, attempts, backoff_cycles } => {
            JsonValue::obj(vec![
                ("event", tag),
                ("at", JsonValue::u64(*at)),
                ("packet", JsonValue::u64(*packet)),
                ("src", JsonValue::u64(*src as u64)),
                ("dst", JsonValue::u64(*dst as u64)),
                ("attempts", JsonValue::u64(u64::from(*attempts))),
                ("backoff_cycles", JsonValue::u64(*backoff_cycles)),
            ])
        }
        TraceEvent::InjectionStall { router, at, core } => JsonValue::obj(vec![
            ("event", tag),
            ("at", JsonValue::u64(*at)),
            ("router", JsonValue::u64(*router as u64)),
            ("core", core_json(*core)),
        ]),
        TraceEvent::WindowClose { router, at, beta_total, predicted_flits, target } => {
            JsonValue::obj(vec![
                ("event", tag),
                ("at", JsonValue::u64(*at)),
                ("router", JsonValue::u64(*router as u64)),
                ("beta_total", JsonValue::Num(*beta_total)),
                ("predicted_flits", predicted_flits.map_or(JsonValue::Null, JsonValue::Num)),
                ("target", state_json(*target)),
            ])
        }
        TraceEvent::Fault { router, at, kind } => JsonValue::obj(vec![
            ("event", tag),
            ("at", JsonValue::u64(*at)),
            ("router", JsonValue::u64(*router as u64)),
            ("kind", JsonValue::str(fault_kind_name(*kind))),
        ]),
        TraceEvent::Span(s) => JsonValue::obj(vec![
            ("event", tag),
            ("span", JsonValue::str(s.kind.name())),
            ("packet", JsonValue::u64(s.packet)),
            ("parent", s.parent.map_or(JsonValue::Null, JsonValue::u64)),
            ("router", JsonValue::u64(s.router as u64)),
            ("core", core_json(s.core)),
            ("attempt", JsonValue::u64(u64::from(s.attempt))),
            ("start", JsonValue::u64(s.start)),
            ("end", JsonValue::u64(s.end)),
        ]),
    }
}

fn span_from_json(v: &JsonValue) -> Option<Span> {
    let start = field_u64(v, "start")?;
    let end = field_u64(v, "end")?;
    if end < start {
        return None;
    }
    Some(Span {
        packet: field_u64(v, "packet")?,
        parent: match v.get("parent")? {
            JsonValue::Null => None,
            other => Some(other.as_u64()?),
        },
        kind: SpanKind::from_name(v.get("span")?.as_str()?)?,
        router: field_usize(v, "router")?,
        core: core_from_json(v.get("core")?)?,
        attempt: u32::try_from(field_u64(v, "attempt")?).ok()?,
        start,
        end,
    })
}

fn field_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn field_usize(v: &JsonValue, key: &str) -> Option<usize> {
    usize::try_from(field_u64(v, key)?).ok()
}

fn field_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key)?.as_f64()
}

/// Parses one event object back into a [`TraceEvent`].
pub fn event_from_json(v: &JsonValue) -> Option<TraceEvent> {
    let tag = v.get("event")?.as_str()?;
    if tag == "span" {
        return span_from_json(v).map(TraceEvent::Span);
    }
    let at = field_u64(v, "at")?;
    match tag {
        "dba_realloc" => Some(TraceEvent::DbaRealloc {
            router: field_usize(v, "router")?,
            at,
            beta_cpu: field_f64(v, "beta_cpu")?,
            beta_gpu: field_f64(v, "beta_gpu")?,
            cpu_share: field_f64(v, "cpu_share")?,
        }),
        "wavelength_transition" => Some(TraceEvent::WavelengthTransition {
            router: field_usize(v, "router")?,
            at,
            from: state_from_json(v.get("from")?)?,
            to: state_from_json(v.get("to")?)?,
            cause: TransitionCause::from_name(v.get("cause")?.as_str()?)?,
        }),
        "ladder_transition" => Some(TraceEvent::LadderTransition {
            at,
            from: LadderMode::from_name(v.get("from")?.as_str()?)?,
            to: LadderMode::from_name(v.get("to")?.as_str()?)?,
            score: match v.get("score")? {
                JsonValue::Null => None,
                other => Some(other.as_f64()?),
            },
        }),
        "retransmission" => Some(TraceEvent::Retransmission {
            packet: field_u64(v, "packet")?,
            src: field_usize(v, "src")?,
            dst: field_usize(v, "dst")?,
            at,
            attempts: u32::try_from(field_u64(v, "attempts")?).ok()?,
            backoff_cycles: field_u64(v, "backoff_cycles")?,
        }),
        "injection_stall" => Some(TraceEvent::InjectionStall {
            router: field_usize(v, "router")?,
            at,
            core: core_from_json(v.get("core")?)?,
        }),
        "window_close" => Some(TraceEvent::WindowClose {
            router: field_usize(v, "router")?,
            at,
            beta_total: field_f64(v, "beta_total")?,
            predicted_flits: match v.get("predicted_flits")? {
                JsonValue::Null => None,
                other => Some(other.as_f64()?),
            },
            target: state_from_json(v.get("target")?)?,
        }),
        "fault" => Some(TraceEvent::Fault {
            router: field_usize(v, "router")?,
            at,
            kind: fault_kind_from_name(v.get("kind")?.as_str()?)?,
        }),
        _ => None,
    }
}

/// Writes events as JSON Lines to `out`.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_trace(out: &mut impl Write, events: &[TraceEvent]) -> Result<(), JsonlError> {
    for event in events {
        writeln!(out, "{}", event_to_json(event))?;
    }
    Ok(())
}

/// Reads a JSON Lines trace back, skipping blank lines.
///
/// # Errors
///
/// Fails on I/O errors, malformed JSON, or unknown event shapes.
pub fn read_trace(input: &mut impl BufRead) -> Result<Vec<TraceEvent>, JsonlError> {
    let mut events = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let value =
            JsonValue::parse(trimmed).map_err(|source| JsonlError::Json { line: i + 1, source })?;
        let event = event_from_json(&value).ok_or_else(|| JsonlError::BadEvent {
            line: i + 1,
            reason: "unrecognized event shape",
            content: trimmed.to_string(),
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Writes a trace to `path` atomically (tmp-then-rename), creating
/// parent directories. A crash mid-write never leaves a truncated
/// trace behind.
///
/// # Errors
///
/// Propagates storage failures.
pub fn write_trace_file(
    storage: &dyn Storage,
    path: impl AsRef<Path>,
    events: &[TraceEvent],
) -> Result<(), JsonlError> {
    let mut buf = Vec::new();
    write_trace(&mut buf, events)?;
    let text = String::from_utf8(buf).expect("trace JSON is always UTF-8");
    storage.write_atomic(path.as_ref(), &text)?;
    Ok(())
}

/// Reads a trace file written by [`write_trace_file`].
///
/// # Errors
///
/// Fails on storage errors or malformed content.
pub fn read_trace_file(
    storage: &dyn Storage,
    path: impl AsRef<Path>,
) -> Result<Vec<TraceEvent>, JsonlError> {
    let text = storage.read(path.as_ref())?;
    read_trace(&mut text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::OsStorage;

    /// One instance of every variant, exercising both `Some` and `None`
    /// optional fields and every enum payload.
    fn every_variant() -> Vec<TraceEvent> {
        let mut events = vec![
            TraceEvent::DbaRealloc {
                router: 16,
                at: 12_345,
                beta_cpu: 0.125,
                beta_gpu: 0.875,
                cpu_share: 0.25,
            },
            TraceEvent::LadderTransition {
                at: 500,
                from: LadderMode::MlProactive,
                to: LadderMode::Reactive,
                score: Some(0.42),
            },
            TraceEvent::LadderTransition {
                at: 1_000,
                from: LadderMode::Reactive,
                to: LadderMode::StaticFull,
                score: None,
            },
            TraceEvent::Retransmission {
                packet: 9_001,
                src: 0,
                dst: 16,
                at: 777,
                attempts: 3,
                backoff_cycles: 64,
            },
            TraceEvent::WindowClose {
                router: 7,
                at: 2_000,
                beta_total: 0.5,
                predicted_flits: Some(321.5),
                target: WavelengthState::W48,
            },
            TraceEvent::WindowClose {
                router: 8,
                at: 2_010,
                beta_total: 0.0,
                predicted_flits: None,
                target: WavelengthState::W8,
            },
        ];
        for (i, state) in WavelengthState::ALL.into_iter().enumerate() {
            events.push(TraceEvent::WavelengthTransition {
                router: i,
                at: 100 + i as u64,
                from: WavelengthState::W64,
                to: state,
                cause: if i % 2 == 0 {
                    TransitionCause::Scaling
                } else {
                    TransitionCause::FaultCeiling
                },
            });
        }
        for core in CoreType::ALL {
            events.push(TraceEvent::InjectionStall { router: 4, at: 88, core });
        }
        for kind in FaultEventKind::ALL {
            events.push(TraceEvent::Fault { router: 9, at: 3_000, kind });
        }
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            events.push(TraceEvent::Span(Span {
                packet: 50 + i as u64,
                parent: if i % 2 == 0 { None } else { Some(49) },
                kind,
                router: i,
                core: if i % 2 == 0 { CoreType::Cpu } else { CoreType::Gpu },
                attempt: i as u32,
                start: 10 * i as u64,
                end: 10 * i as u64 + 5,
            }));
        }
        events
    }

    #[test]
    fn every_event_variant_round_trips() {
        let events = every_variant();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.lines().count(), events.len());
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn file_round_trip_via_tempdir() {
        let dir = std::env::temp_dir().join("pearl-telemetry-test-trace");
        let path = dir.join("nested").join("trace.jsonl");
        let events = every_variant();
        write_trace_file(&OsStorage, &path, &events).unwrap();
        let back = read_trace_file(&OsStorage, &path).unwrap();
        assert_eq!(back, events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", event_to_json(&every_variant()[0]));
        let back = read_trace(&mut text.as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let err = read_trace(&mut "not json\n".as_bytes()).unwrap_err();
        assert!(matches!(err, JsonlError::Json { line: 1, .. }), "{err}");
        let err = read_trace(&mut "{\"event\":\"mystery\",\"at\":1}\n".as_bytes()).unwrap_err();
        assert!(matches!(err, JsonlError::BadEvent { line: 1, .. }), "{err}");
        // Known tag, wrong field type.
        let err =
            read_trace(&mut "{\"event\":\"fault\",\"at\":1,\"router\":0,\"kind\":5}\n".as_bytes())
                .unwrap_err();
        assert!(matches!(err, JsonlError::BadEvent { line: 1, .. }), "{err}");
    }

    #[test]
    fn bad_event_errors_carry_the_offending_line() {
        let line = "{\"event\":\"mystery\",\"at\":1}";
        let err = read_trace(&mut format!("{line}\n").as_bytes()).unwrap_err();
        match &err {
            JsonlError::BadEvent { line: n, content, .. } => {
                assert_eq!(*n, 1);
                assert_eq!(content, line);
            }
            other => panic!("expected BadEvent, got {other:?}"),
        }
        // The Display rendering shows the rejected line verbatim.
        assert!(err.to_string().contains(line), "{err}");
    }

    #[test]
    fn span_lines_reject_inverted_intervals() {
        let line = "{\"event\":\"span\",\"span\":\"serialization\",\"packet\":1,\
                    \"parent\":null,\"router\":0,\"core\":\"cpu\",\"attempt\":0,\
                    \"start\":10,\"end\":4}";
        let err = read_trace(&mut format!("{line}\n").as_bytes()).unwrap_err();
        assert!(matches!(err, JsonlError::BadEvent { line: 1, .. }), "{err}");
    }

    #[test]
    fn wavelength_states_serialize_as_lambda_counts() {
        let e = TraceEvent::WavelengthTransition {
            router: 0,
            at: 1,
            from: WavelengthState::W64,
            to: WavelengthState::W16,
            cause: TransitionCause::Scaling,
        };
        let v = event_to_json(&e);
        assert_eq!(v.get("from").unwrap().as_u64(), Some(64));
        assert_eq!(v.get("to").unwrap().as_u64(), Some(16));
    }
}
