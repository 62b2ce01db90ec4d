//! # pearl-telemetry — structured observability for the PEARL stack
//!
//! The paper's evaluation is about *watching* the reconfiguration
//! machinery — DBA splits tracking GPU bursts, wavelength states
//! tracking phases, the PR 1 degradation ladder reacting to predictor
//! collapse. This crate gives every simulator a typed way to narrate
//! that machinery:
//!
//! - [`TraceEvent`] / [`Probe`]: a typed event taxonomy and the one
//!   observer trait; causal [`Span`]s ride it as [`TraceEvent::Span`]
//!   for probes that ask for them. The default [`NullProbe`] costs one
//!   cached-flag branch per emission site; the contract (pinned by
//!   property tests in `pearl-core` and the golden ladder) is that
//!   instrumented runs are **bit-identical** to uninstrumented ones.
//! - [`Recorder`] / [`SharedRecorder`]: buffering sinks with an
//!   explicit cap and dropped-event counter, feeding a
//!   [`MetricsRegistry`] of counters, gauges and streaming histograms.
//! - [`jsonl`]: JSON Lines trace export and re-import, round-tripping
//!   every event variant.
//! - [`RunManifest`]: per-run provenance (seed, cycles, config
//!   fingerprint, crate version) with no wall-clock timestamps so
//!   committed artifacts stay deterministic.
//! - [`SelfProfiler`]: wall-clock attribution of simulator time to
//!   step-loop phases (refinable into [`SubSection`] sub-phases, with
//!   the unattributed residual surfaced) plus simulated-cycles/sec.
//! - [`WorkCounters`]: wasted-work accounting for the hot loops —
//!   visits vs. useful-outcome pairs (idle router scans, closed-window
//!   polls, no-op DBA/power updates, lost arbitrations) with derived
//!   [`WasteRatios`] and reconciliation invariants. The self-profiler
//!   owns them, so profiling a run also counts its work.
//! - [`Checkpoint`] / [`Codec`]: sealed, versioned simulation
//!   checkpoints, and the one codec every piece of checkpointed state
//!   encodes through ([`snapshot`], DESIGN §4b).
//! - [`Simulator`] / [`Watchable`]: the one interface both networks
//!   implement, through which every harness builds, observes, advances
//!   under the watchdog, checkpoints and hashes a run.
//! - [`alloc`]: with `--features alloc-count`, a counting global
//!   allocator attributing allocation count/bytes to the active
//!   profiler section (no-op stubs, and no unsafe code, otherwise).
//!
//! The crate sits *below* the simulators in the dependency graph
//! (`pearl-core`, `pearl-cmesh` and `pearl-bench` depend on it; it
//! depends only on `pearl-noc` and `pearl-photonics` for the shared
//! vocabulary types), so event payloads use photonics/noc types
//! directly while core-level enums are mirrored (see [`LadderMode`]).
//!
//! ## Example
//!
//! ```
//! use pearl_telemetry::{Probe, Recorder, TraceEvent};
//!
//! let mut recorder = Recorder::new();
//! recorder.record(&TraceEvent::Retransmission {
//!     packet: 7,
//!     src: 0,
//!     dst: 16,
//!     at: 1_000,
//!     attempts: 1,
//!     backoff_cycles: 8,
//! });
//! assert_eq!(recorder.events().len(), 1);
//! assert_eq!(recorder.metrics().counter("events.retransmission"), 1);
//! ```

// The crate is unsafe-free except for one audited item: the counting
// global allocator behind `--features alloc-count` (see `alloc`).
// Default builds keep the hard `forbid`.
#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-count", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod alloc;
pub mod event;
pub mod flight;
pub mod journal;
pub mod json;
pub mod jsonl;
pub mod manifest;
pub mod profiler;
pub mod prometheus;
pub mod registry;
pub mod simulator;
pub mod snapshot;
pub mod span;
pub mod storage;
pub mod work;

#[cfg(feature = "alloc-count")]
pub use alloc::CountingAlloc;
pub use alloc::{alloc_stats, reset_alloc_stats, set_alloc_section, AllocStats};
pub use event::{
    FanoutProbe, LadderMode, NullProbe, Probe, Recorder, SharedRecorder, TraceEvent,
    TransitionCause, DEFAULT_EVENT_CAP,
};
pub use flight::{
    FlightDump, FlightRecorder, SharedFlightRecorder, DEFAULT_FLIGHT_CAP, FLIGHTREC_KIND,
    FLIGHTREC_SCHEMA,
};
pub use journal::{
    append_progress, append_progress_with, read_progress, read_sealed, read_sealed_with,
    replay_progress, replay_progress_with, write_sealed, write_sealed_with, ProgressEvent,
    ProgressLog, ProgressReplay, JOURNAL_VERSION,
};
pub use json::{JsonError, JsonValue};
pub use jsonl::{
    event_from_json, event_to_json, read_trace, read_trace_file, read_trace_file_with, write_trace,
    write_trace_file, write_trace_file_with, JsonlError,
};
pub use manifest::{fingerprint, ManifestError, RunManifest};
pub use profiler::{Phase, ProfileReport, Section, SelfProfiler, SubSection};
pub use prometheus::{
    escape_label_value, prometheus_exposition, sanitize_metric_name, validate_exposition,
};
pub use registry::{HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use simulator::{Simulator, Watchable};
pub use snapshot::{
    atomic_write_file, atomic_write_file_with, Checkpoint, Codec, SnapshotError, SNAPSHOT_VERSION,
};
pub use span::{
    chrome_trace, critical_path, group_by_packet, latency_breakdown, percentile,
    validate_chrome_trace, BreakdownRow, ChromeTraceSummary, CriticalPathEntry, PacketTrace,
    SharedSpanRecorder, Span, SpanKind, SpanRecorder, DEFAULT_SPAN_CAP,
};
pub use storage::{
    is_injected_crash, is_retry_exhausted, is_transient, FaultKind, FaultRecord, FaultSchedule,
    FaultStorage, InjectedCrash, OpRecord, OsStorage, RetryExhausted, RetryPolicy, RetryStorage,
    Storage,
};
pub use work::{WasteRatios, WorkCounters};
