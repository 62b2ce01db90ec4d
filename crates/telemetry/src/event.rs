//! The typed event taxonomy and the [`Probe`] sink trait.
//!
//! Simulators emit [`TraceEvent`]s into an `Option<Box<dyn Probe>>`.
//! Attaching a [`NullProbe`] stores `None`, so a disabled probe costs
//! one predictable branch per emission site and allocates nothing — the
//! overhead contract the property tests pin down is *bit-identical
//! results*, not merely "close".
//!
//! [`Recorder`] is the real sink: it buffers events up to a cap (with
//! an explicit dropped-event counter — never silent truncation) and
//! folds per-kind counts into a [`MetricsRegistry`]. Bench harnesses
//! that need to read the recorder back after handing it to a network
//! wrap it in [`SharedRecorder`].

use crate::registry::MetricsRegistry;
use crate::span::Span;
use pearl_noc::CoreType;
use pearl_photonics::{FaultEventKind, WavelengthState};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Default [`Recorder`] buffer cap: enough for every event of a full
/// faultsweep run while bounding memory on pathological configurations.
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// Scaling-ladder mode, mirrored from `pearl-core` so the telemetry
/// crate stays below it in the dependency graph. `pearl-core` provides
/// the `From<ScalingMode>` conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderMode {
    /// ML-proactive prediction drives power scaling.
    MlProactive,
    /// Demoted to reactive occupancy thresholds.
    Reactive,
    /// Demoted to static full power (last resort).
    StaticFull,
}

impl LadderMode {
    /// Stable lowercase name used in JSONL artifacts.
    pub fn name(self) -> &'static str {
        match self {
            LadderMode::MlProactive => "ml_proactive",
            LadderMode::Reactive => "reactive",
            LadderMode::StaticFull => "static_full",
        }
    }

    /// Parses the name produced by [`LadderMode::name`].
    pub fn from_name(name: &str) -> Option<LadderMode> {
        match name {
            "ml_proactive" => Some(LadderMode::MlProactive),
            "reactive" => Some(LadderMode::Reactive),
            "static_full" => Some(LadderMode::StaticFull),
            _ => None,
        }
    }
}

impl fmt::Display for LadderMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a wavelength-state transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionCause {
    /// The power-scaling policy requested a new state at a window close.
    Scaling,
    /// The fault layer's laser ceiling clamped the powered state.
    FaultCeiling,
}

impl TransitionCause {
    /// Stable lowercase name used in JSONL artifacts.
    pub fn name(self) -> &'static str {
        match self {
            TransitionCause::Scaling => "scaling",
            TransitionCause::FaultCeiling => "fault_ceiling",
        }
    }

    /// Parses the name produced by [`TransitionCause::name`].
    pub fn from_name(name: &str) -> Option<TransitionCause> {
        match name {
            "scaling" => Some(TransitionCause::Scaling),
            "fault_ceiling" => Some(TransitionCause::FaultCeiling),
            _ => None,
        }
    }
}

/// One typed telemetry event from a simulator.
///
/// `at` is always the network cycle of emission; `router` indexes the
/// 17 PEARL endpoints (16 clusters + the L3 hub) or a c-mesh router.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The DBA changed a router's bandwidth split.
    DbaRealloc {
        /// Emitting router.
        router: usize,
        /// Network cycle.
        at: u64,
        /// CPU input-buffer occupancy β_CPU driving the decision.
        beta_cpu: f64,
        /// GPU input-buffer occupancy β_GPU driving the decision.
        beta_gpu: f64,
        /// Resulting CPU bandwidth share in `[0, 1]`.
        cpu_share: f64,
    },
    /// A router's powered wavelength state changed.
    WavelengthTransition {
        /// Emitting router.
        router: usize,
        /// Network cycle.
        at: u64,
        /// State before the transition.
        from: WavelengthState,
        /// State after the transition.
        to: WavelengthState,
        /// What triggered it.
        cause: TransitionCause,
    },
    /// The degradation ladder changed scaling mode (PR 1 machinery).
    LadderTransition {
        /// Network cycle.
        at: u64,
        /// Mode before the transition.
        from: LadderMode,
        /// Mode after the transition.
        to: LadderMode,
        /// NRMSE-style accuracy score that triggered it, if evaluated.
        score: Option<f64>,
    },
    /// A CRC-failed packet was scheduled for retransmission.
    Retransmission {
        /// The packet being retransmitted — the same stable id its
        /// injection and spans carry, so retries join to the original
        /// flight in post-processing.
        packet: u64,
        /// Source router.
        src: usize,
        /// Destination router.
        dst: usize,
        /// Network cycle.
        at: u64,
        /// Delivery attempts so far (1 = first retry pending).
        attempts: u32,
        /// Exponential backoff applied before the retry, in cycles.
        backoff_cycles: u64,
    },
    /// A core's injection was refused by a full input buffer.
    InjectionStall {
        /// Stalling router.
        router: usize,
        /// Network cycle.
        at: u64,
        /// Which core type stalled.
        core: CoreType,
    },
    /// A reservation window closed and power scaling ran.
    WindowClose {
        /// Emitting router.
        router: usize,
        /// Network cycle.
        at: u64,
        /// Combined occupancy β_CPU + β_GPU over the window.
        beta_total: f64,
        /// The ML predictor's flit forecast, when one was in play.
        predicted_flits: Option<f64>,
        /// Wavelength state requested for the next window.
        target: WavelengthState,
    },
    /// A structural photonic fault event (λ or laser).
    Fault {
        /// Affected router.
        router: usize,
        /// Network cycle.
        at: u64,
        /// What happened.
        kind: FaultEventKind,
    },
    /// One closed causal span of a packet's life (see [`crate::span`]).
    /// Carried in the same trace stream so span and event artifacts
    /// share one JSONL file, manifest and reader.
    Span(Span),
}

impl TraceEvent {
    /// Stable snake_case kind tag used as the JSONL `"event"` field and
    /// as the per-kind counter name in the metrics registry.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::DbaRealloc { .. } => "dba_realloc",
            TraceEvent::WavelengthTransition { .. } => "wavelength_transition",
            TraceEvent::LadderTransition { .. } => "ladder_transition",
            TraceEvent::Retransmission { .. } => "retransmission",
            TraceEvent::InjectionStall { .. } => "injection_stall",
            TraceEvent::WindowClose { .. } => "window_close",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Span(_) => "span",
        }
    }

    /// The cycle the event was emitted at.
    pub fn at(&self) -> u64 {
        match self {
            TraceEvent::DbaRealloc { at, .. }
            | TraceEvent::WavelengthTransition { at, .. }
            | TraceEvent::LadderTransition { at, .. }
            | TraceEvent::Retransmission { at, .. }
            | TraceEvent::InjectionStall { at, .. }
            | TraceEvent::WindowClose { at, .. }
            | TraceEvent::Fault { at, .. } => *at,
            // Spans are emitted when they close.
            TraceEvent::Span(s) => s.end,
        }
    }
}

/// A sink for [`TraceEvent`]s.
///
/// `Debug` is a supertrait so networks holding a `Box<dyn Probe>` keep
/// their derived `Debug` impls.
pub trait Probe: fmt::Debug {
    /// Receives one event.
    fn record(&mut self, event: &TraceEvent);

    /// True for [`NullProbe`] — owners do not keep a null probe, so
    /// disabled probes never see a virtual call.
    fn is_null(&self) -> bool {
        false
    }
}

/// The no-op sink: never called in the hot path (owners skip emission
/// entirely when `is_null()`), and trivially erased if it ever is.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline]
    fn record(&mut self, _event: &TraceEvent) {}

    #[inline]
    fn is_null(&self) -> bool {
        true
    }
}

/// A buffering sink: keeps events (up to a cap) and folds per-kind
/// counts into a [`MetricsRegistry`].
#[derive(Debug)]
pub struct Recorder {
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
    metrics: MetricsRegistry,
}

impl Recorder {
    /// A recorder with the default buffer cap.
    pub fn new() -> Recorder {
        Recorder::with_cap(DEFAULT_EVENT_CAP)
    }

    /// A recorder that buffers at most `cap` events; further events
    /// still count in the registry and the dropped counter.
    pub fn with_cap(cap: usize) -> Recorder {
        Recorder { events: Vec::new(), cap, dropped: 0, metrics: MetricsRegistry::new() }
    }

    /// The buffered events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events discarded after the buffer cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The per-kind metrics accumulated so far (counter names are
    /// `events.<kind>`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Consumes the recorder, returning its buffered events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Probe for Recorder {
    fn record(&mut self, event: &TraceEvent) {
        self.metrics.incr(kind_counter(event.kind()), 1);
        if let TraceEvent::Retransmission { backoff_cycles, .. } = event {
            self.metrics.observe("retransmission_backoff_cycles", *backoff_cycles);
        }
        if self.events.len() < self.cap {
            self.events.push(event.clone());
        } else {
            self.dropped += 1;
        }
    }
}

/// Maps an event kind tag to its registry counter name without
/// allocating for the known kinds.
fn kind_counter(kind: &'static str) -> &'static str {
    match kind {
        "dba_realloc" => "events.dba_realloc",
        "wavelength_transition" => "events.wavelength_transition",
        "ladder_transition" => "events.ladder_transition",
        "retransmission" => "events.retransmission",
        "injection_stall" => "events.injection_stall",
        "window_close" => "events.window_close",
        "fault" => "events.fault",
        "span" => "events.span",
        _ => "events.other",
    }
}

/// A cloneable handle over a shared [`Recorder`], so a bench harness
/// can hand one end to a network (as `Box<dyn Probe>`) and keep the
/// other to read events back after the run.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder(Rc<RefCell<Recorder>>);

impl SharedRecorder {
    /// A fresh shared recorder with the default cap.
    pub fn new() -> SharedRecorder {
        SharedRecorder::default()
    }

    /// Runs `f` with the inner recorder borrowed immutably.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from within [`Probe::record`].
    pub fn with<R>(&self, f: impl FnOnce(&Recorder) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.0.borrow().events().len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A clone of the buffered events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.borrow().events().to_vec()
    }

    /// Events discarded past the buffer cap.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped()
    }

    /// A snapshot of the per-kind metrics.
    pub fn metrics_snapshot(&self) -> crate::registry::MetricsSnapshot {
        self.0.borrow().metrics().snapshot()
    }
}

impl Probe for SharedRecorder {
    fn record(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().record(event);
    }
}

/// Forwards every event to several probes — networks hold exactly one
/// probe slot, so attaching both an offline [`SharedRecorder`] and a
/// live [`crate::SharedFlightRecorder`] goes through a fanout. Null
/// members are dropped at construction; a fanout with no live members
/// reports `is_null()` so owners keep the zero-overhead contract.
#[derive(Debug, Default)]
pub struct FanoutProbe {
    members: Vec<Box<dyn Probe>>,
}

impl FanoutProbe {
    /// A fanout over `members`, dropping any that are null.
    pub fn new(members: Vec<Box<dyn Probe>>) -> FanoutProbe {
        FanoutProbe { members: members.into_iter().filter(|m| !m.is_null()).collect() }
    }
}

impl Probe for FanoutProbe {
    fn record(&mut self, event: &TraceEvent) {
        for m in &mut self.members {
            m.record(event);
        }
    }

    fn is_null(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::span::SpanKind;

    fn sample_event() -> TraceEvent {
        TraceEvent::Retransmission {
            packet: 42,
            src: 1,
            dst: 16,
            at: 99,
            attempts: 2,
            backoff_cycles: 16,
        }
    }

    fn sample_span() -> Span {
        Span {
            packet: 42,
            parent: None,
            kind: SpanKind::Serialization,
            router: 3,
            core: CoreType::Cpu,
            attempt: 0,
            start: 90,
            end: 98,
        }
    }

    #[test]
    fn null_probe_identifies_itself() {
        assert!(NullProbe.is_null());
        assert!(!Recorder::new().is_null());
        let mut p = NullProbe;
        p.record(&sample_event()); // no-op, must not panic
    }

    #[test]
    fn recorder_buffers_counts_and_caps() {
        let mut r = Recorder::with_cap(2);
        for _ in 0..5 {
            r.record(&sample_event());
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped(), 3);
        // Dropped events still count in the registry.
        assert_eq!(r.metrics().counter("events.retransmission"), 5);
        assert_eq!(r.metrics().histogram("retransmission_backoff_cycles").unwrap().count(), 5);
    }

    #[test]
    fn shared_recorder_reads_back_what_the_probe_end_saw() {
        let shared = SharedRecorder::new();
        let mut probe: Box<dyn Probe> = Box::new(shared.clone());
        assert!(!probe.is_null());
        probe.record(&sample_event());
        probe.record(&TraceEvent::InjectionStall { router: 3, at: 7, core: CoreType::Gpu });
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.events()[1].kind(), "injection_stall");
        assert_eq!(shared.dropped(), 0);
        let snap = shared.metrics_snapshot();
        assert!(snap.counters.iter().any(|(k, v)| k == "events.injection_stall" && *v == 1));
    }

    #[test]
    fn ladder_mode_and_cause_names_round_trip() {
        for m in [LadderMode::MlProactive, LadderMode::Reactive, LadderMode::StaticFull] {
            assert_eq!(LadderMode::from_name(m.name()), Some(m));
        }
        for c in [TransitionCause::Scaling, TransitionCause::FaultCeiling] {
            assert_eq!(TransitionCause::from_name(c.name()), Some(c));
        }
        assert_eq!(LadderMode::from_name("bogus"), None);
        assert_eq!(TransitionCause::from_name("bogus"), None);
    }

    #[test]
    fn event_accessors_cover_every_variant() {
        let events = [
            TraceEvent::DbaRealloc {
                router: 0,
                at: 1,
                beta_cpu: 0.1,
                beta_gpu: 0.9,
                cpu_share: 0.25,
            },
            TraceEvent::WavelengthTransition {
                router: 1,
                at: 2,
                from: WavelengthState::W64,
                to: WavelengthState::W16,
                cause: TransitionCause::Scaling,
            },
            TraceEvent::LadderTransition {
                at: 3,
                from: LadderMode::MlProactive,
                to: LadderMode::Reactive,
                score: Some(0.4),
            },
            sample_event(),
            TraceEvent::InjectionStall { router: 2, at: 4, core: CoreType::Cpu },
            TraceEvent::WindowClose {
                router: 3,
                at: 5,
                beta_total: 0.6,
                predicted_flits: None,
                target: WavelengthState::W32,
            },
            TraceEvent::Fault { router: 4, at: 6, kind: FaultEventKind::LambdaFail },
            TraceEvent::Span(sample_span()),
        ];
        let kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        assert_eq!(
            kinds,
            [
                "dba_realloc",
                "wavelength_transition",
                "ladder_transition",
                "retransmission",
                "injection_stall",
                "window_close",
                "fault",
                "span"
            ]
        );
        for e in &events {
            assert!(e.at() >= 1);
        }
        // A span event's cycle is its close.
        assert_eq!(events.last().unwrap().at(), 98);
    }

    #[test]
    fn span_events_count_in_the_registry() {
        let mut r = Recorder::new();
        r.record(&TraceEvent::Span(sample_span()));
        assert_eq!(r.metrics().counter("events.span"), 1);
    }
}
