//! The PEARL network: 16 cluster routers + the L3 hub on an R-SWMR
//! photonic crossbar, advanced one 2 GHz network cycle at a time.
//!
//! Per-cycle order of operations (matching Algorithm 1's steps 0–5 every
//! cycle and steps 6–8 at reservation-window boundaries):
//!
//! 1. inject new workload requests and release due endpoint responses
//!    into the routers' CPU/GPU input buffers,
//! 2. run the DBA on instantaneous buffer occupancies,
//! 3. land transfers whose optical propagation completed,
//! 4. start new transfers on free channels (reservation checks the
//!    destination's BW_D headroom; serialization time depends on the
//!    laser's *usable* wavelength state),
//! 5. eject received packets to the local cores, scheduling responses
//!    for delivered requests,
//! 6. sample occupancies/energies, and at window boundaries scale the
//!    laser power (reactively, proactively via ML, or randomly during
//!    training collection).

use crate::config::{ConfigError, Fabric, PearlConfig};
use crate::dba::{DynamicBandwidthAllocator, FineGrainedAllocator};
use crate::features::{FeatureVector, FEATURE_COUNT};
use crate::metrics::RunSummary;
use crate::ml_scaling::{DegradationLadder, ScalingMode};
use crate::policy::{BandwidthPolicy, PearlPolicy, PowerPolicy};
use crate::router::{lane_index, PearlRouter, Transfer};
use crate::timeline::ModeTransition;
use pearl_ml::Dataset;
use pearl_noc::{
    packet_checksum, CoreType, Cycle, NetworkStats, NodeId, Packet, PacketKind, SimRng,
};
use pearl_photonics::{
    FaultConfig, FaultModel, FaultStats, PowerModel, StateResidency, WavelengthState,
};
use pearl_telemetry::{
    set_alloc_section, Checkpoint, JsonValue, Phase, Probe, ProfileReport, Section, SelfProfiler,
    Simulator, SnapshotError, Span, SpanKind, SubSection, TraceEvent, TransitionCause, Watchable,
    WorkCounters,
};
use pearl_workloads::{BenchmarkPair, Destination, TrafficModel, TrafficSource};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

pub mod snapshot;

/// A packet in optical flight towards its destination.
#[derive(Debug, Clone)]
struct InFlight {
    src: usize,
    dst: usize,
    packet: Packet,
    deliver_at: Cycle,
    /// Transmission attempts already made (0 for the first flight).
    attempts: u32,
    /// CRC-32 of the wire image as transmitted; a transit corruption is
    /// modeled by storing a checksum that no longer matches the packet.
    wire_crc: u32,
}

/// A NACKed packet waiting at its source for retransmission.
#[derive(Debug, Clone)]
struct RetryEntry {
    /// Earliest cycle the retransmission may launch (backoff expiry).
    ready: Cycle,
    /// Transmission attempts already made.
    attempts: u32,
    packet: Packet,
}

/// Head-wait counters for one injection lane: cycles the current lane
/// head spent blocked since becoming head, split by cause. Purely
/// derived observer state for causal spans — never read by the
/// simulation itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeadWait {
    /// The lane-head packet the counters belong to.
    pub(crate) packet: u64,
    /// Cycles blocked on destination receive headroom (the reservation
    /// protocol refusing the transfer).
    pub(crate) reservation: u64,
    /// Cycles blocked on channel availability / the weighted arbiter /
    /// the MWSR token.
    pub(crate) arbitration: u64,
}

/// Bookkeeping behind causal span emission (see
/// [`PearlNetwork::attach_probe`]). Allocated only while the attached
/// probe wants spans; checkpointed so span streams resume
/// bit-identically across a kill/restore boundary, but never hashed.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanTracker {
    /// Per-router, per-lane (CPU, GPU) head-wait counters.
    pub(crate) head_wait: Vec<[Option<HeadWait>; 2]>,
    /// Packet id → (landing cycle, delivery attempt) for packets
    /// sitting in a receive buffer awaiting ejection.
    pub(crate) landed: HashMap<u64, (u64, u32)>,
    /// Response packet id → the request packet id that caused it.
    pub(crate) parent: HashMap<u64, u64>,
}

impl SpanTracker {
    pub(crate) fn new(routers: usize) -> SpanTracker {
        SpanTracker {
            head_wait: vec![[None; 2]; routers],
            landed: HashMap::new(),
            parent: HashMap::new(),
        }
    }
}

/// First retransmission backoff, in cycles (doubles per attempt).
const RETRY_BACKOFF_BASE: u64 = 8;

/// Upper bound on the exponential retransmission backoff, in cycles.
const RETRY_BACKOFF_CAP: u64 = 1024;

/// Offset between the feature-collection windows of adjacent routers, in
/// cycles — "the feature collection for each router is offset by 10
/// network cycles to prevent all the routers from changing wavelength
/// state within the same network cycle" (§IV-A).
const WINDOW_OFFSET_PER_ROUTER: u64 = 10;

/// Builder for [`PearlNetwork`].
///
/// # Example
///
/// ```
/// use pearl_core::{NetworkBuilder, PearlPolicy};
/// use pearl_workloads::BenchmarkPair;
///
/// let mut net = NetworkBuilder::new()
///     .policy(PearlPolicy::fcfs_64wl())
///     .seed(1)
///     .build(BenchmarkPair::test_pairs()[0]);
/// let summary = net.run(2_000);
/// assert_eq!(summary.cycles, 2_000);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    config: PearlConfig,
    policy: PearlPolicy,
    power_model: PowerModel,
    fault: FaultConfig,
    seed: u64,
}

impl NetworkBuilder {
    /// Starts from the paper's configuration with the PEARL-Dyn policy.
    pub fn new() -> NetworkBuilder {
        NetworkBuilder {
            config: PearlConfig::pearl(),
            policy: PearlPolicy::dyn_64wl(),
            power_model: PowerModel::pearl(),
            fault: FaultConfig::off(),
            seed: 0,
        }
    }

    /// Overrides the structural configuration.
    pub fn config(mut self, config: PearlConfig) -> NetworkBuilder {
        self.config = config;
        self
    }

    /// Sets the bandwidth/power policy.
    pub fn policy(mut self, policy: PearlPolicy) -> NetworkBuilder {
        self.policy = policy;
        self
    }

    /// Overrides the photonic power model.
    pub fn power_model(mut self, model: PowerModel) -> NetworkBuilder {
        self.power_model = model;
        self
    }

    /// Enables photonic fault injection with the given configuration.
    /// The default ([`FaultConfig::off`]) draws nothing and leaves the
    /// simulation bit-identical to a fault-free build.
    pub fn fault_config(mut self, fault: FaultConfig) -> NetworkBuilder {
        self.fault = fault;
        self
    }

    /// Sets the master seed (workload + any stochastic policy).
    pub fn seed(mut self, seed: u64) -> NetworkBuilder {
        self.seed = seed;
        self
    }

    /// Builds the network for one benchmark pair.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn build(self, pair: BenchmarkPair) -> PearlNetwork {
        let traffic = TrafficModel::new(pair, self.config.clusters, self.seed);
        self.build_from_source(Box::new(traffic))
    }

    /// Builds the network for one benchmark pair, surfacing configuration
    /// and policy problems as a typed [`ConfigError`] instead of a panic.
    pub fn try_build(self, pair: BenchmarkPair) -> Result<PearlNetwork, ConfigError> {
        self.config.check()?;
        self.policy.bandwidth.check()?;
        self.policy.power.check()?;
        Ok(self.build(pair))
    }

    /// Builds the network around any traffic source (synthetic patterns,
    /// trace replays, …). The source must drive exactly
    /// `config.clusters` clusters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation or the source's
    /// cluster count disagrees with it.
    pub fn build_from_source(self, traffic: Box<dyn TrafficSource>) -> PearlNetwork {
        self.config.validate();
        assert_eq!(
            traffic.clusters(),
            self.config.clusters,
            "traffic source drives {} clusters, config has {}",
            traffic.clusters(),
            self.config.clusters
        );
        PearlNetwork::from_parts(
            self.config,
            self.policy,
            self.power_model,
            self.fault,
            traffic,
            self.seed,
        )
    }
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        NetworkBuilder::new()
    }
}

/// The simulated PEARL network.
#[derive(Debug)]
pub struct PearlNetwork {
    config: PearlConfig,
    policy: PearlPolicy,
    power_model: PowerModel,
    /// `(laser W, heating W)` of one channel in each wavelength state,
    /// indexed by [`WavelengthState::index`]: the power model's values,
    /// looked up once at build instead of every router every cycle.
    power_levels: [(f64, f64); 5],
    routers: Vec<PearlRouter>,
    traffic: Box<dyn TrafficSource>,
    dba: DynamicBandwidthAllocator,
    fine: Option<FineGrainedAllocator>,
    rng: SimRng,
    /// Master seed the network was built with — static identity for the
    /// checkpoint config fingerprint (the live stream position is in
    /// `rng`).
    seed: u64,
    now: Cycle,
    next_packet_id: u64,
    /// Packets in optical flight, in launch order: the snapshot encodes
    /// them in this order, and landing order decides receive order.
    in_flight: Vec<InFlight>,
    /// The flights landing this cycle, moved out of `in_flight`; empty
    /// between cycles and kept only for its capacity.
    landing: Vec<InFlight>,
    stats: NetworkStats,
    /// Photonic fault injector (inert when configured off).
    fault: FaultModel,
    /// Per-source queues of NACKed packets awaiting retransmission.
    retransmit: Vec<VecDeque<RetryEntry>>,
    /// Outstanding (unanswered) requests per cluster and core type;
    /// issue stalls when the window limit is hit.
    outstanding: Vec<[u32; 2]>,
    /// MWSR fabric only: per-destination token holder (a router index),
    /// circulating round-robin among the other routers.
    tokens: Vec<usize>,
    /// Dataset under collection, if any, plus per-router feature of the
    /// previous window awaiting its label.
    collection: Option<Dataset>,
    pending_features: Vec<Option<FeatureVector>>,
    /// Graceful-degradation ladder (ML policies with fallback enabled).
    ladder: Option<DegradationLadder>,
    /// Per-router prediction of the window now ending, awaiting its
    /// actual for the ladder's accuracy monitor.
    pending_predictions: Vec<Option<f64>>,
    cycle_seconds: f64,
    /// Telemetry sink (see [`PearlNetwork::attach_probe`]); `None`
    /// while no live probe is attached.
    probe: Option<Box<dyn Probe>>,
    /// Span bookkeeping, present exactly while the probe wants spans.
    span_tracker: Option<SpanTracker>,
    /// Wall-clock self-profiler and the work counters it owns (see
    /// [`PearlNetwork::enable_profiling`]). Observer state: never
    /// serialized, never hashed.
    profiler: Option<SelfProfiler>,
}

impl PearlNetwork {
    fn from_parts(
        config: PearlConfig,
        policy: PearlPolicy,
        power_model: PowerModel,
        fault: FaultConfig,
        traffic: Box<dyn TrafficSource>,
        seed: u64,
    ) -> PearlNetwork {
        let initial_state = match &policy.power {
            PowerPolicy::Static(state) => *state,
            _ => WavelengthState::W64,
        };
        let turn_on = config.laser_turn_on_cycles();
        let shared_pool = matches!(policy.bandwidth, BandwidthPolicy::Fcfs);
        let endpoints = config.endpoints();
        let routers = (0..endpoints)
            .map(|i| {
                let is_l3 = i == config.l3_node();
                let channels = if is_l3 { config.l3_channels } else { 1 };
                PearlRouter::new(
                    i,
                    is_l3,
                    channels,
                    config.cpu_buffer_slots,
                    config.gpu_buffer_slots,
                    config.recv_buffer_slots,
                    initial_state,
                    turn_on,
                    shared_pool,
                )
            })
            .collect();
        let dba = match policy.bandwidth {
            BandwidthPolicy::Dynamic(bounds) => DynamicBandwidthAllocator::new(bounds),
            BandwidthPolicy::Fcfs | BandwidthPolicy::DynamicFine { .. } => {
                DynamicBandwidthAllocator::default()
            }
        };
        let fine = match policy.bandwidth {
            BandwidthPolicy::DynamicFine { step } => Some(FineGrainedAllocator::new(step)),
            _ => None,
        };
        let cycle_seconds = 1.0 / config.network_clock().as_hz();
        let clusters = config.clusters;
        let ladder = match &policy.power {
            PowerPolicy::Ml { fallback: Some(cfg), .. } => {
                Some(DegradationLadder::new(cfg.clone()))
            }
            _ => None,
        };
        let power_levels = WavelengthState::ALL
            .map(|state| (power_model.laser_power_w(state), power_model.heating_power_w(state)));
        PearlNetwork {
            config,
            policy,
            power_model,
            power_levels,
            routers,
            traffic,
            dba,
            fine,
            rng: SimRng::from_seed(seed ^ POLICY_SEED_SALT),
            seed,
            now: Cycle::ZERO,
            next_packet_id: 0,
            in_flight: Vec::new(),
            landing: Vec::new(),
            outstanding: vec![[0, 0]; clusters],
            tokens: (0..endpoints).map(|d| (d + 1) % endpoints).collect(),
            stats: NetworkStats::new(),
            fault: FaultModel::new(fault, endpoints),
            retransmit: vec![VecDeque::new(); endpoints],
            collection: None,
            pending_features: vec![None; endpoints],
            ladder,
            pending_predictions: vec![None; endpoints],
            cycle_seconds,
            probe: None,
            span_tracker: None,
            profiler: None,
        }
    }

    /// Attaches the observer: every trace event, causal spans included
    /// ([`TraceEvent::Span`]), goes to `probe`. A probe whose
    /// `is_null()` is true (such as [`pearl_telemetry::NullProbe`]) is
    /// not stored, so every emission site reduces to one branch. Span
    /// bookkeeping exists exactly while the probe wants spans: attaching
    /// such a probe keeps or creates the tracker, attaching any other
    /// drops it. Either way the probe only observes — the simulated
    /// state and [`Self::state_hash`] are those of a bare run.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = (!probe.is_null()).then_some(probe);
        let tracker = self.span_tracker.take();
        self.span_tracker = self
            .tracks_spans_for_probe()
            .then(|| tracker.unwrap_or_else(|| SpanTracker::new(self.routers.len())));
    }

    /// True when a live (non-null) probe is attached.
    pub fn probe_enabled(&self) -> bool {
        self.probe.is_some()
    }

    /// True while spans are tracked, which is exactly while the attached
    /// probe wants them.
    pub fn span_enabled(&self) -> bool {
        self.span_tracker.is_some()
    }

    /// Whether the attached probe wants spans.
    fn tracks_spans_for_probe(&self) -> bool {
        self.probe.as_ref().is_some_and(|p| p.wants_spans())
    }

    /// Hands one closed span to the probe. Span sites run only while
    /// the tracker exists, that is while the probe wants spans.
    fn emit_span(&mut self, span: Span) {
        if let Some(probe) = self.probe.as_mut() {
            probe.record(&TraceEvent::Span(span));
        }
    }

    /// Causal parent (request packet id) of `packet`, if it is a
    /// response whose request was traced.
    fn span_parent(&self, packet: u64) -> Option<u64> {
        self.span_tracker.as_ref().and_then(|t| t.parent.get(&packet).copied())
    }

    /// Turns on wall-clock self-profiling and wasted-work accounting:
    /// subsequent [`step`]s attribute their time to step-loop phases and
    /// count hot-loop visits vs. useful outcomes into the profiler's
    /// [`WorkCounters`]. Both are observer state: the simulated state
    /// stream is bit-identical either way.
    ///
    /// [`step`]: PearlNetwork::step
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(SelfProfiler::start());
    }

    /// The self-profile and work counters accumulated since
    /// [`enable_profiling`], if on.
    ///
    /// [`enable_profiling`]: PearlNetwork::enable_profiling
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.profiler.as_ref().map(SelfProfiler::report)
    }

    /// The work counters, while profiling is on.
    #[inline]
    fn work_mut(&mut self) -> Option<&mut WorkCounters> {
        self.profiler.as_mut().map(SelfProfiler::work_mut)
    }

    /// The configuration in use.
    pub fn config(&self) -> &PearlConfig {
        &self.config
    }

    /// The routers (read-only view).
    pub fn routers(&self) -> &[PearlRouter] {
        &self.routers
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Cumulative fault-injection event counters.
    pub fn fault_stats(&self) -> &FaultStats {
        self.fault.stats()
    }

    /// The scaling mode currently in force, when the graceful-degradation
    /// ladder is active (`None` for policies without a fallback).
    pub fn scaling_mode(&self) -> Option<ScalingMode> {
        self.ladder.as_ref().map(DegradationLadder::mode)
    }

    /// All ladder mode transitions so far (empty without a fallback).
    pub fn mode_transitions(&self) -> &[ModeTransition] {
        self.ladder.as_ref().map_or(&[], DegradationLadder::transitions)
    }

    /// The ladder's most recent sliding-window fit score, if available.
    pub fn predictor_fit_score(&self) -> Option<f64> {
        self.ladder.as_ref().and_then(DegradationLadder::last_score)
    }

    /// Packets currently inside the network: core issue backlogs, input
    /// lanes, receive buffers, optical flight and retransmission queues.
    ///
    /// Every injected packet is either delivered or accounted here —
    /// `total_injected == total_delivered + in_network_packets()` is the
    /// zero-loss invariant the fault/retransmission layer preserves
    /// (pending endpoint responses are not yet "injected" and so are
    /// excluded from both sides).
    pub fn in_network_packets(&self) -> u64 {
        let buffered: usize = self
            .routers
            .iter()
            .map(|r| {
                r.cpu_backlog.len()
                    + r.gpu_backlog.len()
                    + r.cpu_in.len()
                    + r.gpu_in.len()
                    + r.recv.len()
            })
            .sum();
        let retrying: usize = self.retransmit.iter().map(VecDeque::len).sum();
        (buffered + self.in_flight.len() + retrying) as u64
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    fn destination_node(&self, dst: Destination) -> usize {
        match dst {
            Destination::Cluster(c) => c,
            Destination::L3 => self.config.l3_node(),
        }
    }

    /// Advances the simulation by one network cycle, running the phases
    /// in the order the module docs list, each through the private
    /// `timed` helper.
    pub fn step(&mut self) {
        let now = self.now;
        self.timed(Section::Faults, |net| {
            let probe = &mut net.probe;
            net.fault.step(|router, kind| {
                if let Some(probe) = probe.as_mut() {
                    probe.record(&TraceEvent::Fault { router, at: now.as_u64(), kind });
                }
            });
        });
        self.timed(Section::Injection, |net| {
            net.timed(SubSection::InjectTraffic, |net| net.inject_workload(now));
            net.timed(SubSection::InjectResponses, |net| net.release_responses(now));
        });
        self.timed(Section::Dba, PearlNetwork::run_dba);
        self.timed(Section::Transport, |net| {
            net.timed(SubSection::TransportLand, |net| net.land_deliveries(now));
            net.timed(SubSection::TransportLaunch, |net| net.start_transfers(now));
            net.classify_head_waits();
        });
        self.timed(Section::Ejection, |net| net.eject_and_serve(now));
        self.timed(Section::Power, |net| {
            net.timed(SubSection::PowerSample, |net| net.sample_and_account(now));
            net.timed(SubSection::PowerScale, |net| net.scale_power(now));
        });
        self.timed(Section::Accounting, |net| {
            net.now += 1;
            net.stats.tick();
        });
        if let Some(profiler) = self.profiler.as_mut() {
            set_alloc_section(None);
            profiler.tick();
        }
    }

    /// Runs one phase of [`Self::step`]. With profiling on, it also tags
    /// the allocation counter with the phase's section and charges the
    /// phase's wall time to its [`Section`] or [`SubSection`] (a sub is
    /// timed inside its section, so sub sums stay ≤ the section).
    /// Without profiling it costs a branch on the profiler's presence.
    #[inline]
    fn timed<T>(&mut self, phase: impl Phase, run: impl FnOnce(&mut Self) -> T) -> T {
        let start = self.profiler.is_some().then(|| {
            set_alloc_section(Some(phase.section()));
            Instant::now()
        });
        let out = run(self);
        if let (Some(t0), Some(profiler)) = (start, self.profiler.as_mut()) {
            phase.charge(profiler, t0);
        }
        out
    }

    /// Runs `cycles` cycles and summarizes the run.
    pub fn run(&mut self, cycles: u64) -> RunSummary {
        for _ in 0..cycles {
            self.step();
        }
        self.summary()
    }

    /// Runs `cycles` cycles while collecting (feature, next-window label)
    /// samples at every router, returning the dataset.
    pub fn run_collecting(&mut self, cycles: u64) -> Dataset {
        self.collection = Some(Dataset::new(FEATURE_COUNT));
        for _ in 0..cycles {
            self.step();
        }
        // `step` only ever appends to the dataset, so the take cannot
        // miss — but a public API should not carry an unwind path for it.
        let collected = self.collection.take();
        debug_assert!(collected.is_some(), "collection enabled at entry, never cleared by step");
        collected.unwrap_or_else(|| Dataset::new(FEATURE_COUNT))
    }

    /// Summary of everything measured so far.
    pub fn summary(&self) -> RunSummary {
        let clock = self.config.network_clock();
        let mut residency = StateResidency::default();
        let mut transitions = 0;
        let mut stall_cycles = 0;
        for r in &self.routers {
            residency.merge(r.laser().residency());
            transitions += r.laser().transitions();
            stall_cycles += r.laser().stall_cycles();
        }
        RunSummary::from_stats(&self.stats, clock, residency, transitions, stall_cycles)
    }

    // ----- per-cycle phases ------------------------------------------------

    fn inject_workload(&mut self, now: Cycle) {
        // A core whose issue backlog has built up is stalled: it makes no
        // forward progress and generates no further misses this cycle.
        let stall_threshold = CORE_STALL_BACKLOG;
        let routers = &self.routers;
        let requests = self.traffic.generate(now, &|cluster, core| {
            routers[cluster].backlog(core).len() >= stall_threshold
        });
        for req in requests {
            let id = self.fresh_id();
            let dst = self.destination_node(req.dst);
            let packet =
                Packet::request(id, NodeId(req.cluster), NodeId(dst), req.core, req.class, now);
            // The ML label counts traffic the cores TRY to inject — the
            // paper picks this exact label so the wavelength state cannot
            // feed back into the prediction target (§IV-A).
            self.routers[req.cluster].counters.record_injected(&packet);
            let for_stats = packet.clone();
            match self.routers[req.cluster].accept_request(packet) {
                Ok(()) => self.stats.record_injection(&for_stats),
                Err(_) => {
                    self.stats.record_injection_stall();
                    if let Some(probe) = self.probe.as_mut() {
                        probe.record(&TraceEvent::InjectionStall {
                            router: req.cluster,
                            at: now.as_u64(),
                            core: req.core,
                        });
                    }
                }
            }
        }
        self.drain_backlogs();
    }

    /// Moves backlogged core requests into the network while each core
    /// type's outstanding-miss window has room — the MSHR model that
    /// couples round-trip latency back into issue rate.
    fn drain_backlogs(&mut self) {
        for i in 0..self.config.clusters {
            for (k, core) in CoreType::ALL.into_iter().enumerate() {
                let limit = match core {
                    CoreType::Cpu => self.config.cpu_outstanding_limit,
                    CoreType::Gpu => self.config.gpu_outstanding_limit,
                };
                while self.outstanding[i][k] < limit {
                    let router = &mut self.routers[i];
                    let Some(flits) = router.backlog(core).front().map(Packet::flits) else {
                        break;
                    };
                    if !router.lane_can_accept(core, flits) {
                        break;
                    }
                    let Some(packet) = router.pop_backlog(core) else { break };
                    if let Err(err) = router.enqueue_local(packet) {
                        // `lane_can_accept` held the capacity above; keep
                        // the packet rather than unwind if it ever lies.
                        debug_assert!(false, "lane rejected a checked enqueue");
                        router.unpop_backlog(err.0);
                        break;
                    }
                    self.outstanding[i][k] += 1;
                }
            }
        }
    }

    fn release_responses(&mut self, now: Cycle) {
        let stats = &mut self.stats;
        for router in &mut self.routers {
            router.release_responses(now, |packet| stats.record_injection(packet));
        }
    }

    /// Occupancy inflation factor from photonic faults: when failed λs
    /// or a degraded laser shrink the effective channel below the usable
    /// state, serialization lengthens by this ratio and the buffers
    /// drain proportionally slower. Exactly 1.0 when fault-free, so the
    /// DBA sees bit-identical inputs in an unfaulted run.
    fn fault_pressure_scale(&self, i: usize) -> f64 {
        if !self.fault.is_enabled() {
            return 1.0;
        }
        let usable = self.routers[i].laser.usable_state();
        let effective = self.fault.effective_state(i, usable);
        effective.serialization_cycles() as f64 / usable.serialization_cycles() as f64
    }

    /// Algorithm 1's per-cycle DBA: every router's CPU share follows its
    /// (fault-scaled) buffer occupancies. The discrete policy picks one
    /// of the five splits and keeps it in `allocation`; the fine-grained
    /// one sets the share directly. Each split has its own CPU share, so
    /// a changed share is a changed allocation. Both are pure functions
    /// of the two lanes' pressure flits and the fault scale, so a router
    /// whose inputs match the last evaluation keeps its split unchanged.
    fn run_dba(&mut self) {
        if matches!(self.policy.bandwidth, BandwidthPolicy::Fcfs) {
            return;
        }
        for i in 0..self.routers.len() {
            let scale = self.fault_pressure_scale(i);
            let router = &mut self.routers[i];
            let inputs = (
                router.lane_pressure_flits(CoreType::Cpu),
                router.lane_pressure_flits(CoreType::Gpu),
                scale.to_bits(),
            );
            if router.dba_inputs == Some(inputs) {
                continue;
            }
            router.dba_inputs = Some(inputs);
            let (beta_cpu, beta_gpu) = router.betas();
            let (cpu, gpu) = ((beta_cpu * scale).min(1.0), (beta_gpu * scale).min(1.0));
            let prev = router.cpu_share;
            router.cpu_share = match self.fine {
                Some(fine) => fine.cpu_share(cpu, gpu),
                None => {
                    router.allocation = self.dba.allocate(cpu, gpu);
                    router.allocation.share(CoreType::Cpu)
                }
            };
            let cpu_share = router.cpu_share;
            let changed = cpu_share != prev;
            if let Some(w) = self.work_mut() {
                w.dba_invocations += 1;
                w.dba_reallocs += u64::from(changed);
            }
            if !changed {
                continue;
            }
            if let Some(probe) = self.probe.as_mut() {
                probe.record(&TraceEvent::DbaRealloc {
                    router: i,
                    at: self.now.as_u64(),
                    beta_cpu,
                    beta_gpu,
                    cpu_share,
                });
            }
        }
    }

    fn land_deliveries(&mut self, now: Cycle) {
        let sweep = self.in_flight.len() as u64;
        if let Some(w) = self.work_mut() {
            // One sweep visit per in-flight transfer, landed or not.
            w.loop_iterations += sweep;
        }
        // Landed flights move out in launch order, which is the order
        // they enter the receive buffers.
        let mut landed = std::mem::take(&mut self.landing);
        landed.extend(self.in_flight.extract_if(.., |flight| flight.deliver_at <= now));
        for flight in landed.drain(..) {
            if flight.wire_crc == packet_checksum(&flight.packet) {
                if let Some(tracker) = self.span_tracker.as_mut() {
                    tracker.landed.insert(flight.packet.id, (now.as_u64(), flight.attempts));
                }
                self.routers[flight.dst].land(flight.packet);
            } else {
                // CRC mismatch at the photodetector: NACK. The receive
                // reservation is released and the packet requeues at its
                // source under bounded exponential backoff; nothing is
                // ever dropped.
                self.routers[flight.dst].release_recv(flight.packet.flits());
                self.stats.record_corruption();
                let backoff =
                    (RETRY_BACKOFF_BASE << flight.attempts.min(31)).min(RETRY_BACKOFF_CAP);
                self.stats.record_retransmission(backoff);
                if let Some(probe) = self.probe.as_mut() {
                    probe.record(&TraceEvent::Retransmission {
                        packet: flight.packet.id,
                        src: flight.src,
                        dst: flight.dst,
                        at: now.as_u64(),
                        attempts: flight.attempts + 1,
                        backoff_cycles: backoff,
                    });
                }
                // The NACK itself takes one propagation delay to reach
                // the source before the backoff clock starts.
                let ready = now + self.config.delivery_latency + backoff;
                if self.span_tracker.is_some() {
                    // The backoff window (NACK propagation included) is
                    // charged to the *next* flight's attempt number.
                    let span = Span {
                        packet: flight.packet.id,
                        parent: self.span_parent(flight.packet.id),
                        kind: SpanKind::Retransmission,
                        router: flight.src,
                        core: flight.packet.core,
                        attempt: flight.attempts + 1,
                        start: now.as_u64(),
                        end: ready.as_u64(),
                    };
                    self.emit_span(span);
                }
                self.retransmit[flight.src].push_back(RetryEntry {
                    ready,
                    attempts: flight.attempts + 1,
                    packet: flight.packet,
                });
            }
        }
        self.landing = landed;
    }

    fn start_transfers(&mut self, now: Cycle) {
        if self.config.fabric == Fabric::MwsrToken {
            self.start_transfers_mwsr(now);
            return;
        }
        for i in 0..self.routers.len() {
            let router = &mut self.routers[i];
            if router.cpu_in.is_empty() && router.gpu_in.is_empty() && self.retransmit[i].is_empty()
            {
                // Nothing to send: freeing the channels whose
                // serialization ended is all a scan would do, since an
                // arbiter offered no ready lane changes no credit.
                for channel in &mut router.channels {
                    if channel.as_ref().is_some_and(|t| t.busy_until <= now) {
                        *channel = None;
                    }
                }
                continue;
            }
            let channel_count = router.channel_count();
            let mut launched_any = false;
            for c in 0..channel_count {
                // Free the channel when serialization finished.
                let free = match &self.routers[i].channels[c] {
                    Some(t) => t.busy_until <= now,
                    None => true,
                };
                if let Some(w) = self.work_mut() {
                    w.loop_iterations += 1;
                    w.arb_attempts += u64::from(free);
                }
                if !free {
                    continue;
                }
                self.routers[i].channels[c] = None;
                let launched = self.try_start_transfer(i, c, now);
                launched_any |= launched;
                if let Some(w) = self.work_mut() {
                    w.arb_grants += u64::from(launched);
                }
            }
            if let Some(w) = self.work_mut() {
                w.routers_scanned += 1;
                w.routers_with_work += u64::from(launched_any);
            }
        }
    }

    /// MWSR with token arbitration: each *destination* owns its data
    /// channel(s); the circulating token decides which source may write.
    /// A holder whose queue heads do not target the destination passes
    /// the token — the serialization overhead and token-wait latency the
    /// paper's R-SWMR design eliminates.
    fn start_transfers_mwsr(&mut self, now: Cycle) {
        let n = self.routers.len();
        for d in 0..n {
            let channel_count = self.routers[d].channel_count();
            let mut started_any = false;
            for c in 0..channel_count {
                let free = match &self.routers[d].channels[c] {
                    Some(t) => t.busy_until <= now,
                    None => true,
                };
                if let Some(w) = self.work_mut() {
                    w.loop_iterations += 1;
                    w.arb_attempts += u64::from(free);
                }
                if !free {
                    continue;
                }
                self.routers[d].channels[c] = None;
                let holder = self.tokens[d];
                let started = holder != d && self.try_start_mwsr_transfer(holder, d, c, now);
                started_any |= started;
                if let Some(w) = self.work_mut() {
                    w.arb_grants += u64::from(started);
                }
                // Token circulates whether or not the holder used it.
                let mut next = (self.tokens[d] + 1) % n;
                if next == d {
                    next = (next + 1) % n;
                }
                self.tokens[d] = next;
            }
            if let Some(w) = self.work_mut() {
                w.routers_scanned += 1;
                w.routers_with_work += u64::from(started_any);
            }
        }
    }

    /// Serializes `packet` from `src` onto `channel_owner`'s channel
    /// slot at the given wavelength state, reserving destination
    /// headroom (the caller has checked it) and modeling transit
    /// corruption by flipping one bit of the stored wire CRC.
    #[allow(clippy::too_many_arguments)]
    fn launch_transfer(
        &mut self,
        src: usize,
        dst: usize,
        channel_owner: usize,
        channel: usize,
        state: WavelengthState,
        packet: Packet,
        attempts: u32,
        now: Cycle,
    ) {
        let flits = packet.flits();
        if let Some(w) = self.work_mut() {
            w.flits_moved += u64::from(flits);
        }
        let duration = u64::from(flits) * state.serialization_cycles();
        let busy_until = now + duration;
        let deliver_at = busy_until + self.config.delivery_latency;
        let mut wire_crc = packet_checksum(&packet);
        if self.fault.is_enabled() && self.fault.corrupts_packet() {
            wire_crc ^= 1 << (packet.id % 32);
        }
        self.routers[dst].reserve_recv(flits);
        self.routers[src].counters.record_sent(&packet);
        self.stats.modulation_energy_j +=
            self.power_model.modulation_energy_j(state, packet.bits(), self.cycle_seconds);
        if self.span_tracker.is_some() {
            let serialization = Span {
                packet: packet.id,
                parent: self.span_parent(packet.id),
                kind: SpanKind::Serialization,
                router: src,
                core: packet.core,
                attempt: attempts,
                start: now.as_u64(),
                end: busy_until.as_u64(),
            };
            let link = Span {
                kind: SpanKind::LinkTraversal,
                start: busy_until.as_u64(),
                end: deliver_at.as_u64(),
                ..serialization
            };
            self.emit_span(serialization);
            self.emit_span(link);
        }
        self.routers[channel_owner].channels[channel] =
            Some(Transfer { packet_id: packet.id, busy_until });
        self.in_flight.push(InFlight { src, dst, packet, deliver_at, attempts, wire_crc });
    }

    /// Serves the head of `i`'s retransmission queue if its backoff has
    /// expired and the destination has headroom. Retries go out ahead of
    /// fresh lane traffic so a corrupted packet cannot starve behind an
    /// ever-growing queue. Returns true when a retry was launched.
    fn try_start_retry(&mut self, i: usize, channel: usize, now: Cycle) -> bool {
        let Some(entry) = self.retransmit[i].pop_front() else {
            return false;
        };
        let dst = entry.packet.dst.index();
        if entry.ready > now || self.routers[dst].recv_headroom() < entry.packet.flits() {
            self.retransmit[i].push_front(entry);
            return false;
        }
        let state = self.fault.effective_state(i, self.routers[i].laser.usable_state());
        if self.span_tracker.is_some() {
            self.record_retry_wait_span(i, &entry, now);
        }
        self.launch_transfer(i, dst, i, channel, state, entry.packet, entry.attempts, now);
        true
    }

    /// Attempts to start one transfer from `src` onto destination `d`'s
    /// home channel `c`. Returns true when a packet was launched.
    fn try_start_mwsr_transfer(
        &mut self,
        src: usize,
        d: usize,
        channel: usize,
        now: Cycle,
    ) -> bool {
        // The destination's home-channel laser sets the data rate,
        // further degraded by its waveguide/laser faults.
        let state = self.fault.effective_state(d, self.routers[d].laser.usable_state());
        // A due retry targeting this destination goes out first.
        if let Some(entry) = self.retransmit[src].pop_front() {
            if entry.ready <= now
                && entry.packet.dst.index() == d
                && self.routers[d].recv_headroom() >= entry.packet.flits()
            {
                if self.span_tracker.is_some() {
                    self.record_retry_wait_span(src, &entry, now);
                }
                self.launch_transfer(src, d, d, channel, state, entry.packet, entry.attempts, now);
                return true;
            }
            self.retransmit[src].push_front(entry);
        }
        // Only queue *heads* that target d are eligible (FIFO lanes).
        let lane_targets = |core: CoreType| -> bool {
            self.routers[src].lane(core).peek().is_some_and(|p| p.dst.index() == d)
        };
        let cpu_ok = lane_targets(CoreType::Cpu);
        let gpu_ok = lane_targets(CoreType::Gpu);
        let share = self.routers[src].cpu_share;
        let Some(core) = self.routers[src].arbiter.pick_with_share(share, cpu_ok, gpu_ok) else {
            return false;
        };
        let Some(flits) = self.routers[src].lane(core).peek().map(Packet::flits) else {
            // pick_with_share only offers lanes whose heads we observed.
            debug_assert!(false, "arbiter readiness implies a lane head");
            return false;
        };
        if self.routers[d].recv_headroom() < flits {
            return false;
        }
        let Some(packet) = self.routers[src].lane_mut(core).pop() else {
            debug_assert!(false, "lane head observed above");
            return false;
        };
        if self.span_tracker.is_some() {
            self.record_prelaunch_spans(src, core, &packet, now);
        }
        self.launch_transfer(src, d, d, channel, state, packet, 0, now);
        true
    }

    /// Readiness of one lane: head packet exists and its destination has
    /// receive headroom.
    fn lane_ready(&self, i: usize, core: CoreType) -> Option<(usize, u32, Cycle)> {
        let head = self.routers[i].lane(core).peek()?;
        let dst = head.dst.index();
        let flits = head.flits();
        let injected = head.injected_at;
        if self.routers[dst].recv_headroom() >= flits {
            Some((dst, flits, injected))
        } else {
            None
        }
    }

    /// Attempts to start one transfer (retry first, then a lane head)
    /// on `i`'s free `channel`. Returns true when a packet launched.
    fn try_start_transfer(&mut self, i: usize, channel: usize, now: Cycle) -> bool {
        if self.config.full_channel_stall && self.routers[i].laser.is_stabilizing() {
            // Paper-mode stabilization: the whole channel is dark while
            // the new banks settle.
            return false;
        }
        if self.try_start_retry(i, channel, now) {
            return true;
        }
        let cpu_ready = self.lane_ready(i, CoreType::Cpu);
        let gpu_ready = self.lane_ready(i, CoreType::Gpu);
        let pick = match self.policy.bandwidth {
            BandwidthPolicy::Dynamic(_) | BandwidthPolicy::DynamicFine { .. } => {
                let share = self.routers[i].cpu_share;
                self.routers[i].arbiter.pick_with_share(
                    share,
                    cpu_ready.is_some(),
                    gpu_ready.is_some(),
                )
            }
            BandwidthPolicy::Fcfs => {
                // Strict single-FIFO semantics: the oldest head goes
                // first, and if its destination has no receive headroom
                // the whole channel head-of-line blocks — younger
                // packets (even on the other lane) may NOT bypass it.
                // This is exactly the behaviour the DBA's dual-lane
                // design eliminates.
                let cpu_head = self.routers[i].lane(CoreType::Cpu).peek().map(|p| p.injected_at);
                let gpu_head = self.routers[i].lane(CoreType::Gpu).peek().map(|p| p.injected_at);
                let oldest = match (cpu_head, gpu_head) {
                    (None, None) => None,
                    (Some(_), None) => Some(CoreType::Cpu),
                    (None, Some(_)) => Some(CoreType::Gpu),
                    (Some(tc), Some(tg)) => {
                        Some(if tc <= tg { CoreType::Cpu } else { CoreType::Gpu })
                    }
                };
                match oldest {
                    Some(CoreType::Cpu) if cpu_ready.is_some() => Some(CoreType::Cpu),
                    Some(CoreType::Gpu) if gpu_ready.is_some() => Some(CoreType::Gpu),
                    _ => None, // oldest head blocked (or queues empty)
                }
            }
        };
        let Some(core) = pick else { return false };
        let Some(packet) = self.routers[i].lane_mut(core).pop() else {
            // `lane_ready` peeked this head one phase-step earlier in the
            // same cycle; nothing drains the lane in between.
            debug_assert!(false, "readiness implies a head packet");
            return false;
        };
        let dst = packet.dst.index();
        // Failed λs and laser degradation shrink the state actually
        // modulated onto the waveguide below what the laser powers.
        let state = self.fault.effective_state(i, self.routers[i].laser.usable_state());
        if self.span_tracker.is_some() {
            self.record_prelaunch_spans(i, core, &packet, now);
        }
        self.launch_transfer(i, dst, i, channel, state, packet, 0, now);
        true
    }

    fn eject_and_serve(&mut self, now: Cycle) {
        for i in 0..self.routers.len() {
            for _ in 0..self.config.ejection_packets_per_cycle {
                if let Some(w) = self.work_mut() {
                    w.loop_iterations += 1;
                }
                let Some(packet) = self.routers[i].eject() else { break };
                self.stats.record_delivery(&packet, now);
                self.emit_eject_span(i, &packet, now);
                if packet.kind == PacketKind::Response && i < self.config.clusters {
                    // A miss came back: free an outstanding-window slot.
                    let k = lane_index(packet.core);
                    self.outstanding[i][k] = self.outstanding[i][k].saturating_sub(1);
                }
                if packet.kind == PacketKind::Request {
                    let is_l3 = self.routers[i].is_l3();
                    let latency = self.config.responder.service_latency(is_l3);
                    let ready = now + latency;
                    let id = self.fresh_id();
                    let response = self.config.responder.response_for(&packet, id, ready, is_l3);
                    if let Some(tracker) = self.span_tracker.as_mut() {
                        // The response's spans will point back at the
                        // request that caused it.
                        tracker.parent.insert(id, packet.id);
                    }
                    // Response demand counts towards the serving router's
                    // injected-traffic label at generation time.
                    self.routers[i].counters.record_injected(&response);
                    self.routers[i].pending_responses.push_back((ready, response));
                }
            }
        }
    }

    // ----- causal spans ----------------------------------------------------

    /// Per-cycle head-wait classification for causal spans: after the
    /// transfer phase, each lane head that failed to launch is charged
    /// one cycle of `reservation_wait` (destination receive headroom
    /// missing) or `arbitration` (lost the channel, the weighted
    /// arbiter, or the MWSR token). Pure observer work — does nothing
    /// without span tracking and touches nothing the simulation reads.
    fn classify_head_waits(&mut self) {
        let Some(tracker) = self.span_tracker.as_mut() else { return };
        for i in 0..self.routers.len() {
            for (k, core) in CoreType::ALL.into_iter().enumerate() {
                let Some(head) = self.routers[i].lane(core).peek() else {
                    tracker.head_wait[i][k] = None;
                    continue;
                };
                let (id, dst, flits) = (head.id, head.dst.index(), head.flits());
                let blocked_on_reservation = self.routers[dst].recv_headroom() < flits;
                let slot = &mut tracker.head_wait[i][k];
                match slot {
                    Some(w) if w.packet == id => {
                        if blocked_on_reservation {
                            w.reservation += 1;
                        } else {
                            w.arbitration += 1;
                        }
                    }
                    _ => {
                        *slot = Some(HeadWait {
                            packet: id,
                            reservation: u64::from(blocked_on_reservation),
                            arbitration: u64::from(!blocked_on_reservation),
                        });
                    }
                }
            }
        }
    }

    /// Emits the three pre-launch spans of a fresh packet, tiling
    /// `[injected_at, now]` exactly: `inject_queue` (behind older lane
    /// traffic), `reservation_wait`, then `arbitration` — the two waits
    /// taken from the head-wait counters accumulated while the packet
    /// sat at the front of its lane.
    fn record_prelaunch_spans(&mut self, src: usize, core: CoreType, packet: &Packet, now: Cycle) {
        let lane = lane_index(core);
        let (res, arb) = match self.span_tracker.as_mut() {
            Some(tracker) => match tracker.head_wait[src][lane].take() {
                Some(w) if w.packet == packet.id => (w.reservation, w.arbitration),
                _ => (0, 0),
            },
            None => (0, 0),
        };
        let injected = packet.injected_at.as_u64();
        // Saturation here must never actually engage: a packet launching
        // before its recorded injection cycle means the inject/eject
        // accounting is broken, and clamping to 0 would silently absorb
        // the bug into a zero-length inject_queue span.
        debug_assert!(
            now.as_u64() >= injected,
            "packet {} launches at cycle {} before its injection at {injected}",
            packet.id,
            now.as_u64()
        );
        let total = now.as_u64().saturating_sub(injected);
        let res = res.min(total);
        let arb = arb.min(total - res);
        let queue_end = injected + (total - res - arb);
        let base = Span {
            packet: packet.id,
            parent: self.span_parent(packet.id),
            kind: SpanKind::InjectQueue,
            router: src,
            core,
            attempt: 0,
            start: injected,
            end: queue_end,
        };
        let reservation = Span {
            kind: SpanKind::ReservationWait,
            start: queue_end,
            end: queue_end + res,
            ..base
        };
        let arbitration =
            Span { kind: SpanKind::Arbitration, start: queue_end + res, end: now.as_u64(), ..base };
        self.emit_span(base);
        self.emit_span(reservation);
        self.emit_span(arbitration);
    }

    /// Emits the reservation-wait span of a retry flight: the gap
    /// between backoff expiry and the cycle the retry actually
    /// relaunched, spent waiting on destination headroom and a free
    /// channel.
    fn record_retry_wait_span(&mut self, src: usize, entry: &RetryEntry, now: Cycle) {
        let span = Span {
            packet: entry.packet.id,
            parent: self.span_parent(entry.packet.id),
            kind: SpanKind::ReservationWait,
            router: src,
            core: entry.packet.core,
            attempt: entry.attempts,
            start: entry.ready.as_u64(),
            end: now.as_u64(),
        };
        self.emit_span(span);
    }

    /// Emits the eject-drain span that closes a packet's causal trace:
    /// time spent in the destination's receive buffer between landing
    /// and ejection. Drops the packet's tracker entries — this is the
    /// last span of its life.
    fn emit_eject_span(&mut self, router: usize, packet: &Packet, now: Cycle) {
        let Some(tracker) = self.span_tracker.as_mut() else { return };
        let (landed_at, attempt) = tracker.landed.remove(&packet.id).unwrap_or((now.as_u64(), 0));
        let parent = tracker.parent.remove(&packet.id);
        let span = Span {
            packet: packet.id,
            parent,
            kind: SpanKind::EjectDrain,
            router,
            core: packet.core,
            attempt,
            start: landed_at,
            end: now.as_u64(),
        };
        self.emit_span(span);
    }

    fn sample_and_account(&mut self, now: Cycle) {
        let dt = self.cycle_seconds;
        let routers = self.routers.len() as u64;
        if let Some(w) = self.work_mut() {
            // One laser/energy bookkeeping tick per router per cycle.
            w.power_updates += routers;
        }
        let mut clamped: Vec<(usize, WavelengthState, WavelengthState)> = Vec::new();
        for (i, router) in self.routers.iter_mut().enumerate() {
            router.sample_occupancy();
            if self.fault.is_enabled() {
                // A degraded laser bank cannot hold its nominal state:
                // clamp (instantly — degradation needs no stabilization)
                // before the FSM ticks so energy is accounted at the
                // ceiling, not at the unreachable request.
                let before = router.laser.powered_state();
                router.laser.apply_ceiling(self.fault.laser_ceiling(i), now.as_u64());
                let after = router.laser.powered_state();
                if self.probe.is_some() && before != after {
                    clamped.push((i, before, after));
                }
            }
            router.laser.tick(now.as_u64());
            let channels = router.channel_count() as f64;
            let (laser_w, heating_w) = self.power_levels[router.laser.powered_state().index()];
            self.stats.laser_energy_j += channels * laser_w * dt;
            self.stats.heating_energy_j += channels * heating_w * dt;
        }
        let Some(probe) = self.probe.as_mut() else { return };
        for (router, from, to) in clamped {
            probe.record(&TraceEvent::WavelengthTransition {
                router,
                at: now.as_u64(),
                from,
                to,
                cause: TransitionCause::FaultCeiling,
            });
        }
    }

    fn scale_power(&mut self, now: Cycle) {
        let Some(window) = self.policy.power.window() else {
            // Static policy: still reset counters periodically so the
            // windowed feature state cannot grow without bound.
            if (now.as_u64() + 1).is_multiple_of(4096) {
                for router in &mut self.routers {
                    router.counters.reset();
                    router.beta_accum = 0.0;
                }
            }
            return;
        };
        for i in 0..self.routers.len() {
            let offset = WINDOW_OFFSET_PER_ROUTER * i as u64;
            let t = now.as_u64() + 1;
            let open = t > offset && (t - offset).is_multiple_of(window);
            if let Some(w) = self.work_mut() {
                w.window_checks += 1;
                w.windows_open += u64::from(open);
            }
            if !open {
                continue;
            }
            self.window_boundary(i, window, now);
        }
    }

    fn window_boundary(&mut self, i: usize, window: u64, now: Cycle) {
        // Extract this window's features before any reset.
        let features = {
            let router = &self.routers[i];
            FeatureVector::extract(
                router.is_l3(),
                &router.counters,
                self.config.cpu_buffer_slots,
                self.config.gpu_buffer_slots,
                self.config.recv_buffer_slots,
                router.laser.usable_state(),
            )
        };
        // Label bookkeeping: the previous window's features are labelled
        // with THIS window's locally injected flits.
        let label = self.routers[i].counters.injected_flits as f64;
        if let Some(dataset) = self.collection.as_mut() {
            if let Some(prev) = self.pending_features[i].take() {
                let pushed = dataset.push(prev.into_vec(), label);
                debug_assert!(pushed.is_ok(), "feature dimension is fixed at FEATURE_COUNT");
            }
            self.pending_features[i] = Some(features.clone());
        }

        let beta_total = self.routers[i].drain_window_beta();
        let channels = self.routers[i].channel_count() as u64;
        let ladder_mode_before = self.ladder.as_ref().map(DegradationLadder::mode);
        let mut predicted_flits = None;
        let target = match &self.policy.power {
            PowerPolicy::Static(_) => unreachable!("static policy has no window"),
            PowerPolicy::Reactive { thresholds, allow_8wl, .. } => {
                if *allow_8wl {
                    thresholds.decide(beta_total)
                } else {
                    thresholds.decide_without_8wl(beta_total)
                }
            }
            PowerPolicy::Ml { .. } => {
                let (target, predicted) = self.timed(SubSection::PowerMl, |net| {
                    net.ml_target(i, &features, label, beta_total, now)
                });
                predicted_flits = Some(predicted);
                target
            }
            PowerPolicy::RandomWalk { .. } => {
                // 8 λ is excluded during training collection (§IV-B).
                *self.rng.choose(&WavelengthState::WITHOUT_W8)
            }
            PowerPolicy::NaiveLastWindow { guard, allow_8wl, .. } => {
                // Last-value prediction: next window looks like this one.
                crate::ml_scaling::select_state_eq7(label, window, channels, *allow_8wl, *guard)
            }
        };
        // Power requested above what faults let the channel carry is
        // wasted: clamp the request through the fault layer (Eq. 7's
        // outcome is unchanged in a fault-free run).
        let target =
            if self.fault.is_enabled() { self.fault.effective_state(i, target) } else { target };
        let powered_before = self.routers[i].laser.powered_state();
        self.routers[i].laser.request(target, now.as_u64());
        let powered_after = self.routers[i].laser.powered_state();
        if let Some(w) = self.work_mut() {
            w.power_changes += u64::from(powered_before != powered_after);
        }
        self.routers[i].counters.reset();
        if let Some(probe) = self.probe.as_mut() {
            let ladder_mode_after = self.ladder.as_ref().map(DegradationLadder::mode);
            if let (Some(from), Some(to)) = (ladder_mode_before, ladder_mode_after) {
                if from != to {
                    probe.record(&TraceEvent::LadderTransition {
                        at: now.as_u64(),
                        from: from.into(),
                        to: to.into(),
                        score: self.ladder.as_ref().and_then(DegradationLadder::last_score),
                    });
                }
            }
            if powered_before != powered_after {
                probe.record(&TraceEvent::WavelengthTransition {
                    router: i,
                    at: now.as_u64(),
                    from: powered_before,
                    to: powered_after,
                    cause: TransitionCause::Scaling,
                });
            }
            probe.record(&TraceEvent::WindowClose {
                router: i,
                at: now.as_u64(),
                beta_total,
                predicted_flits,
                target,
            });
        }
    }

    /// The ML policy's window decision for router `i`: predicts the
    /// next window's flits and picks the state by the ladder's mode,
    /// after scoring the previous boundary's prediction against this
    /// window's `label`. Returns the state and the prediction.
    fn ml_target(
        &mut self,
        i: usize,
        features: &FeatureVector,
        label: f64,
        beta_total: f64,
        now: Cycle,
    ) -> (WavelengthState, f64) {
        let PowerPolicy::Ml { window, scaler, allow_8wl, .. } = &self.policy.power else {
            unreachable!("ML window decision under a non-ML policy");
        };
        let channels = self.routers[i].channel_count() as u64;
        let predicted = scaler.predict_flits(features);
        let target = match self.ladder.as_mut() {
            None => scaler.select_state(predicted, *window, channels, *allow_8wl),
            Some(ladder) => {
                // Score the prediction made at the previous boundary
                // against what this window offered; predictions continue
                // in shadow mode while demoted so recovery stays
                // observable.
                if let Some(prev) = self.pending_predictions[i].take() {
                    ladder.observe(prev, label, now.as_u64());
                }
                self.pending_predictions[i] = Some(predicted);
                match ladder.mode() {
                    ScalingMode::MlProactive => {
                        scaler.select_state(predicted, *window, channels, *allow_8wl)
                    }
                    ScalingMode::Reactive if *allow_8wl => ladder.thresholds().decide(beta_total),
                    ScalingMode::Reactive => ladder.thresholds().decide_without_8wl(beta_total),
                    ScalingMode::StaticFull => WavelengthState::W64,
                }
            }
        };
        (target, predicted)
    }
}

impl Watchable for PearlNetwork {
    fn advance(&mut self, cycles: u64) {
        self.run(cycles);
    }
    fn delivered_packets(&self) -> u64 {
        self.stats.total_delivered_packets()
    }
    fn cycle(&self) -> u64 {
        self.stats.cycles()
    }
}

impl Simulator for PearlNetwork {
    fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        PearlNetwork::attach_probe(self, probe);
    }
    fn enable_profiling(&mut self) {
        PearlNetwork::enable_profiling(self);
    }
    fn snapshot(&self) -> Checkpoint {
        PearlNetwork::snapshot(self)
    }
    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SnapshotError> {
        PearlNetwork::restore(self, checkpoint)
    }
    fn state_hash(&self) -> u64 {
        PearlNetwork::state_hash(self)
    }
    fn config_fingerprint(&self) -> u64 {
        PearlNetwork::config_fingerprint(self)
    }
    fn summary_json(&self) -> JsonValue {
        let s = self.summary();
        JsonValue::obj(vec![
            ("cycles", JsonValue::u64(s.cycles)),
            ("delivered_packets", JsonValue::u64(s.delivered_packets)),
            ("delivered_flits", JsonValue::u64(s.delivered_flits)),
            ("throughput_flits_per_cycle", JsonValue::Num(s.throughput_flits_per_cycle)),
            ("avg_latency_cpu", JsonValue::Num(s.avg_latency_cpu)),
            ("avg_latency_gpu", JsonValue::Num(s.avg_latency_gpu)),
            ("latency_p99", JsonValue::Num(s.latency_p99)),
            ("avg_laser_power_w", JsonValue::Num(s.avg_laser_power_w)),
            ("avg_total_power_w", JsonValue::Num(s.avg_total_power_w)),
            ("energy_per_bit_j", JsonValue::Num(s.energy_per_bit_j)),
            ("injection_stalls", JsonValue::u64(s.injection_stalls)),
            ("retransmitted_packets", JsonValue::u64(s.retransmitted_packets)),
        ])
    }
}

/// Salt decorrelating the policy RNG (random-walk states) from the
/// workload seed so changing one does not perturb the other.
const POLICY_SEED_SALT: u64 = 0x00D1_CE0F_5EED_5A17;

/// Backlogged packets at which a core counts as stalled (stops issuing).
const CORE_STALL_BACKLOG: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_photonics::WavelengthState;

    fn quick_net(policy: PearlPolicy, seed: u64) -> PearlNetwork {
        NetworkBuilder::new().policy(policy).seed(seed).build(BenchmarkPair::test_pairs()[0])
    }

    #[test]
    fn traffic_flows_end_to_end() {
        let mut net = quick_net(PearlPolicy::dyn_64wl(), 1);
        let summary = net.run(10_000);
        assert!(summary.delivered_packets > 0, "nothing delivered");
        assert!(summary.throughput_flits_per_cycle > 0.0);
        // Responses flow back: delivered must include 4-flit packets.
        assert!(summary.delivered_flits > summary.delivered_packets);
    }

    #[test]
    fn deterministic_same_seed() {
        let a = quick_net(PearlPolicy::dyn_64wl(), 42).run(5_000);
        let b = quick_net(PearlPolicy::dyn_64wl(), 42).run(5_000);
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.delivered_flits, b.delivered_flits);
        assert!((a.avg_laser_power_w - b.avg_laser_power_w).abs() < 1e-12);
    }

    #[test]
    fn static_64wl_laser_power_matches_model() {
        let mut net = quick_net(PearlPolicy::dyn_64wl(), 7);
        let summary = net.run(2_000);
        // 16 cluster channels + 8 L3 channels, all at 1.16 W.
        let expected = 24.0 * PowerModel::pearl().laser_power_w(WavelengthState::W64);
        assert!(
            (summary.avg_laser_power_w - expected).abs() / expected < 0.01,
            "got {} expected {expected}",
            summary.avg_laser_power_w
        );
    }

    #[test]
    fn reactive_scaling_saves_laser_power() {
        let baseline = quick_net(PearlPolicy::dyn_64wl(), 3).run(40_000);
        let scaled = quick_net(PearlPolicy::reactive(500), 3).run(40_000);
        assert!(
            scaled.avg_laser_power_w < baseline.avg_laser_power_w * 0.9,
            "reactive {} vs baseline {}",
            scaled.avg_laser_power_w,
            baseline.avg_laser_power_w
        );
    }

    #[test]
    fn reactive_scaling_visits_multiple_states() {
        let mut net = quick_net(PearlPolicy::reactive(500), 5);
        let summary = net.run(40_000);
        let visited =
            WavelengthState::ALL.iter().filter(|s| summary.residency.cycles_in(**s) > 0).count();
        assert!(visited >= 2, "only {visited} states visited");
    }

    #[test]
    fn collection_produces_labelled_windows() {
        let mut net = quick_net(PearlPolicy::random_walk(500), 9);
        let data = net.run_collecting(10_000);
        // 17 routers × (10000/500 − 1) ≈ 17 × 19 windows, minus offset
        // truncation.
        assert!(data.len() >= 250, "only {} samples", data.len());
        assert_eq!(data.dimension(), FEATURE_COUNT);
        // Labels are non-negative flit counts.
        assert!(data.labels().iter().all(|&l| l >= 0.0));
        // At least some windows saw traffic.
        assert!(data.labels().iter().any(|&l| l > 0.0));
    }

    #[test]
    fn fcfs_and_dynamic_differ() {
        let dynamic = quick_net(PearlPolicy::dyn_64wl(), 11).run(20_000);
        let fcfs = quick_net(PearlPolicy::fcfs_64wl(), 11).run(20_000);
        // Identical workload, different arbitration: latencies diverge.
        assert_ne!(
            dynamic.avg_latency_cpu.to_bits(),
            fcfs.avg_latency_cpu.to_bits(),
            "policies produced identical CPU latency"
        );
    }

    #[test]
    fn lower_static_state_reduces_power_and_throughput_capacity() {
        let w64 = quick_net(PearlPolicy::dyn_64wl(), 13).run(20_000);
        let w16 = quick_net(PearlPolicy::dyn_static(WavelengthState::W16), 13).run(20_000);
        assert!(w16.avg_laser_power_w < w64.avg_laser_power_w / 3.0);
        assert!(w16.throughput_flits_per_cycle <= w64.throughput_flits_per_cycle);
    }

    #[test]
    fn fine_grained_allocation_runs_and_differs_from_discrete() {
        let coarse = quick_net(PearlPolicy::dyn_64wl(), 21).run(15_000);
        let fine = quick_net(PearlPolicy::dyn_fine(0.0625), 21).run(15_000);
        assert!(fine.throughput_flits_per_cycle > 0.0);
        // Different arbitration granularity must be observable somewhere.
        assert!(
            fine.avg_latency_gpu != coarse.avg_latency_gpu
                || fine.delivered_flits != coarse.delivered_flits
        );
    }

    #[test]
    fn naive_power_scaling_saves_power() {
        let baseline = quick_net(PearlPolicy::dyn_64wl(), 23).run(30_000);
        let naive = quick_net(PearlPolicy::naive_power(500, 1.0, true), 23).run(30_000);
        assert!(
            naive.avg_laser_power_w < baseline.avg_laser_power_w * 0.9,
            "naive {} vs baseline {}",
            naive.avg_laser_power_w,
            baseline.avg_laser_power_w
        );
    }

    #[test]
    fn mwsr_token_fabric_works_but_is_slower() {
        use crate::config::PearlConfig;
        let pair = BenchmarkPair::test_pairs()[0];
        let rswmr = quick_net(PearlPolicy::dyn_64wl(), 31).run(20_000);
        let mut mwsr_net = NetworkBuilder::new()
            .config(PearlConfig::pearl_mwsr())
            .policy(PearlPolicy::dyn_64wl())
            .seed(31)
            .build(pair);
        let mwsr = mwsr_net.run(20_000);
        assert!(mwsr.delivered_packets > 0, "MWSR must still deliver traffic");
        // Token-wait latency: the paper's reason for choosing R-SWMR.
        assert!(
            mwsr.avg_latency_cpu > rswmr.avg_latency_cpu,
            "MWSR latency {:.1} should exceed R-SWMR's {:.1}",
            mwsr.avg_latency_cpu,
            rswmr.avg_latency_cpu
        );
    }

    #[test]
    fn no_packets_lost_in_flight() {
        let mut net = quick_net(PearlPolicy::dyn_64wl(), 17);
        net.run(30_000);
        // Conservation: everything delivered was injected (stalled
        // injections were never recorded as injected).
        let injected = net.stats().total_injected_packets();
        let delivered = net.stats().total_delivered_packets();
        assert!(delivered <= injected);
        // Most of what was injected should eventually arrive.
        assert!(delivered as f64 > injected as f64 * 0.5, "{delivered}/{injected}");
    }

    fn fault_net(fault: FaultConfig, policy: PearlPolicy, seed: u64) -> PearlNetwork {
        NetworkBuilder::new()
            .policy(policy)
            .fault_config(fault)
            .seed(seed)
            .build(BenchmarkPair::test_pairs()[0])
    }

    /// Exact conservation law: every injected packet is delivered or
    /// still accounted somewhere in the network.
    fn assert_zero_loss(net: &PearlNetwork) {
        let injected = net.stats().total_injected_packets();
        let delivered = net.stats().total_delivered_packets();
        let in_network = net.in_network_packets();
        assert_eq!(
            injected,
            delivered + in_network,
            "packet leak: {injected} injected, {delivered} delivered, {in_network} in network"
        );
    }

    #[test]
    fn try_build_surfaces_config_errors() {
        use crate::config::PearlConfig;
        use crate::dba::OccupancyBounds;
        let mut config = PearlConfig::pearl();
        config.clusters = 1;
        let err = NetworkBuilder::new()
            .config(config)
            .try_build(BenchmarkPair::test_pairs()[0])
            .map(|_| "built a degenerate config")
            .unwrap_err();
        assert_eq!(err, ConfigError::TooFewClusters { clusters: 1 });
        assert!(NetworkBuilder::new().try_build(BenchmarkPair::test_pairs()[0]).is_ok());
        // A fine-grained step the allocator would panic on is a typed error.
        let err = NetworkBuilder::new()
            .policy(PearlPolicy::dyn_fine(0.7))
            .try_build(BenchmarkPair::test_pairs()[0])
            .map(|_| "built an allocator with a 0.7 step")
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidFineStep { step: 0.7 });
        // So are occupancy bounds the allocator would panic on.
        let bounded = |cpu_upper, gpu_upper| {
            NetworkBuilder::new()
                .policy(PearlPolicy {
                    bandwidth: BandwidthPolicy::Dynamic(OccupancyBounds { cpu_upper, gpu_upper }),
                    ..PearlPolicy::dyn_64wl()
                })
                .try_build(BenchmarkPair::test_pairs()[0])
                .map(|_| "built an allocator with an out-of-range bound")
                .unwrap_err()
        };
        assert_eq!(
            bounded(0.0, 0.06),
            ConfigError::InvalidOccupancyBound { core: "CPU", bound: 0.0 }
        );
        assert_eq!(
            bounded(0.16, 1.0),
            ConfigError::InvalidOccupancyBound { core: "GPU", bound: 1.0 }
        );
        assert!(matches!(
            bounded(0.16, f64::NAN),
            ConfigError::InvalidOccupancyBound { core: "GPU", bound } if bound.is_nan()
        ));
    }

    #[test]
    fn fault_free_config_matches_default_build() {
        let plain = quick_net(PearlPolicy::reactive(500), 19).run(20_000);
        let gated = fault_net(FaultConfig::off(), PearlPolicy::reactive(500), 19).run(20_000);
        // Rate zero draws nothing: bit-identical to a default build.
        assert_eq!(plain.delivered_packets, gated.delivered_packets);
        assert_eq!(plain.delivered_flits, gated.delivered_flits);
        assert_eq!(plain.avg_laser_power_w.to_bits(), gated.avg_laser_power_w.to_bits());
        assert_eq!(plain.avg_latency_cpu.to_bits(), gated.avg_latency_cpu.to_bits());
        assert_eq!(gated.corrupted_packets, 0);
        assert_eq!(gated.retransmitted_packets, 0);
    }

    #[test]
    fn no_packets_lost_under_faults() {
        let fault = FaultConfig::uniform(0.02, 7);
        let mut net = fault_net(fault, PearlPolicy::dyn_64wl(), 17);
        let summary = net.run(30_000);
        assert!(summary.delivered_packets > 0, "faulted network must stay live");
        assert!(summary.corrupted_packets > 0, "2% corruption must corrupt something");
        assert!(
            summary.retransmitted_packets >= summary.corrupted_packets,
            "every NACK schedules a retransmission"
        );
        assert_zero_loss(&net);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let fault = FaultConfig::uniform(0.01, 5);
        let a = fault_net(fault, PearlPolicy::reactive(500), 23).run(20_000);
        let b = fault_net(fault, PearlPolicy::reactive(500), 23).run(20_000);
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.corrupted_packets, b.corrupted_packets);
        assert_eq!(a.retransmitted_packets, b.retransmitted_packets);
        assert_eq!(a.avg_laser_power_w.to_bits(), b.avg_laser_power_w.to_bits());
    }

    #[test]
    fn fully_faulted_network_still_delivers() {
        // λs fail every cycle (saturating at the W8 floor), the laser
        // ceiling collapses, and a third of all packets corrupt in
        // flight — the network must degrade, not deadlock or leak.
        let fault = FaultConfig {
            lambda_fail_per_cycle: 1.0,
            laser_degrade_per_cycle: 1.0,
            corruption_per_packet: 0.3,
            ..FaultConfig { seed: 11, ..FaultConfig::off() }
        };
        let mut net = fault_net(fault, PearlPolicy::dyn_64wl(), 29);
        let summary = net.run(30_000);
        assert!(summary.delivered_packets > 0, "W8 floor must keep the network live");
        assert!(summary.corrupted_packets > 0);
        assert_zero_loss(&net);
        // The degraded channel is visibly slower than the healthy one.
        let healthy = quick_net(PearlPolicy::dyn_64wl(), 29).run(30_000);
        assert!(summary.throughput_flits_per_cycle < healthy.throughput_flits_per_cycle);
    }

    #[test]
    fn faults_degrade_mwsr_fabric_without_loss() {
        use crate::config::PearlConfig;
        let mut net = NetworkBuilder::new()
            .config(PearlConfig::pearl_mwsr())
            .policy(PearlPolicy::dyn_64wl())
            .fault_config(FaultConfig::uniform(0.02, 3))
            .seed(31)
            .build(BenchmarkPair::test_pairs()[0]);
        let summary = net.run(20_000);
        assert!(summary.delivered_packets > 0);
        assert!(summary.corrupted_packets > 0);
        assert_zero_loss(&net);
    }

    /// A "trained" scaler that predicts roughly `value` flits regardless
    /// of the features — the forcing device for misprediction tests.
    fn constant_scaler(value: f64) -> crate::ml_scaling::MlPowerScaler {
        use pearl_ml::select_lambda;
        let mut d = Dataset::new(FEATURE_COUNT);
        for i in 0..40 {
            let mut f = vec![0.0; FEATURE_COUNT];
            f[0] = (i % 2) as f64;
            d.push(f, value).unwrap();
        }
        let (train, val) = d.split_tail(0.25);
        let sel = select_lambda(&train, &val, &[1.0]).unwrap();
        crate::ml_scaling::MlPowerScaler::new(sel)
    }

    #[test]
    fn forced_misprediction_demotes_to_reactive_within_one_window() {
        use crate::ml_scaling::FallbackConfig;
        let window = 500u64;
        // Predict a million flits per window against an actual of a few
        // hundred: every accuracy sample is garbage.
        let fallback =
            FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
        let policy = PearlPolicy::ml_with_fallback(window, constant_scaler(1e6), true, fallback);
        let mut net =
            NetworkBuilder::new().policy(policy).seed(41).build(BenchmarkPair::test_pairs()[0]);
        assert_eq!(net.scaling_mode(), Some(crate::ml_scaling::ScalingMode::MlProactive));
        net.run(3 * window);
        // Predictions are first scored at each router's second boundary
        // (≈ cycle 2·window); the 16-sample monitor fills within that
        // boundary round, so demotion lands within one reservation
        // window of the first scored misprediction.
        assert_eq!(net.scaling_mode(), Some(crate::ml_scaling::ScalingMode::Reactive));
        let transitions = net.mode_transitions();
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].from, crate::ml_scaling::ScalingMode::MlProactive);
        assert_eq!(transitions[0].to, crate::ml_scaling::ScalingMode::Reactive);
        assert!(
            transitions[0].at <= 2 * window + WINDOW_OFFSET_PER_ROUTER * 17,
            "demotion at cycle {} took longer than one window past the first score",
            transitions[0].at
        );
        assert!(net.predictor_fit_score().unwrap() < 0.0);
    }

    #[test]
    fn accurate_predictor_never_demotes() {
        use crate::ml_scaling::FallbackConfig;
        // NaiveLastWindow-quality accuracy is hard to fake with a
        // constant model, so check the other direction: a ladder with an
        // unreachable demotion threshold stays in ML mode and records no
        // transitions over a long run.
        let fallback = FallbackConfig {
            demote_below: f64::NEG_INFINITY,
            severe_below: f64::NEG_INFINITY,
            ..FallbackConfig::pearl()
        };
        let policy = PearlPolicy::ml_with_fallback(500, constant_scaler(100.0), true, fallback);
        let mut net =
            NetworkBuilder::new().policy(policy).seed(43).build(BenchmarkPair::test_pairs()[0]);
        net.run(10_000);
        assert_eq!(net.scaling_mode(), Some(crate::ml_scaling::ScalingMode::MlProactive));
        assert!(net.mode_transitions().is_empty());
        // The monitor itself ran (scores exist) — only the ladder's
        // thresholds kept it from acting.
        assert!(net.predictor_fit_score().is_some());
    }

    #[test]
    fn retransmissions_eventually_complete_after_faults_stop() {
        // Run hot, then let the network drain with injection ongoing but
        // corruption active the whole time: the retry path must keep the
        // conservation law at every sampled point.
        let fault = FaultConfig {
            corruption_per_packet: 0.5,
            ..FaultConfig { seed: 13, ..FaultConfig::off() }
        };
        let mut net = fault_net(fault, PearlPolicy::dyn_64wl(), 37);
        for _ in 0..10 {
            net.run(2_000);
            assert_zero_loss(&net);
        }
        assert!(net.stats().retransmitted_packets() > 0);
    }
}
