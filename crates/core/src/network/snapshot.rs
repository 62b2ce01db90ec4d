//! Checkpoint/restore codec for [`PearlNetwork`].
//!
//! A checkpoint captures the COMPLETE dynamic state of a network — RNG
//! stream positions, every buffer, backlog and receive reservation, the
//! arbiter credits, laser FSMs, in-flight and retransmitting packets,
//! outstanding-miss windows, MWSR tokens, pending ML features and
//! predictions, the degradation ladder, stats and the fault model —
//! such that
//!
//! ```text
//! run(N); snapshot(); restore(); run(M)   ≡   run(N + M)
//! ```
//!
//! bit-for-bit: identical stats, identical trace events, identical
//! [`PearlNetwork::state_hash`].
//!
//! One section belongs to observers: the span tracker. A checkpoint
//! carries it, so a traced resume stays byte-identical, but the state
//! hash writes it as `null`, as a bare run does, so attaching observers
//! never changes it. The `timeline` section is always `null`: a timeline
//! samples the network from outside (`crate::timeline`), and the key
//! stays so that checkpoint bytes and state hashes match a bare run's.
//!
//! The restore model is *rebuild-then-import*: the restoring network is
//! constructed from the identical builder inputs (config, policy, power
//! model, fault config, seed, workload) and only dynamic state is
//! imported. Static configuration is never serialized — it is guarded by
//! an FNV-1a fingerprint over the builder inputs, and a mismatch fails
//! with [`SnapshotError::FingerprintMismatch`] before any state is
//! touched. The probe and the self-profiler are observers, not state,
//! and are deliberately not part of a snapshot.
//!
//! Every piece of state encodes through [`Codec`] (DESIGN §4b); this
//! module adds the impls for PEARL's own types and the validation that
//! needs the live network.

use super::*;
use crate::arbiter::WeightedArbiter;
use crate::dba::BandwidthAllocation;
use crate::features::WindowCounters;
use crate::ml_scaling::LadderState;
use crate::router::responses_in_release_order;
use pearl_noc::{BufferState, StatsState};
use pearl_photonics::{FaultModelState, LaserState};
use pearl_telemetry::snapshot::{field, get, items};
use pearl_telemetry::{
    codec_array, codec_enum, codec_object, fingerprint, Checkpoint, Codec, JsonValue, SnapshotError,
};
use pearl_workloads::TrafficState;

/// Checkpoint `kind` tag for PEARL networks.
pub const PEARL_SNAPSHOT_KIND: &str = "pearl";

impl PearlNetwork {
    /// FNV-1a fingerprint of the static identity of this network: the
    /// structural config, the full policy (including any trained model),
    /// the power model, the fault configuration, the master seed and the
    /// workload's static description. Two networks agree on this value
    /// exactly when a checkpoint from one restores onto the other.
    pub fn config_fingerprint(&self) -> u64 {
        let text = format!(
            "pearl|config:{:?}|policy:{:?}|power:{:?}|fault:{:?}|seed:{}|traffic:{}",
            self.config,
            self.policy,
            self.power_model,
            self.fault.config(),
            self.seed,
            self.traffic.fingerprint_text(),
        );
        fingerprint(&text)
    }

    /// Serializes the complete dynamic state into a sealed
    /// [`Checkpoint`] envelope.
    ///
    /// # Panics
    ///
    /// Panics if an enum value is missing from its `ALL` enumeration —
    /// an internal invariant violation, never reachable from safe use of
    /// the network.
    pub fn snapshot(&self) -> Checkpoint {
        let state = self.state(true);
        Checkpoint::new(PEARL_SNAPSHOT_KIND, self.config_fingerprint(), self.now.as_u64(), state)
    }

    /// FNV-1a hash of the simulated state — the cheap whole-network
    /// divergence detector of the golden ladder, chaos and `pearl-serve`.
    /// It hashes the state [`Self::snapshot`] writes with the span
    /// tracker written as `null`, so an observed run hashes like a bare
    /// one.
    pub fn state_hash(&self) -> u64 {
        fingerprint(&self.state(false).to_string())
    }

    /// The checkpoint state; without `observers`, the span section is
    /// `null`, as a bare run writes it.
    fn state(&self, observers: bool) -> JsonValue {
        let routers: Vec<_> = self.routers.iter().map(RouterState::export).collect();
        let spans = self.span_tracker.as_ref().filter(|_| observers);
        JsonValue::obj(vec![
            ("rng", self.rng.encode()),
            ("now", self.now.encode()),
            ("next_packet_id", self.next_packet_id.encode()),
            ("traffic", self.traffic.export_state().encode()),
            ("routers", routers.encode()),
            ("in_flight", self.in_flight.encode()),
            ("stats", self.stats.export_state().encode()),
            ("fault", self.fault.export_state().encode()),
            ("retransmit", self.retransmit.encode()),
            ("outstanding", self.outstanding.encode()),
            ("tokens", self.tokens.encode()),
            ("collection", self.collection.as_ref().map_or(JsonValue::Null, encode_dataset)),
            ("pending_features", self.pending_features.encode()),
            ("timeline", JsonValue::Null),
            ("ladder", self.ladder.as_ref().map(DegradationLadder::export_state).encode()),
            ("pending_predictions", self.pending_predictions.encode()),
            ("spans", spans.map_or(JsonValue::Null, SpanTracker::encode)),
        ])
    }

    /// Restores state captured by [`Self::snapshot`] onto a network
    /// built from the identical inputs.
    ///
    /// The checkpoint is validated (kind, config fingerprint) and fully
    /// parsed and checked against this network before any field is
    /// mutated, so a failed restore leaves the network untouched.
    ///
    /// Observers are attached before a restore, as every harness does:
    /// the checkpoint's span tracker is kept, or a fresh one made, only
    /// while the attached probe wants spans, and dropped otherwise.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KindMismatch`] /
    /// [`SnapshotError::FingerprintMismatch`] when the checkpoint was
    /// taken by a different simulator or configuration, and
    /// [`SnapshotError::BadShape`] on any structural decode mismatch,
    /// router index out of range or a `timeline` section that is not
    /// `null`.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SnapshotError> {
        checkpoint.validate(PEARL_SNAPSHOT_KIND, self.config_fingerprint())?;
        let v = &checkpoint.state;

        // ---- parse phase: no mutation below may happen before every ----
        // ---- fallible decode and check has succeeded.               ----
        let rng: SimRng = get(v, "rng")?;
        let now: Cycle = get(v, "now")?;
        let next_packet_id: u64 = get(v, "next_packet_id")?;
        let traffic: TrafficState = get(v, "traffic")?;
        let routers: Vec<RouterState> = get(v, "routers")?;
        let in_flight: Vec<InFlight> = get(v, "in_flight")?;
        let stats: StatsState = get(v, "stats")?;
        let fault: FaultModelState = get(v, "fault")?;
        let retransmit: Vec<VecDeque<RetryEntry>> = get(v, "retransmit")?;
        let outstanding: Vec<[u32; 2]> = get(v, "outstanding")?;
        let tokens: Vec<usize> = get(v, "tokens")?;
        let collection = match field(v, "collection")? {
            JsonValue::Null => None,
            other => Some(decode_dataset(other)?),
        };
        let pending_features: Vec<Option<FeatureVector>> = get(v, "pending_features")?;
        // Timelines sample the network from outside; a checkpoint that
        // carries one was not written by this network.
        if !matches!(field(v, "timeline")?, JsonValue::Null) {
            return Err(SnapshotError::BadShape { context: "timeline" });
        }
        let ladder: Option<LadderState> = get(v, "ladder")?;
        let pending_predictions: Vec<Option<f64>> = get(v, "pending_predictions")?;
        // Span-tracker state is optional (absent in pre-span checkpoints).
        let span_tracker: Option<SpanTracker> =
            v.get("spans").map_or(Ok(None), |s| Codec::decode(s, "spans"))?;

        let endpoints = self.routers.len();
        let lengths = [
            ("routers", routers.len(), endpoints),
            ("retransmit", retransmit.len(), self.retransmit.len()),
            ("outstanding", outstanding.len(), self.outstanding.len()),
            ("tokens", tokens.len(), self.tokens.len()),
            ("pending_features", pending_features.len(), self.pending_features.len()),
            ("pending_predictions", pending_predictions.len(), self.pending_predictions.len()),
        ];
        if let Some(&(context, ..)) = lengths.iter().find(|(_, found, live)| found != live) {
            return Err(SnapshotError::BadShape { context });
        }
        if now.as_u64() != checkpoint.cycle {
            return Err(SnapshotError::BadShape { context: "now" });
        }
        for (state, router) in routers.iter().zip(&self.routers) {
            state.check(router, now, self.config.responder.service_latency(router.is_l3()))?;
        }
        // Router indices are used unchecked by the next cycle.
        if in_flight.iter().any(|f| f.src >= endpoints || f.dst >= endpoints) {
            return Err(SnapshotError::BadShape { context: "in_flight" });
        }
        if tokens.iter().any(|&holder| holder >= endpoints) {
            return Err(SnapshotError::BadShape { context: "tokens" });
        }
        // Ladder presence is derived from the policy, which the
        // fingerprint pins — a disagreement here means a malformed
        // payload, not a config mismatch.
        if ladder.is_some() != self.ladder.is_some() {
            return Err(SnapshotError::BadShape { context: "ladder" });
        }
        if span_tracker.as_ref().is_some_and(|t| t.head_wait.len() != endpoints) {
            return Err(SnapshotError::BadShape { context: "spans.head_wait" });
        }

        // ---- apply phase: infallible except the traffic import, which ----
        // ---- goes first so an error still leaves the network coherent. ----
        self.traffic
            .import_state(&traffic)
            .map_err(|_| SnapshotError::BadShape { context: "traffic" })?;
        self.rng = rng;
        self.now = now;
        self.next_packet_id = next_packet_id;
        for (router, state) in self.routers.iter_mut().zip(routers) {
            state.apply(router);
        }
        self.in_flight = in_flight;
        self.stats.import_state(&stats);
        self.fault.import_state(&fault);
        self.retransmit = retransmit;
        self.outstanding = outstanding;
        self.tokens = tokens;
        self.collection = collection;
        self.pending_features = pending_features;
        if let (Some(live), Some(state)) = (self.ladder.as_mut(), ladder.as_ref()) {
            live.import_state(state);
        }
        self.pending_predictions = pending_predictions;
        self.span_tracker = self
            .tracks_spans_for_probe()
            .then(|| span_tracker.unwrap_or_else(|| SpanTracker::new(endpoints)));
        Ok(())
    }
}

/// Fully parsed dynamic state of one router, staged between the parse
/// and apply phases.
struct RouterState {
    cpu_in: BufferState,
    gpu_in: BufferState,
    recv: BufferState,
    recv_reserved: u32,
    recv_cpu_slots: u32,
    recv_gpu_slots: u32,
    laser: LaserState,
    channels: Vec<Option<Transfer>>,
    arbiter: (f64, f64),
    allocation: BandwidthAllocation,
    cpu_share: f64,
    counters: WindowCounters,
    beta_accum: f64,
    pending_responses: VecDeque<(Cycle, Packet)>,
    cpu_backlog: VecDeque<Packet>,
    gpu_backlog: VecDeque<Packet>,
}

impl RouterState {
    fn export(router: &PearlRouter) -> RouterState {
        RouterState {
            cpu_in: router.cpu_in.export_state(),
            gpu_in: router.gpu_in.export_state(),
            recv: router.recv.export_state(),
            recv_reserved: router.recv_reserved,
            recv_cpu_slots: router.recv_cpu_slots,
            recv_gpu_slots: router.recv_gpu_slots,
            laser: router.laser.export_state(),
            channels: router.channels.clone(),
            arbiter: router.arbiter.credits(),
            allocation: router.allocation,
            cpu_share: router.cpu_share,
            counters: router.counters.clone(),
            beta_accum: router.beta_accum,
            pending_responses: router.pending_responses.clone(),
            cpu_backlog: router.cpu_backlog.clone(),
            gpu_backlog: router.gpu_backlog.clone(),
        }
    }

    /// Checks the staged state against the live router it will replace,
    /// at the restored cycle `now`. `latency` is the router's response
    /// service latency.
    fn check(&self, live: &PearlRouter, now: Cycle, latency: u64) -> Result<(), SnapshotError> {
        if self.channels.len() != live.channels.len() {
            return Err(SnapshotError::BadShape { context: "channels" });
        }
        if !responses_in_release_order(&self.pending_responses, now, latency) {
            return Err(SnapshotError::BadShape { context: "pending_responses" });
        }
        Ok(())
    }

    fn apply(self, router: &mut PearlRouter) {
        router.cpu_in.import_state(&self.cpu_in);
        router.gpu_in.import_state(&self.gpu_in);
        router.recv.import_state(&self.recv);
        router.recv_reserved = self.recv_reserved;
        router.recv_cpu_slots = self.recv_cpu_slots;
        router.recv_gpu_slots = self.recv_gpu_slots;
        router.laser.import_state(&self.laser);
        router.channels = self.channels;
        router.arbiter = WeightedArbiter::from_credits(self.arbiter.0, self.arbiter.1);
        router.allocation = self.allocation;
        router.cpu_share = self.cpu_share;
        router.counters = self.counters;
        router.beta_accum = self.beta_accum;
        router.pending_responses = self.pending_responses;
        router.cpu_backlog = self.cpu_backlog;
        router.gpu_backlog = self.gpu_backlog;
        router.rebuild_derived();
    }
}

codec_enum!(BandwidthAllocation, ScalingMode);
codec_array! {
    Transfer [packet_id, busy_until];
    RetryEntry [ready, attempts, packet];
    HeadWait [packet, reservation, arbitration];
    ModeTransition [at, from, to];
}
codec_object! {
    RouterState {
        cpu_in,
        gpu_in,
        recv,
        recv_reserved,
        recv_cpu_slots,
        recv_gpu_slots,
        laser,
        channels,
        arbiter,
        allocation,
        cpu_share,
        counters,
        beta_accum,
        pending_responses,
        cpu_backlog,
        gpu_backlog,
    };
    WindowCounters {
        cycles,
        cpu_core_slot_cycles: "cpu_slot",
        gpu_core_slot_cycles: "gpu_slot",
        recv_cpu_slot_cycles: "recv_cpu",
        recv_gpu_slot_cycles: "recv_gpu",
        link_busy_cycles: "link_busy",
        packets_to_core: "to_core",
        incoming_from_routers: "from_routers",
        incoming_from_cores: "from_cores",
        injected_flits,
        requests_sent: "req_sent",
        requests_received: "req_recv",
        responses_sent: "resp_sent",
        responses_received: "resp_recv",
        class_movements: "class",
    };
    LadderState { mode, window, healthy_streak, last_score, transitions };
}

/// `wire_crc` is a `u32` written as a `u64` string.
impl Codec for InFlight {
    fn encode(&self) -> JsonValue {
        JsonValue::Arr(vec![
            self.src.encode(),
            self.dst.encode(),
            self.packet.encode(),
            self.deliver_at.encode(),
            self.attempts.encode(),
            u64::from(self.wire_crc).encode(),
        ])
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        let [src, dst, packet, deliver_at, attempts, wire_crc] = items(v, context)?;
        Ok(InFlight {
            src: Codec::decode(src, context)?,
            dst: Codec::decode(dst, context)?,
            packet: Codec::decode(packet, context)?,
            deliver_at: Codec::decode(deliver_at, context)?,
            attempts: Codec::decode(attempts, context)?,
            wire_crc: u32::try_from(u64::decode(wire_crc, context)?)
                .map_err(|_| SnapshotError::BadShape { context })?,
        })
    }
}

/// Keyed like [`codec_object!`], except that `landed` entries are flat
/// `[id, at, attempt]` rather than the map rule's `[id, [at, attempt]]`.
impl Codec for SpanTracker {
    fn encode(&self) -> JsonValue {
        let mut landed: Vec<_> = self.landed.iter().map(|(&id, &(at, n))| (id, at, n)).collect();
        landed.sort_unstable();
        JsonValue::obj(vec![
            ("head_wait", self.head_wait.encode()),
            ("landed", landed.encode()),
            ("parent", self.parent.encode()),
        ])
    }
    fn decode(v: &JsonValue, _: &'static str) -> Result<Self, SnapshotError> {
        let landed: Vec<(u64, u64, u32)> = get(v, "landed")?;
        Ok(SpanTracker {
            head_wait: get(v, "head_wait")?,
            landed: landed.into_iter().map(|(id, at, n)| (id, (at, n))).collect(),
            parent: get(v, "parent")?,
        })
    }
}

impl Codec for FeatureVector {
    fn encode(&self) -> JsonValue {
        self.values().encode()
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        Codec::decode(v, context).map(FeatureVector::from_values)
    }
}

/// [`Dataset`] lives in `pearl-ml`, which `pearl-telemetry` does not
/// depend on, so the orphan rule keeps its codec a pair of functions.
fn encode_dataset(dataset: &Dataset) -> JsonValue {
    JsonValue::obj(vec![
        ("dimension", dataset.dimension().encode()),
        ("features", JsonValue::Arr(dataset.features().iter().map(Vec::encode).collect())),
        ("labels", JsonValue::Arr(dataset.labels().iter().map(f64::encode).collect())),
    ])
}

fn decode_dataset(v: &JsonValue) -> Result<Dataset, SnapshotError> {
    let features: Vec<Vec<f64>> = get(v, "features")?;
    let labels: Vec<f64> = get(v, "labels")?;
    if features.len() != labels.len() {
        return Err(SnapshotError::BadShape { context: "dataset" });
    }
    let mut dataset = Dataset::new(get(v, "dimension")?);
    for (row, label) in features.into_iter().zip(labels) {
        dataset
            .push(row, label)
            .map_err(|_| SnapshotError::BadShape { context: "dataset.features" })?;
    }
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PearlConfig;
    use crate::ml_scaling::FallbackConfig;
    use crate::policy::PearlPolicy;
    use pearl_photonics::FaultConfig;
    use pearl_telemetry::SharedRecorder;
    use pearl_workloads::BenchmarkPair;

    pub(super) fn build(
        policy: PearlPolicy,
        fault: FaultConfig,
        mwsr: bool,
        seed: u64,
    ) -> PearlNetwork {
        let config = if mwsr { PearlConfig::pearl_mwsr() } else { PearlConfig::pearl() };
        NetworkBuilder::new()
            .config(config)
            .policy(policy)
            .fault_config(fault)
            .seed(seed)
            .build(BenchmarkPair::test_pairs()[0])
    }

    /// The hard contract: run N → checkpoint → restore onto a twin →
    /// run M must be bit-identical to an uninterrupted N + M run —
    /// same state hash, same stats, same summary bits. The twin is
    /// either freshly built or has already run past the checkpoint, so
    /// restore must rebuild every derived field, not find it fresh.
    fn assert_resume_identical(make: impl Fn() -> PearlNetwork, n: u64, m: u64) {
        let mut golden = make();
        golden.run(n + m);

        let mut first = make();
        first.run(n);
        let checkpoint = first.snapshot();
        // The envelope must survive its own JSON round trip unchanged.
        let reparsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(reparsed, checkpoint);

        let mut ahead = make();
        ahead.run(n + m / 2 + 1);
        for mut resumed in [make(), ahead] {
            resumed.restore(&reparsed).unwrap();
            assert_eq!(
                resumed.state_hash(),
                first.state_hash(),
                "restore must reproduce the checkpointed state exactly"
            );
            assert_derived_state_rebuilt(&resumed);
            resumed.run(m);

            assert_eq!(resumed.state_hash(), golden.state_hash(), "state diverged after resume");
            assert_eq!(resumed.stats.export_state(), golden.stats.export_state());
            let a = resumed.summary();
            let b = golden.summary();
            assert_eq!(a.delivered_packets, b.delivered_packets);
            assert_eq!(a.delivered_flits, b.delivered_flits);
            assert_eq!(a.avg_laser_power_w.to_bits(), b.avg_laser_power_w.to_bits());
            assert_eq!(a.avg_latency_cpu.to_bits(), b.avg_latency_cpu.to_bits());
        }
    }

    /// Each router's derived state right after a restore: backlog flit
    /// counts equal a fresh recount, and the DBA input cache is empty, so
    /// the next cycle evaluates every router's split.
    fn assert_derived_state_rebuilt(net: &PearlNetwork) {
        for router in &net.routers {
            let recount =
                CoreType::ALL.map(|core| router.backlog(core).iter().map(Packet::flits).sum());
            assert_eq!(router.backlog_flits, recount, "router {}", router.index());
            assert_eq!(router.dba_inputs, None, "router {}", router.index());
        }
    }

    #[test]
    fn resume_bit_identical_dyn_baseline() {
        assert_resume_identical(
            || build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 11),
            7_000,
            5_000,
        );
    }

    #[test]
    fn resume_bit_identical_static_8wl() {
        // At 8 λ the lanes drain slowly and most issue backlogs sit at
        // the core stall threshold, so the backlog flit counts carry real
        // weight across the resume.
        let make =
            || build(PearlPolicy::dyn_static(WavelengthState::W8), FaultConfig::off(), false, 79);
        let mut probe = make();
        probe.run(6_000);
        let stalled = probe.routers.iter().flat_map(|r| r.backlog_flits);
        let stalled = stalled.filter(|&flits| flits as usize >= CORE_STALL_BACKLOG).count();
        assert!(stalled >= 8, "only {stalled} lanes hold a stalling backlog at the checkpoint");
        assert_resume_identical(make, 6_000, 4_000);
    }

    #[test]
    fn resume_bit_identical_fcfs() {
        assert_resume_identical(
            || build(PearlPolicy::fcfs_64wl(), FaultConfig::off(), false, 13),
            6_000,
            4_000,
        );
    }

    #[test]
    fn resume_bit_identical_reactive() {
        assert_resume_identical(
            || build(PearlPolicy::reactive(500), FaultConfig::off(), false, 17),
            6_000,
            6_000,
        );
    }

    #[test]
    fn resume_bit_identical_random_walk() {
        // The policy RNG stream position must survive the round trip.
        assert_resume_identical(
            || build(PearlPolicy::random_walk(500), FaultConfig::off(), false, 19),
            5_500,
            4_500,
        );
    }

    #[test]
    fn resume_bit_identical_naive_last_window() {
        assert_resume_identical(
            || build(PearlPolicy::naive_power(500, 1.0, true), FaultConfig::off(), false, 23),
            6_000,
            4_000,
        );
    }

    #[test]
    fn resume_bit_identical_fine_grained() {
        assert_resume_identical(
            || build(PearlPolicy::dyn_fine(0.0625), FaultConfig::off(), false, 29),
            5_000,
            5_000,
        );
    }

    #[test]
    fn resume_bit_identical_mwsr_tokens() {
        // Token-holder positions are state; losing them skews arbitration.
        assert_resume_identical(
            || build(PearlPolicy::dyn_64wl(), FaultConfig::off(), true, 31),
            6_000,
            4_000,
        );
    }

    #[test]
    fn resume_bit_identical_under_faults() {
        // Retransmission queues, in-flight CRCs, fault RNG streams and the
        // per-router failure state all have to round-trip.
        assert_resume_identical(
            || build(PearlPolicy::reactive(500), FaultConfig::uniform(0.05, 7), false, 37),
            6_000,
            6_000,
        );
    }

    /// A "trained" scaler predicting roughly `value` flits regardless of
    /// input — forces ladder activity for the fallback tests.
    pub(super) fn constant_scaler(value: f64) -> crate::ml_scaling::MlPowerScaler {
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
    fn resume_bit_identical_ml_with_fallback_mid_demotion() {
        // Kill the run right around the ladder's demotion point so the
        // accuracy window, pending predictions and mode transitions all
        // cross the checkpoint boundary.
        let make = || {
            let fallback =
                FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
            let policy = PearlPolicy::ml_with_fallback(500, constant_scaler(1e6), true, fallback);
            build(policy, FaultConfig::off(), false, 41)
        };
        assert_resume_identical(make, 1_200, 1_800);
        // And confirm the forced demotion actually happened end-to-end.
        let mut net = make();
        net.run(3_000);
        assert_eq!(net.scaling_mode(), Some(ScalingMode::Reactive));
    }

    #[test]
    fn trace_jsonl_is_bit_identical_across_resume() {
        // The interrupted run's trace (pre-kill ++ post-resume) must be
        // byte-identical JSONL to the golden run's trace.
        let make = || build(PearlPolicy::reactive(500), FaultConfig::uniform(0.03, 5), false, 53);
        let (n, m) = (4_000u64, 3_000u64);

        let golden_rec = SharedRecorder::new();
        let mut golden = make();
        golden.attach_probe(Box::new(golden_rec.clone()));
        golden.run(n + m);

        let pre_rec = SharedRecorder::new();
        let mut first = make();
        first.attach_probe(Box::new(pre_rec.clone()));
        first.run(n);
        let cp = first.snapshot();

        let post_rec = SharedRecorder::new();
        let mut resumed = make();
        resumed.attach_probe(Box::new(post_rec.clone()));
        resumed.restore(&cp).unwrap();
        resumed.run(m);

        let mut golden_buf = Vec::new();
        pearl_telemetry::jsonl::write_trace(&mut golden_buf, &golden_rec.events()).unwrap();
        let mut split_events = pre_rec.events();
        split_events.extend(post_rec.events());
        let mut split_buf = Vec::new();
        pearl_telemetry::jsonl::write_trace(&mut split_buf, &split_events).unwrap();
        assert!(!golden_buf.is_empty(), "faulted reactive run must emit events");
        assert_eq!(golden_buf, split_buf, "trace JSONL diverged across the resume");
    }

    /// Reactive RW500 with frequent λ and laser faults: plenty of
    /// fault events on either side of a checkpoint at cycle 2,000.
    fn fault_heavy() -> PearlNetwork {
        build(PearlPolicy::reactive(500), FaultConfig::uniform(0.05, 7), false, 3)
    }

    #[test]
    fn a_probe_attached_before_restoring_a_bare_checkpoint_sees_every_fault_event() {
        // Fault events reach the probe whatever checkpoint the network
        // resumed from: the checkpoint holds no trace of observers.
        let traced_rec = SharedRecorder::new();
        let mut traced = fault_heavy();
        traced.attach_probe(Box::new(traced_rec.clone()));
        traced.run(4_000);

        let mut bare = fault_heavy();
        bare.run(2_000);
        let resumed_rec = SharedRecorder::new();
        let mut resumed = fault_heavy();
        resumed.attach_probe(Box::new(resumed_rec.clone()));
        resumed.restore(&bare.snapshot()).unwrap();
        resumed.run(2_000);

        let after = |events: Vec<TraceEvent>| -> Vec<TraceEvent> {
            events.into_iter().filter(|e| e.at() >= 2_000).collect()
        };
        let expected = after(traced_rec.events());
        let faults = expected.iter().filter(|e| e.kind() == "fault").count();
        assert!(faults > 100, "only {faults} fault events after the checkpoint");
        assert_eq!(after(resumed_rec.events()), expected);
    }

    #[test]
    fn a_bare_network_restored_from_a_traced_checkpoint_stays_bare() {
        // An observer leaves nothing in the checkpoint for an unobserved
        // network to inherit.
        let mut traced = fault_heavy();
        traced.attach_probe(Box::new(SharedRecorder::new()));
        traced.run(2_000);
        let mut resumed = fault_heavy();
        resumed.restore(&traced.snapshot()).unwrap();
        resumed.run(20_000);

        let mut never_traced = fault_heavy();
        never_traced.run(22_000);
        assert_eq!(
            resumed.snapshot().to_json().to_string(),
            never_traced.snapshot().to_json().to_string()
        );
    }

    #[test]
    fn resume_bit_identical_while_collecting() {
        // Dataset-under-collection and pending window features are state.
        let make = || build(PearlPolicy::random_walk(500), FaultConfig::off(), false, 59);
        let (n, m) = (4_000u64, 4_000u64);

        let mut golden = make();
        let golden_data = golden.run_collecting(n + m);

        let mut first = make();
        first.collection = Some(Dataset::new(FEATURE_COUNT));
        first.run(n);
        let cp = first.snapshot();

        let mut resumed = make();
        resumed.restore(&cp).unwrap();
        resumed.run(m);
        let resumed_data = resumed.collection.take().unwrap();

        assert_eq!(resumed_data.len(), golden_data.len());
        assert_eq!(resumed_data.labels(), golden_data.labels());
        let bits = |d: &Dataset| {
            d.features().iter().flat_map(|row| row.iter().map(|v| v.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(&resumed_data), bits(&golden_data));
    }

    #[test]
    fn fingerprint_mismatch_is_rejected_before_any_mutation() {
        let mut donor = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 61);
        donor.run(1_000);
        let cp = donor.snapshot();
        // Different seed ⇒ different static identity ⇒ refused.
        let mut other = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 62);
        let before = other.state_hash();
        let err = other.restore(&cp).unwrap_err();
        assert!(
            matches!(err, SnapshotError::FingerprintMismatch { .. }),
            "expected FingerprintMismatch, got {err:?}"
        );
        assert_eq!(other.state_hash(), before, "failed restore must not mutate");
        // Different policy is refused the same way.
        let mut other = build(PearlPolicy::fcfs_64wl(), FaultConfig::off(), false, 61);
        assert!(matches!(other.restore(&cp), Err(SnapshotError::FingerprintMismatch { .. })));
    }

    /// The named field of a JSON object, for corrupting a checkpoint.
    fn field_mut<'a>(v: &'a mut JsonValue, name: &str) -> &'a mut JsonValue {
        let JsonValue::Obj(fields) = v else { panic!("{name}: parent is not an object") };
        &mut fields.iter_mut().find(|(key, _)| key == name).expect(name).1
    }

    /// Restoring used to accept router indices past the router count;
    /// the next cycle then indexed out of bounds and panicked. A
    /// `timeline` section that is not `null` is refused the same way.
    #[test]
    fn stray_router_indices_are_rejected_before_any_mutation() {
        let reject = |mwsr: bool, corrupt: &dyn Fn(&mut JsonValue), expected: &str| {
            let make = || build(PearlPolicy::dyn_64wl(), FaultConfig::off(), mwsr, 89);
            let mut donor = make();
            donor.run(2_000);
            let mut cp = donor.snapshot();
            corrupt(&mut cp.state);
            let mut twin = make();
            let before = twin.state_hash();
            match twin.restore(&cp) {
                Err(SnapshotError::BadShape { context }) => assert_eq!(context, expected),
                other => panic!("expected a {expected} shape error, got {other:?}"),
            }
            assert_eq!(twin.state_hash(), before, "failed restore must not mutate");
            twin.run(10);
        };
        // The first in-flight packet's `src`, then its `dst`.
        for slot in [0, 1] {
            let corrupt = |state: &mut JsonValue| {
                let JsonValue::Arr(flights) = field_mut(state, "in_flight") else {
                    panic!("in_flight is an array")
                };
                let Some(JsonValue::Arr(parts)) = flights.first_mut() else {
                    panic!("a packet is in flight")
                };
                parts[slot] = 99usize.encode();
            };
            reject(false, &corrupt, "in_flight");
        }
        let corrupt = |state: &mut JsonValue| {
            let JsonValue::Arr(tokens) = field_mut(state, "tokens") else {
                panic!("tokens is an array")
            };
            tokens[0] = 99usize.encode();
        };
        reject(true, &corrupt, "tokens");
        // Timelines sample the network from outside; no network writes one.
        let corrupt = |state: &mut JsonValue| {
            *field_mut(state, "timeline") = JsonValue::obj(vec![
                ("window", 1_000u64.encode()),
                ("points", JsonValue::Arr(Vec::new())),
            ]);
        };
        reject(false, &corrupt, "timeline");
    }

    /// Restore rejects a response queue that breaks the order the
    /// release walk relies on, before touching anything.
    #[test]
    fn response_queues_out_of_release_order_are_rejected_before_any_mutation() {
        let make = || build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 97);
        let mut donor = make();
        donor.run(2_000);
        let now = donor.now();
        let l3 = donor.config().l3_node();
        type Queue = VecDeque<(Cycle, Packet)>;
        let corruptions: [&dyn Fn(&mut Queue); 2] = [
            // The first and last waiting responses swap their ready cycles.
            &|queue| {
                let first = queue.iter().position(|(ready, _)| *ready > now).unwrap();
                let last = queue.len() - 1;
                assert!(queue[first].0 < queue[last].0, "two distinct waiting cycles");
                let (a, b) = (queue[first].0, queue[last].0);
                (queue[first].0, queue[last].0) = (b, a);
            },
            // The last one waits past the L3's service latency.
            &|queue| queue.back_mut().unwrap().0 += 1_000,
        ];
        for corrupt in corruptions {
            let mut cp = donor.snapshot();
            let JsonValue::Arr(routers) = field_mut(&mut cp.state, "routers") else {
                panic!("routers is an array")
            };
            let pending = field_mut(&mut routers[l3], "pending_responses");
            let mut queue: Queue = Codec::decode(pending, "test").unwrap();
            corrupt(&mut queue);
            *pending = queue.encode();
            let mut twin = make();
            let before = twin.state_hash();
            match twin.restore(&cp) {
                Err(SnapshotError::BadShape { context }) => {
                    assert_eq!(context, "pending_responses")
                }
                other => panic!("expected a pending_responses shape error, got {other:?}"),
            }
            assert_eq!(twin.state_hash(), before, "failed restore must not mutate");
        }
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let mut donor = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 67);
        donor.run(500);
        let mut cp = donor.snapshot();
        cp.kind = "cmesh".to_string();
        let mut twin = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 67);
        assert!(matches!(twin.restore(&cp), Err(SnapshotError::KindMismatch { .. })));
    }

    #[test]
    fn checkpoint_file_round_trip_restores_identically() {
        let mut donor = build(PearlPolicy::reactive(500), FaultConfig::uniform(0.02, 3), false, 71);
        donor.run(3_000);
        let cp = donor.snapshot();
        let path = std::env::temp_dir()
            .join(format!("pearl_core_snapshot_rt_{}.json", std::process::id()));
        cp.write_file(&path).unwrap();
        let loaded = Checkpoint::read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, cp);
        let mut twin = build(PearlPolicy::reactive(500), FaultConfig::uniform(0.02, 3), false, 71);
        twin.restore(&loaded).unwrap();
        assert_eq!(twin.state_hash(), donor.state_hash());
        // The serialized state of the restored twin is byte-identical.
        assert_eq!(twin.snapshot().state.to_string(), cp.state.to_string());
    }

    /// Regression: an enum value outside its declared enumeration used
    /// to be silently encoded as index 0 (`position(..).unwrap_or(0)`),
    /// so a round trip would quietly swap it for the first variant.
    /// Both directions must refuse instead.
    #[test]
    fn out_of_enumeration_value_is_rejected_not_collapsed_to_zero() {
        use pearl_telemetry::snapshot::{decode_index, encode_index};
        // Encode: GpuOnly against a truncated enumeration that does not
        // contain it. The old code would have emitted index 0 (CpuOnly);
        // the codec refuses to write any index.
        let truncated = &BandwidthAllocation::ALL[..2];
        let encoded =
            std::panic::catch_unwind(|| encode_index(truncated, &BandwidthAllocation::GpuOnly));
        assert!(encoded.is_err(), "expected a refusal, got {encoded:?}");
        // Every in-enumeration value still round-trips to itself — in
        // particular none of them collapses to index 0.
        for v in BandwidthAllocation::ALL {
            let decoded = BandwidthAllocation::decode(&v.encode(), "allocation").unwrap();
            assert_eq!(decoded, v);
        }
        // Decode: an index past the end of the enumeration is refused.
        let beyond = BandwidthAllocation::ALL.len().encode();
        assert!(matches!(
            decode_index(&BandwidthAllocation::ALL, &beyond, "allocation"),
            Err(SnapshotError::BadShape { context: "allocation" })
        ));
        assert!(matches!(
            BandwidthAllocation::decode(&beyond, "allocation"),
            Err(SnapshotError::BadShape { context: "allocation" })
        ));
    }

    #[test]
    fn repeated_checkpoint_restore_is_stable() {
        // checkpoint → restore → checkpoint must be a fixed point.
        let mut net = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 73);
        net.run(2_500);
        let cp1 = net.snapshot();
        let mut twin = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 73);
        twin.restore(&cp1).unwrap();
        let cp2 = twin.snapshot();
        assert_eq!(cp1, cp2);
        assert_eq!(cp1.state.to_string(), cp2.state.to_string());
    }

    /// The scaler of the golden ladder's `ml_with_fallback` run: fitted
    /// on a fixed dataset whose label steps with the first feature.
    fn fitted_scaler() -> crate::ml_scaling::MlPowerScaler {
        let mut data = Dataset::new(FEATURE_COUNT);
        for i in 0..40 {
            let mut features = vec![0.0; FEATURE_COUNT];
            features[0] = (i % 4) as f64;
            data.push(features, 60.0 + 40.0 * (i % 4) as f64).unwrap();
        }
        let (train, validation) = data.split_tail(0.25);
        crate::ml_scaling::MlPowerScaler::new(
            pearl_ml::select_lambda(&train, &validation, &[1.0]).unwrap(),
        )
    }

    /// The network behind the pinned checkpoint `name`, with the probe
    /// the pin was taken with attached, and the cycles it runs before the
    /// snapshot. A restoring twin is built the same way.
    fn pinned(name: &str) -> (PearlNetwork, u64) {
        let at_pair = |builder: NetworkBuilder, pair: usize| {
            builder.seed(7).build(pearl_workloads::BenchmarkPair::test_pairs()[pair])
        };
        let (mut net, cycles) = match name {
            "faults" => {
                (build(PearlPolicy::reactive(500), FaultConfig::uniform(0.05, 7), false, 37), 6_000)
            }
            "faults_traced" => {
                (build(PearlPolicy::reactive(500), FaultConfig::uniform(0.03, 5), false, 53), 4_000)
            }
            "collecting" => {
                let mut net = build(PearlPolicy::random_walk(500), FaultConfig::off(), false, 59);
                net.collection = Some(Dataset::new(FEATURE_COUNT));
                (net, 4_000)
            }
            "ml_fallback" => {
                let fallback =
                    FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
                let policy =
                    PearlPolicy::ml_with_fallback(500, constant_scaler(1e6), true, fallback);
                (build(policy, FaultConfig::off(), false, 41), 1_200)
            }
            "timeline" => (build(PearlPolicy::reactive(500), FaultConfig::off(), false, 43), 4_500),
            "mwsr" => (build(PearlPolicy::dyn_64wl(), FaultConfig::off(), true, 31), 6_000),
            "spans" => {
                // At this cycle a retry waits out its backoff and a landed
                // packet waits for ejection.
                let fault =
                    FaultConfig { corruption_per_packet: 0.04, ..FaultConfig::uniform(0.02, 5) };
                (build(PearlPolicy::reactive(500), fault, false, 53), 4_259)
            }
            "ladder_faults_spans" => {
                let policy = PearlPolicy::ml_with_fallback(
                    500,
                    fitted_scaler(),
                    true,
                    FallbackConfig::pearl(),
                );
                let builder = NetworkBuilder::new()
                    .policy(policy)
                    .fault_config(FaultConfig::uniform(0.02, 7));
                (at_pair(builder, 7), 3_000)
            }
            "dyn_64wl" => {
                (at_pair(NetworkBuilder::new().policy(PearlPolicy::dyn_64wl()), 1), 3_000)
            }
            other => panic!("unknown pin {other}"),
        };
        match name {
            "faults_traced" => net.attach_probe(Box::new(SharedRecorder::new())),
            "spans" | "ladder_faults_spans" => {
                net.attach_probe(Box::new(pearl_telemetry::SharedSpanRecorder::new()))
            }
            _ => {}
        }
        (net, cycles)
    }

    /// Byte length and FNV-1a of `snapshot().to_json().to_string()` for
    /// each pinned checkpoint, generated before the codec was rewritten.
    /// The golden ladder hashes no span or collection section; these pins
    /// cover them. `faults_traced` is taken with a probe attached, and
    /// equals the bare checkpoint of its network. `timeline` and
    /// `ladder_faults_spans` once carried a timeline; their `timeline`
    /// section is now `null`, and their bytes are those of the same
    /// networks run without one before timelines left the network.
    #[rustfmt::skip]
    const PINS: [(&str, usize, u64); 9] = [
        ("faults", 56_355, 0xca5e2434d88db121),
        ("faults_traced", 46_401, 0xb3d8f51d155acdfa),
        ("collecting", 105_751, 0xbbec6f21ee255923),
        ("ml_fallback", 26_070, 0x5fa67ca5935413b0),
        ("timeline", 26_619, 0x39968e3bcf75da65),
        ("mwsr", 66_896, 0xaa86c283713fedeb),
        ("spans", 50_680, 0x60887945295c2932),
        ("ladder_faults_spans", 45_965, 0x79c5d323d53239a9),
        ("dyn_64wl", 23_448, 0x48fdac5238ae109a),
    ];

    /// Whether a state section holds anything: not null and, for an
    /// array, some entry that holds anything.
    fn live(v: &JsonValue) -> bool {
        match v {
            JsonValue::Null => false,
            JsonValue::Arr(items) => items.iter().any(live),
            _ => true,
        }
    }

    #[test]
    fn pinned_checkpoints_keep_their_bytes_and_restore_to_the_same_text() {
        const SECTIONS: [(&str, &[&str]); 9] = [
            ("spans", &["spans"]),
            ("spans.landed", &["spans", "landed"]),
            ("spans.parent", &["spans", "parent"]),
            ("ladder", &["ladder", "transitions"]),
            ("collection", &["collection", "labels"]),
            ("pending_features", &["pending_features"]),
            ("pending_predictions", &["pending_predictions"]),
            ("retransmit", &["retransmit"]),
            ("in_flight", &["in_flight"]),
        ];
        let mut measured = String::new();
        let mut diverged = Vec::new();
        let mut covered = [false; SECTIONS.len()];
        for (name, bytes, fnv) in PINS {
            let (mut net, cycles) = pinned(name);
            net.run(cycles);
            let text = net.snapshot().to_json().to_string();
            let (len, hash) = (text.len(), fingerprint(&text));
            measured.push_str(&format!("        (\"{name}\", {len}, 0x{hash:016x}),\n"));
            if (len, hash) != (bytes, fnv) {
                diverged.push(name);
            }
            let cp = Checkpoint::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            let (mut twin, _) = pinned(name);
            twin.restore(&cp).unwrap();
            assert_eq!(twin.snapshot().to_json().to_string(), text, "{name}: restore changed text");
            // Checkpoints written before span tracking have no `spans`.
            if cp.state.get("spans") == Some(&JsonValue::Null) {
                let mut legacy = cp.clone();
                let JsonValue::Obj(fields) = &mut legacy.state else {
                    panic!("state is an object")
                };
                fields.retain(|(key, _)| key != "spans");
                let (mut twin, _) = pinned(name);
                twin.restore(&legacy).unwrap();
                assert_eq!(twin.snapshot().to_json().to_string(), text, "{name} without spans");
            }
            for (seen, (_, path)) in covered.iter_mut().zip(SECTIONS) {
                *seen |= path.iter().try_fold(&cp.state, |v, key| v.get(key)).is_some_and(live);
            }
        }
        assert!(diverged.is_empty(), "pins changed: {diverged:?}\nmeasured:\n{measured}");
        for (seen, (section, _)) in covered.iter().zip(SECTIONS) {
            assert!(seen, "no pinned checkpoint has a live {section}");
        }
    }
}

#[cfg(test)]
mod properties {
    //! Property tests for the per-subsystem snapshot codecs: whatever
    //! dynamic state a run reaches, `snapshot → JSON → restore →
    //! snapshot` must reproduce the serialized state byte for byte, and
    //! the resumed run must stay on the golden trajectory.

    use super::tests::{build, constant_scaler};
    use super::*;
    use crate::ml_scaling::FallbackConfig;
    use crate::policy::PearlPolicy;
    use crate::timeline::ModeTransition;
    use pearl_photonics::FaultConfig;
    use proptest::prelude::*;

    /// Runs `n` cycles, round-trips the checkpoint through its JSON
    /// text, restores onto a twin and checks byte-identity of the
    /// re-serialized state plus hash equality after `m` more cycles.
    fn round_trip_holds(make: impl Fn() -> PearlNetwork, n: u64, m: u64) -> Result<(), String> {
        let mut first = make();
        first.run(n);
        let cp = first.snapshot();
        let text = cp.to_json().to_string();
        let reparsed =
            Checkpoint::from_json(&JsonValue::parse(&text).map_err(|e| format!("reparse: {e:?}"))?)
                .map_err(|e| format!("envelope: {e:?}"))?;
        let mut resumed = make();
        resumed.restore(&reparsed).map_err(|e| format!("restore: {e:?}"))?;
        if resumed.snapshot().state.to_string() != cp.state.to_string() {
            return Err("re-serialized state not byte-identical".into());
        }
        let mut golden = make();
        golden.run(n + m);
        resumed.run(m);
        if resumed.state_hash() != golden.state_hash() {
            return Err("diverged from golden after resume".into());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// DBA + fine-grained allocator state (allocations, arbiter
        /// credits, window betas) round-trips at any kill point.
        #[test]
        fn dba_state_round_trips(seed in 0u64..1_000, n in 400u64..2_400, m in 400u64..1_600) {
            let r = round_trip_holds(
                || build(PearlPolicy::dyn_fine(0.0625), FaultConfig::off(), false, seed),
                n,
                m,
            );
            prop_assert!(r.is_ok(), "{:?} (seed={seed} n={n} m={m})", r);
        }

        /// Reactive power-scaling state (laser FSMs mid-transition,
        /// window occupancy accumulators) round-trips at any kill point.
        #[test]
        fn power_scaling_state_round_trips(
            seed in 0u64..1_000,
            n in 400u64..2_400,
            m in 400u64..1_600,
        ) {
            let r = round_trip_holds(
                || build(PearlPolicy::reactive(500), FaultConfig::off(), false, seed),
                n,
                m,
            );
            prop_assert!(r.is_ok(), "{:?} (seed={seed} n={n} m={m})", r);
        }

        /// Reservation/token state (MWSR token holders, outstanding
        /// windows) round-trips at any kill point.
        #[test]
        fn reservation_state_round_trips(seed in 0u64..1_000, n in 400u64..2_400, m in 400u64..1_600) {
            let r = round_trip_holds(
                || build(PearlPolicy::dyn_64wl(), FaultConfig::off(), true, seed),
                n,
                m,
            );
            prop_assert!(r.is_ok(), "{:?} (seed={seed} n={n} m={m})", r);
        }

        /// Fault-model state (per-lane failures, fault RNG stream,
        /// retransmission queues) round-trips at any kill point and any
        /// fault rate.
        #[test]
        fn fault_state_round_trips(
            seed in 0u64..1_000,
            rate in 0.005f64..0.08,
            n in 400u64..2_400,
            m in 400u64..1_600,
        ) {
            let r = round_trip_holds(
                || build(PearlPolicy::reactive(500), FaultConfig::uniform(rate, seed ^ 0xF0), false, seed),
                n,
                m,
            );
            prop_assert!(r.is_ok(), "{:?} (seed={seed} rate={rate} n={n} m={m})", r);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The ladder codec reproduces any synthetic [`LadderState`]
        /// byte for byte — accuracy window, streak, score and the full
        /// transition history.
        #[test]
        fn ladder_state_codec_round_trips(
            mode_idx in 0usize..3,
            window in prop::collection::vec((0.0f64..2e6, 0.0f64..2e6), 0..12),
            healthy_streak in 0u32..20,
            has_score in any::<bool>(),
            score in 0.0f64..1e7,
            transitions in prop::collection::vec((0u64..1_000_000, 0usize..3, 0usize..3), 0..6),
        ) {
            let state = LadderState {
                mode: ScalingMode::ALL[mode_idx],
                window,
                healthy_streak,
                last_score: has_score.then_some(score),
                transitions: transitions
                    .into_iter()
                    .map(|(at, f, t)| ModeTransition {
                        at,
                        from: ScalingMode::ALL[f],
                        to: ScalingMode::ALL[t],
                    })
                    .collect(),
            };
            let encoded = state.encode();
            let decoded = LadderState::decode(&encoded, "ladder").unwrap();
            prop_assert_eq!(decoded.encode().to_string(), encoded.to_string());
        }
    }

    /// The ml_scaling/ladder subsystem round-trips through a live
    /// network too: a forced-demotion run killed near the demotion
    /// boundary resumes onto the golden trajectory. (One deterministic
    /// heavy case rather than a proptest — building the scaler trains a
    /// ridge model.)
    #[test]
    fn ladder_network_state_round_trips() {
        let scaler = constant_scaler(1e6);
        for (n, m) in [(700u64, 1_100u64), (1_499, 901), (2_050, 950)] {
            let make = || {
                let fallback =
                    FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
                let policy =
                    PearlPolicy::ml_with_fallback(500, scaler.clone(), true, fallback.clone());
                super::tests::build(policy, FaultConfig::off(), false, 83)
            };
            round_trip_holds(make, n, m).unwrap();
        }
    }
}
