//! Checkpoint/restore codec for [`PearlNetwork`].
//!
//! A checkpoint captures the COMPLETE dynamic state of a network — RNG
//! stream positions, every buffer, backlog and receive reservation, the
//! arbiter credits, laser FSMs, in-flight and retransmitting packets,
//! outstanding-miss windows, MWSR tokens, pending ML features and
//! predictions, the degradation ladder, timeline samples, stats and the
//! fault model — such that
//!
//! ```text
//! run(N); snapshot(); restore(); run(M)   ≡   run(N + M)
//! ```
//!
//! bit-for-bit: identical stats, identical trace events, identical
//! [`PearlNetwork::state_hash`].
//!
//! The restore model is *rebuild-then-import*: the restoring network is
//! constructed from the identical builder inputs (config, policy, power
//! model, fault config, seed, workload) and only dynamic state is
//! imported. Static configuration is never serialized — it is guarded by
//! an FNV-1a fingerprint over the builder inputs, and a mismatch fails
//! with [`SnapshotError::FingerprintMismatch`] before any state is
//! touched. The probe and the self-profiler are observers, not state,
//! and are deliberately not part of a snapshot.

use super::*;
use crate::arbiter::WeightedArbiter;
use crate::dba::BandwidthAllocation;
use crate::features::WindowCounters;
use crate::timeline::TimelineState;
use pearl_noc::BufferState;
use pearl_photonics::LaserState;
use pearl_telemetry::snapshot::{
    as_array, buffer_state_from_json, buffer_state_to_json, f64_from_json, f64_to_json,
    fault_state_from_json, fault_state_to_json, field, laser_state_from_json, laser_state_to_json,
    packet_from_json, packet_to_json, rng_words_from_json, rng_words_to_json,
    stats_state_from_json, stats_state_to_json, traffic_state_from_json, traffic_state_to_json,
    u64_from_json, u64_to_json, usize_from_json, usize_to_json,
};
use pearl_telemetry::{fingerprint, Checkpoint, JsonValue, SnapshotError};

use crate::ml_scaling::LadderState;

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
    /// Panics if the live state cannot be encoded (an enum value outside
    /// its declared enumeration — an internal invariant violation, never
    /// reachable from safe use of the network). Use
    /// [`Self::try_snapshot`] to observe the error instead.
    pub fn snapshot(&self) -> Checkpoint {
        self.try_snapshot().expect("live network state must be encodable")
    }

    /// Fallible form of [`Self::snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadShape`] when a state field falls outside its
    /// declared encoding domain (e.g. an enum value missing from its
    /// `ALL` enumeration).
    pub fn try_snapshot(&self) -> Result<Checkpoint, SnapshotError> {
        Ok(Checkpoint::new(
            PEARL_SNAPSHOT_KIND,
            self.config_fingerprint(),
            self.now.as_u64(),
            self.state_to_json()?,
        ))
    }

    /// FNV-1a hash of the canonical serialized state — the cheap
    /// whole-network divergence detector used by the chaos harness.
    pub fn state_hash(&self) -> u64 {
        self.snapshot().state_hash()
    }

    /// Restores state captured by [`Self::snapshot`] onto a network
    /// built from the identical inputs.
    ///
    /// The checkpoint is validated (kind, config fingerprint) and fully
    /// parsed before any field is mutated, so a failed restore leaves
    /// the network untouched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KindMismatch`] /
    /// [`SnapshotError::FingerprintMismatch`] when the checkpoint was
    /// taken by a different simulator or configuration, and
    /// [`SnapshotError::BadShape`] on any structural decode mismatch.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SnapshotError> {
        checkpoint.validate(PEARL_SNAPSHOT_KIND, self.config_fingerprint())?;
        let v = &checkpoint.state;

        // ---- parse phase: no mutation below may happen before every ----
        // ---- fallible decode has succeeded.                         ----
        let (rng_words, rng_draws) = rng_words_from_json(field(v, "rng")?, "rng")?;
        let now = u64_from_json(field(v, "now")?, "now")?;
        if now != checkpoint.cycle {
            return Err(SnapshotError::BadShape { context: "now" });
        }
        let next_packet_id = u64_from_json(field(v, "next_packet_id")?, "next_packet_id")?;
        let traffic = traffic_state_from_json(field(v, "traffic")?)?;
        let router_items = as_array(field(v, "routers")?, "routers")?;
        if router_items.len() != self.routers.len() {
            return Err(SnapshotError::BadShape { context: "routers" });
        }
        let router_states = router_items
            .iter()
            .zip(&self.routers)
            .map(|(item, router)| router_state_from_json(item, router.channels.len()))
            .collect::<Result<Vec<_>, _>>()?;
        let in_flight = as_array(field(v, "in_flight")?, "in_flight")?
            .iter()
            .map(in_flight_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let stats = stats_state_from_json(field(v, "stats")?)?;
        let fault = fault_state_from_json(field(v, "fault")?)?;
        let retransmit_items = as_array(field(v, "retransmit")?, "retransmit")?;
        if retransmit_items.len() != self.retransmit.len() {
            return Err(SnapshotError::BadShape { context: "retransmit" });
        }
        let retransmit = retransmit_items
            .iter()
            .map(|queue| {
                as_array(queue, "retransmit")?
                    .iter()
                    .map(retry_entry_from_json)
                    .collect::<Result<VecDeque<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let outstanding_items = as_array(field(v, "outstanding")?, "outstanding")?;
        if outstanding_items.len() != self.outstanding.len() {
            return Err(SnapshotError::BadShape { context: "outstanding" });
        }
        let outstanding = outstanding_items
            .iter()
            .map(|item| {
                let [cpu, gpu] = fixed::<2>(item, "outstanding")?;
                Ok([u32_from_json(cpu, "outstanding")?, u32_from_json(gpu, "outstanding")?])
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        let token_items = as_array(field(v, "tokens")?, "tokens")?;
        if token_items.len() != self.tokens.len() {
            return Err(SnapshotError::BadShape { context: "tokens" });
        }
        let tokens = token_items
            .iter()
            .map(|t| usize_from_json(t, "tokens"))
            .collect::<Result<Vec<_>, _>>()?;
        let collection = match field(v, "collection")? {
            JsonValue::Null => None,
            other => Some(dataset_from_json(other)?),
        };
        let pending_features =
            option_vec_from_json(field(v, "pending_features")?, "pending_features", |item| {
                feature_vector_from_json(item)
            })?;
        if pending_features.len() != self.pending_features.len() {
            return Err(SnapshotError::BadShape { context: "pending_features" });
        }
        let timeline = match field(v, "timeline")? {
            JsonValue::Null => None,
            other => Some(timeline_state_from_json(other)?),
        };
        let ladder = match field(v, "ladder")? {
            JsonValue::Null => None,
            other => Some(ladder_state_from_json(other)?),
        };
        // Ladder presence is derived from the policy, which the
        // fingerprint pins — a disagreement here means a malformed
        // payload, not a config mismatch.
        if ladder.is_some() != self.ladder.is_some() {
            return Err(SnapshotError::BadShape { context: "ladder" });
        }
        let pending_predictions = option_vec_from_json(
            field(v, "pending_predictions")?,
            "pending_predictions",
            |item| f64_from_json(item, "pending_predictions"),
        )?;
        if pending_predictions.len() != self.pending_predictions.len() {
            return Err(SnapshotError::BadShape { context: "pending_predictions" });
        }
        // Span-tracker state is optional (absent in pre-span checkpoints).
        let span_tracker = match v.get("spans") {
            None | Some(JsonValue::Null) => None,
            Some(other) => Some(span_tracker_from_json(other, self.routers.len())?),
        };

        // ---- apply phase: infallible except the traffic import, which ----
        // ---- goes first so an error still leaves the network coherent. ----
        self.traffic
            .import_state(&traffic)
            .map_err(|_| SnapshotError::BadShape { context: "traffic" })?;
        self.rng = SimRng::from_state(rng_words, rng_draws);
        self.now = Cycle(now);
        self.next_packet_id = next_packet_id;
        for (router, state) in self.routers.iter_mut().zip(router_states) {
            apply_router_state(router, state);
        }
        self.in_flight = in_flight;
        self.stats.import_state(&stats);
        self.fault.import_state(&fault);
        self.retransmit = retransmit;
        self.outstanding = outstanding;
        self.tokens = tokens;
        self.collection = collection;
        self.pending_features = pending_features;
        self.timeline = timeline.map(Timeline::from_state);
        if let (Some(live), Some(state)) = (self.ladder.as_mut(), ladder.as_ref()) {
            live.import_state(state);
        }
        self.pending_predictions = pending_predictions;
        // Like timeline enablement, span tracking is runtime state:
        // restoring a span-bearing checkpoint re-activates it (spans
        // then flow to whatever sink is attached, NullSink included),
        // and a live sink on the restoring side keeps tracking on even
        // when the checkpoint predates span recording.
        self.span_tracker = span_tracker;
        if self.span_tracker.is_none() && !self.span_sink.is_null() {
            self.span_tracker = Some(SpanTracker::new(self.routers.len()));
        }
        Ok(())
    }

    /// The canonical state payload (everything dynamic, nothing static).
    fn state_to_json(&self) -> Result<JsonValue, SnapshotError> {
        Ok(JsonValue::obj(vec![
            ("rng", rng_words_to_json(self.rng.state(), self.rng.draws())),
            ("now", u64_to_json(self.now.as_u64())),
            ("next_packet_id", u64_to_json(self.next_packet_id)),
            ("traffic", traffic_state_to_json(&self.traffic.export_state())),
            (
                "routers",
                JsonValue::Arr(
                    self.routers.iter().map(router_state_to_json).collect::<Result<Vec<_>, _>>()?,
                ),
            ),
            ("in_flight", JsonValue::Arr(self.in_flight.iter().map(in_flight_to_json).collect())),
            ("stats", stats_state_to_json(&self.stats.export_state())),
            ("fault", fault_state_to_json(&self.fault.export_state())),
            (
                "retransmit",
                JsonValue::Arr(
                    self.retransmit
                        .iter()
                        .map(|queue| {
                            JsonValue::Arr(queue.iter().map(retry_entry_to_json).collect())
                        })
                        .collect(),
                ),
            ),
            (
                "outstanding",
                JsonValue::Arr(
                    self.outstanding
                        .iter()
                        .map(|&[cpu, gpu]| JsonValue::Arr(vec![u32_to_json(cpu), u32_to_json(gpu)]))
                        .collect(),
                ),
            ),
            ("tokens", JsonValue::Arr(self.tokens.iter().map(|&t| usize_to_json(t)).collect())),
            (
                "collection",
                match &self.collection {
                    None => JsonValue::Null,
                    Some(dataset) => dataset_to_json(dataset),
                },
            ),
            (
                "pending_features",
                option_vec_to_json(&self.pending_features, feature_vector_to_json),
            ),
            (
                "timeline",
                match &self.timeline {
                    None => JsonValue::Null,
                    Some(timeline) => timeline_state_to_json(&timeline.export_state()),
                },
            ),
            (
                "ladder",
                match &self.ladder {
                    None => JsonValue::Null,
                    Some(ladder) => ladder_state_to_json(&ladder.export_state())?,
                },
            ),
            (
                "pending_predictions",
                option_vec_to_json(&self.pending_predictions, |p| f64_to_json(*p)),
            ),
            (
                "spans",
                match &self.span_tracker {
                    None => JsonValue::Null,
                    Some(tracker) => span_tracker_to_json(tracker),
                },
            ),
        ]))
    }
}

// ---------------------------------------------------------------------------
// Small shared helpers
// ---------------------------------------------------------------------------

fn fixed<'a, const N: usize>(
    v: &'a JsonValue,
    context: &'static str,
) -> Result<[&'a JsonValue; N], SnapshotError> {
    let items = as_array(v, context)?;
    if items.len() != N {
        return Err(SnapshotError::BadShape { context });
    }
    Ok(std::array::from_fn(|i| &items[i]))
}

fn u32_to_json(v: u32) -> JsonValue {
    usize_to_json(v as usize)
}

fn u32_from_json(v: &JsonValue, context: &'static str) -> Result<u32, SnapshotError> {
    u32::try_from(usize_from_json(v, context)?).map_err(|_| SnapshotError::BadShape { context })
}

/// Encodes an enum value as its stable index in `all`.
///
/// A value missing from `all` used to be silently encoded as index 0 —
/// corrupting the checkpoint (e.g. any non-default allocation collapsing
/// to the first variant on restore) with no diagnostic. It is now a
/// [`SnapshotError::BadShape`] at encode time, symmetric with
/// [`enum_from_json`] rejecting an out-of-range index at decode time.
fn enum_to_json<T: Copy + PartialEq>(
    all: &[T],
    v: T,
    context: &'static str,
) -> Result<JsonValue, SnapshotError> {
    all.iter().position(|x| *x == v).map(usize_to_json).ok_or(SnapshotError::BadShape { context })
}

fn enum_from_json<T: Copy>(
    all: &[T],
    v: &JsonValue,
    context: &'static str,
) -> Result<T, SnapshotError> {
    let index = usize_from_json(v, context)?;
    all.get(index).copied().ok_or(SnapshotError::BadShape { context })
}

fn option_vec_to_json<T>(items: &[Option<T>], enc: impl Fn(&T) -> JsonValue) -> JsonValue {
    JsonValue::Arr(
        items
            .iter()
            .map(|slot| match slot {
                None => JsonValue::Null,
                Some(value) => enc(value),
            })
            .collect(),
    )
}

fn option_vec_from_json<T>(
    v: &JsonValue,
    context: &'static str,
    dec: impl Fn(&JsonValue) -> Result<T, SnapshotError>,
) -> Result<Vec<Option<T>>, SnapshotError> {
    as_array(v, context)?
        .iter()
        .map(|item| match item {
            JsonValue::Null => Ok(None),
            other => dec(other).map(Some),
        })
        .collect()
}

fn u64_vec(values: impl IntoIterator<Item = u64>) -> JsonValue {
    JsonValue::Arr(values.into_iter().map(u64_to_json).collect())
}

// ---------------------------------------------------------------------------
// Span-tracker state
// ---------------------------------------------------------------------------

/// Serializes the causal-span tracker. Hash maps are emitted sorted by
/// key so identical tracker states serialize to identical bytes — the
/// fixed-point and state-hash contracts depend on it.
fn span_tracker_to_json(tracker: &SpanTracker) -> JsonValue {
    let mut landed: Vec<_> = tracker.landed.iter().collect();
    landed.sort_by_key(|(id, _)| **id);
    let mut parent: Vec<_> = tracker.parent.iter().collect();
    parent.sort_by_key(|(child, _)| **child);
    JsonValue::obj(vec![
        (
            "head_wait",
            JsonValue::Arr(
                tracker
                    .head_wait
                    .iter()
                    .map(|lanes| {
                        JsonValue::Arr(
                            lanes
                                .iter()
                                .map(|slot| match slot {
                                    None => JsonValue::Null,
                                    Some(w) => JsonValue::Arr(vec![
                                        u64_to_json(w.packet),
                                        u64_to_json(w.reservation),
                                        u64_to_json(w.arbitration),
                                    ]),
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "landed",
            JsonValue::Arr(
                landed
                    .into_iter()
                    .map(|(&id, &(at, attempt))| {
                        JsonValue::Arr(vec![u64_to_json(id), u64_to_json(at), u32_to_json(attempt)])
                    })
                    .collect(),
            ),
        ),
        (
            "parent",
            JsonValue::Arr(
                parent
                    .into_iter()
                    .map(|(&child, &parent)| {
                        JsonValue::Arr(vec![u64_to_json(child), u64_to_json(parent)])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn span_tracker_from_json(v: &JsonValue, routers: usize) -> Result<SpanTracker, SnapshotError> {
    let head_items = as_array(field(v, "head_wait")?, "spans.head_wait")?;
    if head_items.len() != routers {
        return Err(SnapshotError::BadShape { context: "spans.head_wait" });
    }
    let head_wait = head_items
        .iter()
        .map(|lanes| {
            let [cpu, gpu] = fixed::<2>(lanes, "spans.head_wait")?;
            let decode = |slot: &JsonValue| -> Result<Option<HeadWait>, SnapshotError> {
                match slot {
                    JsonValue::Null => Ok(None),
                    other => {
                        let [packet, reservation, arbitration] =
                            fixed::<3>(other, "spans.head_wait")?;
                        Ok(Some(HeadWait {
                            packet: u64_from_json(packet, "spans.head_wait.packet")?,
                            reservation: u64_from_json(reservation, "spans.head_wait.reservation")?,
                            arbitration: u64_from_json(arbitration, "spans.head_wait.arbitration")?,
                        }))
                    }
                }
            };
            Ok([decode(cpu)?, decode(gpu)?])
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let landed = as_array(field(v, "landed")?, "spans.landed")?
        .iter()
        .map(|item| {
            let [id, at, attempt] = fixed::<3>(item, "spans.landed")?;
            Ok((
                u64_from_json(id, "spans.landed.id")?,
                (
                    u64_from_json(at, "spans.landed.at")?,
                    u32_from_json(attempt, "spans.landed.attempt")?,
                ),
            ))
        })
        .collect::<Result<HashMap<_, _>, SnapshotError>>()?;
    let parent = as_array(field(v, "parent")?, "spans.parent")?
        .iter()
        .map(|item| {
            let [child, parent] = fixed::<2>(item, "spans.parent")?;
            Ok((
                u64_from_json(child, "spans.parent.child")?,
                u64_from_json(parent, "spans.parent.parent")?,
            ))
        })
        .collect::<Result<HashMap<_, _>, SnapshotError>>()?;
    Ok(SpanTracker { head_wait, landed, parent })
}

// ---------------------------------------------------------------------------
// Router state
// ---------------------------------------------------------------------------

/// Fully parsed dynamic state of one router, staged before application.
struct RouterState {
    cpu_in: BufferState,
    gpu_in: BufferState,
    recv: BufferState,
    recv_reserved: u32,
    recv_cpu_slots: u32,
    recv_gpu_slots: u32,
    laser: LaserState,
    channels: Vec<Option<Transfer>>,
    credits: (f64, f64),
    allocation: BandwidthAllocation,
    cpu_share: f64,
    counters: WindowCounters,
    beta_accum: f64,
    pending_responses: VecDeque<(Cycle, Packet)>,
    cpu_backlog: VecDeque<Packet>,
    gpu_backlog: VecDeque<Packet>,
}

fn router_state_to_json(router: &PearlRouter) -> Result<JsonValue, SnapshotError> {
    let (cpu_credit, gpu_credit) = router.arbiter.credits();
    Ok(JsonValue::obj(vec![
        ("cpu_in", buffer_state_to_json(&router.cpu_in.export_state())),
        ("gpu_in", buffer_state_to_json(&router.gpu_in.export_state())),
        ("recv", buffer_state_to_json(&router.recv.export_state())),
        ("recv_reserved", u32_to_json(router.recv_reserved)),
        ("recv_cpu_slots", u32_to_json(router.recv_cpu_slots)),
        ("recv_gpu_slots", u32_to_json(router.recv_gpu_slots)),
        ("laser", laser_state_to_json(&router.laser.export_state())),
        (
            "channels",
            JsonValue::Arr(
                router
                    .channels
                    .iter()
                    .map(|slot| match slot {
                        None => JsonValue::Null,
                        Some(t) => JsonValue::Arr(vec![
                            u64_to_json(t.packet_id),
                            u64_to_json(t.busy_until.as_u64()),
                        ]),
                    })
                    .collect(),
            ),
        ),
        ("arbiter", JsonValue::Arr(vec![f64_to_json(cpu_credit), f64_to_json(gpu_credit)])),
        ("allocation", enum_to_json(&BandwidthAllocation::ALL, router.allocation, "allocation")?),
        ("cpu_share", f64_to_json(router.cpu_share)),
        ("counters", counters_to_json(&router.counters)),
        ("beta_accum", f64_to_json(router.beta_accum)),
        (
            "pending_responses",
            JsonValue::Arr(
                router
                    .pending_responses
                    .iter()
                    .map(|(ready, packet)| {
                        JsonValue::Arr(vec![u64_to_json(ready.as_u64()), packet_to_json(packet)])
                    })
                    .collect(),
            ),
        ),
        ("cpu_backlog", JsonValue::Arr(router.cpu_backlog.iter().map(packet_to_json).collect())),
        ("gpu_backlog", JsonValue::Arr(router.gpu_backlog.iter().map(packet_to_json).collect())),
    ]))
}

fn router_state_from_json(
    v: &JsonValue,
    channel_count: usize,
) -> Result<RouterState, SnapshotError> {
    let channel_items = as_array(field(v, "channels")?, "channels")?;
    if channel_items.len() != channel_count {
        return Err(SnapshotError::BadShape { context: "channels" });
    }
    let channels = channel_items
        .iter()
        .map(|item| match item {
            JsonValue::Null => Ok(None),
            other => {
                let [packet_id, busy_until] = fixed::<2>(other, "channels")?;
                Ok(Some(Transfer {
                    packet_id: u64_from_json(packet_id, "channels.packet_id")?,
                    busy_until: Cycle(u64_from_json(busy_until, "channels.busy_until")?),
                }))
            }
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let [cpu_credit, gpu_credit] = fixed::<2>(field(v, "arbiter")?, "arbiter")?;
    Ok(RouterState {
        cpu_in: buffer_state_from_json(field(v, "cpu_in")?)?,
        gpu_in: buffer_state_from_json(field(v, "gpu_in")?)?,
        recv: buffer_state_from_json(field(v, "recv")?)?,
        recv_reserved: u32_from_json(field(v, "recv_reserved")?, "recv_reserved")?,
        recv_cpu_slots: u32_from_json(field(v, "recv_cpu_slots")?, "recv_cpu_slots")?,
        recv_gpu_slots: u32_from_json(field(v, "recv_gpu_slots")?, "recv_gpu_slots")?,
        laser: laser_state_from_json(field(v, "laser")?)?,
        channels,
        credits: (
            f64_from_json(cpu_credit, "arbiter.cpu")?,
            f64_from_json(gpu_credit, "arbiter.gpu")?,
        ),
        allocation: enum_from_json(
            &BandwidthAllocation::ALL,
            field(v, "allocation")?,
            "allocation",
        )?,
        cpu_share: f64_from_json(field(v, "cpu_share")?, "cpu_share")?,
        counters: counters_from_json(field(v, "counters")?)?,
        beta_accum: f64_from_json(field(v, "beta_accum")?, "beta_accum")?,
        pending_responses: as_array(field(v, "pending_responses")?, "pending_responses")?
            .iter()
            .map(|item| {
                let [ready, packet] = fixed::<2>(item, "pending_responses")?;
                Ok((
                    Cycle(u64_from_json(ready, "pending_responses.ready")?),
                    packet_from_json(packet)?,
                ))
            })
            .collect::<Result<VecDeque<_>, SnapshotError>>()?,
        cpu_backlog: as_array(field(v, "cpu_backlog")?, "cpu_backlog")?
            .iter()
            .map(packet_from_json)
            .collect::<Result<VecDeque<_>, _>>()?,
        gpu_backlog: as_array(field(v, "gpu_backlog")?, "gpu_backlog")?
            .iter()
            .map(packet_from_json)
            .collect::<Result<VecDeque<_>, _>>()?,
    })
}

fn apply_router_state(router: &mut PearlRouter, state: RouterState) {
    router.cpu_in.import_state(&state.cpu_in);
    router.gpu_in.import_state(&state.gpu_in);
    router.recv.import_state(&state.recv);
    router.recv_reserved = state.recv_reserved;
    router.recv_cpu_slots = state.recv_cpu_slots;
    router.recv_gpu_slots = state.recv_gpu_slots;
    router.laser.import_state(&state.laser);
    router.channels = state.channels;
    router.arbiter = WeightedArbiter::from_credits(state.credits.0, state.credits.1);
    router.allocation = state.allocation;
    router.cpu_share = state.cpu_share;
    router.counters = state.counters;
    router.beta_accum = state.beta_accum;
    router.pending_responses = state.pending_responses;
    router.cpu_backlog = state.cpu_backlog;
    router.gpu_backlog = state.gpu_backlog;
}

// ---------------------------------------------------------------------------
// Window counters
// ---------------------------------------------------------------------------

fn counters_to_json(c: &WindowCounters) -> JsonValue {
    JsonValue::obj(vec![
        ("cycles", u64_to_json(c.cycles)),
        ("cpu_slot", u64_to_json(c.cpu_core_slot_cycles)),
        ("gpu_slot", u64_to_json(c.gpu_core_slot_cycles)),
        ("recv_cpu", u64_to_json(c.recv_cpu_slot_cycles)),
        ("recv_gpu", u64_to_json(c.recv_gpu_slot_cycles)),
        ("link_busy", u64_to_json(c.link_busy_cycles)),
        ("to_core", u64_to_json(c.packets_to_core)),
        ("from_routers", u64_to_json(c.incoming_from_routers)),
        ("from_cores", u64_to_json(c.incoming_from_cores)),
        ("injected_flits", u64_to_json(c.injected_flits)),
        ("req_sent", u64_to_json(c.requests_sent)),
        ("req_recv", u64_to_json(c.requests_received)),
        ("resp_sent", u64_to_json(c.responses_sent)),
        ("resp_recv", u64_to_json(c.responses_received)),
        (
            "class",
            JsonValue::Arr(
                c.class_movements.iter().map(|row| u64_vec(row.iter().copied())).collect(),
            ),
        ),
    ])
}

fn counters_from_json(v: &JsonValue) -> Result<WindowCounters, SnapshotError> {
    let class_rows = as_array(field(v, "class")?, "counters.class")?;
    if class_rows.len() != 2 {
        return Err(SnapshotError::BadShape { context: "counters.class" });
    }
    let mut class_movements = [[0u64; 8]; 2];
    for (row_slot, row) in class_movements.iter_mut().zip(class_rows) {
        let cells = as_array(row, "counters.class")?;
        if cells.len() != 8 {
            return Err(SnapshotError::BadShape { context: "counters.class" });
        }
        for (cell_slot, cell) in row_slot.iter_mut().zip(cells) {
            *cell_slot = u64_from_json(cell, "counters.class")?;
        }
    }
    Ok(WindowCounters {
        cycles: u64_from_json(field(v, "cycles")?, "counters.cycles")?,
        cpu_core_slot_cycles: u64_from_json(field(v, "cpu_slot")?, "counters.cpu_slot")?,
        gpu_core_slot_cycles: u64_from_json(field(v, "gpu_slot")?, "counters.gpu_slot")?,
        recv_cpu_slot_cycles: u64_from_json(field(v, "recv_cpu")?, "counters.recv_cpu")?,
        recv_gpu_slot_cycles: u64_from_json(field(v, "recv_gpu")?, "counters.recv_gpu")?,
        link_busy_cycles: u64_from_json(field(v, "link_busy")?, "counters.link_busy")?,
        packets_to_core: u64_from_json(field(v, "to_core")?, "counters.to_core")?,
        incoming_from_routers: u64_from_json(field(v, "from_routers")?, "counters.from_routers")?,
        incoming_from_cores: u64_from_json(field(v, "from_cores")?, "counters.from_cores")?,
        injected_flits: u64_from_json(field(v, "injected_flits")?, "counters.injected_flits")?,
        requests_sent: u64_from_json(field(v, "req_sent")?, "counters.req_sent")?,
        requests_received: u64_from_json(field(v, "req_recv")?, "counters.req_recv")?,
        responses_sent: u64_from_json(field(v, "resp_sent")?, "counters.resp_sent")?,
        responses_received: u64_from_json(field(v, "resp_recv")?, "counters.resp_recv")?,
        class_movements,
    })
}

// ---------------------------------------------------------------------------
// Network-level pieces
// ---------------------------------------------------------------------------

fn in_flight_to_json(flight: &InFlight) -> JsonValue {
    JsonValue::Arr(vec![
        usize_to_json(flight.src),
        usize_to_json(flight.dst),
        packet_to_json(&flight.packet),
        u64_to_json(flight.deliver_at.as_u64()),
        u32_to_json(flight.attempts),
        u64_to_json(u64::from(flight.wire_crc)),
    ])
}

fn in_flight_from_json(v: &JsonValue) -> Result<InFlight, SnapshotError> {
    let [src, dst, packet, deliver_at, attempts, wire_crc] = fixed::<6>(v, "in_flight")?;
    let crc = u64_from_json(wire_crc, "in_flight.wire_crc")?;
    Ok(InFlight {
        src: usize_from_json(src, "in_flight.src")?,
        dst: usize_from_json(dst, "in_flight.dst")?,
        packet: packet_from_json(packet)?,
        deliver_at: Cycle(u64_from_json(deliver_at, "in_flight.deliver_at")?),
        attempts: u32_from_json(attempts, "in_flight.attempts")?,
        wire_crc: u32::try_from(crc)
            .map_err(|_| SnapshotError::BadShape { context: "in_flight.wire_crc" })?,
    })
}

fn retry_entry_to_json(entry: &RetryEntry) -> JsonValue {
    JsonValue::Arr(vec![
        u64_to_json(entry.ready.as_u64()),
        u32_to_json(entry.attempts),
        packet_to_json(&entry.packet),
    ])
}

fn retry_entry_from_json(v: &JsonValue) -> Result<RetryEntry, SnapshotError> {
    let [ready, attempts, packet] = fixed::<3>(v, "retransmit")?;
    Ok(RetryEntry {
        ready: Cycle(u64_from_json(ready, "retransmit.ready")?),
        attempts: u32_from_json(attempts, "retransmit.attempts")?,
        packet: packet_from_json(packet)?,
    })
}

fn feature_vector_to_json(features: &FeatureVector) -> JsonValue {
    JsonValue::Arr(features.values().iter().map(|&value| f64_to_json(value)).collect())
}

fn feature_vector_from_json(v: &JsonValue) -> Result<FeatureVector, SnapshotError> {
    let items = as_array(v, "features")?;
    if items.len() != FEATURE_COUNT {
        return Err(SnapshotError::BadShape { context: "features" });
    }
    let mut values = [0.0f64; FEATURE_COUNT];
    for (slot, item) in values.iter_mut().zip(items) {
        *slot = f64_from_json(item, "features")?;
    }
    Ok(FeatureVector::from_values(values))
}

fn dataset_to_json(dataset: &Dataset) -> JsonValue {
    JsonValue::obj(vec![
        ("dimension", usize_to_json(dataset.dimension())),
        (
            "features",
            JsonValue::Arr(
                dataset
                    .features()
                    .iter()
                    .map(|row| {
                        JsonValue::Arr(row.iter().map(|&value| f64_to_json(value)).collect())
                    })
                    .collect(),
            ),
        ),
        (
            "labels",
            JsonValue::Arr(dataset.labels().iter().map(|&value| f64_to_json(value)).collect()),
        ),
    ])
}

fn dataset_from_json(v: &JsonValue) -> Result<Dataset, SnapshotError> {
    let dimension = usize_from_json(field(v, "dimension")?, "dataset.dimension")?;
    let features = as_array(field(v, "features")?, "dataset.features")?;
    let labels = as_array(field(v, "labels")?, "dataset.labels")?;
    if features.len() != labels.len() {
        return Err(SnapshotError::BadShape { context: "dataset" });
    }
    let mut dataset = Dataset::new(dimension);
    for (row, label) in features.iter().zip(labels) {
        let values = as_array(row, "dataset.features")?
            .iter()
            .map(|cell| f64_from_json(cell, "dataset.features"))
            .collect::<Result<Vec<_>, _>>()?;
        dataset
            .push(values, f64_from_json(label, "dataset.labels")?)
            .map_err(|_| SnapshotError::BadShape { context: "dataset.features" })?;
    }
    Ok(dataset)
}

fn timeline_state_to_json(state: &TimelineState) -> JsonValue {
    JsonValue::obj(vec![
        ("window", u64_to_json(state.window)),
        (
            "points",
            JsonValue::Arr(
                state
                    .points
                    .iter()
                    .map(|p| {
                        JsonValue::Arr(vec![
                            u64_to_json(p.at),
                            u64_to_json(p.flits),
                            f64_to_json(p.mean_wavelengths),
                            u64_to_json(p.stalls),
                            u64_to_json(p.retransmissions),
                            u64_to_json(p.corruptions),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("last_flits", u64_to_json(state.last_flits)),
        ("last_stalls", u64_to_json(state.last_stalls)),
        ("last_retransmissions", u64_to_json(state.last_retransmissions)),
        ("last_corruptions", u64_to_json(state.last_corruptions)),
    ])
}

fn timeline_state_from_json(v: &JsonValue) -> Result<TimelineState, SnapshotError> {
    let window = u64_to_nonzero(field(v, "window")?)?;
    Ok(TimelineState {
        window,
        points: as_array(field(v, "points")?, "timeline.points")?
            .iter()
            .map(|item| {
                let [at, flits, mean_wl, stalls, retrans, corruptions] =
                    fixed::<6>(item, "timeline.points")?;
                Ok(crate::timeline::TimelinePoint {
                    at: u64_from_json(at, "timeline.at")?,
                    flits: u64_from_json(flits, "timeline.flits")?,
                    mean_wavelengths: f64_from_json(mean_wl, "timeline.mean_wavelengths")?,
                    stalls: u64_from_json(stalls, "timeline.stalls")?,
                    retransmissions: u64_from_json(retrans, "timeline.retransmissions")?,
                    corruptions: u64_from_json(corruptions, "timeline.corruptions")?,
                })
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?,
        last_flits: u64_from_json(field(v, "last_flits")?, "timeline.last_flits")?,
        last_stalls: u64_from_json(field(v, "last_stalls")?, "timeline.last_stalls")?,
        last_retransmissions: u64_from_json(
            field(v, "last_retransmissions")?,
            "timeline.last_retransmissions",
        )?,
        last_corruptions: u64_from_json(
            field(v, "last_corruptions")?,
            "timeline.last_corruptions",
        )?,
    })
}

fn u64_to_nonzero(v: &JsonValue) -> Result<u64, SnapshotError> {
    let value = u64_from_json(v, "timeline.window")?;
    if value == 0 {
        return Err(SnapshotError::BadShape { context: "timeline.window" });
    }
    Ok(value)
}

fn ladder_state_to_json(state: &LadderState) -> Result<JsonValue, SnapshotError> {
    Ok(JsonValue::obj(vec![
        ("mode", enum_to_json(&ScalingMode::ALL, state.mode, "ladder.mode")?),
        (
            "window",
            JsonValue::Arr(
                state
                    .window
                    .iter()
                    .map(|&(predicted, actual)| {
                        JsonValue::Arr(vec![f64_to_json(predicted), f64_to_json(actual)])
                    })
                    .collect(),
            ),
        ),
        ("healthy_streak", u32_to_json(state.healthy_streak)),
        (
            "last_score",
            match state.last_score {
                None => JsonValue::Null,
                Some(score) => f64_to_json(score),
            },
        ),
        (
            "transitions",
            JsonValue::Arr(
                state
                    .transitions
                    .iter()
                    .map(|t| {
                        Ok(JsonValue::Arr(vec![
                            u64_to_json(t.at),
                            enum_to_json(&ScalingMode::ALL, t.from, "ladder.transitions.from")?,
                            enum_to_json(&ScalingMode::ALL, t.to, "ladder.transitions.to")?,
                        ]))
                    })
                    .collect::<Result<Vec<_>, SnapshotError>>()?,
            ),
        ),
    ]))
}

fn ladder_state_from_json(v: &JsonValue) -> Result<LadderState, SnapshotError> {
    Ok(LadderState {
        mode: enum_from_json(&ScalingMode::ALL, field(v, "mode")?, "ladder.mode")?,
        window: as_array(field(v, "window")?, "ladder.window")?
            .iter()
            .map(|item| {
                let [predicted, actual] = fixed::<2>(item, "ladder.window")?;
                Ok((
                    f64_from_json(predicted, "ladder.window")?,
                    f64_from_json(actual, "ladder.window")?,
                ))
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?,
        healthy_streak: u32_from_json(field(v, "healthy_streak")?, "ladder.healthy_streak")?,
        last_score: match field(v, "last_score")? {
            JsonValue::Null => None,
            other => Some(f64_from_json(other, "ladder.last_score")?),
        },
        transitions: as_array(field(v, "transitions")?, "ladder.transitions")?
            .iter()
            .map(|item| {
                let [at, from, to] = fixed::<3>(item, "ladder.transitions")?;
                Ok(ModeTransition {
                    at: u64_from_json(at, "ladder.transitions.at")?,
                    from: enum_from_json(&ScalingMode::ALL, from, "ladder.transitions.from")?,
                    to: enum_from_json(&ScalingMode::ALL, to, "ladder.transitions.to")?,
                })
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?,
    })
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
    /// same state hash, same stats, same summary bits.
    fn assert_resume_identical(make: impl Fn() -> PearlNetwork, n: u64, m: u64) {
        let mut golden = make();
        golden.run(n + m);

        let mut first = make();
        first.run(n);
        let checkpoint = first.snapshot();
        // The envelope must survive its own JSON round trip unchanged.
        let reparsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(reparsed, checkpoint);

        let mut resumed = make();
        resumed.restore(&reparsed).unwrap();
        assert_eq!(
            resumed.state_hash(),
            first.state_hash(),
            "restore must reproduce the checkpointed state exactly"
        );
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

    #[test]
    fn resume_bit_identical_dyn_baseline() {
        assert_resume_identical(
            || build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 11),
            7_000,
            5_000,
        );
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
    fn resume_preserves_timeline_samples() {
        let make = || {
            let mut net = build(PearlPolicy::reactive(500), FaultConfig::off(), false, 43);
            net.enable_timeline(1_000);
            net
        };
        let mut golden = make();
        golden.run(9_000);
        let mut first = make();
        first.run(4_500);
        let cp = first.snapshot();
        let mut resumed = make();
        resumed.restore(&cp).unwrap();
        resumed.run(4_500);
        assert_eq!(
            resumed.timeline().unwrap().export_state(),
            golden.timeline().unwrap().export_state()
        );
        assert_eq!(resumed.state_hash(), golden.state_hash());
    }

    #[test]
    fn resume_restores_timeline_enablement_from_snapshot() {
        // Timeline enablement is runtime state, not config: restoring a
        // timeline-bearing checkpoint onto a plain twin turns it on.
        let mut first = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 47);
        first.enable_timeline(500);
        first.run(2_000);
        let cp = first.snapshot();
        let mut resumed = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 47);
        resumed.restore(&cp).unwrap();
        assert_eq!(resumed.timeline().unwrap().points().len(), 4);
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
        // Encode: GpuOnly against a truncated enumeration that does not
        // contain it. The old code would have emitted index 0 (CpuOnly).
        let truncated = &BandwidthAllocation::ALL[..2];
        let err = enum_to_json(truncated, BandwidthAllocation::GpuOnly, "allocation").unwrap_err();
        assert!(
            matches!(err, SnapshotError::BadShape { context: "allocation" }),
            "expected BadShape, got {err:?}"
        );
        // Every in-enumeration value still round-trips to itself — in
        // particular none of them collapses to index 0.
        for v in BandwidthAllocation::ALL {
            let encoded = enum_to_json(&BandwidthAllocation::ALL, v, "allocation").unwrap();
            let decoded =
                enum_from_json(&BandwidthAllocation::ALL, &encoded, "allocation").unwrap();
            assert_eq!(decoded, v);
        }
        // Decode: an index past the end of the enumeration is refused.
        let beyond = usize_to_json(BandwidthAllocation::ALL.len());
        assert!(matches!(
            enum_from_json(&BandwidthAllocation::ALL, &beyond, "allocation"),
            Err(SnapshotError::BadShape { context: "allocation" })
        ));
    }

    /// `try_snapshot` is the fallible twin of `snapshot`: on a healthy
    /// network it succeeds and produces the identical checkpoint.
    #[test]
    fn try_snapshot_matches_snapshot_on_healthy_state() {
        let mut net = build(PearlPolicy::dyn_64wl(), FaultConfig::off(), false, 79);
        net.run(1_500);
        let fallible = net.try_snapshot().unwrap();
        assert_eq!(fallible, net.snapshot());
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
            let encoded = ladder_state_to_json(&state).unwrap();
            let decoded = ladder_state_from_json(&encoded).unwrap();
            prop_assert_eq!(
                ladder_state_to_json(&decoded).unwrap().to_string(),
                encoded.to_string()
            );
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
