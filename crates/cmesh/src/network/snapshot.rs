//! Checkpoint/restore codec for [`CmeshNetwork`].
//!
//! Same contract as the PEARL codec: a checkpoint captures the COMPLETE
//! dynamic state — the workload RNG (inside the traffic source), every
//! virtual channel, credit counter, wormhole VC owner and round-robin
//! pointer, flits in flight on links, partially ejected packets, issue
//! backlogs, outstanding windows, pending responses, active injection
//! streams and stats — such that `run(N); snapshot(); restore(); run(M)`
//! is bit-identical to `run(N + M)`.
//!
//! Static configuration (mesh geometry, VC counts, energy model, seed,
//! workload identity) is never serialized; it is guarded by an FNV-1a
//! fingerprint over the builder inputs.

use super::*;
use pearl_telemetry::snapshot::{
    as_array, field, flit_from_json, flit_to_json, packet_from_json, packet_to_json,
    stats_state_from_json, stats_state_to_json, traffic_state_from_json, traffic_state_to_json,
    u64_from_json, u64_to_json, usize_from_json, usize_to_json,
};
use pearl_telemetry::{fingerprint, Checkpoint, JsonValue, SnapshotError};

use pearl_noc::{CreditCounter, VcState};

/// Checkpoint `kind` tag for CMESH networks.
pub const CMESH_SNAPSHOT_KIND: &str = "cmesh";

impl CmeshNetwork {
    /// FNV-1a fingerprint of this network's static identity: config,
    /// energy model, workload seed and workload description.
    pub fn config_fingerprint(&self) -> u64 {
        let text = format!(
            "cmesh|config:{:?}|power:{:?}|seed:{}|traffic:{}",
            self.config,
            self.power,
            self.seed,
            self.traffic.fingerprint_text(),
        );
        fingerprint(&text)
    }

    /// Serializes the complete dynamic state into a sealed
    /// [`Checkpoint`] envelope.
    pub fn snapshot(&self) -> Checkpoint {
        Checkpoint::new(
            CMESH_SNAPSHOT_KIND,
            self.config_fingerprint(),
            self.now.as_u64(),
            self.state_to_json(),
        )
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
        checkpoint.validate(CMESH_SNAPSHOT_KIND, self.config_fingerprint())?;
        let v = &checkpoint.state;
        let n = self.config.clusters();
        let vcs = self.config.vcs_per_port;

        // ---- parse phase: nothing is mutated until every fallible ----
        // ---- decode has succeeded.                                 ----
        let now = u64_from_json(field(v, "now")?, "now")?;
        if now != checkpoint.cycle {
            return Err(SnapshotError::BadShape { context: "now" });
        }
        let next_packet_id = u64_from_json(field(v, "next_packet_id")?, "next_packet_id")?;
        let traffic = traffic_state_from_json(field(v, "traffic")?)?;
        let stats = stats_state_from_json(field(v, "stats")?)?;

        let router_items = as_array(field(v, "routers")?, "routers")?;
        if router_items.len() != self.routers.len() {
            return Err(SnapshotError::BadShape { context: "routers" });
        }
        let router_states = router_items
            .iter()
            .zip(&self.routers)
            .map(|(item, router)| router_state_from_json(item, router, vcs))
            .collect::<Result<Vec<_>, _>>()?;

        let backlog_items = as_array(field(v, "backlogs")?, "backlogs")?;
        if backlog_items.len() != n {
            return Err(SnapshotError::BadShape { context: "backlogs" });
        }
        let backlogs = backlog_items
            .iter()
            .map(|item| {
                let [cpu, gpu] = fixed::<2>(item, "backlogs")?;
                Ok([packet_queue_from_json(cpu)?, packet_queue_from_json(gpu)?])
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;

        let outstanding_items = as_array(field(v, "outstanding")?, "outstanding")?;
        if outstanding_items.len() != n {
            return Err(SnapshotError::BadShape { context: "outstanding" });
        }
        let outstanding = outstanding_items
            .iter()
            .map(|item| {
                let [cpu, gpu] = fixed::<2>(item, "outstanding")?;
                Ok([u32_from_json(cpu, "outstanding")?, u32_from_json(gpu, "outstanding")?])
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;

        let pending_items = as_array(field(v, "pending_responses")?, "pending_responses")?;
        if pending_items.len() != n {
            return Err(SnapshotError::BadShape { context: "pending_responses" });
        }
        let pending_responses = pending_items
            .iter()
            .map(|queue| {
                as_array(queue, "pending_responses")?
                    .iter()
                    .map(|entry| {
                        let [ready, packet] = fixed::<2>(entry, "pending_responses")?;
                        Ok((
                            Cycle(u64_from_json(ready, "pending_responses")?),
                            packet_from_json(packet)?,
                        ))
                    })
                    .collect::<Result<VecDeque<_>, SnapshotError>>()
            })
            .collect::<Result<Vec<_>, _>>()?;

        let inject_items = as_array(field(v, "inject_current")?, "inject_current")?;
        if inject_items.len() != n {
            return Err(SnapshotError::BadShape { context: "inject_current" });
        }
        let inject_current = inject_items
            .iter()
            .map(|streams| {
                as_array(streams, "inject_current")?
                    .iter()
                    .map(|stream| {
                        let [vc, flits] = fixed::<2>(stream, "inject_current")?;
                        let vc = usize_from_json(vc, "inject_current")?;
                        if vc >= vcs {
                            return Err(SnapshotError::BadShape { context: "inject_current" });
                        }
                        let flits = as_array(flits, "inject_current")?
                            .iter()
                            .map(flit_from_json)
                            .collect::<Result<VecDeque<_>, _>>()?;
                        if flits.is_empty() {
                            return Err(SnapshotError::BadShape { context: "inject_current" });
                        }
                        Ok(InjectState { vc, flits })
                    })
                    .collect::<Result<Vec<_>, SnapshotError>>()
            })
            .collect::<Result<Vec<_>, _>>()?;

        let partial_items = as_array(field(v, "partial_eject")?, "partial_eject")?;
        if partial_items.len() != n {
            return Err(SnapshotError::BadShape { context: "partial_eject" });
        }
        let partial_eject = partial_items
            .iter()
            .map(|entries| {
                as_array(entries, "partial_eject")?
                    .iter()
                    .map(|entry| {
                        let [id, packet] = fixed::<2>(entry, "partial_eject")?;
                        Ok((u64_from_json(id, "partial_eject")?, packet_from_json(packet)?))
                    })
                    .collect::<Result<HashMap<_, _>, SnapshotError>>()
            })
            .collect::<Result<Vec<_>, _>>()?;

        let links = as_array(field(v, "links")?, "links")?
            .iter()
            .map(|item| link_flit_from_json(item, self.routers.len(), vcs))
            .collect::<Result<Vec<_>, _>>()?;
        // Link flits land from the front of a launch-ordered queue, which
        // is only correct while `deliver_at` never decreases along it.
        if links.windows(2).any(|pair| pair[1].deliver_at < pair[0].deliver_at) {
            return Err(SnapshotError::BadShape { context: "links" });
        }

        // Span-tracker state is optional (absent in pre-span checkpoints).
        let span_tracker = match v.get("spans") {
            None | Some(JsonValue::Null) => None,
            Some(other) => Some(span_tracker_from_json(other)?),
        };

        // ---- apply phase ----
        self.traffic
            .import_state(&traffic)
            .map_err(|_| SnapshotError::BadShape { context: "traffic" })?;
        self.now = Cycle(now);
        self.next_packet_id = next_packet_id;
        self.stats.import_state(&stats);
        for (router, state) in self.routers.iter_mut().zip(router_states) {
            apply_router_state(router, state, self.config.slots_per_vc as u32);
        }
        self.backlogs = backlogs;
        self.outstanding = outstanding;
        self.pending_responses = pending_responses;
        self.inject_current = inject_current;
        self.partial_eject = partial_eject;
        self.links = links.into();
        // Span tracking is runtime state: a span-bearing checkpoint
        // re-activates it, and a live sink on the restoring side keeps
        // tracking on even when the checkpoint predates span recording.
        self.span_tracker = span_tracker;
        if self.span_tracker.is_none() && !self.span_sink.is_null() {
            self.span_tracker = Some(CmeshSpanTracker::default());
        }
        Ok(())
    }

    fn state_to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("now".to_string(), u64_to_json(self.now.as_u64())),
            ("next_packet_id".to_string(), u64_to_json(self.next_packet_id)),
            ("traffic".to_string(), traffic_state_to_json(&self.traffic.export_state())),
            ("stats".to_string(), stats_state_to_json(&self.stats.export_state())),
            (
                "routers".to_string(),
                JsonValue::Arr(self.routers.iter().map(router_state_to_json).collect()),
            ),
            (
                "backlogs".to_string(),
                JsonValue::Arr(
                    self.backlogs
                        .iter()
                        .map(|lanes| {
                            JsonValue::Arr(lanes.iter().map(packet_queue_to_json).collect())
                        })
                        .collect(),
                ),
            ),
            (
                "outstanding".to_string(),
                JsonValue::Arr(
                    self.outstanding
                        .iter()
                        .map(|w| JsonValue::Arr(w.iter().map(|&c| u32_to_json(c)).collect()))
                        .collect(),
                ),
            ),
            (
                "pending_responses".to_string(),
                JsonValue::Arr(
                    self.pending_responses
                        .iter()
                        .map(|queue| {
                            JsonValue::Arr(
                                queue
                                    .iter()
                                    .map(|(ready, packet)| {
                                        JsonValue::Arr(vec![
                                            u64_to_json(ready.as_u64()),
                                            packet_to_json(packet),
                                        ])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "inject_current".to_string(),
                JsonValue::Arr(
                    self.inject_current
                        .iter()
                        .map(|streams| {
                            JsonValue::Arr(
                                streams
                                    .iter()
                                    .map(|s| {
                                        JsonValue::Arr(vec![
                                            usize_to_json(s.vc),
                                            JsonValue::Arr(
                                                s.flits.iter().map(flit_to_json).collect(),
                                            ),
                                        ])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "partial_eject".to_string(),
                JsonValue::Arr(self.partial_eject.iter().map(partial_eject_to_json).collect()),
            ),
            (
                "links".to_string(),
                JsonValue::Arr(self.links.iter().map(link_flit_to_json).collect()),
            ),
            (
                "spans".to_string(),
                match &self.span_tracker {
                    None => JsonValue::Null,
                    Some(tracker) => span_tracker_to_json(tracker),
                },
            ),
        ])
    }
}

// ----- local helpers ---------------------------------------------------------

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

fn packet_queue_to_json(queue: &VecDeque<Packet>) -> JsonValue {
    JsonValue::Arr(queue.iter().map(packet_to_json).collect())
}

fn packet_queue_from_json(v: &JsonValue) -> Result<VecDeque<Packet>, SnapshotError> {
    as_array(v, "packets")?.iter().map(packet_from_json).collect()
}

/// `HashMap` iteration order is unspecified, so the in-progress ejections
/// are serialized sorted by packet id to keep the encoding (and hence
/// [`CmeshNetwork::state_hash`]) canonical.
fn partial_eject_to_json(map: &HashMap<u64, Packet>) -> JsonValue {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_by_key(|(id, _)| **id);
    JsonValue::Arr(
        entries
            .into_iter()
            .map(|(id, packet)| JsonValue::Arr(vec![u64_to_json(*id), packet_to_json(packet)]))
            .collect(),
    )
}

fn link_flit_to_json(lf: &LinkFlit) -> JsonValue {
    JsonValue::Arr(vec![
        u64_to_json(lf.deliver_at.as_u64()),
        usize_to_json(lf.dst),
        usize_to_json(lf.port.index()),
        usize_to_json(lf.vc),
        flit_to_json(&lf.flit),
    ])
}

fn link_flit_from_json(
    v: &JsonValue,
    routers: usize,
    vcs: usize,
) -> Result<LinkFlit, SnapshotError> {
    let [deliver_at, dst, port, vc, flit] = fixed::<5>(v, "links")?;
    let dst = usize_from_json(dst, "links")?;
    let port_index = usize_from_json(port, "links")?;
    let vc = usize_from_json(vc, "links")?;
    if dst >= routers || port_index >= Port::ALL.len() || vc >= vcs {
        return Err(SnapshotError::BadShape { context: "links" });
    }
    Ok(LinkFlit {
        deliver_at: Cycle(u64_from_json(deliver_at, "links")?),
        dst,
        port: Port::ALL[port_index],
        vc,
        flit: flit_from_json(flit)?,
    })
}

/// Serializes one of the span tracker's id-keyed milestone maps sorted
/// by packet id, keeping the encoding (and the state hash) canonical.
fn sorted_map_to_json(map: &HashMap<u64, u64>) -> JsonValue {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_by_key(|(id, _)| **id);
    JsonValue::Arr(
        entries
            .into_iter()
            .map(|(&k, &v)| JsonValue::Arr(vec![u64_to_json(k), u64_to_json(v)]))
            .collect(),
    )
}

fn map_from_json(v: &JsonValue, context: &'static str) -> Result<HashMap<u64, u64>, SnapshotError> {
    as_array(v, context)?
        .iter()
        .map(|item| {
            let [k, val] = fixed::<2>(item, context)?;
            Ok((u64_from_json(k, context)?, u64_from_json(val, context)?))
        })
        .collect()
}

fn span_tracker_to_json(tracker: &CmeshSpanTracker) -> JsonValue {
    JsonValue::Obj(vec![
        ("vc_wait".to_string(), sorted_map_to_json(&tracker.vc_wait)),
        ("stream_start".to_string(), sorted_map_to_json(&tracker.stream_start)),
        ("stalls".to_string(), sorted_map_to_json(&tracker.stalls)),
        ("tail_in".to_string(), sorted_map_to_json(&tracker.tail_in)),
        ("head_eject".to_string(), sorted_map_to_json(&tracker.head_eject)),
        ("parent".to_string(), sorted_map_to_json(&tracker.parent)),
    ])
}

fn span_tracker_from_json(v: &JsonValue) -> Result<CmeshSpanTracker, SnapshotError> {
    Ok(CmeshSpanTracker {
        vc_wait: map_from_json(field(v, "vc_wait")?, "spans.vc_wait")?,
        stream_start: map_from_json(field(v, "stream_start")?, "spans.stream_start")?,
        stalls: map_from_json(field(v, "stalls")?, "spans.stalls")?,
        tail_in: map_from_json(field(v, "tail_in")?, "spans.tail_in")?,
        head_eject: map_from_json(field(v, "head_eject")?, "spans.head_eject")?,
        parent: map_from_json(field(v, "parent")?, "spans.parent")?,
    })
}

// ----- router state ----------------------------------------------------------

/// Fully decoded dynamic state of one [`CmeshRouter`], staged between
/// the parse and apply phases.
struct RouterState {
    inputs: Vec<Vec<VcState>>,
    out_credits: Vec<Option<Vec<u32>>>,
    out_vc_owner: Vec<Vec<Option<u64>>>,
    rr: Vec<usize>,
    link_free_at: [u64; 4],
}

fn router_state_to_json(router: &CmeshRouter) -> JsonValue {
    use pearl_telemetry::snapshot::vc_state_to_json;
    JsonValue::Obj(vec![
        (
            "inputs".to_string(),
            JsonValue::Arr(
                router
                    .inputs
                    .iter()
                    .map(|port| {
                        JsonValue::Arr(
                            port.iter().map(|vc| vc_state_to_json(&vc.export_state())).collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "out_credits".to_string(),
            JsonValue::Arr(
                router
                    .out_credits
                    .iter()
                    .map(|entry| match entry {
                        None => JsonValue::Null,
                        Some(credits) => JsonValue::Arr(
                            credits.iter().map(|c| u32_to_json(c.available())).collect(),
                        ),
                    })
                    .collect(),
            ),
        ),
        (
            "out_vc_owner".to_string(),
            JsonValue::Arr(
                router
                    .out_vc_owner
                    .iter()
                    .map(|owners| {
                        JsonValue::Arr(
                            owners
                                .iter()
                                .map(|owner| match owner {
                                    None => JsonValue::Null,
                                    Some(id) => u64_to_json(*id),
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        ("rr".to_string(), JsonValue::Arr(router.rr.iter().map(|&p| usize_to_json(p)).collect())),
        (
            "link_free_at".to_string(),
            JsonValue::Arr(router.link_free_at.iter().map(|&c| u64_to_json(c)).collect()),
        ),
    ])
}

fn router_state_from_json(
    v: &JsonValue,
    router: &CmeshRouter,
    vcs: usize,
) -> Result<RouterState, SnapshotError> {
    use pearl_telemetry::snapshot::vc_state_from_json;
    let input_items = as_array(field(v, "inputs")?, "inputs")?;
    if input_items.len() != Port::ALL.len() {
        return Err(SnapshotError::BadShape { context: "inputs" });
    }
    let inputs = input_items
        .iter()
        .map(|port| {
            let channels = as_array(port, "inputs")?;
            if channels.len() != vcs {
                return Err(SnapshotError::BadShape { context: "inputs" });
            }
            channels.iter().map(vc_state_from_json).collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;

    let credit_items = as_array(field(v, "out_credits")?, "out_credits")?;
    if credit_items.len() != 4 {
        return Err(SnapshotError::BadShape { context: "out_credits" });
    }
    let out_credits = credit_items
        .iter()
        .zip(&router.out_credits)
        .map(|(item, live)| match (item, live) {
            (JsonValue::Null, None) => Ok(None),
            (other, Some(_)) => {
                let credits = as_array(other, "out_credits")?
                    .iter()
                    .map(|c| u32_from_json(c, "out_credits"))
                    .collect::<Result<Vec<_>, _>>()?;
                if credits.len() != vcs {
                    return Err(SnapshotError::BadShape { context: "out_credits" });
                }
                Ok(Some(credits))
            }
            // Edge topology disagreement: the checkpoint thinks this
            // output has a neighbor and the live router does not (or
            // vice versa).
            _ => Err(SnapshotError::BadShape { context: "out_credits" }),
        })
        .collect::<Result<Vec<_>, _>>()?;

    let owner_items = as_array(field(v, "out_vc_owner")?, "out_vc_owner")?;
    if owner_items.len() != 4 {
        return Err(SnapshotError::BadShape { context: "out_vc_owner" });
    }
    let out_vc_owner = owner_items
        .iter()
        .map(|owners| {
            let slots = as_array(owners, "out_vc_owner")?;
            if slots.len() != vcs {
                return Err(SnapshotError::BadShape { context: "out_vc_owner" });
            }
            slots
                .iter()
                .map(|slot| match slot {
                    JsonValue::Null => Ok(None),
                    other => Ok(Some(u64_from_json(other, "out_vc_owner")?)),
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;

    let rr_items = as_array(field(v, "rr")?, "rr")?;
    if rr_items.len() != Port::ALL.len() {
        return Err(SnapshotError::BadShape { context: "rr" });
    }
    let rr = rr_items.iter().map(|p| usize_from_json(p, "rr")).collect::<Result<Vec<_>, _>>()?;
    if rr.iter().any(|&p| p >= Port::ALL.len() * vcs) {
        return Err(SnapshotError::BadShape { context: "rr" });
    }

    let free_items = fixed::<4>(field(v, "link_free_at")?, "link_free_at")?;
    let mut link_free_at = [0u64; 4];
    for (slot, item) in link_free_at.iter_mut().zip(free_items) {
        *slot = u64_from_json(item, "link_free_at")?;
    }

    Ok(RouterState { inputs, out_credits, out_vc_owner, rr, link_free_at })
}

fn apply_router_state(router: &mut CmeshRouter, state: RouterState, slots: u32) {
    for (port, states) in router.inputs.iter_mut().zip(&state.inputs) {
        for (channel, vc_state) in port.iter_mut().zip(states) {
            channel.import_state(vc_state);
        }
    }
    for (live, restored) in router.out_credits.iter_mut().zip(state.out_credits) {
        if let (Some(counters), Some(available)) = (live.as_mut(), restored) {
            for (counter, avail) in counters.iter_mut().zip(available) {
                *counter = CreditCounter::from_parts(avail, slots);
            }
        }
    }
    router.out_vc_owner = state.out_vc_owner;
    router.rr = state.rr;
    router.link_free_at = state.link_free_at;
    router.sync_occupancy();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_telemetry::SharedRecorder;

    fn build(k: u64, seed: u64) -> CmeshNetwork {
        CmeshBuilder::new()
            .config(CmeshConfig::bandwidth_reduced(k))
            .seed(seed)
            .build(BenchmarkPair::test_pairs()[0])
    }

    fn assert_resume_identical(make: impl Fn() -> CmeshNetwork, n: u64, m: u64) {
        let mut golden = make();
        golden.run(n + m);

        let mut first = make();
        first.run(n);
        let checkpoint = first.snapshot();
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
        assert_eq!(a.avg_power_w.to_bits(), b.avg_power_w.to_bits());
        assert_eq!(a.avg_latency_cpu.to_bits(), b.avg_latency_cpu.to_bits());
    }

    #[test]
    fn resume_bit_identical_baseline() {
        assert_resume_identical(|| build(1, 7), 6_000, 5_000);
    }

    #[test]
    fn resume_bit_identical_bandwidth_reduced() {
        // Narrow links keep flits serializing across the kill point, so
        // link_free_at pacing state must survive the round trip.
        assert_resume_identical(|| build(2, 11), 6_000, 4_000);
        assert_resume_identical(|| build(4, 13), 5_000, 5_000);
    }

    #[test]
    fn resume_mid_congestion_with_live_wormholes() {
        // An early kill point lands while wormholes straddle routers
        // (inject streams, partial ejections and link flits all live).
        assert_resume_identical(|| build(1, 17), 137, 863);
    }

    #[test]
    fn trace_jsonl_is_bit_identical_across_resume() {
        let make = || build(4, 19);
        let (n, m) = (8_000u64, 6_000u64);

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
        assert_eq!(golden_buf, split_buf, "trace JSONL diverged across the resume");
    }

    #[test]
    fn fingerprint_mismatch_is_rejected_before_any_mutation() {
        let mut donor = build(1, 23);
        donor.run(1_000);
        let cp = donor.snapshot();
        let mut other = build(1, 24);
        let before = other.state_hash();
        assert!(matches!(other.restore(&cp), Err(SnapshotError::FingerprintMismatch { .. })));
        assert_eq!(other.state_hash(), before, "failed restore must not mutate");
        let mut other = build(2, 23);
        assert!(matches!(other.restore(&cp), Err(SnapshotError::FingerprintMismatch { .. })));
    }

    /// The named field of a JSON object, for corrupting a checkpoint.
    fn field_mut<'a>(v: &'a mut JsonValue, name: &str) -> &'a mut JsonValue {
        let JsonValue::Obj(fields) = v else { panic!("{name}: parent is not an object") };
        &mut fields.iter_mut().find(|(key, _)| key == name).expect(name).1
    }

    #[test]
    fn unordered_links_and_stray_pointers_are_rejected_before_any_mutation() {
        let mut donor = build(1, 23);
        donor.run(1_000);
        let reject = |cp: &Checkpoint, expected: &str| {
            let mut twin = build(1, 23);
            let before = twin.state_hash();
            match twin.restore(cp) {
                Err(SnapshotError::BadShape { context }) => assert_eq!(context, expected),
                other => panic!("expected a {expected} shape error, got {other:?}"),
            }
            assert_eq!(twin.state_hash(), before, "failed restore must not mutate");
        };

        // Two link flits due on different cycles, swapped: the queue is
        // no longer in launch order.
        let mut cp = donor.snapshot();
        let JsonValue::Arr(links) = field_mut(&mut cp.state, "links") else {
            panic!("links is an array")
        };
        let due = |item: &JsonValue| match item {
            JsonValue::Arr(parts) => u64_from_json(&parts[0], "links").unwrap(),
            _ => panic!("link entry is an array"),
        };
        let later = (1..links.len())
            .find(|&j| due(&links[j]) != due(&links[0]))
            .expect("links due on two different cycles");
        links.swap(0, later);
        reject(&cp, "links");

        // A round-robin pointer past the last of the 5 x 4 (port, VC) slots.
        let mut cp = donor.snapshot();
        let JsonValue::Arr(routers) = field_mut(&mut cp.state, "routers") else {
            panic!("routers is an array")
        };
        *field_mut(&mut routers[0], "rr") = JsonValue::Arr(vec![usize_to_json(20); 5]);
        reject(&cp, "rr");
    }

    #[test]
    fn pearl_checkpoints_are_rejected_by_kind() {
        let mut donor = build(1, 29);
        donor.run(500);
        let mut cp = donor.snapshot();
        cp.kind = "pearl".to_string();
        let mut twin = build(1, 29);
        assert!(matches!(twin.restore(&cp), Err(SnapshotError::KindMismatch { .. })));
    }

    #[test]
    fn repeated_checkpoint_restore_is_stable() {
        let mut net = build(1, 31);
        net.run(2_500);
        let cp1 = net.snapshot();
        let mut twin = build(1, 31);
        twin.restore(&cp1).unwrap();
        let cp2 = twin.snapshot();
        assert_eq!(cp1, cp2);
        assert_eq!(cp1.state.to_string(), cp2.state.to_string());
    }
}
