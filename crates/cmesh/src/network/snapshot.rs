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
//! fingerprint over the builder inputs. Every piece of state encodes
//! through [`Codec`] (DESIGN §4b). The span tracker is observer state:
//! a checkpoint carries it, but the state hash writes it as `null`, as
//! a bare run does.
//!
//! The live network names packets by packet-slab index, but a checkpoint
//! keeps the layout of the per-flit design it replaced: each head flit
//! carries its packet, every flit names its packet by id, and a packet
//! whose head has ejected sits in `partial_eject`. Export rebuilds that
//! layout from the slots; restore interns every payload into a new slab
//! and resolves each flit, owner and inflow id against it.

use super::*;
use pearl_noc::{Flit, StatsState, VcState};
use pearl_telemetry::snapshot::get;
use pearl_telemetry::{
    codec_array, codec_enum, codec_object, fingerprint, Checkpoint, Codec, JsonValue, SnapshotError,
};
use pearl_workloads::TrafficState;

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
        let state = self.state(true);
        Checkpoint::new(CMESH_SNAPSHOT_KIND, self.config_fingerprint(), self.now.as_u64(), state)
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
        let slab = &self.packets;
        let routers: Vec<_> = self.routers.iter().map(|r| RouterState::export(r, slab)).collect();
        let inject_current: Vec<Vec<_>> = self
            .streams
            .iter()
            .map(|streams| streams.iter().map(|s| InjectState::export(s, slab)).collect())
            .collect();
        // Sorted by packet id: the order of the map this section once was.
        let partial_eject: Vec<Vec<_>> = self
            .partial_eject
            .iter()
            .map(|held| {
                let mut entries: Vec<_> =
                    held.iter().map(|&pkt| (slab.get(pkt).id, slab.get(pkt).clone())).collect();
                entries.sort_unstable_by_key(|&(id, _)| id);
                entries
            })
            .collect();
        let links: Vec<_> = self.links.iter().map(|lf| LinkFlit::export(lf, slab)).collect();
        let spans = self.span_tracker.as_ref().filter(|_| observers);
        JsonValue::obj(vec![
            ("now", self.now.encode()),
            ("next_packet_id", self.next_packet_id.encode()),
            ("traffic", self.traffic.export_state().encode()),
            ("stats", self.stats.export_state().encode()),
            ("routers", routers.encode()),
            ("backlogs", self.backlogs.encode()),
            ("outstanding", self.outstanding.encode()),
            ("pending_responses", self.pending_responses.encode()),
            ("inject_current", inject_current.encode()),
            ("partial_eject", partial_eject.encode()),
            ("links", links.encode()),
            ("spans", spans.map_or(JsonValue::Null, CmeshSpanTracker::encode)),
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
    /// index out of range, or wormhole the live network could not carry
    /// on: a flit whose packet has no payload, two payloads for one
    /// packet, a payload without its tail, a VC over capacity, or an
    /// injection stream that is not the rest of one packet streaming
    /// into a VC of its own.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SnapshotError> {
        checkpoint.validate(CMESH_SNAPSHOT_KIND, self.config_fingerprint())?;
        let v = &checkpoint.state;
        let n = self.config.clusters();
        let vcs = self.config.vcs_per_port;

        // ---- parse phase: nothing is mutated until every fallible ----
        // ---- decode and check has succeeded.                       ----
        let now: Cycle = get(v, "now")?;
        let next_packet_id: u64 = get(v, "next_packet_id")?;
        let traffic: TrafficState = get(v, "traffic")?;
        let stats: StatsState = get(v, "stats")?;
        let routers: Vec<RouterState> = get(v, "routers")?;
        let backlogs: Vec<[VecDeque<Packet>; 2]> = get(v, "backlogs")?;
        let outstanding: Vec<[u32; 2]> = get(v, "outstanding")?;
        let pending_responses: Vec<VecDeque<(Cycle, Packet)>> = get(v, "pending_responses")?;
        let inject_current: Vec<Vec<InjectState>> = get(v, "inject_current")?;
        let partial_eject: Vec<Vec<(u64, Packet)>> = get(v, "partial_eject")?;
        let links: Vec<LinkFlit> = get(v, "links")?;
        // Span-tracker state is optional (absent in pre-span checkpoints).
        let span_tracker: Option<CmeshSpanTracker> =
            v.get("spans").map_or(Ok(None), |s| Codec::decode(s, "spans"))?;

        let lengths = [
            ("routers", routers.len(), self.routers.len()),
            ("backlogs", backlogs.len(), n),
            ("outstanding", outstanding.len(), n),
            ("pending_responses", pending_responses.len(), n),
            ("inject_current", inject_current.len(), n),
            ("partial_eject", partial_eject.len(), n),
        ];
        if let Some(&(context, ..)) = lengths.iter().find(|(_, found, live)| found != live) {
            return Err(SnapshotError::BadShape { context });
        }
        if now.as_u64() != checkpoint.cycle {
            return Err(SnapshotError::BadShape { context: "now" });
        }
        for (state, router) in routers.iter().zip(&self.routers) {
            state.check(router, vcs)?;
        }
        if inject_current.iter().flatten().any(|s| s.vc >= vcs || s.flits.is_empty()) {
            return Err(SnapshotError::BadShape { context: "inject_current" });
        }
        // Link flits land from the front of a launch-ordered queue, which
        // is only correct while `deliver_at` never decreases along it. A
        // link ends on the mesh input of an existing neighbour.
        let stray = |lf: &LinkFlit| {
            let lands = |dir| self.routers[lf.dst].credits.has_neighbor(dir);
            lf.dst >= self.routers.len()
                || lf.vc >= vcs
                || !matches!(lf.port, Port::Mesh(dir) if lands(dir))
        };
        let unordered =
            links.iter().zip(links.iter().skip(1)).any(|(a, b)| b.deliver_at < a.deliver_at);
        if links.iter().any(stray) || unordered {
            return Err(SnapshotError::BadShape { context: "links" });
        }

        // Every payload first: head flits wherever they are, then the
        // packets whose head has ejected.
        let mut slab = Interned::default();
        let heads = routers
            .iter()
            .flat_map(|r| r.inputs.iter().flatten().flat_map(|vc| &vc.flits))
            .chain(links.iter().map(|lf| &lf.flit))
            .chain(inject_current.iter().flatten().flat_map(|s| &s.flits));
        for flit in heads {
            slab.intern_head(flit)?;
        }
        for &(id, ref packet) in partial_eject.iter().flatten() {
            if id != packet.id {
                return Err(SnapshotError::BadShape { context: "partial_eject" });
            }
            slab.intern(packet)?;
        }
        // Then every flit, owner and inflow resolves to its packet.
        let staged_routers = routers
            .iter()
            .zip(&self.routers)
            .map(|(state, live)| state.stage(live, &mut slab))
            .collect::<Result<Vec<_>, _>>()?;
        let staged_links = links
            .iter()
            .map(|lf| {
                let flit = slab.resolve(&lf.flit, "links")?;
                Ok(LinkSlot {
                    deliver_at: lf.deliver_at,
                    dst: lf.dst,
                    port: lf.port,
                    vc: lf.vc,
                    flit,
                })
            })
            .collect::<Result<VecDeque<_>, SnapshotError>>()?;
        let streams = inject_current
            .iter()
            .zip(&staged_routers)
            .map(|(states, router)| InjectState::stage_all(states, router, &mut slab))
            .collect::<Result<Vec<_>, _>>()?;
        let partial: Vec<Vec<u32>> = partial_eject
            .iter()
            .map(|entries| entries.iter().map(|(id, _)| slab.by_id[id]).collect())
            .collect();
        let packets = slab.finish()?;

        // ---- apply phase ----
        self.traffic
            .import_state(&traffic)
            .map_err(|_| SnapshotError::BadShape { context: "traffic" })?;
        self.now = now;
        self.next_packet_id = next_packet_id;
        self.stats.import_state(&stats);
        self.routers = staged_routers;
        self.backlogs = backlogs;
        self.outstanding = outstanding;
        self.pending_responses = pending_responses;
        self.packets = packets;
        self.streams = streams;
        self.partial_eject = partial;
        self.links = staged_links;
        self.span_tracker = self.tracks_spans_for_probe().then(|| span_tracker.unwrap_or_default());
        Ok(())
    }
}

/// Decoded dynamic state of one [`CmeshRouter`] in the checkpoint's
/// layout, staged between the parse and apply phases.
struct RouterState {
    inputs: Vec<Vec<VcState>>,
    out_credits: Vec<Option<Vec<u32>>>,
    out_vc_owner: Vec<Vec<Option<u64>>>,
    rr: Vec<usize>,
    link_free_at: [u64; 4],
}

impl RouterState {
    fn export(router: &CmeshRouter, slab: &PacketSlab) -> RouterState {
        let vcs = router.vcs();
        let vc_state = |port, vc| {
            let ch = router.channel(port, vc);
            VcState {
                flits: router.inputs.flits(ch).map(|flit| slab.flit(flit)).collect(),
                inflow: router.inputs.inflow(ch).map(|pkt| slab.get(pkt).id),
                route: router.inputs.route(ch),
            }
        };
        let credits = |dir| {
            let available = (0..vcs).map(|vc| u32::from(router.credits.available(dir, vc)));
            router.credits.has_neighbor(dir).then(|| available.collect())
        };
        let owners = |dir| {
            (0..vcs).map(|vc| router.out_vc_owner(dir, vc).map(|pkt| slab.get(pkt).id)).collect()
        };
        RouterState {
            inputs: Port::ALL.map(|port| (0..vcs).map(|vc| vc_state(port, vc)).collect()).to_vec(),
            out_credits: Direction::ALL.map(credits).to_vec(),
            out_vc_owner: Direction::ALL.map(owners).to_vec(),
            rr: router.rr.to_vec(),
            link_free_at: router.link_free_at,
        }
    }

    fn check(&self, live: &CmeshRouter, vcs: usize) -> Result<(), SnapshotError> {
        let ports = Port::ALL.len();
        if self.inputs.len() != ports || self.inputs.iter().any(|port| port.len() != vcs) {
            return Err(SnapshotError::BadShape { context: "inputs" });
        }
        // An output with a neighbor has `vcs` credit counters; an edge
        // output has none, in the checkpoint and the live router alike.
        let credits_fit = self.out_credits.len() == Direction::ALL.len()
            && self.out_credits.iter().zip(Direction::ALL).all(|(saved, dir)| {
                saved.as_ref().map(Vec::len) == live.credits.has_neighbor(dir).then_some(vcs)
            });
        if !credits_fit {
            return Err(SnapshotError::BadShape { context: "out_credits" });
        }
        if self.out_vc_owner.len() != 4 || self.out_vc_owner.iter().any(|o| o.len() != vcs) {
            return Err(SnapshotError::BadShape { context: "out_vc_owner" });
        }
        // The switch allocator's rotation relies on pointers below the
        // number of (port, VC) slots.
        if self.rr.len() != ports || self.rr.iter().any(|&p| p >= ports * vcs) {
            return Err(SnapshotError::BadShape { context: "rr" });
        }
        Ok(())
    }

    /// The live router this state describes, its flits, inflows and
    /// owners resolved against the interned packets. A VC may hold at
    /// most its capacity, a route names an output port, an edge input
    /// (which has no upstream to return credits to) holds nothing, and
    /// credits stay within a VC's capacity.
    fn stage(&self, live: &CmeshRouter, slab: &mut Interned) -> Result<CmeshRouter, SnapshotError> {
        let bad = |context| SnapshotError::BadShape { context };
        let mut router = live.clone();
        let capacity = router.inputs.capacity();
        for (port, states) in Port::ALL.into_iter().zip(&self.inputs) {
            let edge = matches!(port, Port::Mesh(dir) if !live.credits.has_neighbor(dir));
            for (vc, state) in states.iter().enumerate() {
                let misrouted = state.route.is_some_and(|out| out >= Port::ALL.len());
                if state.flits.len() > capacity || misrouted || edge && !state.flits.is_empty() {
                    return Err(bad("inputs"));
                }
                let flits = state
                    .flits
                    .iter()
                    .map(|flit| slab.resolve(flit, "inputs"))
                    .collect::<Result<Vec<_>, _>>()?;
                let inflow = state.inflow.map(|id| slab.handle(id)).transpose()?;
                router.inputs.load(router.channel(port, vc), &flits, inflow, state.route);
            }
        }
        for (dir, saved) in Direction::ALL.into_iter().zip(&self.out_credits) {
            for (vc, &available) in saved.iter().flatten().enumerate() {
                let available = u16::try_from(available)
                    .ok()
                    .filter(|&a| usize::from(a) <= capacity)
                    .ok_or(bad("out_credits"))?;
                router.credits.set(dir, vc, available);
            }
        }
        for (dir, owners) in Direction::ALL.into_iter().zip(&self.out_vc_owner) {
            for (vc, owner) in owners.iter().enumerate() {
                let owner = owner.map(|id| slab.handle(id)).transpose()?;
                router.set_out_vc_owner(dir, vc, owner);
            }
        }
        router.rr.copy_from_slice(&self.rr);
        router.link_free_at = self.link_free_at;
        Ok(router)
    }
}

/// An injection stream as a checkpoint writes it: its local VC and the
/// flits still to go.
struct InjectState {
    vc: usize,
    flits: Vec<Flit>,
}

impl InjectState {
    fn export(stream: &InjectStream, slab: &PacketSlab) -> InjectState {
        let flit = |next| slab.flit(InjectStream { next, ..*stream }.flit());
        InjectState { vc: stream.vc, flits: (stream.next..stream.n).map(flit).collect() }
    }

    /// One cluster's streams, checked against its staged router. Each
    /// must be the rest of one packet, consecutive flits up to its tail,
    /// on a local VC no other stream holds, whose inflow is that packet
    /// once its head has entered and none before.
    fn stage_all(
        states: &[InjectState],
        router: &CmeshRouter,
        slab: &mut Interned,
    ) -> Result<Vec<InjectStream>, SnapshotError> {
        let bad = || SnapshotError::BadShape { context: "inject_current" };
        let mut claimed = 0u64;
        states
            .iter()
            .map(|state| {
                let flits = state
                    .flits
                    .iter()
                    .map(|flit| slab.resolve(flit, "inject_current"))
                    .collect::<Result<Vec<_>, _>>()?;
                let (first, last) = (flits[0], flits[flits.len() - 1]);
                let consecutive = flits
                    .iter()
                    .zip(first.index..)
                    .all(|(f, index)| f.pkt == first.pkt && f.index == index);
                let inflow = router.inputs.inflow(router.channel(Port::Local, state.vc));
                let own_vc = claimed & 1 << state.vc == 0
                    && inflow == (first.index > 0).then_some(first.pkt);
                if !consecutive || !last.kind.is_tail() || !own_vc {
                    return Err(bad());
                }
                claimed |= 1 << state.vc;
                Ok(InjectStream {
                    vc: state.vc,
                    pkt: first.pkt,
                    next: first.index,
                    n: last.index + 1,
                })
            })
            .collect()
    }
}

/// A link flit as a checkpoint writes it.
struct LinkFlit {
    deliver_at: Cycle,
    dst: usize,
    port: Port,
    vc: usize,
    flit: Flit,
}

impl LinkFlit {
    fn export(lf: &LinkSlot, slab: &PacketSlab) -> LinkFlit {
        let LinkSlot { deliver_at, dst, port, vc, flit } = *lf;
        LinkFlit { deliver_at, dst, port, vc, flit: slab.flit(flit) }
    }
}

impl PacketSlab {
    /// The checkpoint form of a flit slot: the head carries its packet.
    fn flit(&self, slot: FlitSlot) -> Flit {
        let packet = self.get(slot.pkt);
        Flit {
            packet_id: packet.id,
            kind: slot.kind,
            index: u32::from(slot.index),
            packet: slot.kind.is_head().then(|| packet.clone()),
        }
    }
}

/// The packets of a checkpoint being restored, in the order restore
/// meets their payloads; each becomes the slab entry of its index.
#[derive(Default)]
struct Interned {
    packets: Vec<Packet>,
    by_id: HashMap<u64, u32>,
    /// Whether each packet's tail flit has been met.
    tails: Vec<bool>,
}

impl Interned {
    /// Interns a payload; a second payload for one id is refused.
    fn intern(&mut self, packet: &Packet) -> Result<(), SnapshotError> {
        let bad = || SnapshotError::BadShape { context: "packets" };
        let pkt = u32::try_from(self.packets.len()).map_err(|_| bad())?;
        if self.by_id.insert(packet.id, pkt).is_some() {
            return Err(bad());
        }
        self.packets.push(packet.clone());
        self.tails.push(false);
        Ok(())
    }

    /// Interns the payload of a head flit. A flit carries a payload
    /// exactly when it is a head, and that payload's id is the flit's.
    fn intern_head(&mut self, flit: &Flit) -> Result<(), SnapshotError> {
        match &flit.packet {
            Some(packet) if flit.kind.is_head() && packet.id == flit.packet_id => {
                self.intern(packet)
            }
            None if !flit.kind.is_head() => Ok(()),
            _ => Err(SnapshotError::BadShape { context: "packets" }),
        }
    }

    /// The slab index of packet `id`, which must have a payload.
    fn handle(&self, id: u64) -> Result<u32, SnapshotError> {
        self.by_id.get(&id).copied().ok_or(SnapshotError::BadShape { context: "packets" })
    }

    /// The slot of `flit`. Its packet must have a payload, its index and
    /// kind must fit that packet's length, and each packet has one tail.
    fn resolve(&mut self, flit: &Flit, context: &'static str) -> Result<FlitSlot, SnapshotError> {
        let pkt = self.handle(flit.packet_id)?;
        let n = self.packets[pkt as usize].flits();
        let index = u16::try_from(flit.index)
            .ok()
            .filter(|_| flit.index < n && flit.kind == FlitKind::of(flit.index, n))
            .ok_or(SnapshotError::BadShape { context })?;
        if flit.kind.is_tail() && std::mem::replace(&mut self.tails[pkt as usize], true) {
            return Err(SnapshotError::BadShape { context: "packets" });
        }
        Ok(FlitSlot { pkt, index, kind: flit.kind })
    }

    /// The packet slab, once every packet's tail has been met: a payload
    /// whose tail is nowhere would never leave it.
    fn finish(self) -> Result<PacketSlab, SnapshotError> {
        if self.tails.contains(&false) {
            return Err(SnapshotError::BadShape { context: "packets" });
        }
        Ok(PacketSlab { packets: self.packets, free: Vec::new() })
    }
}

codec_enum!(Port);
codec_array! {
    InjectState [vc, flits];
    LinkFlit [deliver_at, dst, port, vc, flit];
}
codec_object! {
    RouterState { inputs, out_credits, out_vc_owner, rr, link_free_at };
    CmeshSpanTracker { vc_wait, stream_start, stalls, tail_in, head_eject, parent };
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_telemetry::{Recorder, Shared};

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

        let golden_rec = Shared::new(Recorder::new());
        let mut golden = make();
        golden.attach_probe(Box::new(golden_rec.clone()));
        golden.run(n + m);

        let pre_rec = Shared::new(Recorder::new());
        let mut first = make();
        first.attach_probe(Box::new(pre_rec.clone()));
        first.run(n);
        let cp = first.snapshot();

        let post_rec = Shared::new(Recorder::new());
        let mut resumed = make();
        resumed.attach_probe(Box::new(post_rec.clone()));
        resumed.restore(&cp).unwrap();
        resumed.run(m);

        let mut golden_buf = Vec::new();
        golden_rec
            .with(|r| pearl_telemetry::jsonl::write_trace(&mut golden_buf, r.events()))
            .unwrap();
        let mut split_events = pre_rec.with(|r| r.events().to_vec());
        post_rec.with(|r| split_events.extend_from_slice(r.events()));
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
            JsonValue::Arr(parts) => u64::decode(&parts[0], "links").unwrap(),
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
        *field_mut(&mut routers[0], "rr") = [20usize; 5].encode();
        reject(&cp, "rr");
    }

    #[test]
    fn inconsistent_wormholes_are_rejected_before_any_mutation() {
        // A donor caught with parallel streams at a wide L3 port, a
        // stream of three flits or more and a half-ejected packet.
        let mut donor = build(1, 23);
        donor.run(1_000);
        while !(donor.streams.iter().any(|s| s.len() >= 2)
            && donor.streams.iter().flatten().any(|s| s.n - s.next >= 3)
            && donor.partial_eject.iter().any(|p| !p.is_empty()))
        {
            donor.step();
            assert!(donor.now.as_u64() < 20_000, "no cycle shows every wormhole shape");
        }
        let reject = |cp: &Checkpoint, expected: &str| {
            let mut twin = build(1, 23);
            let before = twin.state_hash();
            match twin.restore(cp) {
                Err(SnapshotError::BadShape { context }) => assert_eq!(context, expected),
                other => panic!("expected a {expected} shape error, got {other:?}"),
            }
            assert_eq!(twin.state_hash(), before, "failed restore must not mutate");
        };
        // The donor's checkpoint with one section decoded, edited and
        // written back.
        fn edited<T: Codec>(
            donor: &CmeshNetwork,
            section: &str,
            edit: impl Fn(&mut T),
        ) -> Checkpoint {
            let mut cp = donor.snapshot();
            let field = field_mut(&mut cp.state, section);
            let mut value = T::decode(field, "test").unwrap();
            edit(&mut value);
            *field = value.encode();
            cp
        }

        // Two injection streams on one local VC.
        let cp = edited(&donor, "inject_current", |streams: &mut Vec<Vec<InjectState>>| {
            let parallel = streams.iter_mut().find(|s| s.len() >= 2).unwrap();
            parallel[1].vc = parallel[0].vc;
        });
        reject(&cp, "inject_current");

        // A stream missing a middle flit, and one missing its tail.
        for drop in [1, usize::MAX] {
            let cp = edited(&donor, "inject_current", |streams: &mut Vec<Vec<InjectState>>| {
                let long = streams.iter_mut().flatten().find(|s| s.flits.len() >= 3).unwrap();
                long.flits.remove(drop.min(long.flits.len() - 1));
            });
            reject(&cp, "inject_current");
        }

        // A half-ejected packet's payload gone while its tail is still
        // in the mesh, and the same payload held at two routers.
        let cp = edited(&donor, "partial_eject", |partial: &mut Vec<Vec<(u64, Packet)>>| {
            partial.iter_mut().find(|p| !p.is_empty()).unwrap().remove(0);
        });
        reject(&cp, "packets");
        let cp = edited(&donor, "partial_eject", |partial: &mut Vec<Vec<(u64, Packet)>>| {
            let i = partial.iter().position(|p| !p.is_empty()).unwrap();
            let entry = partial[i][0].clone();
            partial[(i + 1) % 16].push(entry);
        });
        reject(&cp, "packets");

        // A flit naming a packet whose payload is nowhere.
        let cp = edited(&donor, "routers", |routers: &mut Vec<RouterState>| {
            let flits = routers.iter_mut().flat_map(|r| r.inputs.iter_mut().flatten());
            let flit = flits.flat_map(|vc| &mut vc.flits).find(|f| !f.kind.is_head()).unwrap();
            flit.packet_id = u64::MAX;
        });
        reject(&cp, "packets");

        // A VC holding one flit more than its 4 slots.
        let cp = edited(&donor, "routers", |routers: &mut Vec<RouterState>| {
            let mut vcs = routers.iter_mut().flat_map(|r| r.inputs.iter_mut().flatten());
            let vc = vcs.find(|vc| !vc.flits.is_empty()).unwrap();
            while vc.flits.len() <= 4 {
                vc.flits.push(vc.flits[0].clone());
            }
        });
        reject(&cp, "inputs");

        // The unedited checkpoint restores.
        build(1, 23).restore(&donor.snapshot()).unwrap();
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

    /// The network behind the pinned checkpoint `name`, with the span
    /// recorder the pin was taken with attached, and the cycles it runs
    /// before the snapshot. A restoring twin is built the same way.
    fn pinned(name: &str) -> (CmeshNetwork, u64) {
        let (mut net, cycles) = match name {
            "mid_congestion" => (build(1, 17), 137),
            "bandwidth_reduced" => (build(2, 11), 6_000),
            "quarter_bandwidth" => (build(4, 19), 8_000),
            "spans" => {
                let net = CmeshBuilder::new()
                    .config(CmeshConfig::pearl_baseline())
                    .seed(7)
                    .build(BenchmarkPair::test_pairs()[10]);
                (net, 3_000)
            }
            other => panic!("unknown pin {other}"),
        };
        if matches!(name, "spans" | "quarter_bandwidth") {
            net.attach_probe(Box::new(Recorder::with_spans()));
        }
        (net, cycles)
    }

    /// Byte length and FNV-1a of `snapshot().to_json().to_string()` for
    /// each pinned checkpoint, generated before the codec was rewritten.
    /// The golden ladder hashes no span tracker; these pins also cover
    /// live wormholes and span bookkeeping.
    #[rustfmt::skip]
    const PINS: [(&str, usize, u64); 4] = [
        ("mid_congestion", 24_631, 0x8dcc2664fe3f428f),
        ("bandwidth_reduced", 48_726, 0xc5b615047833d35b),
        ("quarter_bandwidth", 95_695, 0xe71b0d7f265b9acb),
        ("spans", 24_392, 0xd08fb4c4956ad28f),
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
        const SECTIONS: [(&str, &[&str]); 10] = [
            ("links", &["links"]),
            ("partial_eject", &["partial_eject"]),
            ("inject_current", &["inject_current"]),
            ("backlogs", &["backlogs"]),
            ("pending_responses", &["pending_responses"]),
            ("spans.vc_wait", &["spans", "vc_wait"]),
            ("spans.stream_start", &["spans", "stream_start"]),
            ("spans.tail_in", &["spans", "tail_in"]),
            ("spans.head_eject", &["spans", "head_eject"]),
            ("spans.parent", &["spans", "parent"]),
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
