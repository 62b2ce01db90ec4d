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

use super::*;
use pearl_noc::{CreditCounter, StatsState, VcState, VirtualChannel};
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
        let routers: Vec<_> = self.routers.iter().map(RouterState::export).collect();
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
            ("inject_current", self.inject_current.encode()),
            ("partial_eject", self.partial_eject.encode()),
            ("links", self.links.encode()),
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
    /// [`SnapshotError::BadShape`] on any structural decode mismatch or
    /// index out of range.
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
        let partial_eject: Vec<HashMap<u64, Packet>> = get(v, "partial_eject")?;
        let links: VecDeque<LinkFlit> = get(v, "links")?;
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
        // is only correct while `deliver_at` never decreases along it.
        let stray = |lf: &LinkFlit| lf.dst >= self.routers.len() || lf.vc >= vcs;
        let unordered =
            links.iter().zip(links.iter().skip(1)).any(|(a, b)| b.deliver_at < a.deliver_at);
        if links.iter().any(stray) || unordered {
            return Err(SnapshotError::BadShape { context: "links" });
        }

        // ---- apply phase ----
        self.traffic
            .import_state(&traffic)
            .map_err(|_| SnapshotError::BadShape { context: "traffic" })?;
        self.now = now;
        self.next_packet_id = next_packet_id;
        self.stats.import_state(&stats);
        for (router, state) in self.routers.iter_mut().zip(routers) {
            state.apply(router, self.config.slots_per_vc as u32);
        }
        self.backlogs = backlogs;
        self.outstanding = outstanding;
        self.pending_responses = pending_responses;
        self.inject_current = inject_current;
        self.partial_eject = partial_eject;
        self.links = links;
        self.span_tracker = self.tracks_spans_for_probe().then(|| span_tracker.unwrap_or_default());
        Ok(())
    }
}

/// Fully decoded dynamic state of one [`CmeshRouter`], staged between
/// the parse and apply phases.
struct RouterState {
    inputs: Vec<Vec<VcState>>,
    out_credits: Vec<Option<Vec<u32>>>,
    out_vc_owner: Vec<Vec<Option<u64>>>,
    rr: Vec<usize>,
    link_free_at: [u64; 4],
}

impl RouterState {
    fn export(router: &CmeshRouter) -> RouterState {
        let credits = |c: &Vec<CreditCounter>| c.iter().map(CreditCounter::available).collect();
        RouterState {
            inputs: router
                .inputs
                .iter()
                .map(|port| port.iter().map(VirtualChannel::export_state).collect())
                .collect(),
            out_credits: router.out_credits.iter().map(|c| c.as_ref().map(credits)).collect(),
            out_vc_owner: router.out_vc_owner.clone(),
            rr: router.rr.clone(),
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
        let credits_fit = self.out_credits.len() == live.out_credits.len()
            && self.out_credits.iter().zip(&live.out_credits).all(|(saved, counters)| {
                saved.as_ref().map(Vec::len) == counters.as_ref().map(|_| vcs)
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

    fn apply(self, router: &mut CmeshRouter, slots: u32) {
        for (port, states) in router.inputs.iter_mut().zip(&self.inputs) {
            for (channel, vc_state) in port.iter_mut().zip(states) {
                channel.import_state(vc_state);
            }
        }
        for (live, restored) in router.out_credits.iter_mut().zip(self.out_credits) {
            if let (Some(counters), Some(available)) = (live.as_mut(), restored) {
                for (counter, avail) in counters.iter_mut().zip(available) {
                    *counter = CreditCounter::from_parts(avail, slots);
                }
            }
        }
        router.out_vc_owner = self.out_vc_owner;
        router.rr = self.rr;
        router.link_free_at = self.link_free_at;
        router.sync_occupancy();
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
