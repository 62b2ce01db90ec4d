//! The CMESH network simulator.
//!
//! Wormhole switching over a 4×4 mesh with XY routing and credit-based
//! virtual-channel flow control. The endpoint model (issue backlogs,
//! MSHR-style outstanding windows, execution gating, request/response
//! service) is the same closed loop as the PEARL simulator's, so
//! differences in results isolate the interconnect.

use crate::config::CmeshConfig;
use crate::power::ElectricalPowerModel;
use crate::router::CmeshRouter;
use crate::routing::{neighbor, xy_route, Direction, Port};
use crate::vc::FlitSlot;
use pearl_noc::{CoreType, Cycle, FlitKind, Grid, NetworkStats, NodeId, Packet, PacketKind};
use pearl_telemetry::{
    set_alloc_section, Checkpoint, JsonValue, Phase, Probe, ProfileReport, Section, SelfProfiler,
    Simulator, SnapshotError, Span, SpanKind, SubSection, TraceEvent, Watchable, WorkCounters,
};
use pearl_workloads::{BenchmarkPair, Destination, InjectionRequest, TrafficModel, TrafficSource};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

pub mod snapshot;

/// Result summary of one CMESH run (subset of PEARL's `RunSummary`
/// fields, since there is no laser).
#[derive(Debug, Clone)]
pub struct CmeshSummary {
    /// Simulated cycles.
    pub cycles: u64,
    /// Total packets delivered.
    pub delivered_packets: u64,
    /// Total flits delivered.
    pub delivered_flits: u64,
    /// Total bits delivered.
    pub delivered_bits: u64,
    /// Network throughput (flits/cycle).
    pub throughput_flits_per_cycle: f64,
    /// Mean CPU packet latency (cycles).
    pub avg_latency_cpu: f64,
    /// Mean GPU packet latency (cycles).
    pub avg_latency_gpu: f64,
    /// Average total electrical power (W).
    pub avg_power_w: f64,
    /// Energy per delivered bit (J/bit).
    pub energy_per_bit_j: f64,
    /// Injection stalls.
    pub injection_stalls: u64,
}

/// Builder for [`CmeshNetwork`].
#[derive(Debug, Clone)]
pub struct CmeshBuilder {
    config: CmeshConfig,
    power: ElectricalPowerModel,
    seed: u64,
}

impl CmeshBuilder {
    /// Starts from the paper's baseline configuration.
    pub fn new() -> CmeshBuilder {
        CmeshBuilder {
            config: CmeshConfig::pearl_baseline(),
            power: ElectricalPowerModel::cmesh_28nm(),
            seed: 0,
        }
    }

    /// Overrides the configuration.
    pub fn config(mut self, config: CmeshConfig) -> CmeshBuilder {
        self.config = config;
        self
    }

    /// Overrides the energy model.
    pub fn power(mut self, power: ElectricalPowerModel) -> CmeshBuilder {
        self.power = power;
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, seed: u64) -> CmeshBuilder {
        self.seed = seed;
        self
    }

    /// Builds the network for one benchmark pair.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn build(self, pair: BenchmarkPair) -> CmeshNetwork {
        let traffic = TrafficModel::new(pair, self.config.clusters(), self.seed);
        self.build_from_source(Box::new(traffic))
    }

    /// Builds the network around any traffic source.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation or the source's
    /// cluster count disagrees with it.
    pub fn build_from_source(self, traffic: Box<dyn TrafficSource>) -> CmeshNetwork {
        self.config.validate();
        assert_eq!(
            traffic.clusters(),
            self.config.clusters(),
            "traffic source drives {} clusters, config has {}",
            traffic.clusters(),
            self.config.clusters()
        );
        CmeshNetwork::from_parts(self.config, self.power, traffic, self.seed)
    }
}

impl Default for CmeshBuilder {
    fn default() -> Self {
        CmeshBuilder::new()
    }
}

/// The packets in the mesh, from the start of their injection stream to
/// the ejection of their tail. A flit names its packet by slab index
/// ([`FlitSlot::pkt`]), so only the small slots move through the mesh.
#[derive(Debug, Default)]
struct PacketSlab {
    packets: Vec<Packet>,
    /// Vacated indices, reused before the slab grows.
    free: Vec<u32>,
}

impl PacketSlab {
    /// Stores a packet and returns its index.
    fn insert(&mut self, packet: Packet) -> u32 {
        match self.free.pop() {
            Some(pkt) => {
                self.packets[pkt as usize] = packet;
                pkt
            }
            None => {
                self.packets.push(packet);
                u32::try_from(self.packets.len() - 1).expect("fewer than 2^32 packets in flight")
            }
        }
    }

    #[inline]
    fn get(&self, pkt: u32) -> &Packet {
        &self.packets[pkt as usize]
    }

    /// Takes the packet out; its index becomes free.
    fn remove(&mut self, pkt: u32) -> Packet {
        self.free.push(pkt);
        self.packets[pkt as usize].clone()
    }

    /// Packets held.
    fn len(&self) -> usize {
        self.packets.len() - self.free.len()
    }
}

/// A packet streaming its flits into a local input VC: flits `next..n`
/// of slab packet `pkt` are still to go, made one at a time.
#[derive(Debug, Clone, Copy)]
struct InjectStream {
    vc: usize,
    pkt: u32,
    next: u16,
    n: u16,
}

impl InjectStream {
    /// The stream's next flit.
    #[inline]
    fn flit(&self) -> FlitSlot {
        let kind = FlitKind::of(self.next.into(), self.n.into());
        FlitSlot { pkt: self.pkt, index: self.next, kind }
    }
}

/// A flit traversing an inter-router link (plus downstream pipeline).
/// Every link flit is due [`LINK_PIPELINE_CYCLES`] after its launch, so
/// the launch-ordered `links` queue is also ordered by `deliver_at`.
#[derive(Debug)]
struct LinkSlot {
    deliver_at: Cycle,
    dst: usize,
    port: Port,
    vc: usize,
    flit: FlitSlot,
}

/// Static mesh geometry, tabulated once at build so the per-cycle phases
/// look up what they would otherwise recompute from coordinates.
#[derive(Debug)]
struct Geometry {
    /// The router each mesh output of each router leads to.
    neighbors: Vec<[Option<usize>; 4]>,
    /// XY output port index from router `here` to `dst`, at
    /// `here * routers + dst`.
    routes: Vec<u8>,
    /// Local port width of each router in flits per cycle.
    local_width: Vec<usize>,
    /// The L3 slice nearer to each router (the first on a tie).
    nearest_l3: Vec<usize>,
    /// The (input port, VC) of each router input channel index.
    channels: Vec<(Port, usize)>,
}

impl Geometry {
    fn new(config: &CmeshConfig, grid: Grid) -> Geometry {
        let neighbors = grid
            .nodes()
            .map(|node| Direction::ALL.map(|dir| neighbor(grid, node, dir).map(NodeId::index)))
            .collect();
        let routes = grid
            .nodes()
            .flat_map(|here| grid.nodes().map(move |dst| xy_route(grid, here, dst).index() as u8))
            .collect();
        let local_width = grid
            .nodes()
            .map(|node| {
                if config.l3_nodes.contains(&node.index()) {
                    config.l3_local_width as usize
                } else {
                    1
                }
            })
            .collect();
        let [a, b] = config.l3_nodes;
        let nearest_l3 = grid
            .nodes()
            .map(
                |from| if grid.hops(from, NodeId(a)) <= grid.hops(from, NodeId(b)) { a } else { b },
            )
            .collect();
        let vcs = config.vcs_per_port;
        let channels =
            Port::ALL.iter().flat_map(|&port| (0..vcs).map(move |vc| (port, vc))).collect();
        Geometry { neighbors, routes, local_width, nearest_l3, channels }
    }
}

/// Extra cycles a flit spends between switch traversal and becoming
/// visible downstream: wire + the downstream router's pipeline stages
/// (the paper's router is a 3-stage pipeline).
const LINK_PIPELINE_CYCLES: u64 = 3;

/// Per-packet milestones behind causal span emission (see
/// [`CmeshNetwork::attach_probe`]). Purely derived observer state,
/// keyed by packet id so the packet slab and flit slots never grow;
/// checkpointed so span streams resume bit-identically, but never
/// hashed.
#[derive(Debug, Clone, Default)]
pub(crate) struct CmeshSpanTracker {
    /// Cycles a chosen packet failed to claim a free local VC.
    pub(crate) vc_wait: HashMap<u64, u64>,
    /// Cycle the packet claimed a VC and began streaming flits.
    pub(crate) stream_start: HashMap<u64, u64>,
    /// Cycles the stream sat credit-stalled on a full local VC.
    pub(crate) stalls: HashMap<u64, u64>,
    /// Cycle the tail flit entered the local VC (serialization done).
    pub(crate) tail_in: HashMap<u64, u64>,
    /// Cycle the head flit reached the destination's eject stage.
    pub(crate) head_eject: HashMap<u64, u64>,
    /// Response packet id → the request packet id that caused it.
    pub(crate) parent: HashMap<u64, u64>,
}

/// The CMESH simulator.
#[derive(Debug)]
pub struct CmeshNetwork {
    config: CmeshConfig,
    geometry: Geometry,
    routers: Vec<CmeshRouter>,
    power: ElectricalPowerModel,
    traffic: Box<dyn TrafficSource>,
    /// The traffic source's requests of the cycle being injected; empty
    /// between cycles and kept only for its capacity.
    requests: Vec<InjectionRequest>,
    /// Workload seed the network was built with — static identity for
    /// the checkpoint config fingerprint (the live RNG state lives in
    /// `traffic`).
    seed: u64,
    stats: NetworkStats,
    now: Cycle,
    next_packet_id: u64,
    backlogs: Vec<[VecDeque<Packet>; 2]>,
    outstanding: Vec<[u32; 2]>,
    pending_responses: Vec<VecDeque<(Cycle, Packet)>>,
    /// Every packet between its stream's start and its tail's ejection.
    packets: PacketSlab,
    /// Per cluster, the packets streaming into its local VCs.
    streams: Vec<Vec<InjectStream>>,
    /// Per router, the slab indices of packets whose head has ejected
    /// there and whose tail has not.
    partial_eject: Vec<Vec<u32>>,
    /// Flits on the links, in launch order (hence due order).
    links: VecDeque<LinkSlot>,
    /// Static energy of the whole mesh per cycle at this link width (J).
    static_energy_j: f64,
    /// Dynamic energy of one 128-bit flit's hop (J).
    hop_energy_j: f64,
    /// Dynamic energy of one 128-bit flit's ejection (J).
    eject_energy_j: f64,
    /// Telemetry sink (see [`CmeshNetwork::attach_probe`]); `None`
    /// while no live probe is attached.
    probe: Option<Box<dyn Probe>>,
    /// Span bookkeeping, present exactly while the probe wants spans.
    span_tracker: Option<CmeshSpanTracker>,
    /// Wall-clock self-profiler and the work counters it owns (see
    /// [`CmeshNetwork::enable_profiling`]). Observer state: never
    /// serialized, never hashed.
    profiler: Option<SelfProfiler>,
}

impl CmeshNetwork {
    fn from_parts(
        config: CmeshConfig,
        power: ElectricalPowerModel,
        traffic: Box<dyn TrafficSource>,
        seed: u64,
    ) -> CmeshNetwork {
        let grid = Grid::new(config.width, config.width);
        let geometry = Geometry::new(&config, grid);
        let routers = grid
            .nodes()
            .map(|node| {
                let has_neighbor = geometry.neighbors[node.index()].map(|n| n.is_some());
                CmeshRouter::new(node, config.vcs_per_port, config.slots_per_vc, has_neighbor)
            })
            .collect();
        let n = config.clusters();
        let cycle_seconds = 1.0 / config.network_clock().as_hz();
        CmeshNetwork {
            static_energy_j: power.static_energy_per_cycle_j(n, cycle_seconds)
                * config.static_power_fraction(),
            hop_energy_j: power.hop_energy_j(128),
            eject_energy_j: power.ejection_energy_j(128),
            config,
            geometry,
            routers,
            power,
            traffic,
            requests: Vec::new(),
            seed,
            stats: NetworkStats::new(),
            now: Cycle::ZERO,
            next_packet_id: 0,
            backlogs: (0..n).map(|_| [VecDeque::new(), VecDeque::new()]).collect(),
            outstanding: vec![[0, 0]; n],
            pending_responses: vec![VecDeque::new(); n],
            packets: PacketSlab::default(),
            streams: vec![Vec::new(); n],
            partial_eject: vec![Vec::new(); n],
            links: VecDeque::new(),
            probe: None,
            span_tracker: None,
            profiler: None,
        }
    }

    /// Turns on wall-clock self-profiling and wasted-work accounting
    /// (mirroring `PearlNetwork::enable_profiling`): subsequent
    /// [`step`]s attribute their time to step-loop phases and count
    /// switch-allocation and scan-loop visits vs. useful outcomes. Both
    /// are observer state: the simulated state stream is bit-identical
    /// either way. The mesh has no DBA or scaling windows, so those
    /// counters stay zero and their ratios read as undefined.
    ///
    /// [`step`]: CmeshNetwork::step
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(SelfProfiler::start());
    }

    /// The self-profile and work counters accumulated since
    /// [`enable_profiling`](CmeshNetwork::enable_profiling), if on.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.profiler.as_ref().map(SelfProfiler::report)
    }

    /// The work counters, while profiling is on.
    #[inline]
    fn work_mut(&mut self) -> Option<&mut WorkCounters> {
        self.profiler.as_mut().map(SelfProfiler::work_mut)
    }

    /// Attaches the observer. A null probe (such as
    /// [`pearl_telemetry::NullProbe`]) is not stored, so the hot path
    /// stays on its uninstrumented branch; any other probe receives
    /// [`TraceEvent::InjectionStall`] events as the mesh throttles
    /// sources (the only PEARL event kind with an electrical analogue).
    /// A probe that wants spans also receives, as [`TraceEvent::Span`]s,
    /// the six-stage latency decomposition of every delivered packet (VC
    /// wait mapped to `arbitration`, credit stalls to `reservation_wait`,
    /// mesh hops to `link_traversal`): attaching one keeps or creates the
    /// span tracker, attaching any other drops it. The simulated state
    /// and [`Self::state_hash`] stay those of a bare run.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = (!probe.is_null()).then_some(probe);
        let tracker = self.span_tracker.take();
        self.span_tracker = self.tracks_spans_for_probe().then(|| tracker.unwrap_or_default());
    }

    /// True when a recording (non-null) probe is attached.
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

    /// The configuration in use.
    pub fn config(&self) -> &CmeshConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Packets injected and not yet delivered: the issue backlogs plus
    /// every packet between its stream's start and its tail's ejection.
    ///
    /// `total_injected == total_delivered + in_network_packets()` holds
    /// at every cycle. Requests count as injected when issued into a
    /// backlog, responses when their stream starts, so responses still
    /// pending service are on neither side.
    pub fn in_network_packets(&self) -> u64 {
        let backlogged: usize = self.backlogs.iter().flatten().map(VecDeque::len).sum();
        (backlogged + self.packets.len()) as u64
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    /// Width of a node's local port in flits per cycle.
    #[inline]
    fn local_width(&self, node: usize) -> usize {
        self.geometry.local_width[node]
    }

    /// Maps a workload destination onto a mesh node: clusters map
    /// directly; the L3 maps to the nearer of the two slices.
    #[inline]
    fn destination_node(&self, from: usize, dst: Destination) -> usize {
        match dst {
            Destination::Cluster(c) => c,
            Destination::L3 => self.geometry.nearest_l3[from],
        }
    }

    /// Advances one network cycle, running each phase through the
    /// private `timed` helper.
    pub fn step(&mut self) {
        let now = self.now;
        self.timed(Section::Injection, |net| {
            net.timed(SubSection::InjectTraffic, |net| net.generate_traffic(now));
        });
        self.timed(Section::Transport, |net| {
            net.timed(SubSection::TransportLink, |net| net.deliver_link_flits(now));
            net.timed(SubSection::TransportRoutes, CmeshNetwork::compute_routes);
            net.timed(SubSection::TransportArbitration, |net| net.switch_allocation(now));
        });
        self.timed(Section::Injection, |net| {
            net.timed(SubSection::InjectSerialize, |net| net.inject_local_flits(now));
        });
        self.timed(Section::Accounting, |net| {
            net.stats.electrical_energy_j += net.static_energy_j;
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
    fn timed(&mut self, phase: impl Phase, run: impl FnOnce(&mut Self)) {
        let start = self.profiler.is_some().then(|| {
            set_alloc_section(Some(phase.section()));
            Instant::now()
        });
        run(self);
        if let (Some(t0), Some(profiler)) = (start, self.profiler.as_mut()) {
            phase.charge(profiler, t0);
        }
    }

    /// Runs `cycles` cycles and summarizes.
    pub fn run(&mut self, cycles: u64) -> CmeshSummary {
        for _ in 0..cycles {
            self.step();
        }
        self.summary()
    }

    /// Summary of everything measured so far.
    pub fn summary(&self) -> CmeshSummary {
        let clock = self.config.network_clock();
        CmeshSummary {
            cycles: self.stats.cycles(),
            delivered_packets: self.stats.total_delivered_packets(),
            delivered_flits: self.stats.total_delivered_flits(),
            delivered_bits: self.stats.total_delivered_bits(),
            throughput_flits_per_cycle: self.stats.throughput_flits_per_cycle(),
            avg_latency_cpu: self.stats.latency(CoreType::Cpu).mean(),
            avg_latency_gpu: self.stats.latency(CoreType::Gpu).mean(),
            avg_power_w: self.stats.average_power_w(clock),
            energy_per_bit_j: self.stats.energy_per_bit(),
            injection_stalls: self.stats.injection_stalls(),
        }
    }

    // ----- per-cycle phases ------------------------------------------------

    fn generate_traffic(&mut self, now: Cycle) {
        let stall = self.config.stall_backlog;
        let backlogs = &self.backlogs;
        let mut requests = std::mem::take(&mut self.requests);
        self.traffic.generate(
            now,
            &|cluster, core| backlogs[cluster][usize::from(core == CoreType::Gpu)].len() >= stall,
            &mut requests,
        );
        for req in requests.drain(..) {
            let id = self.fresh_id();
            let dst = self.destination_node(req.cluster, req.dst);
            let packet =
                Packet::request(id, NodeId(req.cluster), NodeId(dst), req.core, req.class, now);
            let lane = usize::from(req.core == CoreType::Gpu);
            if self.backlogs[req.cluster][lane].len() >= self.config.backlog_packets {
                self.stats.record_injection_stall();
                if let Some(probe) = self.probe.as_mut() {
                    probe.record(&TraceEvent::InjectionStall {
                        router: req.cluster,
                        at: now.as_u64(),
                        core: req.core,
                    });
                }
            } else {
                self.stats.record_injection(&packet);
                self.backlogs[req.cluster][lane].push_back(packet);
            }
        }
        self.requests = requests;
    }

    /// Lands the due link flits: a prefix of the launch-ordered queue,
    /// landed in launch order.
    fn deliver_link_flits(&mut self, now: Cycle) {
        let mut landed = 0;
        while self.links.front().is_some_and(|lf| lf.deliver_at <= now) {
            let lf = self.links.pop_front().expect("front exists");
            self.routers[lf.dst].accept(lf.port, lf.vc, lf.flit);
            landed += 1;
        }
        if let Some(w) = self.work_mut() {
            w.loop_iterations += landed;
        }
    }

    /// Routes the head packet of every input VC in a router's `unrouted`
    /// mask, moving the VC into its output's candidate mask. The masks
    /// are kept current as flits move, so only new head packets are
    /// visited.
    fn compute_routes(&mut self) {
        let n = self.routers.len();
        let mut visited = 0;
        for (i, router) in self.routers.iter_mut().enumerate() {
            let mut unrouted = router.inputs.unrouted();
            while unrouted != 0 {
                let ch = unrouted.trailing_zeros() as usize;
                unrouted &= unrouted - 1;
                visited += 1;
                let head = router.inputs.peek(ch).expect("unrouted VCs hold a flit");
                if !head.kind.is_head() {
                    continue;
                }
                let dst = self.packets.get(head.pkt).dst.index();
                router.inputs.set_route(ch, usize::from(self.geometry.routes[i * n + dst]));
            }
        }
        if let Some(w) = self.work_mut() {
            w.loop_iterations += visited;
        }
    }

    /// Grants each router output its winners for this cycle. Routers are
    /// visited in index order, so a credit a grant returns upstream is
    /// visible to a later router in the same cycle.
    fn switch_allocation(&mut self, now: Cycle) {
        let vcs = self.config.vcs_per_port;
        let n = Port::ALL.len() * vcs;
        let (mut with_work, mut candidates, mut grants) = (0u64, 0u64, 0u64);
        for i in 0..self.routers.len() {
            if self.routers[i].inputs.occupied() == 0 {
                continue;
            }
            with_work += 1;
            for out in Port::ALL {
                let mask = self.routers[i].inputs.routed(out.index());
                if mask == 0 {
                    continue;
                }
                // One grant per output port per cycle; the wide L3 local
                // ports allow several ejections per cycle. A mesh output
                // whose narrow link is still serializing grants nothing.
                let (budget, dir) = match out {
                    Port::Local => (self.local_width(i), None),
                    Port::Mesh(dir) => {
                        if self.routers[i].link_free_at[dir as usize] > now.as_u64() {
                            continue;
                        }
                        (1, Some(dir))
                    }
                };
                // Local→Local is a cluster talking to its colocated L3
                // slice and is perfectly valid; mesh U-turns never occur
                // under XY routing, so no exclusion is needed.
                let router = &self.routers[i];
                let channels = &self.geometry.channels;
                let (winners, rr) =
                    round_robin_pick(mask, router.rr[out.index()], n, budget, |ch| {
                        candidates += 1;
                        let Some(dir) = dir else { return true };
                        let vc = channels[ch].1;
                        let head = router.inputs.peek(ch).expect("candidate has a flit");
                        router.has_credit(dir, vc)
                            && router.out_vc_usable(dir, vc, head.pkt, head.kind.is_head())
                    });
                self.routers[i].rr[out.index()] = rr;
                for ch in winners {
                    match dir {
                        Some(dir) => self.grant_mesh(i, ch, dir, now),
                        None => self.grant_local(i, ch, now),
                    }
                    grants += 1;
                }
            }
        }
        let scanned = self.routers.len() as u64;
        if let Some(w) = self.work_mut() {
            w.routers_scanned += scanned;
            w.routers_with_work += with_work;
            w.loop_iterations += candidates;
            w.arb_attempts += candidates;
            w.arb_grants += grants;
        }
    }

    /// Pops the winning flit of input channel `ch` and handles upstream
    /// credit return.
    #[inline]
    fn pop_and_credit(&mut self, i: usize, ch: usize) -> FlitSlot {
        let flit = self.routers[i].pop(ch);
        if let (Port::Mesh(dir), vc) = self.geometry.channels[ch] {
            // A slot freed on this input: the upstream neighbor (in
            // `dir`) gets a credit back on its opposite output.
            let upstream =
                self.geometry.neighbors[i][dir as usize].expect("mesh input implies a neighbor");
            self.routers[upstream].replenish_credit(dir.opposite(), vc);
        }
        flit
    }

    fn grant_mesh(&mut self, i: usize, ch: usize, dir: Direction, now: Cycle) {
        if let Some(w) = self.work_mut() {
            w.flits_moved += 1;
        }
        self.routers[i].link_free_at[dir as usize] =
            now.as_u64() + self.config.link_cycles_per_flit;
        let flit = self.pop_and_credit(i, ch);
        let vc = self.geometry.channels[ch].1;
        self.routers[i].update_out_vc_owner(dir, vc, flit);
        self.routers[i].consume_credit(dir, vc);
        let dst = self.geometry.neighbors[i][dir as usize]
            .expect("credit existed, so the neighbor does too");
        self.stats.electrical_energy_j += self.hop_energy_j;
        self.links.push_back(LinkSlot {
            deliver_at: now + LINK_PIPELINE_CYCLES,
            dst,
            port: Port::Mesh(dir.opposite()),
            vc,
            flit,
        });
    }

    fn grant_local(&mut self, i: usize, ch: usize, now: Cycle) {
        if let Some(w) = self.work_mut() {
            w.flits_moved += 1;
        }
        let flit = self.pop_and_credit(i, ch);
        self.stats.electrical_energy_j += self.eject_energy_j;
        if flit.kind.is_head() {
            if let Some(tracker) = self.span_tracker.as_mut() {
                tracker.head_eject.insert(self.packets.get(flit.pkt).id, now.as_u64());
            }
            if !flit.kind.is_tail() {
                self.partial_eject[i].push(flit.pkt);
            }
        }
        if flit.kind.is_tail() {
            if !flit.kind.is_head() {
                let partial = &mut self.partial_eject[i];
                let at = partial
                    .iter()
                    .position(|&pkt| pkt == flit.pkt)
                    .expect("tail without a recorded head");
                partial.swap_remove(at);
            }
            let packet = self.packets.remove(flit.pkt);
            self.deliver(i, packet, now);
        }
    }

    fn deliver(&mut self, i: usize, packet: Packet, now: Cycle) {
        self.stats.record_delivery(&packet, now);
        self.emit_packet_spans(i, &packet, now);
        match packet.kind {
            PacketKind::Response => {
                let lane = usize::from(packet.core == CoreType::Gpu);
                self.outstanding[i][lane] = self.outstanding[i][lane].saturating_sub(1);
            }
            PacketKind::Request => {
                let is_l3 = self.config.l3_nodes.contains(&i);
                let ready = now + self.config.responder.service_latency(is_l3);
                let id = self.fresh_id();
                let response = self.config.responder.response_for(&packet, id, ready, is_l3);
                if let Some(tracker) = self.span_tracker.as_mut() {
                    tracker.parent.insert(id, packet.id);
                }
                self.pending_responses[i].push_back((ready, response));
            }
        }
    }

    /// Emits the six-stage causal decomposition of one delivered
    /// packet, tiling `[injected_at, now]` exactly from the tracker's
    /// recorded milestones. Each milestone is clamped onto the previous
    /// stage's end so packets whose early life predates span enablement
    /// still produce a contiguous (if coarser) trace.
    fn emit_packet_spans(&mut self, node: usize, packet: &Packet, now: Cycle) {
        let Some(tracker) = self.span_tracker.as_mut() else { return };
        let id = packet.id;
        let t0 = packet.injected_at.as_u64();
        let t4 = now.as_u64();
        let vc_wait = tracker.vc_wait.remove(&id).unwrap_or(0);
        let stream_start = tracker.stream_start.remove(&id).unwrap_or(t0);
        let stalls = tracker.stalls.remove(&id).unwrap_or(0);
        let tail_in = tracker.tail_in.remove(&id).unwrap_or(stream_start);
        let head_eject = tracker.head_eject.remove(&id).unwrap_or(t4);
        let parent = tracker.parent.remove(&id);
        let s = stream_start.clamp(t0, t4);
        let arb_start = s.saturating_sub(vc_wait).max(t0);
        let t2 = tail_in.clamp(s, t4);
        let ser_end = t2.saturating_sub(stalls).max(s);
        let t3 = head_eject.clamp(t2, t4);
        let src = packet.src.index();
        let base = Span {
            packet: id,
            parent,
            kind: SpanKind::InjectQueue,
            router: src,
            core: packet.core,
            attempt: 0,
            start: t0,
            end: arb_start,
        };
        let stages = [
            (SpanKind::Arbitration, arb_start, s),
            (SpanKind::Serialization, s, ser_end),
            (SpanKind::ReservationWait, ser_end, t2),
            (SpanKind::LinkTraversal, t2, t3),
        ];
        let Some(probe) = self.probe.as_mut() else { return };
        probe.record(&TraceEvent::Span(base.clone()));
        for (kind, start, end) in stages {
            probe.record(&TraceEvent::Span(Span { kind, start, end, ..base }));
        }
        let drain = Span { kind: SpanKind::EjectDrain, router: node, start: t3, end: t4, ..base };
        probe.record(&TraceEvent::Span(drain));
    }

    fn inject_local_flits(&mut self, now: Cycle) {
        for i in 0..self.config.clusters() {
            let width = self.local_width(i);
            while self.streams[i].len() < width && self.start_next_injection(i, now) {}
            if self.streams[i].is_empty() {
                continue;
            }
            // Each parallel stream pushes one flit per cycle, VC space
            // allowing; total local bandwidth = the port width.
            let mut streams = std::mem::take(&mut self.streams[i]);
            streams.retain_mut(|stream| {
                if let Some(w) = self.work_mut() {
                    // One visit per parallel stream, stalled or not.
                    w.loop_iterations += 1;
                }
                let router = &mut self.routers[i];
                if router.inputs.is_full(router.channel(Port::Local, stream.vc)) {
                    if let Some(tracker) = self.span_tracker.as_mut() {
                        let id = self.packets.get(stream.pkt).id;
                        *tracker.stalls.entry(id).or_insert(0) += 1;
                    }
                    return true;
                }
                let flit = stream.flit();
                router.accept(Port::Local, stream.vc, flit);
                stream.next += 1;
                if let Some(w) = self.work_mut() {
                    w.flits_moved += 1;
                }
                if !flit.kind.is_tail() {
                    return true;
                }
                if let Some(tracker) = self.span_tracker.as_mut() {
                    tracker.tail_in.insert(self.packets.get(stream.pkt).id, now.as_u64());
                }
                false
            });
            self.streams[i] = streams;
        }
    }

    /// Starts the next packet's stream on the local port: due responses
    /// first (they unblock remote cores), then backlogged requests whose
    /// outstanding window has room. The packet leaves its queue only once
    /// a local VC is free for it. Returns true when a stream started.
    fn start_next_injection(&mut self, i: usize, now: Cycle) -> bool {
        let response_due =
            self.pending_responses[i].front().is_some_and(|(ready, _)| *ready <= now);
        let lane = if response_due {
            None
        } else {
            let Some(lane) = self.request_lane(i) else { return false };
            Some(lane)
        };
        // A VC already claimed by a parallel stream is not free for us.
        let claimed = self.streams[i].iter().fold(0u64, |mask, s| mask | 1 << s.vc);
        let router = &self.routers[i];
        let free_vc = (0..self.config.vcs_per_port)
            .find(|&vc| claimed & 1 << vc == 0 && router.is_free(Port::Local, vc));
        let Some(vc) = free_vc else {
            // The packet stays queued. A due response is restamped ready
            // `now`, as taking it and pushing it back always did.
            let id = match lane {
                None => {
                    let (ready, response) =
                        self.pending_responses[i].front_mut().expect("a response is due");
                    *ready = now;
                    response.id
                }
                Some(lane) => self.backlogs[i][lane].front().expect("lane has a request").id,
            };
            if let Some(tracker) = self.span_tracker.as_mut() {
                // The head of the injection queue lost this cycle's VC
                // claim — charged to its `arbitration` span.
                *tracker.vc_wait.entry(id).or_insert(0) += 1;
            }
            return false;
        };
        let packet = match lane {
            None => self.pending_responses[i].pop_front().expect("a response is due").1,
            Some(lane) => {
                self.outstanding[i][lane] += 1;
                self.backlogs[i][lane].pop_front().expect("lane has a request")
            }
        };
        if packet.kind == PacketKind::Response {
            // Responses are counted as injected once they actually claim
            // a VC (requests were counted at issue, like PEARL's label).
            self.stats.record_injection(&packet);
        }
        if let Some(tracker) = self.span_tracker.as_mut() {
            tracker.stream_start.insert(packet.id, now.as_u64());
        }
        let n = u16::try_from(packet.flits()).expect("packets are at most 4 flits");
        let pkt = self.packets.insert(packet);
        self.streams[i].push(InjectStream { vc, pkt, next: 0, n });
        true
    }

    /// The request lane whose front request goes next: the oldest front
    /// among lanes whose outstanding window has room.
    fn request_lane(&self, i: usize) -> Option<usize> {
        let mut chosen = None;
        for (lane, core) in CoreType::ALL.into_iter().enumerate() {
            let limit = match core {
                CoreType::Cpu => self.config.cpu_outstanding_limit,
                CoreType::Gpu => self.config.gpu_outstanding_limit,
            };
            if self.outstanding[i][lane] < limit {
                if let Some(front) = self.backlogs[i][lane].front() {
                    // Oldest request across lanes goes first.
                    if chosen.is_none_or(|(_, best)| front.injected_at < best) {
                        chosen = Some((lane, front.injected_at));
                    }
                }
            }
        }
        chosen.map(|(lane, _)| lane)
    }
}

impl Watchable for CmeshNetwork {
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

impl Simulator for CmeshNetwork {
    fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        CmeshNetwork::attach_probe(self, probe);
    }
    fn enable_profiling(&mut self) {
        CmeshNetwork::enable_profiling(self);
    }
    fn snapshot(&self) -> Checkpoint {
        CmeshNetwork::snapshot(self)
    }
    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SnapshotError> {
        CmeshNetwork::restore(self, checkpoint)
    }
    fn state_hash(&self) -> u64 {
        CmeshNetwork::state_hash(self)
    }
    fn config_fingerprint(&self) -> u64 {
        CmeshNetwork::config_fingerprint(self)
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
            ("avg_power_w", JsonValue::Num(s.avg_power_w)),
            ("energy_per_bit_j", JsonValue::Num(s.energy_per_bit_j)),
            ("injection_stalls", JsonValue::u64(s.injection_stalls)),
        ])
    }
}

/// One output's round-robin pick over the `n` flattened (port, VC)
/// candidates set in `mask`. It visits them in the order `rr, rr + 1, …,
/// n - 1, 0, …, rr - 1` — the order of a modulo scan from `rr` — by
/// rotating the mask right by `rr` and taking set bits with
/// `trailing_zeros`, and grants the first `budget` that pass `eligible`.
/// Returns the winners in grant order and the new pointer: one past the
/// last winner, or `rr` unchanged when nothing wins.
fn round_robin_pick(
    mask: u64,
    rr: usize,
    n: usize,
    budget: usize,
    mut eligible: impl FnMut(usize) -> bool,
) -> (Winners, usize) {
    debug_assert!(rr < n && n < 64 && mask >> n == 0, "rr {rr}, n {n}, mask {mask:#x}");
    let mut rest = (mask >> rr) | ((mask & ((1 << rr) - 1)) << (n - rr));
    let mut won = Winners { rotated: 0, rr, n };
    let (mut granted, mut next_rr) = (0, rr);
    while rest != 0 && granted < budget {
        let bit = rest & rest.wrapping_neg();
        rest ^= bit;
        let flat = won.flat(bit.trailing_zeros() as usize);
        if eligible(flat) {
            won.rotated |= bit;
            granted += 1;
            next_rr = if flat + 1 == n { 0 } else { flat + 1 };
        }
    }
    (won, next_rr)
}

/// The winners of [`round_robin_pick`], yielded as flattened (port, VC)
/// indices in grant order.
#[derive(Debug)]
struct Winners {
    /// Winner bits, rotated right by `rr` within `n` bits.
    rotated: u64,
    rr: usize,
    n: usize,
}

impl Winners {
    /// Flattened index of rotated bit position `j`.
    #[inline]
    fn flat(&self, j: usize) -> usize {
        let flat = j + self.rr;
        if flat >= self.n {
            flat - self.n
        } else {
            flat
        }
    }
}

impl Iterator for Winners {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.rotated == 0 {
            return None;
        }
        let j = self.rotated.trailing_zeros() as usize;
        self.rotated &= self.rotated - 1;
        Some(self.flat(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_noc::SimRng;

    fn net(seed: u64) -> CmeshNetwork {
        CmeshBuilder::new().seed(seed).build(BenchmarkPair::test_pairs()[0])
    }

    #[test]
    fn traffic_flows_end_to_end() {
        let mut n = net(1);
        let s = n.run(10_000);
        assert!(s.delivered_packets > 0, "nothing delivered");
        // Responses are four flits, so flits must outnumber packets.
        assert!(s.delivered_flits > s.delivered_packets);
        assert!(s.avg_latency_cpu > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = net(7).run(5_000);
        let b = net(7).run(5_000);
        assert_eq!(a.delivered_flits, b.delivered_flits);
        assert_eq!(a.delivered_packets, b.delivered_packets);
    }

    #[test]
    fn probe_mirrors_injection_stalls_without_perturbing() {
        use pearl_telemetry::{Recorder, Shared};
        let plain = net(7).run(20_000);
        let mut instrumented = net(7);
        let recorder = Shared::new(Recorder::new());
        instrumented.attach_probe(Box::new(recorder.clone()));
        assert!(instrumented.probe_enabled());
        let s = instrumented.run(20_000);
        assert_eq!(s.delivered_flits, plain.delivered_flits);
        assert_eq!(s.injection_stalls, plain.injection_stalls);
        let stall_events = recorder
            .with(|r| r.events().iter().filter(|e| e.kind() == "injection_stall").count() as u64);
        assert_eq!(stall_events, s.injection_stalls);
    }

    /// The dense round-robin scan [`round_robin_pick`] replaced, kept as
    /// its reference: try every candidate slot from `rr` onwards, modulo
    /// `n`, until `budget` grants.
    fn modulo_scan(
        mask: u64,
        rr: usize,
        n: usize,
        budget: usize,
        eligible: impl Fn(usize) -> bool,
    ) -> (Vec<usize>, usize) {
        let (mut winners, mut next_rr) = (Vec::new(), rr);
        for k in 0..n {
            if winners.len() >= budget {
                break;
            }
            let flat = (rr + k) % n;
            if mask & 1 << flat == 0 || !eligible(flat) {
                continue;
            }
            winners.push(flat);
            next_rr = (flat + 1) % n;
        }
        (winners, next_rr)
    }

    #[test]
    fn round_robin_pick_matches_the_modulo_scan() {
        let mut rng = SimRng::from_seed(17);
        for n in [20, 5, 60] {
            let all = (1u64 << n) - 1;
            let mut masks = vec![0, all];
            masks.extend((0..n).map(|bit| 1u64 << bit));
            let random = if n == 20 { 3_000 } else { 300 };
            masks.extend((0..random).map(|_| rng.next_u64() & all));
            for mask in masks {
                // Rejecting a random subset runs the ineligible paths.
                let reject = rng.next_u64() & all;
                for rr in 0..n {
                    for budget in [1, 4] {
                        for reject in [0, reject] {
                            let eligible = |flat: usize| reject & 1 << flat == 0;
                            let (winners, next_rr) =
                                round_robin_pick(mask, rr, n, budget, eligible);
                            assert_eq!(
                                (winners.collect::<Vec<_>>(), next_rr),
                                modulo_scan(mask, rr, n, budget, eligible),
                                "n {n}, mask {mask:#x}, reject {reject:#x}, rr {rr}, budget {budget}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn round_robin_pick_checks_only_candidates_in_rotation_order() {
        let mut seen = Vec::new();
        let (winners, next_rr) = round_robin_pick(0b1010_0101, 3, 20, 4, |flat| {
            seen.push(flat);
            flat != 5
        });
        assert_eq!(seen, [5, 7, 0, 2]);
        assert_eq!(winners.collect::<Vec<_>>(), [7, 0, 2]);
        assert_eq!(next_rr, 3);
    }

    /// The occupancy and route masks every router keeps current, derived
    /// afresh from its VCs the way route computation once rebuilt them
    /// every cycle: `(occupied, routed, unrouted)`.
    fn derived_masks(router: &CmeshRouter) -> (u64, [u64; 5], u64) {
        let (mut occupied, mut routed, mut unrouted) = (0, [0; 5], 0);
        for ch in (0..router.inputs.channels()).filter(|&ch| !router.inputs.is_empty(ch)) {
            occupied |= 1 << ch;
            match router.inputs.route(ch) {
                Some(out) => routed[out] |= 1 << ch,
                None => unrouted |= 1 << ch,
            }
        }
        (occupied, routed, unrouted)
    }

    #[test]
    fn occupancy_masks_track_the_input_vcs() {
        for k in [1, 4] {
            let mut n = CmeshBuilder::new()
                .config(CmeshConfig::bandwidth_reduced(k))
                .seed(5)
                .build(BenchmarkPair::test_pairs()[0]);
            for cycle in 0..3_000 {
                n.step();
                for router in &n.routers {
                    let inputs = &router.inputs;
                    let live = (inputs.occupied(), [0, 1, 2, 3, 4].map(|o| inputs.routed(o)));
                    let (occupied, routed, unrouted) = derived_masks(router);
                    assert_eq!(live, (occupied, routed), "{} at cycle {cycle}", router.node());
                    assert_eq!(inputs.unrouted(), unrouted, "{} at cycle {cycle}", router.node());
                }
            }
        }
    }

    /// Every injected packet is delivered or still in the network, at
    /// every link rate, and a restored network counts the same packets.
    #[test]
    fn injected_packets_are_delivered_or_in_the_network() {
        let balance = |net: &CmeshNetwork| {
            let stats = net.stats();
            (
                stats.total_injected_packets(),
                stats.total_delivered_packets(),
                net.in_network_packets(),
            )
        };
        for k in [1, 2, 4] {
            let build = || {
                CmeshBuilder::new()
                    .config(CmeshConfig::bandwidth_reduced(k))
                    .seed(40 + k)
                    .build(BenchmarkPair::test_pairs()[3])
            };
            let mut net = build();
            for _ in 0..20 {
                net.run(500);
                let (injected, delivered, in_network) = balance(&net);
                assert_eq!(injected, delivered + in_network, "k {k} at {}", net.now);
                assert!(in_network > 0 && delivered > 0);
            }
            let mut twin = build();
            twin.restore(&net.snapshot()).unwrap();
            assert_eq!(balance(&twin), balance(&net), "k {k}: restore moved the balance");
            for _ in 0..4 {
                twin.run(500);
                let (injected, delivered, in_network) = balance(&twin);
                assert_eq!(injected, delivered + in_network, "k {k} at {} after restore", twin.now);
            }
        }
    }

    #[test]
    fn l3_destinations_map_to_the_nearer_slice() {
        let n = net(1);
        // Node 0 is closer to slice 5 (3 hops) than slice 10 (4 hops).
        assert_eq!(n.destination_node(0, Destination::L3), 5);
        // Node 15 is closer to slice 10.
        assert_eq!(n.destination_node(15, Destination::L3), 10);
        // Cluster destinations pass through unchanged.
        assert_eq!(n.destination_node(0, Destination::Cluster(9)), 9);
    }

    #[test]
    fn l3_slices_have_wide_local_ports() {
        let n = net(1);
        assert_eq!(n.local_width(5), 4);
        assert_eq!(n.local_width(10), 4);
        assert_eq!(n.local_width(0), 1);
    }

    #[test]
    fn energy_accumulates_static_and_dynamic() {
        let mut n = net(2);
        let s = n.run(2_000);
        // Static floor alone: 16 routers × 1.5 W × 1 µs = 24 µJ over
        // 2000 cycles; dynamic adds on top.
        let static_floor = 16.0 * 1.5 * 2_000.0 * 0.5e-9;
        assert!(n.stats().electrical_energy_j >= static_floor);
        assert!(s.avg_power_w >= 16.0 * 1.5 * 0.99);
    }

    #[test]
    fn mesh_drains_after_sources_stop() {
        let mut n = net(3);
        n.run(5_000);
        let delivered_before = n.stats().total_delivered_packets();
        // Injected-but-undelivered traffic must flush through within a
        // generous drain window even as new traffic keeps arriving; here
        // we simply verify forward progress continues.
        n.run(5_000);
        assert!(n.stats().total_delivered_packets() > delivered_before);
    }
}
