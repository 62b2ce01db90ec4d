//! The PEARL router microarchitecture (Fig. 2 of the paper).
//!
//! Each router owns: CPU- and GPU-side input buffers fed by the local
//! cores/caches, a receive (BW_D) buffer fed by the photodetector sets,
//! its own data waveguide (one channel for cluster routers, several for
//! the L3 hub), the on-chip laser banks, the weighted arbiter enforcing
//! the DBA's split, and the per-window counters feeding both the reactive
//! power scaler and the ML feature vector.

use crate::arbiter::WeightedArbiter;
use crate::dba::BandwidthAllocation;
use crate::features::WindowCounters;
use pearl_noc::{BufferFullError, CoreType, Cycle, Packet, PacketBuffer};
use pearl_photonics::{OnChipLaser, WavelengthState};
use std::collections::VecDeque;

/// One data transfer occupying a channel (the landing itself is tracked
/// by the network's in-flight list).
#[derive(Debug, Clone)]
pub(crate) struct Transfer {
    /// Id of the packet being serialized (kept for tracing/debug dumps).
    #[allow(dead_code)]
    pub packet_id: u64,
    /// Cycle at which the channel becomes free again.
    pub busy_until: Cycle,
}

/// A PEARL router (cluster router or the L3 hub).
#[derive(Debug)]
pub struct PearlRouter {
    /// Endpoint index.
    pub(crate) index: usize,
    /// True for the L3/memory-controller router.
    pub(crate) is_l3: bool,
    /// CPU-lane input buffer (local cores + locally generated responses).
    pub(crate) cpu_in: PacketBuffer,
    /// GPU-lane input buffer.
    pub(crate) gpu_in: PacketBuffer,
    /// Receive buffer (BW_D) fed by the photodetectors.
    pub(crate) recv: PacketBuffer,
    /// Slots of `recv` promised to in-flight transfers.
    pub(crate) recv_reserved: u32,
    /// Occupied receive slots attributable to CPU packets (features 3/5).
    pub(crate) recv_cpu_slots: u32,
    /// Occupied receive slots attributable to GPU packets.
    pub(crate) recv_gpu_slots: u32,
    /// The laser bank state machine.
    pub(crate) laser: OnChipLaser,
    /// Channel occupancy, one slot per parallel data channel.
    pub(crate) channels: Vec<Option<Transfer>>,
    /// The CPU/GPU bandwidth arbiter.
    pub(crate) arbiter: WeightedArbiter,
    /// Split currently in force (recomputed every cycle under the
    /// dynamic policy).
    pub(crate) allocation: BandwidthAllocation,
    /// CPU share of channel bandwidth currently in force — derived from
    /// `allocation` for the discrete policy, or set directly by the
    /// fine-grained allocator.
    pub(crate) cpu_share: f64,
    /// Per-window event counters.
    pub(crate) counters: WindowCounters,
    /// Σ over the window of combined input-buffer occupancy (for
    /// Algorithm 1 step 7's β_total).
    pub(crate) beta_accum: f64,
    /// Responses produced by the local endpoint, waiting to enter the
    /// input buffers once ready (and once there is room).
    pub(crate) pending_responses: VecDeque<(Cycle, Packet)>,
    /// Requests issued by the local cores that did not fit into the input
    /// buffers yet (the cores' MSHR-like issue window; when full, the
    /// core stalls and stops issuing).
    pub(crate) cpu_backlog: VecDeque<Packet>,
    /// GPU-side issue backlog.
    pub(crate) gpu_backlog: VecDeque<Packet>,
    /// Flits queued in `cpu_backlog` and `gpu_backlog`. Derived state:
    /// kept in step by [`Self::accept_request`], [`Self::pop_backlog`] and
    /// [`Self::unpop_backlog`], never serialized, recounted on restore.
    pub(crate) backlog_flits: [u32; 2],
    /// The DBA inputs behind the split in force: CPU and GPU pressure
    /// flits and the bits of the fault scale. The split is a pure
    /// function of them, so an unchanged triple skips the DBA. Derived
    /// state: never serialized, cleared on restore.
    pub(crate) dba_inputs: Option<(u32, u32, u64)>,
    /// FCFS mode shares one physical buffer pool between the lanes, so a
    /// flooding GPU can crowd CPU packets out of the router entirely —
    /// the behaviour the DBA's partitioning (goal (iii) of §III-B)
    /// prevents.
    pub(crate) shared_input_pool: bool,
}

/// Capacity of each core-side issue backlog, in packets (≈ outstanding
/// misses the cores can keep in flight before stalling).
pub(crate) const CORE_BACKLOG_PACKETS: usize = 64;

/// True when a response queue, at the start of cycle `now`, holds its
/// responses that are not yet due behind every due one, in `ready`
/// order, and none of them later than `now + latency`, the earliest a
/// response made from now on can be ready.
///
/// Every queue a run reaches keeps this: responses are queued with
/// `ready = t + latency` at a router's fixed service latency, and a
/// refused response is due again on the next cycle. So the responses
/// not due at any later cycle stay behind the due ones, which lets
/// [`PearlRouter::release_responses`] stop at the first one. Restore
/// rejects a queue without it.
pub(crate) fn responses_in_release_order(
    queue: &VecDeque<(Cycle, Packet)>,
    now: Cycle,
    latency: u64,
) -> bool {
    let mut previous = now;
    queue.iter().map(|&(ready, _)| ready).skip_while(|&ready| ready <= now).all(|ready| {
        let in_order = previous <= ready && ready <= now + latency;
        previous = ready;
        in_order
    })
}

/// Index of a core type's lane in per-lane arrays: CPU 0, GPU 1.
#[inline]
pub(crate) fn lane_index(core: CoreType) -> usize {
    usize::from(core == CoreType::Gpu)
}

impl PearlRouter {
    /// Creates a router.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        index: usize,
        is_l3: bool,
        channels: usize,
        cpu_slots: u32,
        gpu_slots: u32,
        recv_slots: u32,
        initial_state: WavelengthState,
        turn_on_cycles: u64,
        shared_input_pool: bool,
    ) -> PearlRouter {
        // A shared pool lets either lane grow into the whole buffer
        // budget; partitioned mode caps each lane at its own slice.
        let pool = cpu_slots + gpu_slots;
        let (cpu_cap, gpu_cap) =
            if shared_input_pool { (pool, pool) } else { (cpu_slots, gpu_slots) };
        PearlRouter {
            index,
            is_l3,
            cpu_in: PacketBuffer::new(cpu_cap),
            gpu_in: PacketBuffer::new(gpu_cap),
            recv: PacketBuffer::new(recv_slots),
            recv_reserved: 0,
            recv_cpu_slots: 0,
            recv_gpu_slots: 0,
            laser: OnChipLaser::new(initial_state, turn_on_cycles),
            channels: vec![None; channels],
            arbiter: WeightedArbiter::new(),
            allocation: BandwidthAllocation::default(),
            cpu_share: 0.5,
            counters: WindowCounters::new(),
            beta_accum: 0.0,
            pending_responses: VecDeque::new(),
            cpu_backlog: VecDeque::new(),
            gpu_backlog: VecDeque::new(),
            backlog_flits: [0; 2],
            dba_inputs: None,
            shared_input_pool,
        }
    }

    /// True when a packet of `flits` length can enter the given lane,
    /// honouring the shared-pool capacity in FCFS mode.
    pub(crate) fn lane_can_accept(&self, core: CoreType, flits: u32) -> bool {
        if self.lane(core).is_full_for(flits) {
            return false;
        }
        if self.shared_input_pool {
            // Admission is bounded by TOTAL pool occupancy (both lanes
            // were sized to the whole pool), so one core type can exhaust
            // the buffers for both.
            let occupied = self.cpu_in.occupied_slots() + self.gpu_in.occupied_slots();
            let capacity = self.cpu_in.capacity_slots();
            if occupied + flits > capacity {
                return false;
            }
        }
        true
    }

    /// Accepts a freshly issued core request into the issue backlog.
    ///
    /// # Errors
    ///
    /// Returns the packet back when the backlog is full (the core stalls
    /// and the miss is lost to the measurement, modeling a stalled
    /// pipeline slot).
    pub(crate) fn accept_request(&mut self, packet: Packet) -> Result<(), Packet> {
        let core = packet.core;
        if self.backlog(core).len() >= CORE_BACKLOG_PACKETS {
            return Err(packet);
        }
        self.backlog_flits[lane_index(core)] += packet.flits();
        self.backlog_mut(core).push_back(packet);
        Ok(())
    }

    /// Issue backlog of one core type.
    pub(crate) fn backlog(&self, core: CoreType) -> &VecDeque<Packet> {
        match core {
            CoreType::Cpu => &self.cpu_backlog,
            CoreType::Gpu => &self.gpu_backlog,
        }
    }

    fn backlog_mut(&mut self, core: CoreType) -> &mut VecDeque<Packet> {
        match core {
            CoreType::Cpu => &mut self.cpu_backlog,
            CoreType::Gpu => &mut self.gpu_backlog,
        }
    }

    /// Takes the oldest backlogged request of one core type.
    pub(crate) fn pop_backlog(&mut self, core: CoreType) -> Option<Packet> {
        let packet = self.backlog_mut(core).pop_front()?;
        self.backlog_flits[lane_index(core)] -= packet.flits();
        Some(packet)
    }

    /// Puts a request taken by [`Self::pop_backlog`] back at the head.
    pub(crate) fn unpop_backlog(&mut self, packet: Packet) {
        let core = packet.core;
        self.backlog_flits[lane_index(core)] += packet.flits();
        self.backlog_mut(core).push_front(packet);
    }

    /// Rebuilds the derived state a restore does not carry: the backlog
    /// flit counts and the DBA input cache.
    pub(crate) fn rebuild_derived(&mut self) {
        self.backlog_flits =
            CoreType::ALL.map(|core| self.backlog(core).iter().map(Packet::flits).sum());
        self.dba_inputs = None;
    }

    /// Endpoint index.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// True for the L3 router.
    #[inline]
    pub fn is_l3(&self) -> bool {
        self.is_l3
    }

    /// Number of parallel data channels.
    #[inline]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The laser bank.
    #[inline]
    pub fn laser(&self) -> &OnChipLaser {
        &self.laser
    }

    /// The bandwidth split currently in force.
    #[inline]
    pub fn allocation(&self) -> BandwidthAllocation {
        self.allocation
    }

    /// Input buffer for one core lane.
    pub(crate) fn lane(&self, core: CoreType) -> &PacketBuffer {
        match core {
            CoreType::Cpu => &self.cpu_in,
            CoreType::Gpu => &self.gpu_in,
        }
    }

    /// Mutable input buffer for one core lane.
    pub(crate) fn lane_mut(&mut self, core: CoreType) -> &mut PacketBuffer {
        match core {
            CoreType::Cpu => &mut self.cpu_in,
            CoreType::Gpu => &mut self.gpu_in,
        }
    }

    /// Enqueues a locally generated packet (core request or endpoint
    /// response). Demand counters are recorded at issue time by the
    /// network, not here, so that the ML label measures *offered*
    /// traffic independent of the wavelength state (§IV-A).
    ///
    /// # Errors
    ///
    /// Propagates [`BufferFullError`] when the lane is full.
    pub(crate) fn enqueue_local(&mut self, packet: Packet) -> Result<(), BufferFullError> {
        let core = packet.core;
        if !self.lane_can_accept(core, packet.flits()) {
            return Err(BufferFullError(packet));
        }
        self.lane_mut(core).push(packet)
    }

    /// Moves the endpoint responses that are due into the input lanes,
    /// oldest first, handing each packet that entered a lane to
    /// `released`. A response its lane refuses waits for the next cycle
    /// (`ready = now + 1`) and keeps its place in the queue, which is
    /// serialized state.
    ///
    /// The walk stops at the first response that is not yet due: the
    /// queue keeps [`responses_in_release_order`], so none behind it is
    /// due either. A queue whose front is not due is not touched at all.
    pub(crate) fn release_responses(&mut self, now: Cycle, mut released: impl FnMut(&Packet)) {
        if self.pending_responses.front().is_none_or(|&(ready, _)| ready > now) {
            return;
        }
        if self.shared_input_pool {
            // FCFS router: one response stream, strict FIFO — a blocked
            // head (e.g. a GPU response with the pool full) holds back
            // every younger response of either type.
            while let Some((ready, packet)) = self.pending_responses.pop_front() {
                if ready > now {
                    self.pending_responses.push_front((ready, packet));
                    break;
                }
                let for_stats = packet.clone();
                match self.enqueue_local(packet) {
                    Ok(()) => released(&for_stats),
                    Err(err) => {
                        self.pending_responses.push_front((now + 1, err.0));
                        break;
                    }
                }
            }
            return;
        }
        // Partitioned router: per-lane order is preserved, but a blocked
        // lane does not hold the other lane back. The due prefix is
        // compacted in place, so the queue keeps its capacity and the
        // responses not yet due are never visited.
        let mut pending = std::mem::take(&mut self.pending_responses);
        let mut blocked = [false; 2];
        let mut kept = 0;
        let mut due = pending.len();
        for idx in 0..pending.len() {
            let (ready, packet) = &mut pending[idx];
            if *ready > now {
                due = idx;
                break;
            }
            let lane = lane_index(packet.core);
            if !blocked[lane] {
                if self.enqueue_local(packet.clone()).is_ok() {
                    released(packet);
                    continue;
                }
                blocked[lane] = true;
                *ready = now + 1;
            }
            pending.swap(kept, idx);
            kept += 1;
        }
        pending.drain(kept..due);
        self.pending_responses = pending;
    }

    /// Flits waiting on the core side of a lane: network input buffer
    /// plus the issue backlog. The paper's occupancy counters sit where
    /// "packets injected from the CPU and GPU cores" queue (§III-B); with
    /// our execution-driven cores, demand that stalled at the issue stage
    /// must count too, or flow control would hide it from the DBA.
    pub(crate) fn lane_pressure_flits(&self, core: CoreType) -> u32 {
        self.lane(core).occupied_slots() + self.backlog_flits[lane_index(core)]
    }

    /// Instantaneous fractional occupancies (β_CPU, β_GPU) of Eq. 1–2,
    /// clamped to 1.
    pub(crate) fn betas(&self) -> (f64, f64) {
        let beta = |core: CoreType| {
            (f64::from(self.lane_pressure_flits(core))
                / f64::from(self.lane(core).capacity_slots()))
            .min(1.0)
        };
        (beta(CoreType::Cpu), beta(CoreType::Gpu))
    }

    /// Combined fractional occupancy of both input buffers
    /// (`Buf_ω / Buf_total` in Algorithm 1 step 7), clamped to 1.
    pub(crate) fn combined_occupancy(&self) -> f64 {
        let occupied =
            self.lane_pressure_flits(CoreType::Cpu) + self.lane_pressure_flits(CoreType::Gpu);
        let capacity = self.cpu_in.capacity_slots() + self.gpu_in.capacity_slots();
        (f64::from(occupied) / f64::from(capacity)).min(1.0)
    }

    /// Free receive slots not yet promised to an in-flight transfer.
    pub(crate) fn recv_headroom(&self) -> u32 {
        self.recv.free_slots().saturating_sub(self.recv_reserved)
    }

    /// Reserves receive slots for an incoming transfer.
    pub(crate) fn reserve_recv(&mut self, flits: u32) {
        debug_assert!(self.recv_headroom() >= flits, "over-booking receive buffer");
        self.recv_reserved += flits;
    }

    /// Releases a reservation whose transfer failed CRC verification —
    /// the slots return to the headroom pool so the retransmission can
    /// re-reserve them later.
    ///
    /// # Panics
    ///
    /// Panics if the reservation protocol was violated (releasing more
    /// than was reserved).
    pub(crate) fn release_recv(&mut self, flits: u32) {
        self.recv_reserved =
            self.recv_reserved.checked_sub(flits).expect("releasing without a reservation");
    }

    /// Lands a delivered packet into the receive buffer, consuming its
    /// reservation.
    ///
    /// # Panics
    ///
    /// Panics if the reservation protocol was violated (no space).
    pub(crate) fn land(&mut self, packet: Packet) {
        let flits = packet.flits();
        self.recv_reserved =
            self.recv_reserved.checked_sub(flits).expect("landing without a reservation");
        match packet.core {
            CoreType::Cpu => self.recv_cpu_slots += flits,
            CoreType::Gpu => self.recv_gpu_slots += flits,
        }
        self.counters.record_received(&packet);
        self.recv.push(packet).expect("reservation guaranteed space");
    }

    /// Pops the next received packet for ejection.
    pub(crate) fn eject(&mut self) -> Option<Packet> {
        let packet = self.recv.pop()?;
        let flits = packet.flits();
        match packet.core {
            CoreType::Cpu => self.recv_cpu_slots -= flits,
            CoreType::Gpu => self.recv_gpu_slots -= flits,
        }
        self.counters.record_ejected();
        Some(packet)
    }

    /// Accumulates this cycle's occupancy samples into the window state.
    pub(crate) fn sample_occupancy(&mut self) {
        self.counters.cycles += 1;
        self.counters.cpu_core_slot_cycles += u64::from(self.cpu_in.occupied_slots());
        self.counters.gpu_core_slot_cycles += u64::from(self.gpu_in.occupied_slots());
        self.counters.recv_cpu_slot_cycles += u64::from(self.recv_cpu_slots);
        self.counters.recv_gpu_slot_cycles += u64::from(self.recv_gpu_slots);
        self.beta_accum += self.combined_occupancy();
        if self.channels.iter().any(|t| t.is_some()) {
            self.counters.link_busy_cycles += 1;
        }
    }

    /// Window-averaged β_total and counter reset (Algorithm 1 step 7).
    pub(crate) fn drain_window_beta(&mut self) -> f64 {
        let cycles = self.counters.cycles.max(1) as f64;
        let beta = self.beta_accum / cycles;
        self.beta_accum = 0.0;
        beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_noc::{NodeId, SimRng, TrafficClass};

    fn router() -> PearlRouter {
        PearlRouter::new(0, false, 1, 64, 128, 128, WavelengthState::W64, 4, false)
    }

    fn request(core: CoreType) -> Packet {
        Packet::request(1, NodeId(0), NodeId(16), core, TrafficClass::CpuL1Data, Cycle(0))
    }

    fn response(core: CoreType) -> Packet {
        Packet::response(2, NodeId(16), NodeId(0), core, TrafficClass::L3, Cycle(0))
    }

    #[test]
    fn enqueue_routes_to_matching_lane() {
        let mut r = router();
        r.enqueue_local(request(CoreType::Cpu)).unwrap();
        r.enqueue_local(request(CoreType::Gpu)).unwrap();
        assert_eq!(r.cpu_in.len(), 1);
        assert_eq!(r.gpu_in.len(), 1);
        // Demand counters are the network's responsibility (issue time),
        // so enqueueing alone must not touch them.
        assert_eq!(r.counters.incoming_from_cores, 0);
    }

    #[test]
    fn betas_reflect_occupancy() {
        let mut r = router();
        r.enqueue_local(request(CoreType::Cpu)).unwrap();
        let (bc, bg) = r.betas();
        assert!((bc - 1.0 / 64.0).abs() < 1e-12);
        assert_eq!(bg, 0.0);
        assert!((r.combined_occupancy() - 1.0 / 192.0).abs() < 1e-12);
    }

    #[test]
    fn reservation_and_landing_lifecycle() {
        let mut r = router();
        assert_eq!(r.recv_headroom(), 128);
        r.reserve_recv(4);
        assert_eq!(r.recv_headroom(), 124);
        r.land(response(CoreType::Gpu));
        assert_eq!(r.recv_reserved, 0);
        assert_eq!(r.recv_gpu_slots, 4);
        assert_eq!(r.counters.incoming_from_routers, 1);
        let ejected = r.eject().unwrap();
        assert_eq!(ejected.id, 2);
        assert_eq!(r.recv_gpu_slots, 0);
        assert_eq!(r.counters.packets_to_core, 1);
    }

    #[test]
    #[should_panic(expected = "without a reservation")]
    fn landing_without_reservation_panics() {
        let mut r = router();
        r.land(response(CoreType::Cpu));
    }

    #[test]
    fn occupancy_sampling_accumulates() {
        let mut r = router();
        r.enqueue_local(request(CoreType::Cpu)).unwrap();
        r.sample_occupancy();
        r.sample_occupancy();
        assert_eq!(r.counters.cycles, 2);
        assert_eq!(r.counters.cpu_core_slot_cycles, 2);
        let beta = r.drain_window_beta();
        assert!((beta - 1.0 / 192.0).abs() < 1e-12);
        // Second drain starts fresh.
        r.sample_occupancy();
        assert!(r.drain_window_beta() > 0.0);
    }

    #[test]
    fn link_busy_sampled_only_when_transferring() {
        let mut r = router();
        r.sample_occupancy();
        assert_eq!(r.counters.link_busy_cycles, 0);
        r.channels[0] = Some(Transfer { packet_id: 1, busy_until: Cycle(10) });
        r.sample_occupancy();
        assert_eq!(r.counters.link_busy_cycles, 1);
    }

    #[test]
    fn full_lane_rejects_and_keeps_counters_clean() {
        let mut r = PearlRouter::new(0, false, 1, 4, 4, 8, WavelengthState::W64, 4, false);
        r.enqueue_local(response(CoreType::Cpu)).unwrap(); // fills 4/4
        let err = r.enqueue_local(request(CoreType::Cpu)).unwrap_err();
        // The rejected packet comes back intact for a later retry.
        assert_eq!(err.0.id, 1);
        assert_eq!(r.cpu_in.occupied_slots(), 4);
    }

    /// The queue-rebuilding release [`PearlRouter::release_responses`]
    /// replaced on partitioned routers, kept as its reference: every
    /// response is visited, and the kept ones move to a new queue.
    /// Returns the ids released, in order, and the number refused.
    fn rebuilding_release(router: &mut PearlRouter, now: Cycle) -> (Vec<u64>, usize) {
        let (mut released, mut refused) = (Vec::new(), 0);
        let mut blocked = [false; 2];
        let mut remaining = VecDeque::new();
        while let Some((ready, packet)) = router.pending_responses.pop_front() {
            let lane = usize::from(packet.core == CoreType::Gpu);
            if ready > now || blocked[lane] {
                remaining.push_back((ready, packet));
                continue;
            }
            let id = packet.id;
            match router.enqueue_local(packet) {
                Ok(()) => released.push(id),
                Err(err) => {
                    blocked[lane] = true;
                    refused += 1;
                    remaining.push_back((now + 1, err.0));
                }
            }
        }
        router.pending_responses = remaining;
        (released, refused)
    }

    /// `(ready, id)` of every queued response.
    fn queue_of(router: &PearlRouter) -> Vec<(Cycle, u64)> {
        router.pending_responses.iter().map(|(ready, p)| (*ready, p.id)).collect()
    }

    #[test]
    fn in_place_release_matches_the_rebuilding_release() {
        let mut rng = SimRng::from_seed(23);
        let mut next_id = 0;
        let mut packet = |rng: &mut SimRng, at: u64| {
            next_id += 1;
            let core = *rng.choose(&CoreType::ALL);
            Packet::response(next_id, NodeId(16), NodeId(0), core, TrafficClass::L3, Cycle(at))
        };
        let (mut released, mut refused) = (0, 0);
        for _ in 0..300 {
            let latency = rng.below(30) as u64;
            let slots = [4 + rng.below(13) as u32, 4 + rng.below(13) as u32];
            let make = || {
                PearlRouter::new(0, false, 1, slots[0], slots[1], 8, WavelengthState::W64, 4, false)
            };
            let (mut fast, mut oracle) = (make(), make());
            // A queue a run can reach at cycle `start`: due responses at
            // mixed cycles, then the waiting ones in `ready` order.
            let start = 100;
            let mut readies: Vec<u64> =
                (0..rng.below(12)).map(|_| start - rng.below(20) as u64).collect();
            let waiting = if latency == 0 { 0 } else { rng.below(12) };
            let mut later: Vec<u64> =
                (0..waiting).map(|_| start + 1 + rng.below(latency as usize) as u64).collect();
            later.sort_unstable();
            readies.extend(later);
            for ready in readies {
                let p = packet(&mut rng, ready);
                fast.pending_responses.push_back((Cycle(ready), p.clone()));
                oracle.pending_responses.push_back((Cycle(ready), p));
            }
            for now in start..start + 40 {
                let now = Cycle(now);
                assert!(responses_in_release_order(&fast.pending_responses, now, latency));
                let mut fast_released = Vec::new();
                fast.release_responses(now, |p| fast_released.push(p.id));
                let (oracle_released, oracle_refused) = rebuilding_release(&mut oracle, now);
                assert_eq!(fast_released, oracle_released, "released at {now:?}");
                assert_eq!(queue_of(&fast), queue_of(&oracle), "queue at {now:?}");
                for core in CoreType::ALL {
                    assert_eq!(fast.lane(core).export_state(), oracle.lane(core).export_state());
                }
                released += fast_released.len();
                refused += oracle_refused;
                // Launch drains some lane heads; ejection queues new
                // responses at the service latency.
                for core in CoreType::ALL {
                    for _ in 0..rng.below(3) {
                        assert_eq!(
                            fast.lane_mut(core).pop().map(|p| p.id),
                            oracle.lane_mut(core).pop().map(|p| p.id)
                        );
                    }
                }
                for _ in 0..rng.below(4) {
                    let p = packet(&mut rng, now.as_u64());
                    fast.pending_responses.push_back((now + latency, p.clone()));
                    oracle.pending_responses.push_back((now + latency, p));
                }
            }
        }
        // Both the release and the refusal paths ran.
        assert!(released > 1_000 && refused > 100, "released {released}, refused {refused}");
    }

    #[test]
    fn release_order_check_accepts_reachable_queues_only() {
        let queue = |readies: &[u64]| -> VecDeque<(Cycle, Packet)> {
            readies.iter().map(|&r| (Cycle(r), response(CoreType::Cpu))).collect()
        };
        let now = Cycle(50);
        // Due responses may sit at any cycle up to `now`, in any order.
        assert!(responses_in_release_order(&queue(&[50, 12, 49, 51, 51, 60]), now, 10));
        assert!(responses_in_release_order(&queue(&[]), now, 0));
        // A waiting response ahead of a later-due one is out of order.
        assert!(!responses_in_release_order(&queue(&[55, 52]), now, 10));
        // So is a due response behind a waiting one.
        assert!(!responses_in_release_order(&queue(&[51, 50]), now, 10));
        // Nothing can wait past the router's service latency.
        assert!(!responses_in_release_order(&queue(&[49, 61]), now, 10));
        assert!(responses_in_release_order(&queue(&[49, 60]), now, 10));
    }
}
