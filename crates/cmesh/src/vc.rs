//! A router's input virtual channels, held in one flat ring buffer.
//!
//! The paper's CMESH router has 4 virtual channels per input port with 4
//! buffer slots per VC, each slot 128 bits wide (§IV). A VC is a flit
//! FIFO that may hold several packets *back-to-back* but never
//! interleaved: once a head flit enters, only that packet's flits may
//! follow until its tail arrives.
//!
//! [`InputVcs`] keeps every input VC of one router in a single `Vec` of
//! `channels × slots_per_vc` [`FlitSlot`]s, channel `c` owning the ring
//! of slots `c × slots_per_vc ..`, plus a head position, a length, the
//! inflowing packet and the head packet's route per channel. A flit slot
//! names its packet by a handle (the network's packet-slab index) and
//! never carries the payload. Beside the rings sit the masks switch
//! allocation reads, kept current by every push, pop and route: which
//! channels hold a flit, which of those have a routed head packet per
//! output, and which still wait for a route.

use crate::routing::Port;
use pearl_noc::FlitKind;
use std::fmt;

/// One flit in the mesh: flit `index` of the packet with handle `pkt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitSlot {
    /// Handle of the packet this flit belongs to (the network's slab
    /// index of its payload).
    pub pkt: u32,
    /// Index of this flit within its packet (0-based).
    pub index: u16,
    /// Head/body/tail marker.
    pub kind: FlitKind,
}

impl fmt::Display for FlitSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flit {}/{} of packet handle {}", self.index, self.kind, self.pkt)
    }
}

/// Why a channel refused a flit. Under credit flow control each is a
/// protocol violation, not a runtime condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The channel holds `slots_per_vc` flits already.
    Full,
    /// A body or tail flit arrived with no packet streaming in.
    BodyWithoutHead,
    /// A flit of another packet arrived while one is streaming in.
    Interleaved,
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Refusal::Full => "full VC",
            Refusal::BodyWithoutHead => "body flit without its head",
            Refusal::Interleaved => "interleaved packet",
        })
    }
}

/// Marks a channel with no packet streaming in.
const NO_PACKET: u32 = u32::MAX;
/// Marks a channel whose head packet has no route yet.
const NO_ROUTE: u8 = u8::MAX;

/// Ring position and wormhole state of one channel.
#[derive(Debug, Clone, Copy)]
struct Channel {
    /// Ring position of the oldest flit.
    head: u16,
    /// Buffered flits.
    len: u16,
    /// Packet streaming in: set by a head flit, cleared by its tail.
    inflow: u32,
    /// Output chosen by route computation for the head packet; cleared
    /// when that packet's tail departs.
    route: u8,
}

/// Every input VC of one router: `channels` FIFOs of `slots_per_vc`
/// flits each in one ring buffer, with derived occupancy and route masks
/// (one bit per channel, so at most 64 channels).
#[derive(Debug, Clone)]
pub struct InputVcs {
    slots_per_vc: usize,
    ring: Vec<FlitSlot>,
    channels: Vec<Channel>,
    /// Channels holding a flit.
    occupied: u64,
    /// Per output port: occupied channels whose head packet routes there.
    routed: [u64; 5],
    /// Occupied channels whose head packet has no route yet.
    unrouted: u64,
}

impl InputVcs {
    /// `channels` empty VCs of `slots_per_vc` flits each.
    ///
    /// # Panics
    ///
    /// Panics on more than 64 channels (the masks hold one bit each), or
    /// on `slots_per_vc` outside `1..=u16::MAX` (ring positions are
    /// `u16`).
    pub fn new(channels: usize, slots_per_vc: usize) -> InputVcs {
        assert!(channels <= 64, "at most 64 channels, one mask bit each");
        assert!(
            (1..=usize::from(u16::MAX)).contains(&slots_per_vc),
            "VC capacity must be in 1..=65535"
        );
        let empty = FlitSlot { pkt: NO_PACKET, index: 0, kind: FlitKind::HeadTail };
        let idle = Channel { head: 0, len: 0, inflow: NO_PACKET, route: NO_ROUTE };
        InputVcs {
            slots_per_vc,
            ring: vec![empty; channels * slots_per_vc],
            channels: vec![idle; channels],
            occupied: 0,
            routed: [0; 5],
            unrouted: 0,
        }
    }

    /// Capacity of each channel in flits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots_per_vc
    }

    /// Number of channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Flits buffered in channel `ch`.
    #[inline]
    pub fn len(&self, ch: usize) -> usize {
        usize::from(self.channels[ch].len)
    }

    /// True when channel `ch` buffers no flit.
    #[inline]
    pub fn is_empty(&self, ch: usize) -> bool {
        self.channels[ch].len == 0
    }

    /// True when no further flit fits in channel `ch`.
    #[inline]
    pub fn is_full(&self, ch: usize) -> bool {
        self.len(ch) >= self.slots_per_vc
    }

    /// Handle of the packet streaming into channel `ch`, if any.
    #[inline]
    pub fn inflow(&self, ch: usize) -> Option<u32> {
        Some(self.channels[ch].inflow).filter(|&p| p != NO_PACKET)
    }

    /// True when channel `ch` is idle (no buffered flit, no packet
    /// mid-stream): the condition for giving it to a new packet.
    #[inline]
    pub fn is_free(&self, ch: usize) -> bool {
        let c = self.channels[ch];
        c.len == 0 && c.inflow == NO_PACKET
    }

    /// Output port chosen for the head packet of channel `ch`, if routed.
    #[inline]
    pub fn route(&self, ch: usize) -> Option<usize> {
        Some(self.channels[ch].route).filter(|&r| r != NO_ROUTE).map(usize::from)
    }

    /// The flit at the head of channel `ch`.
    #[inline]
    pub fn peek(&self, ch: usize) -> Option<FlitSlot> {
        let c = self.channels[ch];
        (c.len > 0).then(|| self.ring[ch * self.slots_per_vc + usize::from(c.head)])
    }

    /// The flits of channel `ch`, head first.
    pub fn flits(&self, ch: usize) -> impl Iterator<Item = FlitSlot> + '_ {
        let c = self.channels[ch];
        let base = ch * self.slots_per_vc;
        (0..usize::from(c.len))
            .map(move |k| self.ring[base + (usize::from(c.head) + k) % self.slots_per_vc])
    }

    /// Channels holding a flit, one bit per channel.
    #[inline]
    pub fn occupied(&self) -> u64 {
        self.occupied
    }

    /// Occupied channels whose head packet routes to output port `out`.
    #[inline]
    pub fn routed(&self, out: usize) -> u64 {
        self.routed[out]
    }

    /// Occupied channels whose head packet has no route yet.
    #[inline]
    pub fn unrouted(&self) -> u64 {
        self.unrouted
    }

    /// Appends a flit to channel `ch`.
    ///
    /// # Errors
    ///
    /// Refuses the flit, changing nothing, if the channel is full, if a
    /// body or tail flit arrives with no packet streaming in, or if a
    /// flit of another packet (or a second head) arrives mid-stream.
    pub fn try_accept(&mut self, ch: usize, flit: FlitSlot) -> Result<(), Refusal> {
        let spv = self.slots_per_vc;
        let c = &mut self.channels[ch];
        if usize::from(c.len) >= spv {
            return Err(Refusal::Full);
        }
        if c.inflow == NO_PACKET {
            if !flit.kind.is_head() {
                return Err(Refusal::BodyWithoutHead);
            }
            if !flit.kind.is_tail() {
                c.inflow = flit.pkt;
            }
        } else {
            if flit.kind.is_head() || c.inflow != flit.pkt {
                return Err(Refusal::Interleaved);
            }
            if flit.kind.is_tail() {
                c.inflow = NO_PACKET;
            }
        }
        let mut pos = usize::from(c.head) + usize::from(c.len);
        if pos >= spv {
            pos -= spv;
        }
        self.ring[ch * spv + pos] = flit;
        c.len += 1;
        if c.len == 1 {
            let bit = 1 << ch;
            self.occupied |= bit;
            match c.route {
                NO_ROUTE => self.unrouted |= bit,
                out => self.routed[usize::from(out)] |= bit,
            }
        }
        Ok(())
    }

    /// Removes the flit at the head of channel `ch`. A departing tail
    /// clears the route: the next packet must be routed afresh.
    pub fn pop(&mut self, ch: usize) -> Option<FlitSlot> {
        let spv = self.slots_per_vc;
        let c = &mut self.channels[ch];
        if c.len == 0 {
            return None;
        }
        let flit = self.ring[ch * spv + usize::from(c.head)];
        c.head = if usize::from(c.head) + 1 == spv { 0 } else { c.head + 1 };
        c.len -= 1;
        let tail = flit.kind.is_tail();
        if tail || c.len == 0 {
            let bit = 1 << ch;
            match c.route {
                NO_ROUTE => self.unrouted &= !bit,
                out => self.routed[usize::from(out)] &= !bit,
            }
            if tail {
                c.route = NO_ROUTE;
            }
            if c.len == 0 {
                self.occupied &= !bit;
            } else {
                self.unrouted |= bit;
            }
        }
        Some(flit)
    }

    /// Records the route of channel `ch`'s head packet.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not an output port index.
    pub fn set_route(&mut self, ch: usize, out: usize) {
        assert!(out < Port::ALL.len(), "output port {out} out of range");
        let c = &mut self.channels[ch];
        if c.len > 0 {
            let bit = 1 << ch;
            match c.route {
                NO_ROUTE => self.unrouted &= !bit,
                old => self.routed[usize::from(old)] &= !bit,
            }
            self.routed[out] |= bit;
        }
        c.route = out as u8;
    }

    /// Replaces channel `ch`'s contents and wormhole state (restoring a
    /// checkpoint), keeping the masks current.
    ///
    /// # Panics
    ///
    /// Panics if `flits` exceeds the capacity or `route` is not an output
    /// port index: restore checks both first.
    pub(crate) fn load(
        &mut self,
        ch: usize,
        flits: &[FlitSlot],
        inflow: Option<u32>,
        route: Option<usize>,
    ) {
        assert!(flits.len() <= self.slots_per_vc, "{} flits overflow a VC", flits.len());
        let bit = 1 << ch;
        self.occupied &= !bit;
        self.unrouted &= !bit;
        self.routed.iter_mut().for_each(|mask| *mask &= !bit);
        let base = ch * self.slots_per_vc;
        self.ring[base..base + flits.len()].copy_from_slice(flits);
        self.channels[ch] = Channel {
            head: 0,
            len: flits.len() as u16,
            inflow: inflow.unwrap_or(NO_PACKET),
            route: NO_ROUTE,
        };
        if !flits.is_empty() {
            self.occupied |= bit;
            self.unrouted |= bit;
        }
        if let Some(out) = route {
            self.set_route(ch, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_noc::SimRng;
    use std::collections::{HashMap, VecDeque};

    /// The flits of packet `pkt`, `n` flits long.
    fn packet(pkt: u32, n: u16) -> Vec<FlitSlot> {
        (0..n)
            .map(|index| FlitSlot { pkt, index, kind: FlitKind::of(index.into(), n.into()) })
            .collect()
    }

    fn flits_of_response(pkt: u32) -> Vec<FlitSlot> {
        packet(pkt, 4)
    }

    fn flit_of_request(pkt: u32) -> FlitSlot {
        packet(pkt, 1)[0]
    }

    #[test]
    fn inflow_follows_head_and_tail() {
        let mut vc = InputVcs::new(1, 4);
        let flits = flits_of_response(1);
        assert!(vc.is_free(0));
        vc.try_accept(0, flits[0]).unwrap();
        assert_eq!(vc.inflow(0), Some(1));
        vc.try_accept(0, flits[1]).unwrap();
        vc.try_accept(0, flits[2]).unwrap();
        vc.try_accept(0, flits[3]).unwrap(); // tail arrives
        assert_eq!(vc.inflow(0), None);
        // Not free until drained.
        assert!(!vc.is_free(0));
        for _ in 0..4 {
            vc.pop(0).unwrap();
        }
        assert!(vc.is_free(0));
    }

    #[test]
    fn rejects_interleaving_of_packets() {
        let mut vc = InputVcs::new(1, 8);
        let a = flits_of_response(1);
        let b = flits_of_response(2);
        vc.try_accept(0, a[0]).unwrap();
        // Head of a different packet must be rejected mid-stream.
        assert_eq!(vc.try_accept(0, b[0]), Err(Refusal::Interleaved));
        // Body of a different packet likewise.
        assert_eq!(vc.try_accept(0, b[1]), Err(Refusal::Interleaved));
        // Body of the streaming packet is fine.
        vc.try_accept(0, a[1]).unwrap();
    }

    #[test]
    fn back_to_back_packets_are_allowed() {
        let mut vc = InputVcs::new(1, 8);
        for f in flits_of_response(1) {
            vc.try_accept(0, f).unwrap();
        }
        // A fully arrived; B's head may now queue behind A's tail.
        let b = flits_of_response(2);
        vc.try_accept(0, b[0]).unwrap();
        assert_eq!(vc.inflow(0), Some(2));
        assert_eq!(vc.len(0), 5);
    }

    #[test]
    fn single_flit_packets_leave_channel_unallocated() {
        let mut vc = InputVcs::new(1, 4);
        vc.try_accept(0, flit_of_request(1)).unwrap();
        assert_eq!(vc.inflow(0), None);
        vc.try_accept(0, flit_of_request(2)).unwrap();
        assert_eq!(vc.len(0), 2);
    }

    #[test]
    fn rejects_body_without_head() {
        let mut vc = InputVcs::new(1, 8);
        let a = flits_of_response(1);
        assert_eq!(vc.try_accept(0, a[1]), Err(Refusal::BodyWithoutHead));
    }

    #[test]
    fn full_channel_rejects() {
        let mut vc = InputVcs::new(1, 2);
        let a = flits_of_response(1);
        vc.try_accept(0, a[0]).unwrap();
        vc.try_accept(0, a[1]).unwrap();
        assert!(vc.is_full(0));
        assert_eq!(vc.try_accept(0, a[2]), Err(Refusal::Full));
        assert_eq!(vc.len(0), vc.capacity());
    }

    #[test]
    fn route_clears_at_tail_departure() {
        let mut vc = InputVcs::new(1, 4);
        for f in flits_of_response(1) {
            vc.try_accept(0, f).unwrap();
        }
        assert_eq!(vc.route(0), None);
        vc.set_route(0, 3);
        assert_eq!(vc.route(0), Some(3));
        for _ in 0..3 {
            vc.pop(0);
            assert_eq!(vc.route(0), Some(3));
        }
        vc.pop(0); // tail departs
        assert_eq!(vc.route(0), None);
    }

    /// The `VecDeque` channel the ring replaced, kept as its reference: a
    /// bounded FIFO plus the packet streaming in and the head's route.
    #[derive(Debug, Default)]
    struct DequeChannel {
        fifo: VecDeque<FlitSlot>,
        capacity: usize,
        inflow: Option<u32>,
        route: Option<usize>,
    }

    impl DequeChannel {
        fn push(&mut self, flit: FlitSlot) -> Result<(), FlitSlot> {
            if self.fifo.len() >= self.capacity {
                return Err(flit);
            }
            match self.inflow {
                None => {
                    if !flit.kind.is_head() {
                        return Err(flit);
                    }
                    if !flit.kind.is_tail() {
                        self.inflow = Some(flit.pkt);
                    }
                }
                Some(id) => {
                    if flit.kind.is_head() || id != flit.pkt {
                        return Err(flit);
                    }
                    if flit.kind.is_tail() {
                        self.inflow = None;
                    }
                }
            }
            self.fifo.push_back(flit);
            Ok(())
        }

        fn pop(&mut self) -> Option<FlitSlot> {
            let flit = self.fifo.pop_front()?;
            if flit.kind.is_tail() {
                self.route = None;
            }
            Some(flit)
        }
    }

    /// Drives a ring of several channels and one oracle channel per ring
    /// channel through the same seeded random pushes, pops and routes —
    /// protocol violations included — and compares every result, every
    /// channel's state and the masks after each step.
    #[test]
    fn ring_matches_the_vecdeque_channel() {
        for (seed, channels, slots) in [(1, 20, 4), (2, 5, 1), (3, 60, 3), (4, 8, 7)] {
            let mut rng = SimRng::from_seed(seed);
            let mut ring = InputVcs::new(channels, slots);
            let mut oracle: Vec<DequeChannel> = (0..channels)
                .map(|_| DequeChannel { capacity: slots, ..DequeChannel::default() })
                .collect();
            // Next flit index of each packet that has streamed in.
            let mut progress: HashMap<u32, u16> = HashMap::new();
            let mut next_pkt = 0u32;
            let (mut refused, mut accepted) = (0, 0);
            for _ in 0..20_000 {
                let ch = rng.below(channels);
                match rng.below(8) {
                    0..=3 => {
                        let len = |rng: &mut SimRng| if rng.chance(0.5) { 1 } else { 4 };
                        let flit = if rng.chance(0.15) {
                            // Any flit of any packet: mostly a violation.
                            let n = len(&mut rng);
                            let index = rng.below(n) as u16;
                            let pkt = rng.below(next_pkt as usize + 1) as u32;
                            FlitSlot { pkt, index, kind: FlitKind::of(index.into(), n as u32) }
                        } else if let Some(pkt) = oracle[ch].inflow {
                            // The next flit of the packet streaming in.
                            let index = progress[&pkt].min(3);
                            FlitSlot { pkt, index, kind: FlitKind::of(index.into(), 4) }
                        } else {
                            next_pkt += 1;
                            let kind = FlitKind::of(0, len(&mut rng) as u32);
                            FlitSlot { pkt: next_pkt, index: 0, kind }
                        };
                        let result = ring.try_accept(ch, flit);
                        assert_eq!(result.is_ok(), oracle[ch].push(flit).is_ok(), "{flit}");
                        if result.is_ok() {
                            progress.insert(flit.pkt, flit.index + 1);
                            accepted += 1;
                        } else {
                            refused += 1;
                        }
                    }
                    4..=6 => assert_eq!(ring.pop(ch), oracle[ch].pop()),
                    _ => {
                        if !oracle[ch].fifo.is_empty() {
                            let out = rng.below(5);
                            ring.set_route(ch, out);
                            oracle[ch].route = Some(out);
                        }
                    }
                }
                let (mut occupied, mut routed, mut unrouted) = (0u64, [0u64; 5], 0u64);
                for (c, channel) in oracle.iter().enumerate() {
                    assert_eq!(ring.flits(c).collect::<Vec<_>>(), Vec::from(channel.fifo.clone()));
                    assert_eq!(ring.peek(c), channel.fifo.front().copied());
                    assert_eq!(ring.inflow(c), channel.inflow);
                    assert_eq!(ring.route(c), channel.route);
                    assert_eq!(
                        ring.is_free(c),
                        channel.fifo.is_empty() && channel.inflow.is_none()
                    );
                    if !channel.fifo.is_empty() {
                        occupied |= 1 << c;
                        match channel.route {
                            Some(out) => routed[out] |= 1 << c,
                            None => unrouted |= 1 << c,
                        }
                    }
                }
                assert_eq!(ring.occupied(), occupied);
                assert_eq!(ring.unrouted(), unrouted);
                assert!((0..5).all(|out| ring.routed(out) == routed[out]));
            }
            assert!(
                accepted > 1_000 && refused > 100,
                "seed {seed}: {accepted} in, {refused} refused"
            );
        }
    }

    #[test]
    fn load_replaces_a_channel_and_its_masks() {
        let mut vcs = InputVcs::new(4, 4);
        for f in flits_of_response(1) {
            vcs.try_accept(2, f).unwrap();
        }
        vcs.set_route(2, 1);
        let b = flits_of_response(7);
        vcs.load(2, &b[1..3], Some(7), Some(4));
        assert_eq!(vcs.flits(2).collect::<Vec<_>>(), &b[1..3]);
        assert_eq!((vcs.inflow(2), vcs.route(2)), (Some(7), Some(4)));
        assert_eq!((vcs.routed(1), vcs.routed(4), vcs.occupied()), (0, 1 << 2, 1 << 2));
        vcs.try_accept(2, b[3]).unwrap();
        vcs.load(2, &[], None, None);
        assert_eq!((vcs.occupied(), vcs.unrouted(), vcs.routed(4)), (0, 0, 0));
        assert!(vcs.is_free(2));
    }
}
