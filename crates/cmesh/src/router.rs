//! The CMESH wormhole router: 5 ports × 4 VCs × 4-slot buffers.

use crate::routing::{Direction, Port};
use pearl_noc::{CreditCounter, Flit, NodeId, VirtualChannel};

/// One mesh router's buffering and flow-control state.
///
/// Switch allocation itself is orchestrated by
/// [`crate::network::CmeshNetwork`] because it touches two routers at
/// once (credits travel upstream, flits downstream); the router owns the
/// per-port virtual channels, the per-output credit counters and the
/// round-robin pointers that keep arbitration fair.
#[derive(Debug)]
pub struct CmeshRouter {
    node: NodeId,
    /// Input VCs, indexed `[Port::index()][vc]`.
    pub(crate) inputs: Vec<Vec<VirtualChannel>>,
    /// Credits towards the downstream input VC of each mesh output,
    /// indexed `[Direction as usize][vc]`. `None` entries are chip-edge
    /// outputs with no neighbor.
    pub(crate) out_credits: Vec<Option<Vec<CreditCounter>>>,
    /// Wormhole VC allocation: which packet currently owns each mesh
    /// output VC (`[Direction as usize][vc]`). A downstream VC carries
    /// one packet at a time, head to tail.
    pub(crate) out_vc_owner: Vec<Vec<Option<u64>>>,
    /// Per-output round-robin pointer over flattened (input, vc) pairs.
    pub(crate) rr: Vec<usize>,
    /// Earliest cycle each mesh output link is free again (bandwidth-
    /// reduced links pace flits out more slowly).
    pub(crate) link_free_at: [u64; 4],
    /// Occupancy mask: bit `port * vcs + vc` is set while that input VC
    /// holds a flit. Derived from `inputs`; never serialized or hashed.
    pub(crate) occupied: u64,
    /// Per-output candidate masks: the occupied input VCs whose head
    /// packet routes to each output (`[Port::index()]`, same bit layout
    /// as `occupied`). Rebuilt by route computation every cycle.
    pub(crate) routed: [u64; 5],
}

impl CmeshRouter {
    /// Creates a router with `vcs` VCs of `slots` flits per input port.
    /// `has_neighbor` says which of the four mesh outputs exist.
    pub(crate) fn new(
        node: NodeId,
        vcs: usize,
        slots: usize,
        has_neighbor: [bool; 4],
    ) -> CmeshRouter {
        let inputs = Port::ALL
            .iter()
            .map(|_| (0..vcs).map(|_| VirtualChannel::new(slots)).collect())
            .collect();
        let out_credits = has_neighbor
            .iter()
            .map(|&exists| {
                exists.then(|| (0..vcs).map(|_| CreditCounter::new(slots as u32)).collect())
            })
            .collect();
        let out_vc_owner = (0..4).map(|_| vec![None; vcs]).collect();
        CmeshRouter {
            node,
            inputs,
            out_credits,
            out_vc_owner,
            rr: vec![0; 5],
            link_free_at: [0; 4],
            occupied: 0,
            routed: [0; 5],
        }
    }

    /// Bit of input VC `(port, vc)` in the occupancy and candidate masks.
    #[inline]
    fn bit(&self, port: Port, vc: usize) -> u64 {
        1 << (port.index() * self.vcs() + vc)
    }

    /// This router's node id.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of VCs per port.
    #[inline]
    pub fn vcs(&self) -> usize {
        self.inputs[0].len()
    }

    /// Total buffered flits across all ports (for diagnostics).
    pub fn buffered_flits(&self) -> usize {
        self.inputs.iter().flatten().map(VirtualChannel::len).sum()
    }

    /// A free VC on the local input port, if any.
    ///
    /// (The network's injection path additionally excludes VCs claimed
    /// by parallel streams; this helper serves tests and diagnostics.)
    #[allow(dead_code)]
    pub(crate) fn free_local_vc(&self) -> Option<usize> {
        self.inputs[Port::Local.index()].iter().position(VirtualChannel::is_free)
    }

    /// Pushes a flit into an input VC.
    ///
    /// # Panics
    ///
    /// Panics if the VC rejects the flit — under credit flow control that
    /// is a protocol violation, not a runtime condition.
    pub(crate) fn accept_flit(&mut self, port: Port, vc: usize, flit: Flit) {
        self.inputs[port.index()][vc]
            .push(flit)
            .unwrap_or_else(|f| panic!("credit protocol violated at {}: {f}", self.node));
        self.occupied |= self.bit(port, vc);
    }

    /// Pops the head flit of an input VC, clearing its occupancy bit
    /// when the VC empties.
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty: switch allocation only grants
    /// occupied VCs.
    pub(crate) fn pop_flit(&mut self, port: Port, vc: usize) -> Flit {
        let channel = &mut self.inputs[port.index()][vc];
        let flit = channel.pop().expect("switch allocation granted an empty VC");
        if channel.is_empty() {
            self.occupied &= !self.bit(port, vc);
        }
        flit
    }

    /// Recomputes the occupancy mask from the input VCs (after their
    /// state is restored from a checkpoint).
    pub(crate) fn sync_occupancy(&mut self) {
        self.occupied = self
            .inputs
            .iter()
            .flatten()
            .enumerate()
            .filter(|(_, channel)| !channel.is_empty())
            .fold(0, |mask, (flat, _)| mask | 1 << flat);
    }

    /// Credit available towards the downstream VC of a mesh output.
    pub(crate) fn has_credit(&self, dir: Direction, vc: usize) -> bool {
        self.out_credits[dir as usize].as_ref().is_some_and(|credits| credits[vc].has_credit())
    }

    /// Consumes one downstream credit.
    ///
    /// # Panics
    ///
    /// Panics when no credit is available (protocol violation).
    pub(crate) fn consume_credit(&mut self, dir: Direction, vc: usize) {
        self.out_credits[dir as usize].as_mut().expect("edge output has no downstream")[vc]
            .consume()
            .expect("switch allocation granted without credit");
    }

    /// Whether `packet_id`'s flit may use mesh output VC `(dir, vc)`:
    /// either the packet already owns it, or it is free and the flit is a
    /// head that can claim it.
    pub(crate) fn out_vc_usable(
        &self,
        dir: Direction,
        vc: usize,
        packet_id: u64,
        is_head: bool,
    ) -> bool {
        match self.out_vc_owner[dir as usize][vc] {
            Some(owner) => owner == packet_id,
            None => is_head,
        }
    }

    /// Updates output-VC ownership around a granted flit: heads claim,
    /// tails release.
    pub(crate) fn update_out_vc_owner(
        &mut self,
        dir: Direction,
        vc: usize,
        packet_id: u64,
        is_head: bool,
        is_tail: bool,
    ) {
        let slot = &mut self.out_vc_owner[dir as usize][vc];
        if is_head {
            debug_assert!(slot.is_none(), "claiming an owned output VC");
            *slot = Some(packet_id);
        }
        if is_tail {
            *slot = None;
        }
    }

    /// Returns one credit (called when the downstream VC drains).
    pub(crate) fn replenish_credit(&mut self, dir: Direction, vc: usize) {
        self.out_credits[dir as usize].as_mut().expect("credit returned for edge output")[vc]
            .replenish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_noc::{CoreType, Cycle, Packet, TrafficClass};

    fn router() -> CmeshRouter {
        CmeshRouter::new(NodeId(5), 4, 4, [true, true, true, true])
    }

    fn flits() -> Vec<Flit> {
        let p =
            Packet::response(1, NodeId(0), NodeId(5), CoreType::Cpu, TrafficClass::L3, Cycle(0));
        Flit::decompose(&p)
    }

    #[test]
    fn fresh_router_has_free_local_vc() {
        let r = router();
        assert_eq!(r.free_local_vc(), Some(0));
        assert_eq!(r.vcs(), 4);
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn local_vc_allocation_skips_busy_channels() {
        let mut r = router();
        let f = flits();
        r.accept_flit(Port::Local, 0, f[0].clone());
        assert_eq!(r.free_local_vc(), Some(1));
    }

    #[test]
    fn credit_cycle() {
        let mut r = router();
        assert!(r.has_credit(Direction::East, 0));
        for _ in 0..4 {
            r.consume_credit(Direction::East, 0);
        }
        assert!(!r.has_credit(Direction::East, 0));
        r.replenish_credit(Direction::East, 0);
        assert!(r.has_credit(Direction::East, 0));
    }

    #[test]
    fn edge_router_has_no_credit_off_chip() {
        let r = CmeshRouter::new(NodeId(0), 4, 4, [false, true, true, false]);
        assert!(!r.has_credit(Direction::North, 0));
        assert!(r.has_credit(Direction::East, 0));
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn overfull_vc_panics() {
        let mut r = router();
        let f = flits();
        for flit in &f {
            r.accept_flit(Port::Local, 0, flit.clone());
        }
        // VC holds 4 slots; a 5th flit is a protocol violation.
        r.accept_flit(Port::Local, 0, f[0].clone());
    }
}
