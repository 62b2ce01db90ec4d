//! The CMESH wormhole router: 5 ports × 4 VCs × 4-slot buffers.

use crate::credit::Credits;
use crate::routing::{Direction, Port};
use crate::vc::{FlitSlot, InputVcs};
use pearl_noc::NodeId;

/// Marks a mesh output VC no packet owns.
const UNOWNED: u32 = u32::MAX;

/// One mesh router's buffering and flow-control state.
///
/// Switch allocation itself is orchestrated by
/// [`crate::network::CmeshNetwork`] because it touches two routers at
/// once (credits travel upstream, flits downstream); the router owns the
/// input VCs, the per-output credits and VC owners, and the round-robin
/// pointers that keep arbitration fair.
#[derive(Debug, Clone)]
pub struct CmeshRouter {
    node: NodeId,
    vcs: usize,
    /// Input VCs, channel `Port::index() * vcs + vc`.
    pub(crate) inputs: InputVcs,
    /// Credits towards the downstream input VC of each mesh output.
    pub(crate) credits: Credits,
    /// Wormhole VC allocation: the handle of the packet that owns each
    /// mesh output VC (`[dir * vcs + vc]`), or [`UNOWNED`]. A downstream
    /// VC carries one packet at a time, head to tail.
    out_vc_owner: Vec<u32>,
    /// Per-output round-robin pointer over flattened (input, vc) pairs.
    pub(crate) rr: [usize; 5],
    /// Earliest cycle each mesh output link is free again (bandwidth-
    /// reduced links pace flits out more slowly).
    pub(crate) link_free_at: [u64; 4],
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
        let max = u16::try_from(slots).expect("CmeshConfig::validate caps slots_per_vc");
        CmeshRouter {
            node,
            vcs,
            inputs: InputVcs::new(Port::ALL.len() * vcs, slots),
            credits: Credits::new(vcs, max, has_neighbor),
            out_vc_owner: vec![UNOWNED; Direction::ALL.len() * vcs],
            rr: [0; 5],
            link_free_at: [0; 4],
        }
    }

    /// This router's node id.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of VCs per port.
    #[inline]
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Total buffered flits across all ports (for diagnostics).
    pub fn buffered_flits(&self) -> usize {
        (0..self.inputs.channels()).map(|ch| self.inputs.len(ch)).sum()
    }

    /// Channel index of input VC `(port, vc)`.
    #[inline]
    pub(crate) fn channel(&self, port: Port, vc: usize) -> usize {
        port.index() * self.vcs + vc
    }

    /// Whether input VC `(port, vc)` is idle: no flit, no packet
    /// streaming in.
    #[inline]
    pub(crate) fn is_free(&self, port: Port, vc: usize) -> bool {
        self.inputs.is_free(self.channel(port, vc))
    }

    /// Pushes a flit into an input VC.
    ///
    /// # Panics
    ///
    /// Panics if the VC refuses the flit — under credit flow control that
    /// is a protocol violation, not a runtime condition.
    #[inline]
    pub(crate) fn accept(&mut self, port: Port, vc: usize, flit: FlitSlot) {
        let ch = self.channel(port, vc);
        if let Err(why) = self.inputs.try_accept(ch, flit) {
            panic!("credit protocol violated at {}: {why} ({flit})", self.node);
        }
    }

    /// Pops the head flit of input channel `ch`.
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty: switch allocation only grants
    /// occupied VCs.
    #[inline]
    pub(crate) fn pop(&mut self, ch: usize) -> FlitSlot {
        self.inputs.pop(ch).expect("switch allocation granted an empty VC")
    }

    /// Credit available towards the downstream VC of a mesh output.
    #[inline]
    pub(crate) fn has_credit(&self, dir: Direction, vc: usize) -> bool {
        self.credits.has_credit(dir, vc)
    }

    /// Consumes one downstream credit.
    ///
    /// # Panics
    ///
    /// Panics when no credit is available (protocol violation).
    #[inline]
    pub(crate) fn consume_credit(&mut self, dir: Direction, vc: usize) {
        self.credits.consume(dir, vc);
    }

    /// Returns one credit (called when the downstream VC drains).
    #[inline]
    pub(crate) fn replenish_credit(&mut self, dir: Direction, vc: usize) {
        self.credits.replenish(dir, vc);
    }

    /// The packet owning mesh output VC `(dir, vc)`, if any.
    #[inline]
    pub(crate) fn out_vc_owner(&self, dir: Direction, vc: usize) -> Option<u32> {
        Some(self.out_vc_owner[dir as usize * self.vcs + vc]).filter(|&p| p != UNOWNED)
    }

    /// Sets the owner of mesh output VC `(dir, vc)` (restoring a
    /// checkpoint).
    pub(crate) fn set_out_vc_owner(&mut self, dir: Direction, vc: usize, owner: Option<u32>) {
        self.out_vc_owner[dir as usize * self.vcs + vc] = owner.unwrap_or(UNOWNED);
    }

    /// Whether packet `pkt`'s flit may use mesh output VC `(dir, vc)`:
    /// either the packet already owns it, or it is free and the flit is a
    /// head that can claim it.
    #[inline]
    pub(crate) fn out_vc_usable(&self, dir: Direction, vc: usize, pkt: u32, is_head: bool) -> bool {
        match self.out_vc_owner[dir as usize * self.vcs + vc] {
            UNOWNED => is_head,
            owner => owner == pkt,
        }
    }

    /// Updates output-VC ownership around a granted flit: heads claim,
    /// tails release.
    #[inline]
    pub(crate) fn update_out_vc_owner(&mut self, dir: Direction, vc: usize, flit: FlitSlot) {
        let owner = &mut self.out_vc_owner[dir as usize * self.vcs + vc];
        if flit.kind.is_head() {
            debug_assert_eq!(*owner, UNOWNED, "claiming an owned output VC");
            *owner = flit.pkt;
        }
        if flit.kind.is_tail() {
            *owner = UNOWNED;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_noc::FlitKind;

    fn router() -> CmeshRouter {
        CmeshRouter::new(NodeId(5), 4, 4, [true, true, true, true])
    }

    /// The four flits of a response with handle 1.
    fn flits() -> Vec<FlitSlot> {
        (0..4)
            .map(|index| FlitSlot { pkt: 1, index, kind: FlitKind::of(index.into(), 4) })
            .collect()
    }

    #[test]
    fn fresh_router_has_free_local_vc() {
        let r = router();
        assert!(r.is_free(Port::Local, 0));
        assert_eq!(r.vcs(), 4);
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn local_vc_allocation_skips_busy_channels() {
        let mut r = router();
        let f = flits();
        r.accept(Port::Local, 0, f[0]);
        assert!(!r.is_free(Port::Local, 0));
        assert!(r.is_free(Port::Local, 1));
        assert_eq!(r.buffered_flits(), 1);
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
        for &flit in &f {
            r.accept(Port::Local, 0, flit);
        }
        // VC holds 4 slots; a 5th flit is a protocol violation.
        r.accept(Port::Local, 0, f[0]);
    }
}
