//! Flits: the unit of link-level flow control in the electrical baseline.
//!
//! The CMESH baseline is a wormhole-routed, virtual-channel network, so
//! packets are decomposed into head/body/tail flits at injection and
//! reassembled at ejection. (The photonic network transfers whole packets
//! over the serialized optical channel and does not need flits.)

use crate::packet::{Packet, PacketId};
use std::fmt;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries routing information.
    Head,
    /// Intermediate flit.
    Body,
    /// Last flit; releases the virtual channel.
    Tail,
    /// Single-flit packet: simultaneously head and tail.
    HeadTail,
}

impl FlitKind {
    /// Every kind, in a stable order.
    pub const ALL: [FlitKind; 4] =
        [FlitKind::Head, FlitKind::Body, FlitKind::Tail, FlitKind::HeadTail];

    /// True for flits that open a new virtual-channel allocation.
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for flits that close a virtual-channel allocation.
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// The kind of flit `index` of a packet of `len` flits: a one-flit
    /// packet is [`FlitKind::HeadTail`]; a longer one is `Head, Body…,
    /// Tail`.
    #[inline]
    pub fn of(index: u32, len: u32) -> FlitKind {
        match (len, index) {
            (1, _) => FlitKind::HeadTail,
            (_, 0) => FlitKind::Head,
            (_, i) if i + 1 == len => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }
}

impl fmt::Display for FlitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlitKind::Head => "head",
            FlitKind::Body => "body",
            FlitKind::Tail => "tail",
            FlitKind::HeadTail => "head+tail",
        };
        f.write_str(s)
    }
}

/// A 128-bit link-level unit carrying a slice of a packet.
///
/// The owning [`Packet`] is cloned into the head flit so the ejection port
/// can reconstruct it; body/tail flits only carry the packet id.
#[derive(Debug, Clone, PartialEq)]
pub struct Flit {
    /// Id of the packet this flit belongs to.
    pub packet_id: PacketId,
    /// Head/body/tail marker.
    pub kind: FlitKind,
    /// Index of this flit within the packet (0-based).
    pub index: u32,
    /// Full packet payload, present on head flits only.
    pub packet: Option<Packet>,
}

impl Flit {
    /// Decomposes a packet into its flit sequence.
    ///
    /// Single-flit packets produce one [`FlitKind::HeadTail`] flit; longer
    /// packets produce `Head, Body…, Tail`.
    ///
    /// # Example
    ///
    /// ```
    /// use pearl_noc::{Flit, Packet, CoreType, TrafficClass, NodeId, Cycle};
    /// let rsp = Packet::response(0, NodeId(0), NodeId(1), CoreType::Cpu,
    ///                            TrafficClass::L3, Cycle(0));
    /// let flits = Flit::decompose(&rsp);
    /// assert_eq!(flits.len(), 4);
    /// assert!(flits[0].kind.is_head());
    /// assert!(flits[3].kind.is_tail());
    /// ```
    pub fn decompose(packet: &Packet) -> Vec<Flit> {
        Flits::of(packet).collect()
    }
}

/// The flit sequence of one packet, produced one flit at a time without
/// allocating (see [`FlitKind::of`] for the head/body/tail rule).
#[derive(Debug, Clone)]
pub struct Flits<'a> {
    packet: &'a Packet,
    next: u32,
    len: u32,
}

impl<'a> Flits<'a> {
    /// The flits of `packet`, head first.
    pub fn of(packet: &'a Packet) -> Flits<'a> {
        Flits { packet, next: 0, len: packet.flits() }
    }
}

impl Iterator for Flits<'_> {
    type Item = Flit;

    fn next(&mut self) -> Option<Flit> {
        let (i, n) = (self.next, self.len);
        if i >= n {
            return None;
        }
        self.next += 1;
        let kind = FlitKind::of(i, n);
        Some(Flit {
            packet_id: self.packet.id,
            kind,
            index: i,
            packet: kind.is_head().then(|| self.packet.clone()),
        })
    }
}

/// Checkpoint form of one virtual channel: its buffered flits, the
/// packet streaming into it and the route of its head packet. Capacity
/// is static configuration and is not part of the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct VcState {
    /// Buffered flits, head first.
    pub flits: Vec<Flit>,
    /// Packet currently streaming into the channel, if any: set by a
    /// head flit, cleared by the matching tail.
    pub inflow: Option<u64>,
    /// Route-computation result for the head packet, if computed.
    pub route: Option<usize>,
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flit {}/{} of pkt#{}", self.index, self.kind, self.packet_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{CoreType, TrafficClass};
    use crate::topology::NodeId;
    use crate::Cycle;

    #[test]
    fn single_flit_packet_is_headtail() {
        let req =
            Packet::request(9, NodeId(0), NodeId(1), CoreType::Cpu, TrafficClass::L3, Cycle(0));
        let flits = Flit::decompose(&req);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head() && flits[0].kind.is_tail());
        assert_eq!(flits[0].packet.as_ref().unwrap().id, 9);
    }

    #[test]
    fn multi_flit_packet_has_head_bodies_tail() {
        let rsp =
            Packet::response(3, NodeId(0), NodeId(1), CoreType::Gpu, TrafficClass::GpuL1, Cycle(0));
        let flits = Flit::decompose(&rsp);
        let kinds: Vec<_> = flits.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [FlitKind::Head, FlitKind::Body, FlitKind::Body, FlitKind::Tail]);
        // Only the head carries the payload.
        assert!(flits[0].packet.is_some());
        assert!(flits[1..].iter().all(|f| f.packet.is_none()));
    }

    #[test]
    fn kind_of_index_follows_the_packet_length() {
        assert_eq!(FlitKind::of(0, 1), FlitKind::HeadTail);
        let four: Vec<_> = (0..4).map(|i| FlitKind::of(i, 4)).collect();
        assert_eq!(four, [FlitKind::Head, FlitKind::Body, FlitKind::Body, FlitKind::Tail]);
        assert_eq!([FlitKind::of(0, 2), FlitKind::of(1, 2)], [FlitKind::Head, FlitKind::Tail]);
    }

    #[test]
    fn indices_are_sequential() {
        let rsp =
            Packet::response(3, NodeId(0), NodeId(1), CoreType::Gpu, TrafficClass::GpuL1, Cycle(0));
        for (i, flit) in Flit::decompose(&rsp).iter().enumerate() {
            assert_eq!(flit.index as usize, i);
        }
    }
}
