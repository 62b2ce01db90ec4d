//! Property-based tests for the simulation kernel's data structures.

use pearl_noc::{Cycle, Flit, LatencyStats, Packet, PacketBuffer, SimRng};
use proptest::prelude::*;

fn any_packet(id: u64) -> impl Strategy<Value = Packet> {
    (0usize..17, 0usize..17, any::<bool>(), any::<bool>()).prop_map(
        move |(src, dst, gpu, response)| {
            use pearl_noc::{CoreType, NodeId, TrafficClass};
            let core = if gpu { CoreType::Gpu } else { CoreType::Cpu };
            let class = if gpu { TrafficClass::GpuL1 } else { TrafficClass::CpuL1Data };
            if response {
                Packet::response(id, NodeId(src), NodeId(dst), core, class, Cycle(0))
            } else {
                Packet::request(id, NodeId(src), NodeId(dst), core, class, Cycle(0))
            }
        },
    )
}

proptest! {
    /// A buffer's occupied slots always equal the flit sum of its queued
    /// packets, and never exceed capacity, under arbitrary push/pop
    /// interleavings.
    #[test]
    fn buffer_occupancy_invariant(ops in prop::collection::vec((any::<bool>(), 0u64..100), 1..200)) {
        let mut buf = PacketBuffer::new(32);
        let mut model: Vec<u32> = Vec::new();
        for (i, (push, _)) in ops.iter().enumerate() {
            if *push {
                let p = Packet::request(
                    i as u64,
                    pearl_noc::NodeId(0),
                    pearl_noc::NodeId(1),
                    pearl_noc::CoreType::Cpu,
                    pearl_noc::TrafficClass::CpuL1Data,
                    Cycle(0),
                );
                let flits = p.flits();
                if buf.push(p).is_ok() {
                    model.push(flits);
                }
            } else if buf.pop().is_some() {
                model.remove(0);
            }
            let expected: u32 = model.iter().sum();
            prop_assert_eq!(buf.occupied_slots(), expected);
            prop_assert!(buf.occupied_slots() <= buf.capacity_slots());
            prop_assert!((0.0..=1.0).contains(&buf.occupancy()));
        }
    }

    /// Packets come out of a buffer in exactly the order they went in.
    #[test]
    fn buffer_is_fifo(count in 1usize..20) {
        let mut buf = PacketBuffer::new(1024);
        for id in 0..count as u64 {
            let p = Packet::request(
                id,
                pearl_noc::NodeId(0),
                pearl_noc::NodeId(1),
                pearl_noc::CoreType::Cpu,
                pearl_noc::TrafficClass::L3,
                Cycle(0),
            );
            buf.push(p).unwrap();
        }
        for id in 0..count as u64 {
            prop_assert_eq!(buf.pop().unwrap().id, id);
        }
    }

    /// Flit decomposition always yields exactly `packet.flits()` flits,
    /// with a head first, a tail last and the payload only on the head.
    #[test]
    fn flit_decomposition_is_well_formed(packet in any_packet(7)) {
        let flits = Flit::decompose(&packet);
        prop_assert_eq!(flits.len() as u32, packet.flits());
        prop_assert!(flits.first().unwrap().kind.is_head());
        prop_assert!(flits.last().unwrap().kind.is_tail());
        prop_assert!(flits[0].packet.is_some());
        for (i, f) in flits.iter().enumerate() {
            prop_assert_eq!(f.index as usize, i);
            prop_assert_eq!(f.packet_id, packet.id);
            if i > 0 {
                prop_assert!(f.packet.is_none());
            }
        }
    }

    /// Latency statistics: the mean lies within [0, max] and the count
    /// matches the number of recordings.
    #[test]
    fn latency_stats_bounds(latencies in prop::collection::vec(0u64..100_000, 1..100)) {
        let mut stats = LatencyStats::new();
        for &l in &latencies {
            stats.record(l);
        }
        prop_assert_eq!(stats.count() as usize, latencies.len());
        prop_assert!(stats.mean() >= 0.0);
        prop_assert!(stats.mean() <= stats.max() as f64);
        prop_assert_eq!(stats.max(), *latencies.iter().max().unwrap());
    }

    /// Deterministic RNG: same seed, same stream; derived streams do not
    /// disturb the parent equivalence.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = SimRng::from_seed(seed);
        let mut b = SimRng::from_seed(seed);
        let _ = a.derive(1);
        let _ = b.derive(1);
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
