//! # pearl-noc — cycle-level network-on-chip simulation kernel
//!
//! This crate is the substrate shared by the PEARL photonic network
//! ([`pearl-core`]) and the electrical CMESH baseline ([`pearl-cmesh`]):
//! packets, flits, bounded input buffers, virtual channels, credit-based
//! flow control, deterministic random number generation and network-wide
//! statistics.
//!
//! The kernel is *cycle-driven*: networks built on top of it implement a
//! `step()` that advances one network-clock cycle (2 GHz in the PEARL
//! configuration, i.e. 0.5 ns). Everything is deterministic — the same
//! seed produces bit-identical simulations, which the property tests rely
//! on.
//!
//! ## Example
//!
//! ```
//! use pearl_noc::{Packet, PacketBuffer, CoreType, PacketKind, TrafficClass, NodeId, Cycle};
//!
//! let mut buf = PacketBuffer::new(16);
//! let pkt = Packet::request(0, NodeId(0), NodeId(16), CoreType::Cpu,
//!                           TrafficClass::CpuL1Data, Cycle(0));
//! buf.push(pkt).unwrap();
//! assert_eq!(buf.occupied_slots(), 1);
//! ```
//!
//! [`pearl-core`]: https://example.invalid/pearl
//! [`pearl-cmesh`]: https://example.invalid/pearl

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod crc;
pub mod credit;
pub mod cycle;
pub mod flit;
pub mod histogram;
pub mod packet;
pub mod rng;
pub mod stats;
pub mod topology;
pub mod vc;

pub use buffer::{BufferFullError, BufferState, PacketBuffer};
pub use crc::{crc32, packet_checksum};
pub use credit::CreditCounter;
pub use cycle::{Cycle, Frequency};
pub use flit::{Flit, FlitKind, Flits};
pub use histogram::LatencyHistogram;
pub use packet::{CoreType, Packet, PacketId, PacketKind, TrafficClass};
pub use rng::SimRng;
pub use stats::{LatencyStats, NetworkStats, StatsState};
pub use topology::{Coord, Grid, NodeId};
pub use vc::{VcState, VirtualChannel};
