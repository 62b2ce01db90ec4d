//! # pearl-cmesh — the electrical concentrated-mesh baseline
//!
//! The paper compares PEARL against an electrical concentrated mesh
//! ("CMESH") with the same concentration: each of the 16 routers serves
//! 2 CPU cores + 4 GPU CUs with their caches, arranged 4×4, XY-routed,
//! wormhole-switched with 4 virtual channels of 4×128-bit slots per
//! input port (§IV). The shared L3 (two memory-controller slices) is
//! attached to two interior routers.
//!
//! The traffic model, endpoint service semantics and core issue model
//! (MSHR windows + execution gating) are identical to the PEARL
//! simulator's, so throughput and energy-per-bit comparisons isolate the
//! interconnect.
//!
//! ## Example
//!
//! ```
//! use pearl_cmesh::{CmeshBuilder};
//! use pearl_workloads::BenchmarkPair;
//!
//! let mut net = CmeshBuilder::new().seed(1).build(BenchmarkPair::test_pairs()[0]);
//! let summary = net.run(2_000);
//! assert_eq!(summary.cycles, 2_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod credit;
pub mod network;
pub mod power;
pub mod router;
pub mod routing;
pub mod vc;

pub use config::CmeshConfig;
pub use network::snapshot::CMESH_SNAPSHOT_KIND;
pub use network::{CmeshBuilder, CmeshNetwork, CmeshSummary};
pub use power::ElectricalPowerModel;
pub use router::CmeshRouter;
pub use routing::{neighbor, xy_route, Direction, Port};
pub use vc::{FlitSlot, InputVcs};
