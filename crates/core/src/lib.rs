//! # pearl-core — the PEARL photonic network-on-chip
//!
//! This crate implements the paper's primary contribution: a
//! reservation-assisted single-writer-multiple-reader (R-SWMR) photonic
//! crossbar connecting 16 heterogeneous CPU+GPU clusters and a shared L3
//! router, with
//!
//! * **dynamic bandwidth allocation** between CPU and GPU traffic from
//!   local buffer occupancy (Algorithm 1 steps 0–5, [`dba`]),
//! * **reactive dynamic power scaling** of the per-router laser banks
//!   from windowed buffer occupancy (Algorithm 1 steps 6–8,
//!   [`power_scaling`]), and
//! * **proactive ML-based power scaling** using ridge regression over the
//!   30 router-local features of Table III ([`features`],
//!   [`ml_scaling`]).
//!
//! The top-level entry point is [`network::PearlNetwork`], configured by
//! a [`config::PearlConfig`] and a [`policy::PearlPolicy`], driven by a
//! [`pearl_workloads::TrafficModel`].
//!
//! ## Example
//!
//! ```
//! use pearl_core::{NetworkBuilder, PearlPolicy};
//! use pearl_workloads::BenchmarkPair;
//!
//! let pair = BenchmarkPair::test_pairs()[0];
//! let mut net = NetworkBuilder::new()
//!     .policy(PearlPolicy::dyn_64wl())
//!     .seed(7)
//!     .build(pair);
//! let summary = net.run(5_000);
//! assert!(summary.throughput_flits_per_cycle > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod config;
pub mod dba;
pub mod features;
pub mod metrics;
pub mod ml_scaling;
pub mod network;
pub mod policy;
pub mod pool;
pub mod power_scaling;
pub mod reservation;
pub mod router;
pub mod timeline;

pub use arbiter::WeightedArbiter;
pub use config::{ConfigError, Fabric, PearlConfig};
pub use dba::{
    BandwidthAllocation, DynamicBandwidthAllocator, FineGrainedAllocator, OccupancyBounds,
};
pub use features::{FeatureVector, WindowCounters, FEATURE_COUNT, FEATURE_NAMES};
pub use metrics::RunSummary;
pub use ml_scaling::{
    select_state_eq7, DegradationLadder, FallbackConfig, LadderState, MlPowerScaler, MlTrainer,
    ScalingMode, TrainedModel,
};
pub use network::snapshot::PEARL_SNAPSHOT_KIND;
pub use network::{NetworkBuilder, PearlNetwork};
pub use pearl_photonics::{FaultConfig, FaultModel, FaultStats};
pub use policy::{BandwidthPolicy, PearlPolicy, PowerPolicy};
pub use power_scaling::ReactiveThresholds;
pub use reservation::reservation_packet_bits;
pub use router::PearlRouter;
pub use timeline::{ModeTransition, Timeline, TimelinePoint, TimelineState};
