//! # PEARL — Power-Efficient photonic Architecture with Reconfiguration via Learning
//!
//! A from-scratch Rust reproduction of *"Extending the Power-Efficiency
//! and Performance of Photonic Interconnects for Heterogeneous Multicores
//! with Machine Learning"* (Van Winkle, Kodi, Bunescu, Louri — HPCA 2018).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`noc`] — the cycle-level NoC simulation kernel,
//! * [`photonics`] — silicon-photonic device and power models,
//! * [`ml`] — the from-scratch ridge-regression pipeline,
//! * [`workloads`] — heterogeneous CPU/GPU traffic generation,
//! * [`core`] — the PEARL network with dynamic bandwidth allocation and
//!   reactive/ML laser power scaling,
//! * [`cmesh`] — the electrical concentrated-mesh baseline,
//! * [`telemetry`] — typed event tracing, metrics, JSONL artifacts and
//!   the simulator self-profiler.
//!
//! ## Quickstart
//!
//! ```
//! use pearl::prelude::*;
//!
//! // Simulate one CPU+GPU benchmark pair on the PEARL photonic NoC
//! // with dynamic bandwidth allocation at a constant 64 wavelengths.
//! let pair = BenchmarkPair::test_pairs()[0];
//! let mut network = NetworkBuilder::new()
//!     .policy(PearlPolicy::dyn_64wl())
//!     .seed(42)
//!     .build(pair);
//! let summary = network.run(10_000);
//! assert!(summary.throughput_flits_per_cycle > 0.0);
//! println!("throughput: {:.2} flits/cycle, laser: {:.1} W",
//!          summary.throughput_flits_per_cycle, summary.avg_laser_power_w);
//! ```
//!
//! See the `examples/` directory for runnable scenarios and the
//! `pearl-bench` crate for the binaries that regenerate every table and
//! figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pearl_cmesh as cmesh;
pub use pearl_core as core;
pub use pearl_ml as ml;
pub use pearl_noc as noc;
pub use pearl_photonics as photonics;
pub use pearl_telemetry as telemetry;
pub use pearl_workloads as workloads;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use pearl_cmesh::{CmeshBuilder, CmeshConfig, CmeshSummary};
    pub use pearl_core::{
        MlPowerScaler, MlTrainer, NetworkBuilder, PearlConfig, PearlNetwork, PearlPolicy,
        ReactiveThresholds, RunSummary,
    };
    pub use pearl_ml::{Dataset, RidgeRegression, StandardScaler};
    pub use pearl_noc::{CoreType, Cycle, Frequency, NodeId, Packet, PacketKind, TrafficClass};
    pub use pearl_photonics::{OnChipLaser, PowerModel, WavelengthState};
    pub use pearl_telemetry::{NullProbe, Probe, Recorder, Shared, TraceEvent};
    pub use pearl_workloads::{
        BenchmarkPair, CpuBenchmark, GpuBenchmark, SyntheticPattern, SyntheticTraffic,
        TrafficModel, TrafficSource,
    };
}
