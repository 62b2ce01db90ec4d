//! # pearl-workloads — heterogeneous CPU/GPU traffic generation
//!
//! The paper drives its network simulator with traces captured from
//! Multi2Sim running PARSEC 2.1 / SPLASH2 CPU benchmarks alongside
//! OpenCL SDK GPU benchmarks. Those traces are not redistributable, so
//! this crate substitutes *parameterized stochastic generators*: each
//! benchmark is characterized by its mean injection rate, burstiness,
//! L3 locality, request/response mix and program-phase behaviour —
//! exactly the first-order statistics PEARL's mechanisms (which observe
//! only buffer occupancies and packet counters) react to.
//!
//! Key properties preserved from the paper:
//!
//! * GPU traffic is *bursty* (Markov-modulated ON/OFF sources) and can
//!   flood the network (§III-B);
//! * CPU benchmarks generate more packets than GPU benchmarks in most
//!   pairings (Fig. 4);
//! * the benchmark catalog follows Table IV: 12 CPU + 12 GPU benchmarks
//!   split 6+6 training / 2+2 validation / 4+4 testing, giving 36
//!   training, 4 validation and 16 test pairs (§IV-A).
//!
//! ## Example
//!
//! ```
//! use pearl_workloads::{BenchmarkPair, TrafficModel};
//!
//! let pair = BenchmarkPair::test_pairs()[0];
//! let mut traffic = TrafficModel::new(pair, 16, 42);
//! let injections = traffic.step(pearl_noc::Cycle(0));
//! // Deterministic for a given seed.
//! assert!(injections.len() < 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod injector;
pub mod pairs;
pub mod phases;
pub mod profile;
pub mod responder;
pub mod state;
pub mod synthetic;
pub mod traffic;

pub use benchmark::{CpuBenchmark, GpuBenchmark};
pub use injector::OnOffInjector;
pub use pairs::BenchmarkPair;
pub use phases::PhaseModulator;
pub use profile::{ClassMix, TrafficProfile};
pub use responder::Responder;
pub use state::{InjectorState, RngState, TrafficState, TrafficStateError};
pub use synthetic::{SyntheticPattern, SyntheticTraffic};
pub use traffic::{Destination, InjectionRequest, TrafficModel, TrafficSource};
