//! # pearl-bench — the experiment harness
//!
//! The `experiments` binary regenerates the paper's evaluation section
//! (Tables I–V, Figs. 4–11, the §IV-C NRMSE numbers) plus the design
//! ablations and extensions. Each is one named entry of the
//! [`experiments::EXPERIMENTS`] table, and the runner runs the named
//! ones, or all of them in table order, in one process:
//!
//! ```text
//! experiments [NAME...] [--jobs N] [--json]
//! ```
//!
//! The experiments share an [`experiments::Lab`] that trains each
//! reservation window's ML model and runs each test-pair sweep once,
//! so a full run trains three models in total. `faultsweep` adds the
//! robustness sweep (throughput/energy degradation versus fault rate).
//!
//! Utility binaries ride alongside: `report` renders one instrumented
//! run's telemetry artifacts (`--spans`/`--perfetto` for the causal
//! span views), `loadcurve` sweeps injection rates and records the
//! span trace (`--trace`), `chaos` kills runs at seeded random cycles and proves kill/resume
//! bit-identity from checkpoint files, and `pearl-serve` is the
//! crash-tolerant batch experiment daemon over the [`serve`] module
//! (spool-watching, supervised retries, deadlines and restart-safe
//! resume). Every binary parses its
//! arguments through [`Cli`] (unknown flags exit non-zero with usage)
//! and long runs go through the [`watchdog`] so a wedged simulation
//! fails fast instead of hanging.
//!
//! The hot-path observatory rides on `loadcurve --profile`: [`hotpath`]
//! exports `results/hotpath_*.json` and a folded-stacks flamegraph
//! file, and `report --hotpath` renders and gates them. Performance is
//! measured by the standalone benchmark package in `benchmark/` (see
//! `benchmark/README.md`): end-to-end throughput, latency and set-up
//! time per workload, with golden digests of every simulated run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod flightdump;
pub mod harness;
pub mod hotpath;
pub mod report;
pub mod serve;
pub mod watchdog;

/// With `--features alloc-count`, every binary in this crate runs under
/// the counting allocator so the hot-path observatory can attribute
/// allocation count/bytes to the profiler section that made them. The
/// attribute is safe code; the (gated) unsafe lives in pearl-telemetry.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static COUNTING_ALLOC: pearl_telemetry::CountingAlloc = pearl_telemetry::CountingAlloc;

pub use cli::{Cli, CliArgs, CliError};
pub use flightdump::{dump_stall, postmortem_path, FlightGuard};
pub use harness::{mean, table, Row, DEFAULT_CYCLES, SEED_BASE};
pub use hotpath::{Hotpath, HOTPATH_SCHEMA_VERSION};
pub use pearl_core::pool::{available_jobs, JobError, JobPool};
pub use report::{Report, RESULTS_DIR};
pub use serve::{Daemon, DaemonConfig, DaemonSummary, ExperimentSpec, Spool};
pub use watchdog::{
    run_watched, run_watched_with, StallError, WatchError, Watchable, DEFAULT_STALL_WINDOW,
};
