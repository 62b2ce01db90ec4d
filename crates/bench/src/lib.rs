//! # pearl-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation section:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `tables` | Tables I–V (`spec`, `area`, `features`, `benchmarks`, `optics`) |
//! | `fig04` | CPU/GPU packet breakdown per test pair |
//! | `fig05` | energy-per-bit: PEARL-Dyn / PEARL-FCFS at 64/32/16 WL vs CMESH |
//! | `fig06` | throughput of the power-scaling configurations |
//! | `fig07` | average laser power of the power-scaling configurations |
//! | `fig08` | wavelength-state residency for ML RW500 / ML RW2000 |
//! | `fig09` | throughput: PEARL-Dyn, PEARL-FCFS, Dyn RW500, ML RW500, CMESH |
//! | `fig10` | ML throughput across reservation windows 500/1000/2000 |
//! | `fig11` | laser-power & throughput sensitivity to laser turn-on time |
//! | `nrmse` | validation/test NRMSE and top-state selection accuracy |
//! | `faultsweep` | robustness: throughput/energy degradation vs fault rate |
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
//! Criterion microbenchmarks (`cargo bench`) cover the router pipeline,
//! the DBA, ridge fitting and the CMESH switch allocation.
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
pub mod flightdump;
pub mod harness;
pub mod hotpath;
pub mod pool;
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
pub use harness::{
    mean, pearl_summaries, run_all_pairs, run_cmesh, run_pearl, table, Row, DEFAULT_CYCLES,
    SEED_BASE,
};
pub use hotpath::{Hotpath, HOTPATH_SCHEMA_VERSION};
pub use pool::{available_jobs, JobError, JobPool};
pub use report::{has_flag, Report, RESULTS_DIR};
pub use serve::{Daemon, DaemonConfig, DaemonSummary, ExperimentSpec, Spool};
pub use watchdog::{
    run_watched, run_watched_with, StallError, WatchError, Watchable, DEFAULT_STALL_WINDOW,
};
