//! The four workloads, their sizes, and the dispatch from a workload to
//! the code that runs it.

use crate::metrics::Outcome;
use crate::{serve, sweep};
use std::time::Duration;

/// A workload: one set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PEARL-Dyn 64 WL over the 16 test pairs. DBA runs every cycle, the
    /// laser is static and no power-scaling window closes, so the core
    /// kernel (injection, DBA, transport, ejection) does nearly all the
    /// work.
    PearlDyn,
    /// ML RW500 with the 8 WL state over the 16 test pairs after training
    /// the model in setup. Low-WL serialization deepens the in-flight
    /// queues and a window decision fires every 500 cycles, so the
    /// power/ML layer and the training pipeline show here.
    PearlMl,
    /// The CMESH baseline over the 16 test pairs: only switch allocation
    /// and the electrical mesh run.
    Cmesh,
    /// An open loop of short specs against an in-process pearl-serve
    /// daemon with one graceful restart: persistence, polling and
    /// scheduling dominate.
    Serve,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::PearlDyn, Workload::PearlMl, Workload::Cmesh, Workload::Serve];

    /// The name used on the command line and in output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PearlDyn => "pearl_dyn",
            Workload::PearlMl => "pearl_ml",
            Workload::Cmesh => "cmesh",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes. [`Plan::FULL`] is the benchmark; tests run a tiny
/// plan through the same code.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Test pairs per sweep (the first `sweep_pairs` of the 16).
    pub sweep_pairs: usize,
    /// Units per pair in the PEARL sweeps, each with its own seed.
    pub pearl_replicas: usize,
    /// Cycles per PEARL sweep unit.
    pub pearl_cycles: u64,
    /// Cycles per CMESH sweep unit.
    pub cmesh_cycles: u64,
    /// Cycles each sweep unit runs in setup before timing starts.
    pub warmup_cycles: u64,
    /// Collection cycles per pair when training the ML model.
    pub ml_train_cycles: u64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// One spec is due every `serve_interval`.
    pub serve_interval: Duration,
    /// Cycles of a served PEARL spec.
    pub serve_pearl_cycles: u64,
    /// Cycles of a served CMESH spec.
    pub serve_cmesh_cycles: u64,
    /// Specs served by the serve-layer probe of a traced non-serve run.
    pub serve_probe_specs: usize,
    /// Whether unit digests are checked against `golden.json` (at the
    /// default seed only).
    pub golden: bool,
}

impl Plan {
    /// The benchmark's sizes.
    pub const FULL: Plan = Plan {
        sweep_pairs: 16,
        pearl_replicas: 3,
        pearl_cycles: 10_000,
        cmesh_cycles: 10_000,
        warmup_cycles: 1_000,
        ml_train_cycles: 5_000,
        setup_repeats: 3,
        serve_interval: Duration::from_millis(50),
        serve_pearl_cycles: 2_500,
        serve_cmesh_cycles: 1_250,
        serve_probe_specs: 4,
        golden: true,
    };
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Workload seed; unit `i` uses `seed + i`.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Sizes.
    pub plan: Plan,
}

impl RunOpts {
    /// Whether this run's unit digests must match `golden.json`.
    pub fn checks_golden(&self) -> bool {
        self.plan.golden && self.seed == pearl_bench::SEED_BASE
    }
}

/// Runs one workload in this process.
pub fn run(workload: Workload, opts: &RunOpts) -> Outcome {
    match workload {
        Workload::Serve => serve::run(opts),
        sweep => sweep::run(sweep, opts),
    }
}

/// Records `peak_rss_mb`, this process's peak resident set so far
/// (`VmHWM`), failing the run when it cannot be read.
pub fn record_peak_rss(outcome: &mut Outcome) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    match kb {
        Some(kb) => outcome.metric("peak_rss_mb", kb / 1024.0),
        None => outcome.ops.fail("VmHWM unreadable"),
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// Tiny sizes that still cross an RW500 window, train a model, and
    /// serve enough specs for a restart.
    pub const TINY: Plan = Plan {
        sweep_pairs: 2,
        pearl_replicas: 2,
        pearl_cycles: 1_000,
        cmesh_cycles: 500,
        warmup_cycles: 100,
        ml_train_cycles: 1_000,
        setup_repeats: 2,
        serve_interval: Duration::from_millis(20),
        serve_pearl_cycles: 1_000,
        serve_cmesh_cycles: 500,
        serve_probe_specs: 4,
        golden: false,
    };

    pub fn tiny(trace: bool) -> RunOpts {
        RunOpts { seed: 3, seconds: Duration::from_millis(200), trace, plan: TINY }
    }

    #[test]
    fn tiny_runs_of_every_workload_pass_every_check_and_report_every_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let mut outcome = run(workload, &tiny(trace));
                outcome.check_complete(if trace { PER_LAYER } else { END_TO_END });
                assert!(outcome.ops.attempted > 0);
                assert_eq!(
                    outcome.ops.failed,
                    0,
                    "{} trace={trace}: {:?}",
                    workload.name(),
                    outcome.ops.failures
                );
            }
        }
    }
}
