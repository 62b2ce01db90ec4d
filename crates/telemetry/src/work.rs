//! Wasted-work accounting for the simulator hot loops.
//!
//! The [`SelfProfiler`](crate::SelfProfiler) says *where* wall time
//! goes; [`WorkCounters`] says *why* — how much of each phase is spent
//! scanning routers that have nothing to send, polling scaling windows
//! that are not at a boundary, or recomputing allocations that do not
//! change. Each counter comes as a *visits / useful-outcomes* pair so
//! the waste is a ratio, not a guess, and the pairs obey hard
//! inequalities ([`WorkCounters::reconcile`]) that the `report
//! --hotpath` gate enforces on every exported artifact.
//!
//! The counters live inside the [`SelfProfiler`](crate::SelfProfiler):
//! a network's `enable_profiling()` turns on both, and its
//! `profile_report()` carries both. They are observer state, never
//! simulation state. Off, every site costs one branch on the profiler's
//! presence and the run is bit-identical (state hash, trace bytes,
//! artifacts) to an unprofiled one; like the profiler, they are
//! excluded from snapshots.

use crate::json::JsonValue;
use std::fmt;

/// Per-run totals of hot-loop visits and the useful work they produced.
///
/// All counters are cumulative over the run (or over the merged runs —
/// see [`WorkCounters::merge`]). A `0` denominator means the
/// corresponding machinery never ran (e.g. a CMESH network has no DBA),
/// and the matching ratio reads as `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Simulated cycles the counters cover.
    pub cycles: u64,
    /// Router visits in the transfer/switch phase.
    pub routers_scanned: u64,
    /// Of those, visits where the router actually had eligible work
    /// (launched a transfer / held buffered flits).
    pub routers_with_work: u64,
    /// Per-router scaling-window boundary checks.
    pub window_checks: u64,
    /// Of those, checks that landed on an open window boundary.
    pub windows_open: u64,
    /// DBA bookkeeping invocations (per router per cycle).
    pub dba_invocations: u64,
    /// Of those, reallocations that changed the allocation.
    pub dba_reallocs: u64,
    /// Laser/power bookkeeping ticks (per router per cycle).
    pub power_updates: u64,
    /// Of those, updates that changed the powered wavelength state.
    pub power_changes: u64,
    /// Arbitration attempts (free channel offered to the arbiter, or a
    /// switch-allocation candidate considered).
    pub arb_attempts: u64,
    /// Of those, attempts that granted (launched/forwarded a packet or
    /// flit).
    pub arb_grants: u64,
    /// Iterations of the hot scan loops (channel scans, in-flight
    /// sweeps, ejection probes, switch-candidate scans).
    pub loop_iterations: u64,
    /// Flits actually moved by those loops.
    pub flits_moved: u64,
}

/// Extracts one `(visits, useful)` pair from a [`WorkCounters`].
type PairFn = fn(&WorkCounters) -> (u64, u64);

/// The `(name, visits, useful)` pairs of a [`WorkCounters`], in stable
/// report order. `name` doubles as the JSON key prefix.
const PAIRS: [(&str, PairFn); 5] = [
    ("router_scan", |w| (w.routers_scanned, w.routers_with_work)),
    ("window_check", |w| (w.window_checks, w.windows_open)),
    ("dba", |w| (w.dba_invocations, w.dba_reallocs)),
    ("power", |w| (w.power_updates, w.power_changes)),
    ("arbitration", |w| (w.arb_attempts, w.arb_grants)),
];

impl WorkCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> WorkCounters {
        WorkCounters::default()
    }

    /// Adds `other`'s totals into `self` (for pool-merged runs).
    pub fn merge(&mut self, other: &WorkCounters) {
        self.cycles += other.cycles;
        self.routers_scanned += other.routers_scanned;
        self.routers_with_work += other.routers_with_work;
        self.window_checks += other.window_checks;
        self.windows_open += other.windows_open;
        self.dba_invocations += other.dba_invocations;
        self.dba_reallocs += other.dba_reallocs;
        self.power_updates += other.power_updates;
        self.power_changes += other.power_changes;
        self.arb_attempts += other.arb_attempts;
        self.arb_grants += other.arb_grants;
        self.loop_iterations += other.loop_iterations;
        self.flits_moved += other.flits_moved;
    }

    /// Checks the structural invariants every honest collection obeys:
    /// each *useful* count is bounded by its *visits* count. (Flits
    /// moved vs. loop iterations is deliberately not an inequality — a
    /// multi-flit launch moves several flits in one iteration.)
    ///
    /// # Errors
    ///
    /// The first violated inequality, named, for the `--hotpath` gate.
    pub fn reconcile(&self) -> Result<(), String> {
        for (name, pair) in PAIRS {
            let (visits, useful) = pair(self);
            if useful > visits {
                return Err(format!("{name}: useful count {useful} exceeds visits {visits}"));
            }
        }
        Ok(())
    }

    /// The derived wasted-work ratios.
    pub fn ratios(&self) -> WasteRatios {
        let waste =
            |visits: u64, useful: u64| (visits > 0).then(|| 1.0 - useful as f64 / visits as f64);
        WasteRatios {
            idle_scan: waste(self.routers_scanned, self.routers_with_work),
            closed_windows: waste(self.window_checks, self.windows_open),
            dba_noop: waste(self.dba_invocations, self.dba_reallocs),
            power_noop: waste(self.power_updates, self.power_changes),
            arb_loss: waste(self.arb_attempts, self.arb_grants),
            iterations_per_flit: (self.flits_moved > 0)
                .then(|| self.loop_iterations as f64 / self.flits_moved as f64),
        }
    }

    /// Renders the raw counters as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("cycles", JsonValue::u64(self.cycles)),
            ("routers_scanned", JsonValue::u64(self.routers_scanned)),
            ("routers_with_work", JsonValue::u64(self.routers_with_work)),
            ("window_checks", JsonValue::u64(self.window_checks)),
            ("windows_open", JsonValue::u64(self.windows_open)),
            ("dba_invocations", JsonValue::u64(self.dba_invocations)),
            ("dba_reallocs", JsonValue::u64(self.dba_reallocs)),
            ("power_updates", JsonValue::u64(self.power_updates)),
            ("power_changes", JsonValue::u64(self.power_changes)),
            ("arb_attempts", JsonValue::u64(self.arb_attempts)),
            ("arb_grants", JsonValue::u64(self.arb_grants)),
            ("loop_iterations", JsonValue::u64(self.loop_iterations)),
            ("flits_moved", JsonValue::u64(self.flits_moved)),
        ])
    }

    /// Parses counters serialized by [`WorkCounters::to_json`]. Missing
    /// keys read as zero so older artifacts stay loadable.
    pub fn from_json(v: &JsonValue) -> Option<WorkCounters> {
        let field = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        v.get("cycles")?;
        Some(WorkCounters {
            cycles: field("cycles"),
            routers_scanned: field("routers_scanned"),
            routers_with_work: field("routers_with_work"),
            window_checks: field("window_checks"),
            windows_open: field("windows_open"),
            dba_invocations: field("dba_invocations"),
            dba_reallocs: field("dba_reallocs"),
            power_updates: field("power_updates"),
            power_changes: field("power_changes"),
            arb_attempts: field("arb_attempts"),
            arb_grants: field("arb_grants"),
            loop_iterations: field("loop_iterations"),
            flits_moved: field("flits_moved"),
        })
    }

    /// The `(name, visits, useful)` rows in stable order, for tabular
    /// renderers.
    pub fn pairs(&self) -> Vec<(&'static str, u64, u64)> {
        PAIRS.iter().map(|(name, pair)| (*name, pair(self).0, pair(self).1)).collect()
    }
}

impl fmt::Display for WorkCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "work counters over {} cycles:", self.cycles)?;
        for (name, visits, useful) in self.pairs() {
            let pct = if visits > 0 { 100.0 * useful as f64 / visits as f64 } else { 0.0 };
            writeln!(f, "  {name:<14} {useful:>12} useful / {visits:>12} visits ({pct:.1}%)")?;
        }
        writeln!(
            f,
            "  {:<14} {:>12} flits / {:>12} iterations",
            "loops", self.flits_moved, self.loop_iterations
        )
    }
}

/// Derived wasted-work fractions; `None` where the machinery never ran.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WasteRatios {
    /// Fraction of router-scan visits that found no work.
    pub idle_scan: Option<f64>,
    /// Fraction of window checks not at a boundary.
    pub closed_windows: Option<f64>,
    /// Fraction of DBA invocations that changed nothing.
    pub dba_noop: Option<f64>,
    /// Fraction of power updates that changed nothing.
    pub power_noop: Option<f64>,
    /// Fraction of arbitration attempts that did not grant.
    pub arb_loss: Option<f64>,
    /// Hot-loop iterations per flit actually moved (lower is tighter).
    pub iterations_per_flit: Option<f64>,
}

impl WasteRatios {
    /// `(name, value)` rows in stable order, `None` where undefined.
    pub fn rows(&self) -> [(&'static str, Option<f64>); 6] {
        [
            ("idle_scan", self.idle_scan),
            ("closed_windows", self.closed_windows),
            ("dba_noop", self.dba_noop),
            ("power_noop", self.power_noop),
            ("arb_loss", self.arb_loss),
            ("iterations_per_flit", self.iterations_per_flit),
        ]
    }

    /// Renders the ratios as a JSON object (`null` where undefined).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(
            self.rows()
                .into_iter()
                .map(|(name, v)| (name, v.map_or(JsonValue::Null, JsonValue::Num)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkCounters {
        WorkCounters {
            cycles: 100,
            routers_scanned: 1_000,
            routers_with_work: 250,
            window_checks: 400,
            windows_open: 4,
            dba_invocations: 1_000,
            dba_reallocs: 10,
            power_updates: 1_000,
            power_changes: 8,
            arb_attempts: 300,
            arb_grants: 240,
            loop_iterations: 5_000,
            flits_moved: 1_250,
        }
    }

    #[test]
    fn ratios_and_reconciliation() {
        let w = sample();
        w.reconcile().unwrap();
        let r = w.ratios();
        assert!((r.idle_scan.unwrap() - 0.75).abs() < 1e-12);
        assert!((r.closed_windows.unwrap() - 0.99).abs() < 1e-12);
        assert!((r.arb_loss.unwrap() - 0.2).abs() < 1e-12);
        assert!((r.iterations_per_flit.unwrap() - 4.0).abs() < 1e-12);
        // Machinery that never ran reads as None, not as 0% waste.
        let idle = WorkCounters::new();
        assert_eq!(idle.ratios().dba_noop, None);
        assert_eq!(idle.ratios().iterations_per_flit, None);
        // A useful count above its visits count is named in the error.
        let mut broken = sample();
        broken.windows_open = broken.window_checks + 1;
        assert!(broken.reconcile().unwrap_err().contains("window_check"));
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.cycles, 200);
        assert_eq!(a.routers_scanned, 2_000);
        assert_eq!(a.flits_moved, 2_500);
        a.reconcile().unwrap();
    }

    #[test]
    fn json_round_trips_and_tolerates_missing_keys() {
        let w = sample();
        assert_eq!(WorkCounters::from_json(&w.to_json()).unwrap(), w);
        // An older artifact without the newer keys still parses.
        let legacy = JsonValue::obj(vec![
            ("cycles", JsonValue::u64(7)),
            ("routers_scanned", JsonValue::u64(70)),
        ]);
        let parsed = WorkCounters::from_json(&legacy).unwrap();
        assert_eq!(parsed.cycles, 7);
        assert_eq!(parsed.arb_attempts, 0);
        // Ratio JSON writes null for undefined machinery.
        let text = WorkCounters::new().ratios().to_json().to_string();
        assert!(text.contains("\"dba_noop\":null"), "{text}");
    }

    #[test]
    fn display_names_every_pair() {
        let text = sample().to_string();
        for (name, _, _) in sample().pairs() {
            assert!(text.contains(name), "{name} missing from:\n{text}");
        }
        assert!(text.contains("iterations"));
    }
}
