//! Shared experiment constants, the canonical-seed sweep over the test
//! pairs, averaging and the ASCII table formatting the experiments and
//! the sweep binaries print with.

use crate::JobPool;
use pearl_workloads::BenchmarkPair;

/// Simulated cycles per (configuration, pair) run.
///
/// 60 000 network cycles = 30 µs at 2 GHz — long enough to cover many
/// GPU burst/idle periods and CPU phases, short enough that the full
/// figure suite finishes in minutes.
pub const DEFAULT_CYCLES: u64 = 60_000;

/// Base seed; pair `i` runs with `SEED_BASE + i` in every configuration
/// so configurations face identical workload sample paths.
pub const SEED_BASE: u64 = 100;

/// Runs `run(pair, seed)` for every test pair on `pool`, pair `i` with
/// seed `SEED_BASE + i`, and returns the results in pair order for any
/// worker count. `run` must not print or touch shared state.
pub(crate) fn sweep<T: Send>(
    pool: &JobPool,
    run: impl Fn(BenchmarkPair, u64) -> T + Sync,
) -> Vec<T> {
    let pairs = BenchmarkPair::test_pairs();
    pool.run(pairs.len(), |i| run(pairs[i], SEED_BASE + i as u64))
}

/// Arithmetic mean of a slice (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One row of an output table: a label and one value per column.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (usually a benchmark-pair label or "mean").
    pub label: String,
    /// Column values.
    pub values: Vec<f64>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Row {
        Row { label: label.into(), values }
    }
}

/// Prints a fixed-width table with a title, column headers and rows,
/// appending a `mean` row computed over the data rows.
pub fn table(title: &str, columns: &[&str], rows: &[Row], decimals: usize) {
    println!("\n=== {title} ===");
    print!("{:<12}", "pair");
    for col in columns {
        print!(" {col:>14}");
    }
    println!();
    for row in rows {
        print!("{:<12}", row.label);
        for v in &row.values {
            print!(" {v:>14.decimals$}");
        }
        println!();
    }
    if !rows.is_empty() {
        print!("{:<12}", "mean");
        for c in 0..columns.len() {
            let col: Vec<f64> = rows.iter().map(|r| r.values[c]).collect();
            print!(" {:>14.decimals$}", mean(&col));
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Lab;
    use pearl_cmesh::{CmeshBuilder, CmeshConfig};
    use pearl_core::{NetworkBuilder, PearlConfig, PearlPolicy};

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn pearl_and_cmesh_run_one_pair() {
        // The lab's PEARL and CMESH sweeps run each pair for the requested
        // cycles; pair 0 equals a direct run at the first canonical seed.
        let pair = BenchmarkPair::test_pairs()[0];
        let mut lab = Lab::new(JobPool::new(3));
        let policy = PearlPolicy::dyn_64wl();
        let pearl = lab.pearl(PearlConfig::pearl(), &policy, 2_000);
        assert!(pearl.iter().all(|run| run.cycles == 2_000));
        let direct = NetworkBuilder::new().policy(policy).seed(SEED_BASE).build(pair).run(2_000);
        assert_eq!(pearl[0].delivered_flits, direct.delivered_flits);
        let mesh = lab.cmesh(CmeshConfig::pearl_baseline(), 2_000);
        assert_eq!(mesh.len(), BenchmarkPair::test_pairs().len());
        assert!(mesh.iter().all(|run| run.cycles == 2_000));
        let direct = CmeshBuilder::new().seed(SEED_BASE).build(pair).run(2_000);
        assert_eq!(mesh[0].delivered_flits, direct.delivered_flits);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        // Each run of a lab sweep equals an independent run of the same
        // pair at the same seed, so a stored sweep can stand in for any
        // later one.
        let pairs = BenchmarkPair::test_pairs();
        let policy = PearlPolicy::reactive(500);
        let runs = Lab::new(JobPool::new(3)).pearl(PearlConfig::pearl(), &policy, 1_500);
        assert_eq!(runs.len(), pairs.len());
        for (i, (run, &pair)) in runs.iter().zip(&pairs).enumerate() {
            let seed = SEED_BASE + i as u64;
            let direct =
                NetworkBuilder::new().policy(policy.clone()).seed(seed).build(pair).run(1_500);
            assert_eq!(run.delivered_flits, direct.delivered_flits, "pair {i}");
            assert_eq!(run.delivered_packets, direct.delivered_packets, "pair {i}");
            assert_eq!(run.avg_laser_power_w.to_bits(), direct.avg_laser_power_w.to_bits());
        }
    }

    #[test]
    fn sweep_hands_out_canonical_seeds_in_order() {
        let seen = sweep(&JobPool::new(3), |pair, seed| (pair.label(), seed));
        assert_eq!(seen.len(), BenchmarkPair::test_pairs().len());
        for (i, (label, seed)) in seen.iter().enumerate() {
            assert_eq!(*seed, SEED_BASE + i as u64);
            assert_eq!(*label, BenchmarkPair::test_pairs()[i].label());
        }
    }
}
