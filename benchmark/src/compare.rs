//! `compare A.json... -- B.json...`: each side's median and quartiles for
//! every (workload, metric) both sides measured, and a verdict against
//! the metric's bound.

use crate::metrics::{def, Better, MetricDef};
use crate::stats::{median, quartiles};
use crate::workload::Workload;
use pearl_telemetry::JsonValue;
use std::process::ExitCode;

/// One run's value of one metric.
#[derive(Debug, Clone, Copy)]
struct Sample {
    seed: u64,
    value: f64,
}

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// B beats A by more than A's own spread (and wins nine tenths of
    /// the index-paired runs), or every B run beats every A run.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// A spread wider than the bound (or too few runs) hides the answer.
    Unresolved,
    /// A deterministic metric agrees bit for bit on every common seed.
    Equal,
    /// A deterministic metric differs on a common seed.
    Differs,
    /// Shown for information: no bound, or no common seed to compare.
    Info,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Equal => "equal",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "-",
        }
    }
}

type Table = Vec<((String, String), Vec<Sample>)>;

/// Runs the subcommand; exits 1 if any verdict is worse, differs or
/// unresolved.
pub fn main(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: pearl-benchmark compare A.json... -- B.json...");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(&args[..split]), load(&args[split + 1..])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<10} {:<28} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "A: n median [q1, q3]", "B: n median [q1, q3]", "change"
    );
    let mut bad = 0;
    for ((workload, metric), va) in &a {
        let Some((_, vb)) = b.iter().find(|(k, _)| k.0 == *workload && k.1 == *metric) else {
            continue;
        };
        let Some(d) = def(metric) else { continue };
        let v = verdict(d, va, vb);
        bad += usize::from(matches!(v, Verdict::Worse | Verdict::Differs | Verdict::Unresolved));
        let (ma, mb) = (median(&values(va)), median(&values(vb)));
        println!(
            "{workload:<10} {metric:<28} {:>34} {:>34} {:>+7.2}%  {}",
            side(va),
            side(vb),
            (mb - ma) / ma.abs() * 100.0,
            v.name()
        );
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn values(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.value).collect()
}

fn side(samples: &[Sample]) -> String {
    let v = values(samples);
    let [q1, _, q3] = quartiles(&v);
    format!("{} {:.6} [{q1:.6}, {q3:.6}]", v.len(), median(&v))
}

/// Relative interquartile range.
fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    (q3 - q1) / q2.abs()
}

fn verdict(d: &MetricDef, a: &[Sample], b: &[Sample]) -> Verdict {
    if d.exact {
        let common: Vec<(f64, f64)> = a
            .iter()
            .flat_map(|x| b.iter().filter(|y| y.seed == x.seed).map(|y| (x.value, y.value)))
            .collect();
        return if common.is_empty() {
            Verdict::Info
        } else if common.iter().all(|(x, y)| x.to_bits() == y.to_bits()) {
            Verdict::Equal
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = d.bound else { return Verdict::Info };
    let (va, vb) = (values(a), values(b));
    if va.len() < 2 || vb.len() < 2 {
        return Verdict::Unresolved;
    }
    let beats = |x: f64, y: f64| match d.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let all_better = vb.iter().all(|&y| va.iter().all(|&x| beats(y, x)));
    let all_worse = vb.iter().all(|&y| va.iter().all(|&x| beats(x, y)));
    if spread(&va).max(spread(&vb)) > bound {
        return match (all_better, all_worse) {
            (true, _) => Verdict::Better,
            (_, true) => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    let (ma, mb) = (median(&va), median(&vb));
    let gain = match d.better {
        Better::Higher => (mb - ma) / ma.abs(),
        Better::Lower => (ma - mb) / ma.abs(),
    };
    let pairs = va.len().min(vb.len());
    let wins = (0..pairs).filter(|&i| beats(vb[i], va[i])).count();
    if -gain > bound {
        Verdict::Worse
    } else if gain > spread(&va) && wins * 10 >= pairs * 9 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Reads run records from result files (`{"runs": [...]}`, or
/// `{"sets": [{"runs": [...]}, ...]}`), grouped by (workload, metric) in
/// workload and table order.
fn load(paths: &[String]) -> Result<Table, String> {
    if paths.is_empty() {
        return Err("compare: each side needs at least one result file".to_string());
    }
    let mut runs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = JsonValue::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
        let sets = match doc.get("sets").and_then(JsonValue::as_arr) {
            Some(sets) => sets.to_vec(),
            None => vec![doc],
        };
        for set in sets {
            let set_runs = set.get("runs").and_then(JsonValue::as_arr);
            runs.extend(set_runs.ok_or(format!("{path}: no \"runs\" array"))?.iter().cloned());
        }
    }
    let mut table: Table = Vec::new();
    for run in &runs {
        let workload =
            run.get("workload").and_then(JsonValue::as_str).ok_or("run without workload")?;
        let seed = run.get("seed").and_then(JsonValue::as_u64).ok_or("run without seed")?;
        let Some(JsonValue::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{workload} run without metrics"));
        };
        for (name, entry) in metrics {
            let value =
                entry.get("value").and_then(JsonValue::as_f64).ok_or("metric without value")?;
            let key = (workload.to_string(), name.clone());
            match table.iter_mut().find(|(k, _)| *k == key) {
                Some((_, samples)) => samples.push(Sample { seed, value }),
                None => table.push((key, vec![Sample { seed, value }])),
            }
        }
    }
    let order = |(w, m): &(String, String)| {
        let wi = Workload::ALL.iter().position(|x| x.name() == w).unwrap_or(usize::MAX);
        let mi = crate::metrics::END_TO_END
            .iter()
            .chain(crate::metrics::PER_LAYER)
            .position(|d| d.name == m)
            .unwrap_or(usize::MAX);
        (wi, mi)
    };
    table.sort_by_key(|(k, _)| order(k));
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Vec<Sample> {
        values.iter().enumerate().map(|(i, &value)| Sample { seed: i as u64, value }).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let rate = def("sim_cycles_per_s").unwrap();
        let bound = rate.bound.unwrap();
        let a = samples(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let shifted = |by: f64| samples(&[100.2, 99.8, 100.1, 100.4, 99.6].map(|v| v * (1.0 + by)));
        assert_eq!(verdict(rate, &a, &shifted(0.0)), Verdict::Unchanged);
        assert_eq!(verdict(rate, &a, &shifted(-bound / 2.0)), Verdict::Unchanged);
        assert_eq!(verdict(rate, &a, &shifted(-bound * 1.2)), Verdict::Worse);
        assert_eq!(verdict(rate, &a, &shifted(0.05)), Verdict::Better);
        // A spread wider than the bound is unresolved, not unchanged...
        let noisy = samples(&[50.0, 150.0, 100.0, 60.0, 140.0]);
        assert_eq!(verdict(rate, &a, &noisy), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let wide_but_better = samples(&[150.0, 250.0, 200.0, 160.0, 240.0]);
        assert_eq!(verdict(rate, &a, &wide_but_better), Verdict::Better);
        assert_eq!(verdict(rate, &a[..1], &a[..1]), Verdict::Unresolved);
    }

    #[test]
    fn deterministic_metrics_must_agree_bit_for_bit_per_seed() {
        let energy = def("sim_pj_per_bit").unwrap();
        let a = samples(&[1.5, 2.5]);
        assert_eq!(verdict(energy, &a, &samples(&[1.5, 2.5])), Verdict::Equal);
        assert_eq!(verdict(energy, &a, &samples(&[1.5, 2.5000001])), Verdict::Differs);
        let other_seed = vec![Sample { seed: 99, value: 7.0 }];
        assert_eq!(verdict(energy, &a, &other_seed), Verdict::Info);
    }
}
