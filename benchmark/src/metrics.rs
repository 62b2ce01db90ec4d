//! The metric tables, the outcome of one run, and the JSON a run prints
//! as its last line.

use pearl_telemetry::JsonValue;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// For end-to-end metrics, the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// The value is a function of the seed alone: runs of one seed must
    /// agree bit for bit, whatever the host did.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), exact: false }
}

const fn modelled(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), exact: true }
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None, exact: false }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None, exact: true }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("sim_cycles_per_s", "cycles/s", Better::Higher, 0.25),
    e2e("latency_ms", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    modelled("sim_flits_per_cycle", "flits/cycle", Better::Higher, 0.15),
    modelled("sim_pj_per_bit", "pJ/bit", Better::Lower, 0.15),
    modelled("sim_power_w", "W", Better::Lower, 0.10),
];

/// Per-layer metrics, printed by every traced run of every workload.
pub const PER_LAYER: &[MetricDef] = &[
    timing("net.build_ms", "ms"),
    timing("net.step_ns_p50", "ns"),
    timing("net.step_ns_p99", "ns"),
    timing("net.window_step_ns_p50", "ns"),
    count("net.allocs_per_cycle", "allocs/cycle", Better::Lower),
    count("net.alloc_bytes_per_cycle", "B/cycle", Better::Lower),
    timing("ckpt.encode_ms", "ms"),
    timing("ckpt.decode_ms", "ms"),
    count("ckpt.bytes", "B", Better::Lower),
    timing("traffic.gen_ns_per_cycle", "ns/cycle"),
    count("traffic.requests_per_cycle", "requests/cycle", Better::Higher),
    count("traffic.allocs_per_cycle", "allocs/cycle", Better::Lower),
    timing("ml.collect_s", "s"),
    timing("ml.select_lambda_s", "s"),
    count("ml.samples", "count", Better::Higher),
    count("ml.validation_nrmse", "ratio", Better::Higher),
    timing("serve.startup_ms", "ms"),
    timing("serve.stop_ms", "ms"),
    timing("serve.restart_ms", "ms"),
    timing("serve.admit_ms_p50", "ms"),
    timing("serve.run_ms_p50", "ms"),
    timing("serve.direct_ms_p50", "ms"),
    timing("serve.latency_p90_ms", "ms"),
    count("serve.out_bytes", "B", Better::Lower),
    MetricDef {
        name: "serve.resumed_jobs",
        unit: "count",
        better: Better::Higher,
        bound: None,
        exact: false,
    },
    timing("serve.generator_late_ms_max", "ms"),
    count("sim.delivered_packets", "count", Better::Higher),
    count("sim.injection_stalls", "count", Better::Lower),
    count("sim.latency_cpu_cycles", "sim-cycles", Better::Lower),
    count("sim.latency_gpu_cycles", "sim-cycles", Better::Lower),
    count("sim.latency_p99_cycles", "sim-cycles", Better::Lower),
    count("sim.laser_w", "W", Better::Lower),
    count("sim.laser_transitions", "count", Better::Lower),
    count("sim.laser_stall_cycles", "sim-cycles", Better::Lower),
    count("sim.residency_8wl", "%", Better::Higher),
    count("sim.residency_16wl", "%", Better::Higher),
    count("sim.residency_32wl", "%", Better::Higher),
    count("sim.residency_48wl", "%", Better::Higher),
    count("sim.residency_64wl", "%", Better::Lower),
    MetricDef {
        name: "trace_overhead_pct",
        unit: "%",
        better: Better::Lower,
        bound: None,
        exact: false,
    },
];

/// The definition of a metric of either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Operations attempted and failed. An operation is one timed unit run
/// or one served spec; it fails on any digest, invariant or artifact
/// mismatch.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Ops {
    /// Records one operation named `what` and the checks it failed.
    pub fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.push(format!("{what}: {}", problems.join("; ")));
        }
    }

    /// Records a failure outside any operation (a broken setup, a
    /// missing measurement) as one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.record(&what.into(), &["failed".to_string()]);
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness bookkeeping.
    pub ops: Ops,
    /// `(metric name, value)`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Diagnostics printed beside the metrics and never gated.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(def(name).is_some(), "undeclared metric {name}");
        self.metrics.push((name, value));
    }

    /// Records a diagnostic line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Looks up a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Checks that exactly the metrics of `table` were measured, each as
    /// a finite number, and counts any gap as a failure.
    pub fn check_complete(&mut self, table: &[MetricDef]) {
        for d in table {
            match self.get(d.name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.ops.fail(format!("metric {} measured as {v}", d.name)),
                None => self.ops.fail(format!("metric {} not measured", d.name)),
            }
        }
        let extra: Vec<&str> = self
            .metrics
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !table.iter().any(|d| d.name == *n))
            .collect();
        for name in extra {
            self.ops.fail(format!("metric {name} is not in this run's table"));
        }
    }

    /// The result object: `correct`, `attempted`, `failed` and the
    /// metrics of `table` in table order.
    pub fn result_json(&self, table: &[MetricDef]) -> JsonValue {
        let metrics = table
            .iter()
            .filter_map(|d| {
                let value = self.get(d.name)?;
                let entry = JsonValue::obj(vec![
                    ("value", JsonValue::Num(value)),
                    ("unit", JsonValue::str(d.unit)),
                ]);
                Some((d.name.to_string(), entry))
            })
            .collect();
        JsonValue::obj(vec![
            ("correct", JsonValue::Bool(self.ops.failed == 0)),
            ("attempted", JsonValue::u64(self.ops.attempted)),
            ("failed", JsonValue::u64(self.ops.failed)),
            ("metrics", JsonValue::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables and the root `BENCHMARK.json` describe the same
    /// metrics with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = JsonValue::parse(text.trim()).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(JsonValue::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, d) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(JsonValue::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(d.unit));
                let better = match d.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                assert_eq!(entry.get("better").and_then(JsonValue::as_str), Some(better));
                assert_eq!(entry.get("bound").and_then(JsonValue::as_f64), d.bound, "{}", d.name);
            }
        }
    }

    #[test]
    fn incomplete_or_foreign_metrics_fail_the_run() {
        let mut outcome = Outcome::default();
        outcome.metric("setup_s", 1.0);
        outcome.metric("net.build_ms", 2.0);
        outcome.check_complete(END_TO_END);
        assert_eq!(outcome.ops.failed as usize, END_TO_END.len() - 1 + 1);
        let json = outcome.result_json(END_TO_END);
        assert_eq!(json.get("correct"), Some(&JsonValue::Bool(false)));
        assert!(json.get("metrics").unwrap().get("net.build_ms").is_none());
    }
}
