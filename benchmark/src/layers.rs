//! The traced run's per-layer measurements, taken from the benchmark's
//! own code around the calls into each layer: the network step loop, the
//! checkpoint codec, traffic generation, the ML pipeline and the modelled
//! design's counters. (The serve layer lives in `serve`.)

use crate::alloc::counted;
use crate::metrics::Outcome;
use crate::net::{Fabric, Net, Summary, Unit};
use crate::stats::{fastest_round_total, median, percentile};
use crate::sweep::{total_cycles, trainer, ML_WINDOW};
use crate::workload::Plan;
use pearl_cmesh::CmeshConfig;
use pearl_core::{PearlConfig, PearlPolicy};
use pearl_ml::{select_lambda, DEFAULT_LAMBDA_GRID};
use pearl_noc::Cycle;
use pearl_photonics::WavelengthState;
use pearl_telemetry::{Checkpoint, JsonValue};
use pearl_workloads::{BenchmarkPair, TrafficModel};
use std::time::{Duration, Instant};

/// One checkpoint round trip's costs.
pub struct Codec {
    /// `snapshot` + `to_json` + rendering to text (ms).
    pub encode_ms: f64,
    /// `parse` + `from_json` + `restore` onto a prebuilt network (ms).
    pub decode_ms: f64,
    /// Rendered checkpoint size.
    pub bytes: usize,
}

/// Checkpoints `net`, restores the text onto a fresh build of `unit`,
/// and checks the restored network has the same state hash.
pub fn codec_round_trip(unit: &Unit, net: &Net) -> Result<Codec, String> {
    let t = Instant::now();
    let text = net.snapshot().to_json().to_string();
    let encode = t.elapsed();
    let mut fresh = Net::build(unit);
    let t = Instant::now();
    let doc = JsonValue::parse(&text).map_err(|e| format!("checkpoint JSON: {e}"))?;
    let checkpoint = Checkpoint::from_json(&doc).map_err(|e| format!("checkpoint: {e:?}"))?;
    fresh.restore(&checkpoint).map_err(|e| format!("checkpoint restore: {e:?}"))?;
    let decode = t.elapsed();
    if fresh.state_hash() != net.state_hash() {
        return Err("checkpoint round trip changed the state hash".to_string());
    }
    Ok(Codec { encode_ms: ms(encode), decode_ms: ms(decode), bytes: text.len() })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Drives every unit cycle by cycle with `step()`, timing each step and
/// counting allocations, in interleaved rounds for at least two rounds
/// and then while another fits in `budget`. Each stepped unit must
/// reproduce the digest of its untraced `run()`. Records the `net.*` and
/// `ckpt.*` metrics and `trace_overhead_pct` against `untraced_rate`.
pub fn net_layers(
    outcome: &mut Outcome,
    units: &[Unit],
    digests: &[u64],
    budget: Duration,
    untraced_rate: f64,
) {
    let start = Instant::now();
    let longest = units.iter().map(|u| u.cycles).max().unwrap_or(0);
    // Reserved up front: pushing a step time must not allocate while
    // allocations are being counted.
    let mut unit_steps: Vec<u32> = Vec::with_capacity(longest as usize);
    let mut steps: Vec<f64> = Vec::new();
    let mut window_steps: Vec<f64> = Vec::new();
    let mut build_ms = Vec::new();
    let mut secs = vec![Vec::new(); units.len()];
    let (mut allocs, mut alloc_bytes, mut alloc_cycles) = (0u64, 0u64, 0u64);
    let mut codecs = Vec::new();
    for round in 0.. {
        let round_start = Instant::now();
        for (u, unit) in units.iter().enumerate() {
            let t = Instant::now();
            let mut net = Net::build(unit);
            build_ms.push(ms(t.elapsed()));
            unit_steps.clear();
            let ((), count, bytes) = counted(|| {
                for _ in 0..unit.cycles {
                    let s = Instant::now();
                    net.step();
                    unit_steps.push(u32::try_from(s.elapsed().as_nanos()).unwrap_or(u32::MAX));
                }
            });
            secs[u].push(t.elapsed().as_secs_f64());

            let mut problems = Vec::new();
            if net.summary().digest(net.state_hash()) != digests[u] {
                problems.push("stepping gave another digest than run()".to_string());
            }
            if round == 0 {
                // Steady state: the first unit pays one-time allocations.
                if u > 0 || units.len() == 1 {
                    allocs += count;
                    alloc_bytes += bytes;
                    alloc_cycles += unit.cycles;
                }
                match codec_round_trip(unit, &net) {
                    Ok(codec) => codecs.push(codec),
                    Err(e) => problems.push(e),
                }
            }
            outcome.ops.record(&format!("{} stepped", unit.key), &problems);
            steps.extend(unit_steps.iter().map(|&ns| f64::from(ns)));
            // Steps after which router 0's RW500 window closes.
            let window = ML_WINDOW as usize;
            window_steps.extend(
                unit_steps.iter().skip(window - 1).step_by(window).map(|&ns| f64::from(ns)),
            );
        }
        if round >= 1 && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }

    let traced_rate = total_cycles(units) / fastest_round_total(&secs);
    outcome.note(format!(
        "stepped {} rounds: {traced_rate:.0} cycles/s traced vs {untraced_rate:.0} untraced",
        secs.first().map_or(0, Vec::len)
    ));
    outcome.metric("net.build_ms", median(&build_ms));
    outcome.metric("net.step_ns_p50", percentile(&steps, 50.0));
    outcome.metric("net.step_ns_p99", percentile(&steps, 99.0));
    outcome.metric("net.window_step_ns_p50", percentile(&window_steps, 50.0));
    outcome.metric("net.allocs_per_cycle", allocs as f64 / alloc_cycles as f64);
    outcome.metric("net.alloc_bytes_per_cycle", alloc_bytes as f64 / alloc_cycles as f64);
    let codec_ms = |f: fn(&Codec) -> f64| median(&codecs.iter().map(f).collect::<Vec<_>>());
    outcome.metric("ckpt.encode_ms", codec_ms(|c| c.encode_ms));
    outcome.metric("ckpt.decode_ms", codec_ms(|c| c.decode_ms));
    let bytes: usize = codecs.iter().map(|c| c.bytes).sum();
    outcome.metric("ckpt.bytes", bytes as f64 / codecs.len() as f64);
    outcome.metric("trace_overhead_pct", (untraced_rate / traced_rate - 1.0) * 100.0);
}

/// Times ungated `TrafficModel::step` over each unit's pair, seed and
/// length, counting requests and allocations.
pub fn traffic_layer(outcome: &mut Outcome, units: &[Unit]) {
    let (mut secs, mut requests, mut allocs, mut cycles) = (0.0, 0u64, 0u64, 0u64);
    for unit in units {
        let clusters = match unit.fabric {
            Fabric::Pearl(_) => PearlConfig::pearl().clusters,
            Fabric::Cmesh => CmeshConfig::pearl_baseline().clusters(),
        };
        let mut model = TrafficModel::new(unit.pair, clusters, unit.seed);
        let t = Instant::now();
        let (n, count, _) =
            counted(|| (0..unit.cycles).map(|c| model.step(Cycle(c)).len() as u64).sum::<u64>());
        secs += t.elapsed().as_secs_f64();
        requests += n;
        allocs += count;
        cycles += unit.cycles;
    }
    outcome.metric("traffic.gen_ns_per_cycle", secs * 1e9 / cycles as f64);
    outcome.metric("traffic.requests_per_cycle", requests as f64 / cycles as f64);
    outcome.metric("traffic.allocs_per_cycle", allocs as f64 / cycles as f64);
}

/// One `MlTrainer::collect` pass over the 36 training pairs under
/// random-walk RW500 with the `pearl_ml` trainer's settings, then λ
/// selection against the 4 validation pairs. The inputs do not depend on
/// the workload or seed, so every traced run measures the same work.
pub fn ml_layer(outcome: &mut Outcome, plan: &Plan) {
    let trainer = trainer(plan);
    let random = PearlPolicy::random_walk(ML_WINDOW);
    let t = Instant::now();
    let training = trainer.collect(&BenchmarkPair::training_pairs(), &random);
    outcome.metric("ml.collect_s", t.elapsed().as_secs_f64());
    let validation = trainer.collect(&BenchmarkPair::validation_pairs(), &random);
    let t = Instant::now();
    match select_lambda(&training, &validation, &DEFAULT_LAMBDA_GRID) {
        Ok(selection) => {
            outcome.metric("ml.select_lambda_s", t.elapsed().as_secs_f64());
            outcome.metric("ml.samples", training.len() as f64);
            outcome.metric("ml.validation_nrmse", selection.validation_nrmse);
        }
        Err(e) => outcome.ops.fail(format!("ML layer: lambda selection failed: {e:?}")),
    }
}

/// The modelled design's counters over `summaries`: totals of counts,
/// means of per-unit latencies and powers, and the wavelength-state
/// residency of all PEARL router-cycles. CMESH has no laser and reports
/// no p99, so those read 0 on it.
pub fn sim_layer(outcome: &mut Outcome, summaries: &[Summary]) {
    let n = summaries.len() as f64;
    let pearl: Vec<_> = summaries.iter().filter_map(Summary::pearl).collect();
    let pearl_mean = |f: fn(&pearl_core::RunSummary) -> f64| {
        if pearl.is_empty() {
            0.0
        } else {
            pearl.iter().map(|s| f(s)).sum::<f64>() / pearl.len() as f64
        }
    };
    let sum = |f: fn(&Summary) -> u64| summaries.iter().map(f).sum::<u64>() as f64;
    outcome.metric("sim.delivered_packets", sum(Summary::delivered_packets));
    outcome.metric("sim.injection_stalls", sum(Summary::injection_stalls));
    outcome.metric(
        "sim.latency_cpu_cycles",
        summaries.iter().map(|s| s.latencies().0).sum::<f64>() / n,
    );
    outcome.metric(
        "sim.latency_gpu_cycles",
        summaries.iter().map(|s| s.latencies().1).sum::<f64>() / n,
    );
    outcome.metric("sim.latency_p99_cycles", pearl_mean(|s| s.latency_p99));
    outcome.metric("sim.laser_w", pearl_mean(|s| s.avg_laser_power_w));
    outcome.metric(
        "sim.laser_transitions",
        pearl.iter().map(|s| s.laser_transitions).sum::<u64>() as f64,
    );
    outcome.metric(
        "sim.laser_stall_cycles",
        pearl.iter().map(|s| s.laser_stall_cycles).sum::<u64>() as f64,
    );
    let total: u64 = pearl.iter().map(|s| s.residency.total_cycles()).sum();
    for (state, name) in WavelengthState::ALL.into_iter().zip([
        "sim.residency_8wl",
        "sim.residency_16wl",
        "sim.residency_32wl",
        "sim.residency_48wl",
        "sim.residency_64wl",
    ]) {
        let cycles: u64 = pearl.iter().map(|s| s.residency.cycles_in(state)).sum();
        outcome.metric(name, if total == 0 { 0.0 } else { 100.0 * cycles as f64 / total as f64 });
    }
}
