//! Robustness sweep: throughput/energy degradation versus fault rate.
//!
//! Not a paper figure — the PEARL evaluation assumes a fault-free
//! photonic layer. This harness sweeps the uniform fault profile
//! ([`FaultConfig::uniform`]: λ trimming failures, laser-bank
//! degradation and transient flit corruption all driven by one rate
//! knob) across every test pair and reports the degradation curve for
//! the reactive RW500 stack.
//!
//! Two properties are asserted, not just printed:
//!
//! * **Liveness / zero loss** — at every rate, every injected packet is
//!   either delivered or still accounted for in a buffer, in flight, or
//!   on a retransmission queue (the CRC/NACK path never drops).
//! * **Monotone degradation** — mean throughput is non-increasing in
//!   the fault rate (within a small noise tolerance).
//!
//! Flags:
//!
//! * `--json` — write `results/faultsweep.json` plus a full telemetry
//!   trace of one instrumented faulty run: `results/faultsweep_trace.jsonl`
//!   (one event per line, every taxonomy kind represented) and
//!   `results/faultsweep_manifest.json` (seed, cycles, config
//!   fingerprint, event counts). The `report` binary renders the pair.
//! * `--smoke` — shrink the sweep (3 rates × 4 pairs × 10 k cycles) for
//!   CI; the instrumented trace run keeps its full length so every
//!   event kind still appears.

use pearl_bench::{mean, JobPool, Report, Row, RESULTS_DIR, SEED_BASE};
use pearl_core::{
    FallbackConfig, FaultConfig, MlPowerScaler, NetworkBuilder, PearlPolicy, FEATURE_COUNT,
};
use pearl_ml::{select_lambda, Dataset};
use pearl_telemetry::{fingerprint, write_trace_file, OsStorage, Recorder, RunManifest, Shared};
use pearl_workloads::BenchmarkPair;

/// Shorter than the figure runs: the sweep multiplies 6 rates by all
/// test pairs, and fault effects show up well before 30 µs.
const CYCLES: u64 = 30_000;

/// Swept uniform fault rates (per-cycle λ failure / per-packet
/// corruption probability).
const RATES: [f64; 6] = [0.0, 1e-4, 5e-4, 2e-3, 1e-2, 5e-2];

/// `--smoke` subset: endpoints plus one mid rate.
const SMOKE_RATES: [f64; 3] = [0.0, 5e-4, 5e-2];

/// Tolerance for the monotonicity assertion: retry scheduling and RNG
/// stream perturbation add a little noise between adjacent rates.
const MONOTONE_SLACK: f64 = 1.005;

/// Cycles for the instrumented trace run — long enough for the forced
/// ladder demotion and both wavelength-transition causes to appear.
const TRACE_CYCLES: u64 = 20_000;

/// Seed for the instrumented trace run (workload and fault streams).
const TRACE_SEED: u64 = 29;

struct SweepPoint {
    rate: f64,
    throughput: f64,
    energy_pj_per_bit: f64,
    laser_w: f64,
    corrupted: u64,
    retransmitted: u64,
    backoff_cycles: u64,
    lambda_failures: u64,
}

fn sweep_rate(pool: &JobPool, rate: f64, pairs: &[BenchmarkPair], cycles: u64) -> SweepPoint {
    // Each pair's run (and its liveness/zero-loss assertions) is an
    // independent job; the per-rate aggregate folds the index-ordered
    // results, so the point is identical for any worker count.
    let per_pair = pool.map(pairs, |i, &pair| {
        let seed = SEED_BASE + i as u64;
        let mut net = NetworkBuilder::new()
            .policy(PearlPolicy::reactive(500))
            .fault_config(FaultConfig::uniform(rate, seed))
            .seed(seed)
            .build(pair);
        let summary = net.run(cycles);
        let injected = net.stats().total_injected_packets();
        let delivered = net.stats().total_delivered_packets();
        let in_network = net.in_network_packets();
        assert_eq!(
            injected,
            delivered + in_network,
            "packet leak at rate {rate} on {}: {injected} injected, \
             {delivered} delivered, {in_network} in network",
            pair.label()
        );
        assert!(delivered > 0, "network not live at rate {rate} on {}", pair.label());
        (summary, net.fault_stats().lambda_failures)
    });
    let mut throughputs = Vec::new();
    let mut energies = Vec::new();
    let mut lasers = Vec::new();
    let mut corrupted = 0u64;
    let mut retransmitted = 0u64;
    let mut backoff_cycles = 0u64;
    let mut lambda_failures = 0u64;
    for (summary, pair_lambda_failures) in &per_pair {
        throughputs.push(summary.throughput_flits_per_cycle);
        energies.push(summary.energy_per_bit_j * 1e12);
        lasers.push(summary.avg_laser_power_w);
        corrupted += summary.corrupted_packets;
        retransmitted += summary.retransmitted_packets;
        backoff_cycles += summary.retransmit_backoff_cycles;
        lambda_failures += pair_lambda_failures;
    }
    SweepPoint {
        rate,
        throughput: mean(&throughputs),
        energy_pj_per_bit: mean(&energies),
        laser_w: mean(&lasers),
        corrupted,
        retransmitted,
        backoff_cycles,
        lambda_failures,
    }
}

/// A "trained" scaler predicting roughly `value` flits regardless of
/// features — forces the degradation ladder to demote, so the trace
/// covers ladder transitions alongside the fault-driven events.
fn constant_scaler(value: f64) -> MlPowerScaler {
    let mut d = Dataset::new(FEATURE_COUNT);
    for i in 0..40 {
        let mut f = vec![0.0; FEATURE_COUNT];
        f[0] = (i % 2) as f64;
        d.push(f, value).unwrap();
    }
    let (train, val) = d.split_tail(0.25);
    MlPowerScaler::new(select_lambda(&train, &val, &[1.0]).unwrap())
}

/// Runs one instrumented faulty run and writes the JSONL trace plus its
/// manifest next to the other artifacts in `results/`.
fn write_trace_artifacts() {
    let fault = FaultConfig { corruption_per_packet: 0.05, ..FaultConfig::uniform(0.02, 9) };
    let fallback = FallbackConfig { severe_below: f64::NEG_INFINITY, ..FallbackConfig::pearl() };
    let policy = PearlPolicy::ml_with_fallback(500, constant_scaler(1e6), true, fallback);
    let pair = BenchmarkPair::test_pairs()[0];
    let mut net = NetworkBuilder::new()
        .policy(policy.clone())
        .fault_config(fault)
        .seed(TRACE_SEED)
        .build(pair);
    let recorder = Shared::new(Recorder::new());
    net.attach_probe(Box::new(recorder.clone()));
    net.run(TRACE_CYCLES);

    let (events, dropped) = recorder.with(|r| (r.events().to_vec(), r.dropped()));
    // Injection stalls are workload-dependent (the backlog must fill) so
    // they are not required here; every fault- and scaling-driven kind is.
    for kind in [
        "dba_realloc",
        "wavelength_transition",
        "ladder_transition",
        "retransmission",
        "window_close",
        "fault",
    ] {
        assert!(
            events.iter().any(|e| e.kind() == kind),
            "trace run produced no {kind} event ({} total)",
            events.len()
        );
    }
    let trace_path = format!("{RESULTS_DIR}/faultsweep_trace.jsonl");
    write_trace_file(&OsStorage, &trace_path, &events).expect("write trace");
    let manifest = RunManifest::new("faultsweep_trace", TRACE_SEED, TRACE_CYCLES)
        .with_config(&(&policy, &fault, pair.label()))
        .with_trace_counts(events.len() as u64, dropped)
        .with_extra("pair", pearl_telemetry::JsonValue::str(pair.label()))
        .with_extra(
            "policy_fingerprint",
            pearl_telemetry::JsonValue::str(format!(
                "{:016x}",
                fingerprint(&format!("{policy:?}"))
            )),
        );
    let manifest_path = format!("{RESULTS_DIR}/faultsweep_manifest.json");
    manifest.write_file(&OsStorage, &manifest_path).expect("write manifest");
    eprintln!("[wrote {trace_path} ({} events) and {manifest_path}]", events.len());
}

fn main() {
    let args =
        pearl_bench::Cli::new("faultsweep", "throughput/energy degradation versus fault rate")
            .flag("--smoke", "reduced sweep for CI")
            .parse();
    let pool = JobPool::new(args.jobs());
    let smoke = args.has("--smoke");
    let mut report = Report::new("faultsweep", args.has("--json"));
    let rates: &[f64] = if smoke { &SMOKE_RATES } else { &RATES };
    let pairs: Vec<BenchmarkPair> = if smoke {
        BenchmarkPair::test_pairs().into_iter().take(4).collect()
    } else {
        BenchmarkPair::test_pairs()
    };
    let cycles = if smoke { 10_000 } else { CYCLES };
    println!(
        "=== Fault sweep: reactive RW500, {} pairs x {cycles} cycles{} ===",
        pairs.len(),
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:>10} {:>12} {:>14} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "rate", "tput f/cyc", "energy pJ/bit", "laser W", "corrupt", "retx", "backoff", "λ-fail"
    );
    let points: Vec<SweepPoint> =
        rates.iter().map(|&r| sweep_rate(&pool, r, &pairs, cycles)).collect();
    for p in &points {
        println!(
            "{:>10.0e} {:>12.4} {:>14.3} {:>10.2} {:>10} {:>10} {:>10} {:>10}",
            p.rate,
            p.throughput,
            p.energy_pj_per_bit,
            p.laser_w,
            p.corrupted,
            p.retransmitted,
            p.backoff_cycles,
            p.lambda_failures
        );
    }
    report.record_table(
        "Fault sweep: reactive RW500",
        &["tput f/cyc", "energy pJ/bit", "laser W", "corrupt", "retx", "backoff", "λ-fail"],
        &points
            .iter()
            .map(|p| {
                Row::new(
                    format!("{:.0e}", p.rate),
                    vec![
                        p.throughput,
                        p.energy_pj_per_bit,
                        p.laser_w,
                        p.corrupted as f64,
                        p.retransmitted as f64,
                        p.backoff_cycles as f64,
                        p.lambda_failures as f64,
                    ],
                )
            })
            .collect::<Vec<_>>(),
    );
    for pair in points.windows(2) {
        assert!(
            pair[1].throughput <= pair[0].throughput * MONOTONE_SLACK,
            "throughput increased with fault rate: {:.4} f/cyc at {:.0e} vs {:.4} at {:.0e}",
            pair[1].throughput,
            pair[1].rate,
            pair[0].throughput,
            pair[0].rate,
        );
    }
    let base = &points[0];
    let worst = &points[points.len() - 1];
    let rows: Vec<Row> = points
        .iter()
        .map(|p| {
            Row::new(
                format!("{:.0e}", p.rate),
                vec![p.throughput / base.throughput, p.energy_pj_per_bit / base.energy_pj_per_bit],
            )
        })
        .collect();
    report.table("Degradation relative to fault-free", &["tput ratio", "energy ratio"], &rows, 3);
    report.metric("worst_rate", worst.rate);
    report.metric("worst_tput_loss_pct", (1.0 - worst.throughput / base.throughput) * 100.0);
    println!(
        "\nReading: every packet injected across the sweep's {} runs is delivered \
         or accounted for on recovery paths — no rate in the sweep loses a packet. \
         Throughput degrades monotonically ({:.1} % at rate {:.0e}) while energy \
         per bit rises as failed λs shrink effective channel capacity and \
         corrupted flits are retransmitted.",
        rates.len() * pairs.len(),
        (1.0 - worst.throughput / base.throughput) * 100.0,
        worst.rate,
    );
    if report.json_enabled() {
        write_trace_artifacts();
    }
    report.finish().expect("write JSON artifact");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_is_live_and_degrades() {
        // One cheap high-rate point: the assertions inside sweep_rate
        // prove zero loss and liveness; compare against fault-free.
        let pairs = BenchmarkPair::test_pairs();
        let pool = JobPool::machine_sized();
        let healthy = sweep_rate(&pool, 0.0, &pairs, CYCLES);
        let faulty = sweep_rate(&pool, 0.05, &pairs, CYCLES);
        assert!(faulty.throughput <= healthy.throughput * MONOTONE_SLACK);
        assert!(faulty.corrupted > 0);
        assert!(faulty.retransmitted >= faulty.corrupted);
        assert!(faulty.backoff_cycles > 0);
        assert!(faulty.lambda_failures > 0);
        assert_eq!(healthy.corrupted, 0);
        assert_eq!(healthy.backoff_cycles, 0);
    }
}
