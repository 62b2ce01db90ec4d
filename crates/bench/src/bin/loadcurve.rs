//! Classic NoC load-latency curves under uniform-random synthetic
//! traffic: PEARL-Dyn at 64 WL versus the electrical CMESH.
//!
//! Not a paper figure — the standard characterization an adopter of
//! either simulator runs first, and a useful corrective: on *uniform
//! random* traffic the mesh's aggregate link capacity exceeds the
//! photonic crossbar's serializer-bound 0.5 flits/cycle/router, so raw
//! saturation throughput favours CMESH. PEARL's wins in the paper come
//! from lower zero-load latency, energy per bit, and the L3-centric
//! heterogeneous traffic the evaluation actually runs — not bisection.
//!
//! Flags: `--json` writes `results/loadcurve.json`; `--profile` runs
//! both networks through the simulator's self-profiler, reports the
//! PEARL side's simulated-cycles/sec with per-phase wall-clock
//! attribution and writes one hot-path artifact per network, each with
//! its own allocation table when built with `--features alloc-count`;
//! `--trace` additionally runs one instrumented PEARL run (probe *and*
//! causal-span sink, with flit corruption forcing the retransmission
//! path) and writes `results/loadcurve_trace.jsonl` — events and spans
//! interleaved in cycle order — plus `results/loadcurve_manifest.json`.
//! The `report` binary renders the pair (`--spans` / `--perfetto`).

use pearl_bench::{has_flag, Hotpath, JobPool, Report, Row, RESULTS_DIR};
use pearl_cmesh::CmeshBuilder;
use pearl_core::{FaultConfig, NetworkBuilder, PearlPolicy};
use pearl_noc::CoreType;
use pearl_telemetry::{
    alloc_stats, reset_alloc_stats, write_trace_file, AllocStats, JsonValue, ProfileReport,
    RunManifest, SharedRecorder, SharedSpanRecorder, SpanKind, TraceEvent,
};
use pearl_workloads::{BenchmarkPair, SyntheticPattern, SyntheticTraffic};

/// Cycles for the instrumented `--trace` run — enough for every span
/// kind (corruption forces retransmissions well before this) while the
/// committed JSONL artifact stays around two megabytes.
const TRACE_CYCLES: u64 = 2_000;

/// Seed for the instrumented `--trace` run (workload + fault streams).
const TRACE_SEED: u64 = 7;

/// Runs one instrumented PEARL run on the standard test pair (CPU and
/// GPU traffic plus responses, so spans cover both classes and carry
/// causal parent links) and writes the interleaved event/span trace
/// with its manifest. Corruption is dialed up so the retransmission
/// stage appears in the attribution.
fn write_trace_artifacts() {
    let fault = FaultConfig { corruption_per_packet: 0.05, ..FaultConfig::uniform(0.02, 9) };
    let policy = PearlPolicy::dyn_64wl();
    let pair = BenchmarkPair::test_pairs()[0];
    let mut net = NetworkBuilder::new()
        .policy(policy.clone())
        .fault_config(fault)
        .seed(TRACE_SEED)
        .build(pair);
    let probe = SharedRecorder::new();
    let spans = SharedSpanRecorder::new();
    net.attach_probe(Box::new(probe.clone()));
    net.attach_span_sink(Box::new(spans.clone()));
    net.run(TRACE_CYCLES);

    let span_list = spans.spans();
    for kind in SpanKind::ALL {
        assert!(
            span_list.iter().any(|s| s.kind == kind),
            "trace run produced no {kind} span ({} total)",
            span_list.len()
        );
    }
    let mut lines = probe.events();
    lines.extend(span_list.iter().cloned().map(TraceEvent::Span));
    lines.sort_by_key(TraceEvent::at);

    let trace_path = format!("{RESULTS_DIR}/loadcurve_trace.jsonl");
    write_trace_file(&trace_path, &lines).expect("write trace");
    let manifest = RunManifest::new("loadcurve_trace", TRACE_SEED, TRACE_CYCLES)
        .with_config(&(&policy, pair.label()))
        .with_trace_counts(lines.len() as u64, probe.dropped() + spans.overwritten())
        .with_extra("pair", JsonValue::str(pair.label()))
        .with_extra("span_count", JsonValue::u64(span_list.len() as u64));
    let manifest_path = format!("{RESULTS_DIR}/loadcurve_manifest.json");
    manifest.write_file(&manifest_path).expect("write manifest");
    eprintln!(
        "[wrote {trace_path} ({} events, {} spans) and {manifest_path}]",
        lines.len(),
        span_list.len()
    );
}

/// Reads the allocation counter and restarts it. The counter is process
/// global, so reading it around each network's run (`--profile` runs the
/// sweep on one thread) charges every allocation to the network that
/// made it.
fn take_alloc_stats() -> Option<AllocStats> {
    let stats = alloc_stats();
    reset_alloc_stats();
    stats
}

/// Sums per-run allocation tables row by row (every table has the same
/// rows); `None` when the counting allocator is not compiled in.
fn sum_alloc(tables: impl IntoIterator<Item = Option<AllocStats>>) -> Option<AllocStats> {
    tables.into_iter().reduce(|sum, table| {
        let (sum, table) = (sum?, table?);
        let rows = sum.rows.iter().zip(&table.rows);
        Some(AllocStats {
            rows: rows.map(|(&(l, c, b), &(_, tc, tb))| (l, c + tc, b + tb)).collect(),
        })
    })?
}

fn main() {
    let args = pearl_bench::Cli::new(
        "loadcurve",
        "load-latency curves under synthetic uniform-random traffic",
    )
    .flag("--profile", "print the self-profiler report")
    .flag("--trace", "write an instrumented event+span trace for the report binary")
    .flag("--smoke", "reduced curve for CI (the --trace run keeps its full length)")
    .parse();
    let mut report = Report::from_args("loadcurve");
    let profile = has_flag("--profile");
    // Profiling measures wall-clock per phase, so it must not share the
    // machine with sibling jobs: --profile forces the sequential path.
    let pool = if profile { JobPool::new(1) } else { JobPool::new(args.jobs()) };
    let smoke = has_flag("--smoke");
    let cycles = if smoke { 10_000 } else { 30_000 };
    println!("=== Load-latency: uniform random, 16 clusters, {cycles} cycles ===");
    println!(
        "{:>10} {:>14} {:>12} {:>14} {:>12}",
        "offered", "PEARL tput", "PEARL lat", "CMESH tput", "CMESH lat"
    );
    let rates: &[f64] =
        if smoke { &[0.05, 0.30] } else { &[0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40] };
    // Each offered rate (PEARL + CMESH run) is one job; the curve is
    // printed from the index-ordered results below.
    let curve = pool.map(rates, |_, &rate| {
        let source = |seed: u64| {
            Box::new(SyntheticTraffic::new(
                SyntheticPattern::UniformRandom,
                16,
                rate,
                CoreType::Cpu,
                seed,
            ))
        };
        if profile {
            reset_alloc_stats();
        }
        let mut pearl_net = NetworkBuilder::new()
            .policy(PearlPolicy::dyn_64wl())
            .seed(1)
            .build_from_source(source(1));
        if profile {
            pearl_net.enable_profiling();
        }
        let pearl = pearl_net.run(cycles);
        let prof = pearl_net.profile_report();
        let pearl_alloc = if profile { take_alloc_stats() } else { None };
        let mut cmesh_net = CmeshBuilder::new().seed(1).build_from_source(source(1));
        if profile {
            cmesh_net.enable_profiling();
        }
        let cmesh = cmesh_net.run(cycles);
        let cprof = cmesh_net.profile_report();
        let cmesh_alloc = if profile { take_alloc_stats() } else { None };
        (pearl, cmesh, prof, cprof, pearl_alloc, cmesh_alloc)
    });
    let mut rows = Vec::new();
    let mut profiles = Vec::new();
    let mut cmesh_profiles = Vec::new();
    let (mut pearl_allocs, mut cmesh_allocs) = (Vec::new(), Vec::new());
    for (&rate, (pearl, cmesh, prof, cprof, pearl_alloc, cmesh_alloc)) in rates.iter().zip(&curve) {
        if let Some(p) = prof {
            profiles.push((rate, p.clone()));
        }
        cmesh_profiles.extend(cprof.clone());
        pearl_allocs.push(pearl_alloc.clone());
        cmesh_allocs.push(cmesh_alloc.clone());
        println!(
            "{rate:>10.2} {:>14.3} {:>12.1} {:>14.3} {:>12.1}",
            pearl.throughput_flits_per_cycle,
            pearl.avg_latency_cpu,
            cmesh.throughput_flits_per_cycle,
            cmesh.avg_latency_cpu
        );
        rows.push(Row::new(
            format!("{rate:.2}"),
            vec![
                pearl.throughput_flits_per_cycle,
                pearl.avg_latency_cpu,
                cmesh.throughput_flits_per_cycle,
                cmesh.avg_latency_cpu,
            ],
        ));
    }
    report.record_table(
        "Load-latency: uniform random",
        &["PEARL tput", "PEARL lat", "CMESH tput", "CMESH lat"],
        &rows,
    );
    if !profiles.is_empty() {
        println!("\n=== Self-profile (PEARL side) ===");
        for (rate, p) in &profiles {
            println!("\n-- offered rate {rate:.2} --\n{p}");
        }
        // Aggregate rate for the artifact: total cycles over total wall.
        let total_cycles: u64 = profiles.iter().map(|(_, p)| p.cycles).sum();
        let total_wall: f64 = profiles.iter().map(|(_, p)| p.wall.as_secs_f64()).sum();
        report.metric("profile.total_cycles", total_cycles as f64);
        report.metric("profile.cycles_per_sec", total_cycles as f64 / total_wall.max(1e-12));
        let (_, last) = &profiles[profiles.len() - 1];
        report.insert("profile_last_rate", last.to_json());

        // Hot-path observatory export: the sweep-merged profile with its
        // work counters and (with `--features alloc-count`) allocation
        // attribution, one artifact per network, gated by the same
        // invariants `report --hotpath` enforces.
        let merged_profile = ProfileReport::merged(profiles.iter().map(|(_, p)| p));
        println!("\n=== Hot-path counters (PEARL, merged over the sweep) ===");
        print!("{}", merged_profile.work);
        for (name, ratio) in merged_profile.work.ratios().rows() {
            let text = ratio.map_or_else(|| "-".to_string(), |r| format!("{r:.4}"));
            println!("  {name:<20} {text:>10}");
        }
        let alloc = sum_alloc(pearl_allocs);
        if let Some(stats) = &alloc {
            let (count, bytes) = stats.total();
            println!("  allocation attribution: {count} allocations, {bytes} bytes (see artifact)");
        }
        let hotpath = Hotpath::new("loadcurve", merged_profile, alloc);
        hotpath.validate().expect("hotpath invariants hold on the PEARL observation");
        let (json_path, folded_path) = hotpath.write().expect("write hotpath artifacts");
        eprintln!("[wrote {} and {}]", json_path.display(), folded_path.display());

        let cmesh_hotpath = Hotpath::new(
            "loadcurve_cmesh",
            ProfileReport::merged(&cmesh_profiles),
            sum_alloc(cmesh_allocs),
        );
        cmesh_hotpath.validate().expect("hotpath invariants hold on the CMESH observation");
        let (json_path, folded_path) = cmesh_hotpath.write().expect("write hotpath artifacts");
        eprintln!("[wrote {} and {}]", json_path.display(), folded_path.display());
    }
    println!(
        "\nReading: PEARL saturates at its serializer bound (16 routers x 0.5 \
         flits/cycle) with the lower zero-load latency; the mesh has more raw \
         uniform-random capacity but pays the hop-count latency floor. The \
         paper's PEARL advantage comes from energy and the latency-sensitive, \
         L3-centric heterogeneous traffic, not raw bisection."
    );
    if has_flag("--trace") {
        write_trace_artifacts();
    }
    report.finish().expect("write JSON artifact");
}
