//! Renders one instrumented run's telemetry artifacts into a human
//! summary: event census, degradation-ladder mode changes, the deepest
//! power-scaling window, and retransmission bursts.
//!
//! Usage: `report [TRACE.jsonl] [MANIFEST.json]` — defaults to the
//! artifacts `faultsweep --json` writes
//! (`results/faultsweep_trace.jsonl`, `results/faultsweep_manifest.json`).
//! Exits non-zero if either artifact fails to parse, which is what the
//! CI smoke job leans on. `--json` writes `results/report.json`.
//!
//! Three observatory modes replace the trace-based report when passed:
//! `--hotpath [HOTPATH.json]` validates and renders a wasted-work
//! artifact from `loadcurve --profile` (reconciliation failure exits
//! non-zero); `--serve [SPOOL|PROGRESS.jsonl]` summarizes a pearl-serve
//! progress stream into queueing metrics; `--flight ARTIFACT` renders a
//! flight-recorder post-mortem.

use pearl_bench::serve::summarize_progress;
use pearl_bench::{Hotpath, Report, RESULTS_DIR};
use pearl_telemetry::{
    atomic_write_file, chrome_trace, critical_path, group_by_packet, latency_breakdown,
    read_trace_file, replay_progress, validate_chrome_trace, FlightDump, JsonValue, OsStorage,
    RunManifest, Span, TraceEvent, TransitionCause,
};
use std::collections::BTreeMap;

/// Cycle width of one retransmission-burst bucket.
const BURST_BUCKET: u64 = 1_000;

/// How many trailing ring events the flight-recorder timeline prints.
const FLIGHT_TIMELINE_LAST: usize = 10;

/// How many worst-latency packets the critical-path summary prints.
const CRITICAL_PATH_WORST: usize = 5;

/// Prints the per-stage latency attribution: the p50/p95/p99 breakdown
/// per span kind and traffic class, the reconciliation check (every
/// complete packet's stage cycles must sum to its end-to-end latency —
/// a failure exits non-zero), and the critical-path summary of the
/// worst packets. Returns JSON rows for the `--json` artifact.
fn span_report(spans: &[Span], report: &mut Report) {
    println!("\n-- span latency breakdown ({} spans) --", spans.len());
    println!(
        "{:<18} {:>4} {:>9} {:>11} {:>8} {:>8} {:>8} {:>8}",
        "stage", "core", "count", "total", "p50", "p95", "p99", "max"
    );
    let mut breakdown_rows = Vec::new();
    for r in latency_breakdown(spans) {
        println!(
            "{:<18} {:>4} {:>9} {:>11} {:>8} {:>8} {:>8} {:>8}",
            r.kind.name(),
            format!("{:?}", r.core),
            r.count,
            r.total,
            r.p50,
            r.p95,
            r.p99,
            r.max
        );
        breakdown_rows.push(JsonValue::obj(vec![
            ("kind", JsonValue::str(r.kind.name())),
            ("core", JsonValue::str(format!("{:?}", r.core))),
            ("count", JsonValue::u64(r.count)),
            ("total", JsonValue::u64(r.total)),
            ("p50", JsonValue::u64(r.p50)),
            ("p95", JsonValue::u64(r.p95)),
            ("p99", JsonValue::u64(r.p99)),
            ("max", JsonValue::u64(r.max)),
        ]));
    }

    // Reconciliation: attribution that does not sum to the measured
    // latency is worse than no attribution — fail loudly.
    let traces = group_by_packet(spans);
    let complete: Vec<_> = traces.iter().filter(|t| t.ejected).collect();
    let broken = complete
        .iter()
        .filter(|t| !t.is_contiguous() || t.total_cycles() != t.end_to_end())
        .count();
    println!(
        "  {} packets traced, {} complete, per-packet stage cycles reconcile \
         with end-to-end latency: {}",
        traces.len(),
        complete.len(),
        if broken == 0 { "yes" } else { "NO" }
    );
    if broken > 0 {
        eprintln!("error: {broken} packets whose span durations do not sum to their latency");
        std::process::exit(1);
    }

    println!("\n-- critical path: {CRITICAL_PATH_WORST} worst-latency packets --");
    for e in critical_path(spans, CRITICAL_PATH_WORST) {
        let stages: Vec<String> =
            e.per_kind.iter().map(|(k, c)| format!("{}={c}", k.name())).collect();
        println!(
            "  packet {:>8} ({:?}, {} attempt{}): {} cycles, dominated by {} [{}]",
            e.packet,
            e.core,
            e.attempts,
            if e.attempts == 1 { "" } else { "s" },
            e.latency,
            e.dominant.name(),
            stages.join(" ")
        );
    }

    report.metric("span_count", spans.len() as f64);
    report.metric("span_packets_complete", complete.len() as f64);
    report.insert("span_breakdown", JsonValue::Arr(breakdown_rows));
}

/// Renders one hotpath artifact and enforces its reconciliation gate.
/// Exits non-zero on an unreadable artifact or a violated invariant.
fn hotpath_report(path: &str, report: &mut Report) {
    let hotpath = Hotpath::read_file(path).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!("=== Hot-path report: {} ({path}) ===", hotpath.source);
    print!("{}", hotpath.profile);
    println!();
    print!("{}", hotpath.profile.work);
    println!("\n-- wasted-work ratios --");
    for (name, ratio) in hotpath.profile.work.ratios().rows() {
        let text =
            ratio.map_or_else(|| "- (machinery never ran)".to_string(), |r| format!("{r:.4}"));
        println!("  {name:<22} {text}");
    }
    println!("\n-- top wasted loops (visits that produced nothing) --");
    for (name, visits, _, wasted) in hotpath.wasted_rows() {
        if visits == 0 {
            continue;
        }
        let pct = 100.0 * wasted as f64 / visits as f64;
        println!("  {name:<22} {wasted:>12} of {visits:>12} visits wasted ({pct:.1} %)");
    }
    if let Some(alloc) = &hotpath.alloc {
        let (count, bytes) = alloc.total();
        println!("\n-- allocation attribution ({count} allocations, {bytes} bytes) --");
        for (label, allocations, bytes) in &alloc.rows {
            println!("  {label:<22} {allocations:>12} allocations {bytes:>14} bytes");
        }
    } else {
        println!("\n(allocation attribution off — rebuild with --features alloc-count)");
    }
    match hotpath.validate() {
        Ok(()) => println!("\nreconciliation: counters and timing attribution consistent"),
        Err(e) => {
            eprintln!("error: hotpath artifact fails reconciliation: {e}");
            std::process::exit(1);
        }
    }
    report.metric("hotpath.cycles", hotpath.profile.cycles as f64);
    report.metric("hotpath.cycles_per_sec", hotpath.profile.cycles_per_sec());
    report.insert("hotpath", hotpath.to_json());
}

/// Renders one sealed `flightrec v1` post-mortem: the event/span
/// censuses over the whole run, the last ring events as a timeline, and
/// the deepest still-open span trace (the packet most likely wedged at
/// dump time). Exits non-zero on an unreadable artifact or a
/// reconciliation failure — the CI/chaos contract.
fn flight_report(path: &str, report: &mut Report) {
    let dump = FlightDump::read_with(&OsStorage, std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!("=== Flight-recorder post-mortem: {path} ===");
    println!(
        "  {} events seen ({} in ring, {} evicted), {} spans seen ({} in ring, {} evicted)",
        dump.events_seen,
        dump.events.len(),
        dump.events_evicted,
        dump.spans_seen,
        dump.spans.len(),
        dump.spans_evicted,
    );

    println!("\n-- event census (whole run) --");
    if dump.event_census.is_empty() {
        println!("  (no events recorded)");
    }
    for (kind, n) in &dump.event_census {
        println!("  {kind:<24} {n:>8}");
    }
    println!("\n-- span census (whole run) --");
    if dump.span_census.is_empty() {
        println!("  (no spans recorded)");
    }
    for (kind, n) in &dump.span_census {
        println!("  {kind:<24} {n:>8}");
    }

    println!("\n-- last {FLIGHT_TIMELINE_LAST} ring events --");
    let tail_start = dump.events.len().saturating_sub(FLIGHT_TIMELINE_LAST);
    if dump.events.is_empty() {
        println!("  (ring is empty)");
    }
    for e in &dump.events[tail_start..] {
        println!("  cycle {:>8}  {}", e.at(), e.kind());
    }

    // The deepest open span trace: among packets whose journey never
    // completed inside the ring, the one with the most attributed
    // cycles — the best single lead on what was wedged at dump time.
    println!("\n-- deepest open span trace --");
    let open = group_by_packet(&dump.spans)
        .into_iter()
        .filter(|t| !t.ejected)
        .max_by_key(|t| (t.total_cycles(), std::cmp::Reverse(t.packet)));
    match &open {
        Some(t) => {
            let last = t.spans.last().expect("grouped traces are non-empty");
            println!(
                "  packet {} ({:?}): {} cycles across {} spans, last stage {}",
                t.packet,
                t.core,
                t.total_cycles(),
                t.spans.len(),
                last.kind.name()
            );
            report.metric("flight.open_packet", t.packet as f64);
            report.metric("flight.open_cycles", t.total_cycles() as f64);
        }
        None => println!("  (no open spans — every traced packet ejected)"),
    }

    match dump.reconcile() {
        Ok(()) => println!("\nreconciliation: ring, eviction and census counts consistent"),
        Err(e) => {
            eprintln!("error: flight artifact fails reconciliation: {e}");
            std::process::exit(1);
        }
    }
    report.metric("flight.events_seen", dump.events_seen as f64);
    report.metric("flight.spans_seen", dump.spans_seen as f64);
    report.insert(
        "flight",
        JsonValue::obj(vec![
            ("path", JsonValue::str(path)),
            ("events_seen", JsonValue::u64(dump.events_seen)),
            ("events_evicted", JsonValue::u64(dump.events_evicted)),
            ("spans_seen", JsonValue::u64(dump.spans_seen)),
            ("spans_evicted", JsonValue::u64(dump.spans_evicted)),
            (
                "event_census",
                JsonValue::Obj(
                    dump.event_census
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::u64(*v)))
                        .collect(),
                ),
            ),
        ]),
    );
}

/// Summarizes a pearl-serve progress stream (a spool root or a direct
/// `progress.jsonl` path) into queueing metrics.
fn serve_report(path_arg: &str, report: &mut Report) {
    let path = std::path::Path::new(path_arg);
    let progress = if path.is_dir() { path.join("progress.jsonl") } else { path.to_path_buf() };
    if !progress.exists() {
        eprintln!("error: no progress stream at {}", progress.display());
        std::process::exit(1);
    }
    let replay = replay_progress(&progress).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", progress.display());
        std::process::exit(1);
    });
    let summary = summarize_progress(&replay.events);
    println!("=== Serve queueing report: {} ===", progress.display());
    println!(
        "  {} events, {} dispatch waves, peak queue depth {}",
        summary.events, summary.waves, summary.max_queue_depth
    );
    // Torn lines (a writer killed mid-append) are skipped, never
    // silently: name each one so a truncated stream is visible.
    for (line, text) in &replay.torn {
        let preview: String = text.chars().take(40).collect();
        println!("  warning: line {line} is torn (unparseable) and was skipped: {preview:?}");
    }
    report.metric("serve.torn_lines", replay.torn.len() as f64);
    match (summary.mean_waves_in_queue, summary.max_waves_in_queue) {
        (Some(mean), Some(max)) => {
            println!("  time-in-queue: mean {mean:.2} waves, max {max} waves")
        }
        _ => println!("  time-in-queue: - (no job ever started)"),
    }
    println!(
        "  outcomes: {} completed, {} quarantined, {} rejected, {} cancelled; {} retries total",
        summary.count("completed"),
        summary.count("quarantined"),
        summary.count("rejected"),
        summary.count("cancelled"),
        summary.total_retries
    );
    println!(
        "\n{:<24} {:<12} {:>8} {:>8} {:>12} {:>9} {:>10} {:>10}",
        "job", "outcome", "attempts", "retries", "quarantines", "queued", "cycle", "delivered"
    );
    for job in &summary.jobs {
        let queued = job.waves_in_queue.map_or_else(|| "-".to_string(), |w| format!("{w} waves"));
        println!(
            "{:<24} {:<12} {:>8} {:>8} {:>12} {:>9} {:>10} {:>10}",
            job.job,
            job.outcome,
            job.attempts,
            job.retries,
            job.quarantines,
            queued,
            job.final_cycle,
            job.delivered
        );
    }
    report.metric("serve.events", summary.events as f64);
    report.metric("serve.waves", summary.waves as f64);
    report.insert("serve", summary.to_json());
}

fn main() {
    let args = pearl_bench::Cli::new(
        "report",
        "summarizes one instrumented run's telemetry artifacts",
    )
    .flag("--spans", "print the per-stage span latency breakdown and critical path")
    .flag("--perfetto", "export spans as Chrome trace JSON next to the trace")
    .flag(
        "--hotpath",
        "validate and render a wasted-work artifact (default: results/hotpath_loadcurve.json)",
    )
    .flag("--serve", "summarize a pearl-serve progress stream (default: spool/)")
    .option("--flight", "ARTIFACT", "render a flightrec post-mortem (stall/panic black box)")
    .positional(
        "[TRACE.jsonl] [MANIFEST.json]",
        "artifact paths (default: faultsweep's); with --hotpath/--serve, the one \
                 artifact path for that mode",
        2,
    )
    .parse();
    if args.has("--hotpath") || args.has("--serve") || args.value("--flight").is_some() {
        let mut report = Report::from_args("report");
        if let Some(path) = args.value("--flight") {
            flight_report(path, &mut report);
        }
        if args.has("--hotpath") {
            let default = format!("{RESULTS_DIR}/hotpath_loadcurve.json");
            let path =
                if args.has("--serve") { None } else { args.positional() }.unwrap_or(&default);
            hotpath_report(path, &mut report);
        }
        if args.has("--serve") {
            let path =
                if args.has("--hotpath") { None } else { args.positional() }.unwrap_or("spool");
            serve_report(path, &mut report);
        }
        report.finish().expect("write JSON artifact");
        return;
    }
    let mut positional = args.positionals().iter().cloned();
    let trace_path =
        positional.next().unwrap_or_else(|| format!("{RESULTS_DIR}/faultsweep_trace.jsonl"));
    let manifest_path =
        positional.next().unwrap_or_else(|| format!("{RESULTS_DIR}/faultsweep_manifest.json"));
    let mut report = Report::from_args("report");

    let manifest = RunManifest::read_file(&manifest_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read manifest {manifest_path}: {e}");
        std::process::exit(1);
    });
    let events = read_trace_file(&trace_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read trace {trace_path}: {e}");
        std::process::exit(1);
    });

    println!("=== Telemetry report: {} ===", manifest.name);
    println!(
        "seed {}  cycles {}  config fingerprint {:016x}  crate v{}",
        manifest.seed, manifest.cycles, manifest.config_fingerprint, manifest.crate_version
    );
    if manifest.events != events.len() as u64 {
        eprintln!(
            "error: manifest records {} events but trace holds {}",
            manifest.events,
            events.len()
        );
        std::process::exit(1);
    }
    if manifest.dropped_events > 0 {
        println!("warning: recorder dropped {} events at its cap", manifest.dropped_events);
    }

    // Event census.
    let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in &events {
        *census.entry(e.kind()).or_insert(0) += 1;
    }
    println!("\n-- event census ({} events) --", events.len());
    for (kind, n) in &census {
        println!("  {kind:<24} {n:>8}");
    }

    // Ladder mode changes.
    println!("\n-- degradation-ladder transitions --");
    let mut ladder_rows = Vec::new();
    for e in &events {
        if let TraceEvent::LadderTransition { at, from, to, score } = e {
            let score_text = score.map_or_else(|| "-".to_string(), |s| format!("{s:.3}"));
            println!("  cycle {at:>8}: {} -> {} (score {score_text})", from.name(), to.name());
            ladder_rows.push(JsonValue::obj(vec![
                ("at", JsonValue::u64(*at)),
                ("from", JsonValue::str(from.name())),
                ("to", JsonValue::str(to.name())),
            ]));
        }
    }
    if ladder_rows.is_empty() {
        println!("  (none — predictor never left its starting mode)");
    }

    // Deepest scaling window: the window close with the fewest target
    // wavelengths; ties go to the earliest.
    println!("\n-- power scaling --");
    let deepest = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::WindowClose { router, at, target, .. } => {
                Some((target.wavelengths(), *at, *router))
            }
            _ => None,
        })
        .min();
    match deepest {
        Some((wl, at, router)) => {
            println!("  deepest scaling window: {wl} λ at cycle {at} (router {router})");
            report.metric("deepest_wavelengths", f64::from(wl));
            report.metric("deepest_at", at as f64);
        }
        None => println!("  (no window-close events in trace)"),
    }
    let (mut scaling, mut clamps) = (0u64, 0u64);
    for e in &events {
        if let TraceEvent::WavelengthTransition { cause, .. } = e {
            match cause {
                TransitionCause::Scaling => scaling += 1,
                TransitionCause::FaultCeiling => clamps += 1,
            }
        }
    }
    println!("  wavelength transitions: {scaling} scaling decisions, {clamps} fault clamps");

    // Retransmission bursts: busiest BURST_BUCKET-cycle windows.
    println!("\n-- retransmission bursts ({BURST_BUCKET}-cycle buckets) --");
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &events {
        if let TraceEvent::Retransmission { at, .. } = e {
            *buckets.entry(at / BURST_BUCKET).or_insert(0) += 1;
        }
    }
    if buckets.is_empty() {
        println!("  (no retransmissions in trace)");
    } else {
        let mut busiest: Vec<(u64, u64)> = buckets.iter().map(|(&b, &n)| (n, b)).collect();
        busiest.sort_unstable_by(|a, b| b.cmp(a));
        for (n, bucket) in busiest.iter().take(5) {
            println!(
                "  cycles {:>8}-{:<8} {n:>6} retransmissions",
                bucket * BURST_BUCKET,
                (bucket + 1) * BURST_BUCKET - 1
            );
        }
        let peak = busiest[0];
        report.metric("retx_peak_count", peak.0 as f64);
        report.metric("retx_peak_bucket_start", (peak.1 * BURST_BUCKET) as f64);
    }

    // Causal spans: latency attribution and Perfetto export.
    let spans: Vec<Span> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    if args.has("--spans") || args.has("--perfetto") {
        if spans.is_empty() {
            eprintln!(
                "error: {trace_path} holds no span events — record one with `loadcurve --trace`"
            );
            std::process::exit(1);
        }
        if args.has("--spans") {
            span_report(&spans, &mut report);
        }
        if args.has("--perfetto") {
            let trace = chrome_trace(&spans);
            let summary = validate_chrome_trace(&trace).unwrap_or_else(|e| {
                eprintln!("error: exported Chrome trace is invalid: {e}");
                std::process::exit(1);
            });
            let out_path = format!("{}.perfetto.json", trace_path.trim_end_matches(".jsonl"));
            atomic_write_file(&out_path, &format!("{}\n", trace)).expect("write Chrome trace");
            println!(
                "\n-- perfetto export --\n  {out_path}: {} span events, {} kinds, {} router \
                 tracks (load in ui.perfetto.dev)",
                summary.span_events,
                summary.kinds.len(),
                summary.tracks
            );
            report.metric("perfetto_span_events", summary.span_events as f64);
            report.metric("perfetto_tracks", summary.tracks as f64);
        }
    }

    report.insert(
        "census",
        JsonValue::Obj(census.iter().map(|(k, v)| (k.to_string(), JsonValue::u64(*v))).collect()),
    );
    report.insert("ladder_transitions", JsonValue::Arr(ladder_rows));
    report.insert("manifest", manifest.to_json());
    report.finish().expect("write JSON artifact");
}
