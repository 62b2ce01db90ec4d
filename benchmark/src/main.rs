//! The PEARL benchmark: end-to-end metrics of four workloads measured
//! with tracing off, per-layer metrics from a separate traced run, and a
//! `compare` mode that judges two sets of runs against the metrics'
//! bounds. See README.md.

mod alloc;
mod compare;
mod digest;
mod layers;
mod metrics;
mod net;
mod serve;
mod stats;
mod sweep;
mod workload;

use metrics::{Ops, END_TO_END, PER_LAYER};
use pearl_telemetry::JsonValue;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Plan, RunOpts, Workload};

const USAGE: &str = "\
usage: pearl-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--json OUT]
       pearl-benchmark --bless
       pearl-benchmark compare A.json... -- B.json...
workloads: pearl_dyn pearl_ml cmesh serve (all of them, each in a child process, by default)";

/// Measurement budget per run unless `--seconds` says otherwise.
const DEFAULT_SECONDS: u64 = 15;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    json: Option<PathBuf>,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: pearl_bench::SEED_BASE,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            parsed.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--json" => parsed.json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare::main(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return bless();
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// The lines every run prints: diagnostics, one `workload metric value
/// unit` line per metric, the error rate, and the result object last.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let started = Instant::now();
    let opts = RunOpts {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        plan: Plan::FULL,
    };
    let mut outcome = workload::run(w, &opts);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    outcome.check_complete(table);

    for note in &outcome.notes {
        println!("# {} {note}", w.name());
    }
    for failure in &outcome.ops.failures {
        eprintln!("FAILED {} {failure}", w.name());
    }
    for d in table {
        if let Some(value) = outcome.get(d.name) {
            println!("{} {} {value} {}", w.name(), d.name, d.unit);
        }
    }
    let Ops { attempted, failed, .. } = outcome.ops;
    println!(
        "{} error_rate {} failed/attempted ({failed} of {attempted})",
        w.name(),
        failed as f64 / attempted.max(1) as f64
    );
    let result = outcome.result_json(table);
    if let Some(path) = &args.json {
        let record = run_record(w, args, started.elapsed(), result.clone());
        if let Err(e) = write_runs(path, vec![record]) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a fresh child process of this binary, so set-up
/// and peak memory are per workload, and prints a combined result.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut combined = Vec::new();
    for w in Workload::ALL {
        let started = Instant::now();
        let result = run_child(&exe, w, args);
        let wall = started.elapsed();
        let Some(result) = result else {
            eprintln!("FAILED {}: the child printed no result", w.name());
            attempted += 1;
            failed += 1;
            continue;
        };
        attempted += result.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(JsonValue::as_u64).unwrap_or(1);
        if let Some(JsonValue::Obj(metrics)) = result.get("metrics") {
            for (name, entry) in metrics {
                combined.push((format!("{}.{name}", w.name()), entry.clone()));
            }
        }
        println!("# {} wall {:.1} s", w.name(), wall.as_secs_f64());
        records.push(run_record(w, args, wall, result));
    }
    if let Some(path) = &args.json {
        if let Err(e) = write_runs(path, records) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let result = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::u64(attempted)),
        ("failed", JsonValue::u64(failed)),
        ("metrics", JsonValue::Obj(combined)),
    ]);
    println!("{result}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child, echoing its output, and returns the
/// result object of its last line.
fn run_child(exe: &std::path::Path, w: Workload, args: &Args) -> Option<JsonValue> {
    let mut child = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    let mut last = None;
    for line in BufReader::new(child.stdout.take()?).lines().map_while(Result::ok) {
        if let Some(previous) = last.replace(line) {
            println!("{previous}");
        }
    }
    child.wait().ok()?;
    JsonValue::parse(last?.trim()).ok()
}

fn run_record(w: Workload, args: &Args, wall: Duration, result: JsonValue) -> JsonValue {
    JsonValue::obj(vec![
        ("workload", JsonValue::str(w.name())),
        ("seed", JsonValue::u64(args.seed)),
        ("seconds", JsonValue::u64(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("wall_s", JsonValue::Num(wall.as_secs_f64())),
        ("result", result),
    ])
}

fn write_runs(path: &std::path::Path, runs: Vec<JsonValue>) -> std::io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = JsonValue::obj(vec![
        ("nproc", JsonValue::u64(nproc as u64)),
        ("runs", JsonValue::Arr(runs)),
    ]);
    std::fs::write(path, format!("{doc}\n"))
}

/// Rewrites `golden.json` with every unit's digest at the default seed.
fn bless() -> ExitCode {
    let opts = RunOpts {
        seed: pearl_bench::SEED_BASE,
        seconds: Duration::from_secs(DEFAULT_SECONDS),
        trace: false,
        plan: Plan::FULL,
    };
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let units = match w {
            Workload::Serve => {
                serve::specs(&opts, serve::spec_count(&opts)).into_iter().map(|s| s.unit).collect()
            }
            sweep => match sweep::units(sweep, &opts) {
                Ok(units) => units,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
        };
        let mut ops = Ops::default();
        let rounds = sweep::measure(&units, Duration::ZERO, 1, None, &mut ops);
        if ops.failed > 0 {
            eprintln!("{}: {}", w.name(), ops.failures.join("\n"));
            return ExitCode::FAILURE;
        }
        let digests = units.iter().map(|u| u.key.clone()).zip(rounds.digests).collect();
        rows.push((w.name(), digests));
    }
    let path = digest::golden_path();
    match std::fs::write(&path, digest::render_golden(opts.seed, &rows)) {
        Ok(()) => {
            println!("wrote {}; rebuild to compile the new digests in", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}
