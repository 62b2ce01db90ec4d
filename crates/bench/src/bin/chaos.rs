//! Kill/resume chaos harness: proves checkpoint/restore is bit-exact
//! under fire.
//!
//! For each scenario (PEARL policies with and without injected faults,
//! plus the CMESH baseline) the harness
//!
//! 1. runs an uninterrupted **golden** run, recording the final state
//!    hash, delivery counts and the full trace JSONL;
//! 2. re-runs the same scenario but **kills** it at a seeded random
//!    cycle, writing a checkpoint (atomic tmp-then-rename) and dropping
//!    the network;
//! 3. **resumes** from the checkpoint file on a freshly built network
//!    and runs to the same horizon;
//! 4. asserts the resumed run's state hash, delivered packets and
//!    byte-for-byte trace (pre-kill ++ post-resume) all equal the
//!    golden run's.
//!
//! Both legs run under the forward-progress watchdog, so a restore into
//! a wedged state fails fast instead of hanging CI. On divergence the
//! harness writes `results/chaos/divergence-*.json` naming both hashes
//! and exits non-zero; the checkpoints stay behind as artifacts.
//!
//! `--serve` additionally chaos-tests the **daemon**: it spools a
//! traced spec into a golden `pearl-serve --drain` run, then repeats it
//! in a second spool where the daemon is **SIGKILLed** once its resume
//! bundle crosses a seeded cycle threshold, restarted, and drained —
//! asserting the result, trace JSONL and manifest artifacts are
//! byte-identical to the golden run's. This is the restart-safe
//! contract proven at the process level, not just in-memory.
//!
//! Usage: `chaos [--smoke] [--serve] [--json]`. `--smoke` shrinks
//! horizons and kill counts for CI while still covering a faulted PEARL
//! run and the CMESH baseline.

use pearl_bench::serve::{JobStatus, ServeJournal};
use pearl_bench::{
    dump_stall, run_watched, Daemon, DaemonConfig, FlightGuard, JobPool, Report, Spool, RESULTS_DIR,
};
use pearl_cmesh::{CmeshBuilder, CmeshConfig};
use pearl_core::{FaultConfig, NetworkBuilder, PearlNetwork, PearlPolicy};
use pearl_noc::SimRng;
use pearl_telemetry::{
    jsonl, Checkpoint, FaultSchedule, FaultStorage, FlightDump, FlightRecorder, JsonValue,
    OsStorage, Recorder, RetryPolicy, Shared, Simulator, Storage, Watchable,
};
use pearl_workloads::BenchmarkPair;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Simulated cycles per scenario (full mode).
const FULL_CYCLES: u64 = 20_000;
/// Simulated cycles per scenario (`--smoke`).
const SMOKE_CYCLES: u64 = 6_000;
/// Kill points per scenario (full / smoke).
const FULL_KILLS: usize = 3;
const SMOKE_KILLS: usize = 2;
/// Watchdog window, sized well below the horizon so a wedged resume
/// fails inside the run, not after it.
const STALL_WINDOW: u64 = 2_000;
/// Seed for the kill-point stream — the whole harness is reproducible.
const KILL_SEED: u64 = 0xC4A0_5EED;

/// One scenario: a name plus a factory for identically built networks.
/// The factory is `Send + Sync` so whole scenarios can run as pool jobs.
struct Scenario {
    name: &'static str,
    build: Box<dyn Fn() -> Box<dyn Simulator> + Send + Sync>,
}

fn scenarios(smoke: bool) -> Vec<Scenario> {
    let pair = BenchmarkPair::test_pairs()[0];
    let pearl = |policy: fn() -> PearlPolicy, fault: fn() -> FaultConfig, seed: u64| {
        Box::new(move || -> Box<dyn Simulator> {
            Box::new(
                NetworkBuilder::new().policy(policy()).fault_config(fault()).seed(seed).build(pair),
            )
        })
    };
    let cmesh = |k: u64, seed: u64| {
        Box::new(move || -> Box<dyn Simulator> {
            Box::new(
                CmeshBuilder::new()
                    .config(CmeshConfig::bandwidth_reduced(k))
                    .seed(seed)
                    .build(pair),
            )
        })
    };
    let mut list = vec![
        Scenario { name: "pearl-dyn", build: pearl(PearlPolicy::dyn_64wl, FaultConfig::off, 11) },
        // Composes the chaos harness with the fault-injection layer:
        // retransmission queues and fault RNG streams cross the kill.
        Scenario {
            name: "pearl-reactive-faulted",
            build: pearl(|| PearlPolicy::reactive(500), || FaultConfig::uniform(0.05, 7), 13),
        },
        Scenario { name: "cmesh-baseline", build: cmesh(1, 17) },
    ];
    if !smoke {
        list.push(Scenario {
            name: "pearl-random-walk",
            build: pearl(|| PearlPolicy::random_walk(500), FaultConfig::off, 19),
        });
        list.push(Scenario { name: "cmesh-bw2", build: cmesh(2, 23) });
    }
    list
}

/// Outcome of one complete (golden or interrupted) run.
struct Outcome {
    hash: u64,
    delivered: u64,
    trace: Vec<u8>,
}

fn trace_bytes(recorders: &[Shared<Recorder>]) -> Vec<u8> {
    let mut events = Vec::new();
    for recorder in recorders {
        recorder.with(|r| events.extend_from_slice(r.events()));
    }
    let mut buf = Vec::new();
    jsonl::write_trace(&mut buf, &events).expect("in-memory trace write");
    buf
}

fn golden(scenario: &Scenario, cycles: u64) -> Result<Outcome, String> {
    let recorder = Shared::new(Recorder::new());
    let mut net = (scenario.build)();
    net.attach_probe(Box::new(recorder.clone()));
    run_watched(net.as_mut(), cycles, STALL_WINDOW)
        .map_err(|e| format!("golden run stalled: {e}"))?;
    Ok(Outcome {
        hash: net.state_hash(),
        delivered: net.delivered_packets(),
        trace: trace_bytes(std::slice::from_ref(&recorder)),
    })
}

/// Kills the run at `kill`, checkpoints through the filesystem, resumes
/// on a fresh network and runs out the horizon.
fn kill_and_resume(
    scenario: &Scenario,
    cycles: u64,
    kill: u64,
    dir: &Path,
) -> Result<Outcome, String> {
    let pre = Shared::new(Recorder::new());
    let mut victim = (scenario.build)();
    victim.attach_probe(Box::new(pre.clone()));
    run_watched(victim.as_mut(), kill, STALL_WINDOW)
        .map_err(|e| format!("pre-kill leg stalled: {e}"))?;
    let checkpoint = victim.snapshot();
    let path = dir.join(format!("{}-k{kill}.ckpt.json", scenario.name));
    checkpoint.write_file(&OsStorage, &path).map_err(|e| format!("write checkpoint: {e}"))?;
    drop(victim); // the "crash"

    let loaded =
        Checkpoint::read_file(&OsStorage, &path).map_err(|e| format!("read checkpoint: {e:?}"))?;
    let post = Shared::new(Recorder::new());
    let mut resumed = (scenario.build)();
    resumed.attach_probe(Box::new(post.clone()));
    resumed.restore(&loaded).map_err(|e| format!("restore: {e:?}"))?;
    run_watched(resumed.as_mut(), cycles - kill, STALL_WINDOW)
        .map_err(|e| format!("post-resume leg stalled: {e}"))?;
    Ok(Outcome {
        hash: resumed.state_hash(),
        delivered: resumed.delivered_packets(),
        trace: trace_bytes(&[pre, post]),
    })
}

fn divergence_report(
    dir: &Path,
    scenario: &str,
    kill: u64,
    golden: &Outcome,
    resumed: &Outcome,
) -> PathBuf {
    let path = dir.join(format!("divergence-{scenario}-k{kill}.json"));
    let body = JsonValue::obj(vec![
        ("scenario", JsonValue::str(scenario)),
        ("kill_cycle", JsonValue::u64(kill)),
        ("golden_state_hash", JsonValue::str(format!("{:016x}", golden.hash))),
        ("resumed_state_hash", JsonValue::str(format!("{:016x}", resumed.hash))),
        ("golden_delivered", JsonValue::u64(golden.delivered)),
        ("resumed_delivered", JsonValue::u64(resumed.delivered)),
        ("trace_bytes_golden", JsonValue::u64(golden.trace.len() as u64)),
        ("trace_bytes_resumed", JsonValue::u64(resumed.trace.len() as u64)),
        ("traces_identical", JsonValue::Bool(golden.trace == resumed.trace)),
    ]);
    OsStorage.write_atomic(&path, &format!("{body}\n")).expect("write divergence report");
    path
}

/// What one scenario's kill/resume case produced, rendered on the main
/// thread after the pooled run.
enum CaseStatus {
    Ok { hash: u64, delivered: u64, trace_bytes: usize },
    Diverged { golden_hash: u64, resumed_hash: u64, path: PathBuf },
    Error(String),
}

struct ScenarioRun {
    name: &'static str,
    golden_err: Option<String>,
    cases: Vec<(String, CaseStatus)>,
}

/// Runs one scenario end to end: golden leg, then every seeded kill
/// point. Self-contained so scenarios parallelize as pool jobs; the
/// kill stream is seeded from the scenario index, not the worker.
fn run_scenario(
    scenario: &Scenario,
    index: usize,
    cycles: u64,
    kills: usize,
    dir: &Path,
) -> ScenarioRun {
    let gold = match golden(scenario, cycles) {
        Ok(outcome) => outcome,
        Err(e) => {
            return ScenarioRun { name: scenario.name, golden_err: Some(e), cases: Vec::new() }
        }
    };
    // Seeded kill points in the middle 80 % of the horizon.
    let mut rng = SimRng::from_seed(KILL_SEED ^ index as u64);
    let mut cases = Vec::new();
    for _ in 0..kills {
        let kill = cycles / 10 + rng.below((cycles * 8 / 10) as usize) as u64;
        let label = format!("{}@{kill}", scenario.name);
        let status = match kill_and_resume(scenario, cycles, kill, dir) {
            Ok(resumed)
                if resumed.hash == gold.hash
                    && resumed.delivered == gold.delivered
                    && resumed.trace == gold.trace =>
            {
                CaseStatus::Ok {
                    hash: gold.hash,
                    delivered: gold.delivered,
                    trace_bytes: gold.trace.len(),
                }
            }
            Ok(resumed) => CaseStatus::Diverged {
                golden_hash: gold.hash,
                resumed_hash: resumed.hash,
                path: divergence_report(dir, scenario.name, kill, &gold, &resumed),
            },
            Err(e) => CaseStatus::Error(e),
        };
        cases.push((label, status));
    }
    ScenarioRun { name: scenario.name, golden_err: None, cases }
}

/// Locates a sibling binary next to this one (same target profile
/// directory).
fn sibling_binary(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let candidate = exe.parent()?.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    candidate.exists().then_some(candidate)
}

/// Locates the `pearl-serve` binary next to this one.
fn serve_binary() -> Option<PathBuf> {
    sibling_binary("pearl-serve")
}

// === flight-recorder post-mortems =====================================
//
// The introspection contract: a watchdog stall and a process panic must
// each leave a sealed `flightrec` artifact that reconciles — both
// in-process and through the operator-facing `report --flight` view.

/// A healthy network whose *reported* forward progress is clamped to
/// zero: the watchdog sees deliveries flatline and declares a stall,
/// while the network itself keeps simulating and feeding the recorder —
/// a deterministic stall with a non-trivial black box.
struct StallInjector {
    net: PearlNetwork,
}

impl Watchable for StallInjector {
    fn advance(&mut self, cycles: u64) {
        self.net.advance(cycles);
    }
    fn delivered_packets(&self) -> u64 {
        0
    }
    fn cycle(&self) -> u64 {
        self.net.cycle()
    }
}

/// Renders a flightrec artifact through the sibling `report` binary;
/// its non-zero exit on reconciliation failure is the gate under test.
fn render_with_report(path: &Path) -> Result<(), String> {
    let report = sibling_binary("report")
        .ok_or_else(|| "report binary not found next to chaos (build it first)".to_string())?;
    let output = std::process::Command::new(&report)
        .arg("--flight")
        .arg(path)
        .output()
        .map_err(|e| format!("spawn report --flight: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "report --flight rejected {}: {}",
            path.display(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(())
}

/// An induced watchdog stall must dump a reconciling post-mortem.
fn run_flight_stall_case(dir: &Path) -> Result<String, String> {
    let pair = BenchmarkPair::test_pairs()[0];
    let recorder = Shared::new(FlightRecorder::new());
    let mut net = NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(37).build(pair);
    net.attach_probe(Box::new(recorder.clone()));
    let mut victim = StallInjector { net };
    let stall = run_watched(&mut victim, 3 * STALL_WINDOW, STALL_WINDOW)
        .err()
        .ok_or("clamped network never tripped the watchdog")?;
    let path =
        dump_stall(&recorder, &OsStorage, dir, "chaos", &stall).ok_or("stall dump failed")?;
    let dump = FlightDump::read(&OsStorage, &path)?;
    dump.reconcile()?;
    if dump.events_seen == 0 {
        return Err("stall post-mortem recorded no events".to_string());
    }
    render_with_report(&path)?;
    Ok(format!(
        "stalled at cycle {}, post-mortem reconciles ({} events seen)",
        stall.at_cycle, dump.events_seen
    ))
}

/// An injected panic must fire the chained hook and dump a reconciling
/// post-mortem — even when the panic itself is caught.
fn run_flight_panic_case(dir: &Path) -> Result<String, String> {
    let flight_dir = dir.join("flight-panic");
    std::fs::remove_dir_all(&flight_dir).ok();
    std::fs::create_dir_all(&flight_dir)
        .map_err(|e| format!("create {}: {e}", flight_dir.display()))?;

    // Silence the default "thread panicked" banner for the injected
    // panic; FlightGuard chains onto whatever hook is current.
    std::panic::set_hook(Box::new(|_| {}));
    let guard = FlightGuard::install("chaos", &flight_dir);
    let pair = BenchmarkPair::test_pairs()[0];
    let mut net = NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(41).build(pair);
    net.attach_probe(Box::new(guard.recorder()));
    net.advance(4_000);
    let panicked = std::panic::catch_unwind(|| panic!("chaos: injected panic")).is_err();
    let _ = std::panic::take_hook(); // back to the default hook
    if !panicked {
        return Err("injected panic did not unwind".to_string());
    }

    let dumps: Vec<PathBuf> = std::fs::read_dir(&flight_dir)
        .map_err(|e| format!("list {}: {e}", flight_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flightrec_chaos_"))
        })
        .collect();
    let [path] = dumps.as_slice() else {
        return Err(format!("expected exactly one post-mortem, found {}", dumps.len()));
    };
    let dump = FlightDump::read(&OsStorage, path)?;
    dump.reconcile()?;
    if dump.events_seen == 0 {
        return Err("panic post-mortem recorded no events".to_string());
    }
    render_with_report(path)?;
    Ok(format!("panic hook dumped {}, reconciles", path.file_name().unwrap().to_string_lossy()))
}

/// Horizon for the daemon kill case, long enough that the kill lands
/// well before completion even on a fast release build.
const SERVE_CYCLES: u64 = 400_000;
const SERVE_SMOKE_CYCLES: u64 = 120_000;
const SERVE_CHECKPOINT_EVERY: u64 = 5_000;

fn serve_spec(cycles: u64) -> String {
    format!(
        r#"{{"kind": "pearl", "policy": "reactive", "window": 500, "seed": 29,
            "cycles": {cycles}, "stall_window": 5000,
            "checkpoint_every": {SERVE_CHECKPOINT_EVERY}, "trace": true}}"#
    )
}

fn fresh_spool(dir: &Path, leg: &str) -> Result<pearl_bench::Spool, String> {
    let root = dir.join(format!("serve-{leg}"));
    std::fs::remove_dir_all(&root).ok();
    let spool = pearl_bench::Spool::new(&root);
    spool.ensure_layout().map_err(|e| format!("create spool {}: {e}", root.display()))?;
    Ok(spool)
}

fn drain_spool(serve: &Path, spool: &pearl_bench::Spool) -> Result<(), String> {
    let output = std::process::Command::new(serve)
        .args(["--spool"])
        .arg(spool.root())
        .args(["--drain", "--jobs", "1", "--poll-ms", "10"])
        .output()
        .map_err(|e| format!("spawn pearl-serve: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "pearl-serve --drain failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(())
}

/// The latest cycle the victim has checkpointed, read from the cheap
/// line-oriented progress stream. (Parsing the resume bundle itself
/// would drag the full trace prefix through the JSON parser on every
/// poll — seconds per poll in a debug build, slower than the run.)
fn checkpointed_cycle(spool: &pearl_bench::Spool, id: &str) -> Option<u64> {
    pearl_telemetry::read_progress(spool.progress_path())
        .ok()?
        .iter()
        .filter(|e| e.job == id && e.kind == "checkpointed")
        .map(|e| e.cycle)
        .max()
}

/// The daemon kill/restart case: golden drain, then SIGKILL at a seeded
/// checkpoint threshold, restart, byte-compare all three artifacts.
fn run_serve_case(cycles: u64, dir: &Path) -> Result<String, String> {
    let serve = serve_binary()
        .ok_or_else(|| "pearl-serve binary not found next to chaos (build it first)".to_string())?;

    let golden = fresh_spool(dir, "golden")?;
    OsStorage
        .write_atomic(&golden.spec_path(&golden.incoming(), "job"), &serve_spec(cycles))
        .map_err(|e| format!("write golden spec: {e}"))?;
    drain_spool(&serve, &golden)?;

    let victim = fresh_spool(dir, "victim")?;
    OsStorage
        .write_atomic(&victim.spec_path(&victim.incoming(), "job"), &serve_spec(cycles))
        .map_err(|e| format!("write victim spec: {e}"))?;
    let mut child = std::process::Command::new(&serve)
        .args(["--spool"])
        .arg(victim.root())
        .args(["--jobs", "1", "--poll-ms", "10"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn victim daemon: {e}"))?;

    // Seeded kill threshold in the first quarter of the horizon: early
    // enough that the SIGKILL reliably lands before completion even on
    // a fast release build, yet varying only with the seed.
    let mut rng = SimRng::from_seed(KILL_SEED ^ 0x5EE7);
    let threshold = SERVE_CHECKPOINT_EVERY + rng.below((cycles / 4) as usize) as u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
    let killed_at = loop {
        if let Some(cycle) = checkpointed_cycle(&victim, "job") {
            if cycle >= threshold {
                break cycle;
            }
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("victim never reached kill threshold {threshold}"));
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("victim daemon exited prematurely: {status}"));
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    child.kill().map_err(|e| format!("SIGKILL victim: {e}"))?;
    child.wait().map_err(|e| format!("reap victim: {e}"))?;
    if victim.result_path("job").exists() {
        return Err("kill landed after completion; raise SERVE_CYCLES".to_string());
    }

    drain_spool(&serve, &victim)?;

    for (what, golden_path, victim_path) in [
        ("result", golden.result_path("job"), victim.result_path("job")),
        ("trace", golden.trace_path("job"), victim.trace_path("job")),
        ("manifest", golden.manifest_path("job"), victim.manifest_path("job")),
    ] {
        let g = std::fs::read(&golden_path).map_err(|e| format!("read golden {what}: {e}"))?;
        let v = std::fs::read(&victim_path).map_err(|e| format!("read victim {what}: {e}"))?;
        if g != v {
            return Err(format!(
                "{what} artifact diverged after kill/restart ({} vs {} bytes); spools kept in {}",
                g.len(),
                v.len(),
                dir.display()
            ));
        }
    }
    Ok(format!("killed at cycle ~{killed_at} (threshold {threshold}), artifacts byte-identical"))
}

// === disk crash-point exploration ====================================
//
// `--disk` turns the deterministic fault-injection storage layer loose
// on the whole daemon. A golden drain under a counting storage measures
// how many storage operations the workload performs; then every
// operation index k becomes a crash point — all I/O from op k on fails,
// the daemon dies wherever that leaves it, and a healthy restart must
// recover to byte-identical artifacts with no job lost or duplicated.
// Three named fault cases ride along: an ENOSPC burst that bounded
// retries must absorb in one life, a torn write whose half-written tmp
// debris the scavenger must sweep, and a failed rename.

/// The disk workload: one traced, checkpointing PEARL job and one plain
/// CMESH job. Retry budgets absorb the attempt a faulted artifact write
/// fails, so a single injected fault never quarantines a job.
const DISK_SPECS: &[(&str, &str, bool)] = &[
    (
        "alpha",
        r#"{"kind": "pearl", "policy": "reactive", "window": 500, "seed": 31,
            "cycles": 3000, "stall_window": 1000, "retry_budget": 3,
            "checkpoint_every": 1000, "trace": true}"#,
        true,
    ),
    (
        "beta",
        r#"{"kind": "cmesh", "cycles": 1500, "stall_window": 1000, "retry_budget": 3}"#,
        false,
    ),
];

/// The golden drain's end state: how many storage ops it took, and the
/// exact artifact bytes every recovered run must reproduce.
struct DiskGolden {
    ops: u64,
    artifacts: Vec<(String, Vec<u8>)>,
}

fn disk_config(spool: &Spool, storage: Arc<dyn Storage>) -> DaemonConfig {
    let mut config = DaemonConfig::new(spool.clone());
    config.drain = true;
    config.jobs = 1; // serial waves: the op sequence is deterministic
    config.poll_ms = 1;
    config.backoff_base_ms = 1;
    config.backoff_cap_ms = 2;
    config.storage = storage;
    config.io_retry = RetryPolicy { attempts: 4, base_ms: 1, cap_ms: 2 };
    config
}

/// A fresh spool seeded with the disk workload's specs.
fn disk_spool(dir: &Path, leg: &str) -> Result<Spool, String> {
    let root = dir.join(format!("disk-{leg}"));
    std::fs::remove_dir_all(&root).ok();
    let spool = Spool::new(&root);
    spool.ensure_layout().map_err(|e| format!("create spool {}: {e}", root.display()))?;
    for (id, body, _) in DISK_SPECS {
        OsStorage
            .write_atomic(&spool.spec_path(&spool.incoming(), id), body)
            .map_err(|e| format!("write spec {id}: {e}"))?;
    }
    Ok(spool)
}

fn disk_artifacts(spool: &Spool) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut out = Vec::new();
    for (id, _, traced) in DISK_SPECS {
        let mut paths =
            vec![("result", spool.result_path(id)), ("manifest", spool.manifest_path(id))];
        if *traced {
            paths.push(("trace", spool.trace_path(id)));
        }
        for (what, path) in paths {
            let bytes = std::fs::read(&path).map_err(|e| format!("read {what} of {id}: {e}"))?;
            out.push((format!("{id}.{what}"), bytes));
        }
    }
    Ok(out)
}

fn disk_golden(dir: &Path) -> Result<DiskGolden, String> {
    let spool = disk_spool(dir, "golden")?;
    let counting = Arc::new(FaultStorage::counting());
    let mut daemon = Daemon::new(disk_config(&spool, counting.clone()))
        .map_err(|e| format!("golden daemon open: {e}"))?;
    let summary = daemon.run().map_err(|e| format!("golden drain: {e}"))?;
    if summary.completed != DISK_SPECS.len() as u64 {
        return Err(format!(
            "golden drain completed {} of {} jobs",
            summary.completed,
            DISK_SPECS.len()
        ));
    }
    Ok(DiskGolden { ops: counting.ops(), artifacts: disk_artifacts(&spool)? })
}

/// One injected-fault life followed by one healthy recovery life, then
/// the full invariant sweep. The first life may die anywhere — during
/// `Daemon::new` included — or complete despite the faults; both are
/// legitimate, the contract is on what recovery leaves behind.
fn disk_fault_case(
    dir: &Path,
    label: &str,
    schedule: FaultSchedule,
    golden: &DiskGolden,
) -> Result<(), String> {
    let spool = disk_spool(dir, label)?;
    let faulted = Arc::new(FaultStorage::new(schedule));
    if let Ok(mut daemon) = Daemon::new(disk_config(&spool, faulted)) {
        let _ = daemon.run();
    }
    let mut daemon = Daemon::new(disk_config(&spool, OsStorage::shared()))
        .map_err(|e| format!("recovery daemon open: {e}"))?;
    daemon.run().map_err(|e| format!("recovery drain: {e}"))?;
    verify_disk_invariants(&spool, golden)?;
    std::fs::remove_dir_all(spool.root()).ok();
    Ok(())
}

fn verify_disk_invariants(spool: &Spool, golden: &DiskGolden) -> Result<(), String> {
    // No job lost or duplicated: exactly one journal record per spec,
    // every one terminal-Done, every spec filed in done/ and only there.
    let journal = ServeJournal::load(&OsStorage, spool.journal_path())
        .map_err(|e| format!("recovered journal unreadable: {e:?}"))?;
    if journal.jobs.len() != DISK_SPECS.len() {
        return Err(format!(
            "journal has {} records for {} specs",
            journal.jobs.len(),
            DISK_SPECS.len()
        ));
    }
    for (id, _, _) in DISK_SPECS {
        let records = journal.jobs.iter().filter(|j| j.id == *id).count();
        if records != 1 {
            return Err(format!("job {id}: {records} journal records (lost or duplicated)"));
        }
        let status = journal.get(id).expect("counted above").status;
        if status != JobStatus::Done {
            return Err(format!("job {id}: status {status:?} after recovery"));
        }
        if !spool.spec_path(&spool.done(), id).exists() {
            return Err(format!("job {id}: spec missing from done/"));
        }
        for (dirname, dir) in [
            ("incoming", spool.incoming()),
            ("accepted", spool.accepted()),
            ("failed", spool.failed()),
        ] {
            if spool.spec_path(&dir, id).exists() {
                return Err(format!("job {id}: spec duplicated into {dirname}/"));
            }
        }
    }

    // No tmp debris survives recovery.
    for dir in [
        spool.incoming(),
        spool.accepted(),
        spool.done(),
        spool.rejected(),
        spool.failed(),
        spool.cancelled(),
        spool.out(),
        spool.state(),
    ] {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().filter_map(Result::ok) {
            let name = entry.file_name().to_string_lossy().to_string();
            if OsStorage::is_tmp_name(&name) {
                return Err(format!("tmp orphan survived recovery: {}", entry.path().display()));
            }
        }
    }

    // Artifacts are byte-identical to the golden drain's.
    let got = disk_artifacts(spool)?;
    for ((label, want), (_, have)) in golden.artifacts.iter().zip(&got) {
        if want != have {
            return Err(format!(
                "{label} diverged from golden ({} vs {} bytes)",
                want.len(),
                have.len()
            ));
        }
    }

    // The progress log replays end to end; torn lines are tolerated and
    // reported, and every job's completion made it into the log.
    let replay = pearl_telemetry::replay_progress(&OsStorage, spool.progress_path())
        .map_err(|e| format!("progress replay: {e}"))?;
    for (id, _, _) in DISK_SPECS {
        if !replay.events.iter().any(|e| e.job == *id && e.kind == "completed") {
            return Err(format!("job {id}: no completion event in the progress log"));
        }
    }
    Ok(())
}

/// Runs the whole `--disk` exploration; returns (cases, failures).
fn run_disk_cases(smoke: bool, dir: &Path, report: &mut Report) -> (u32, u32) {
    let mut cases = 0u32;
    let mut failures = 0u32;
    let golden = match disk_golden(dir) {
        Ok(golden) => golden,
        Err(e) => {
            println!("{:<28} GOLDEN FAILED  {e}", "disk-golden");
            return (1, 1);
        }
    };
    println!("=== chaos --disk: {} storage ops in the golden drain ===", golden.ops);
    report.metric("disk.golden_ops", golden.ops as f64);

    // Every op index is a crash point; --smoke strides through them but
    // always keeps the first and the last.
    let stride = if smoke { (golden.ops / 8).max(1) } else { 1 };
    let mut points: Vec<u64> = (0..golden.ops).step_by(stride as usize).collect();
    if smoke && !points.contains(&(golden.ops - 1)) {
        points.push(golden.ops - 1);
    }
    let mut crash_failures = 0u32;
    for &k in &points {
        cases += 1;
        let label = format!("disk-crash@{k}");
        if let Err(e) = disk_fault_case(dir, &label, FaultSchedule::crash_after(k), &golden) {
            failures += 1;
            crash_failures += 1;
            println!("{label:<28} FAILED  {e}");
        }
    }
    if crash_failures == 0 {
        println!("{:<28} OK  all {} crash points recovered", "disk-crash-points", points.len());
    }
    report.metric("disk.crash_points", points.len() as f64);
    report.metric("disk.crash_failures", f64::from(crash_failures));

    // Named fault cases: a transient ENOSPC burst bounded retries must
    // absorb in one life, a torn write whose tmp debris must scavenge,
    // and a failed rename.
    let mid = golden.ops / 3;
    for (name, spec) in [
        ("disk-enospc", format!("enospc@{mid}x2")),
        ("disk-torn", format!("torn@{mid}")),
        ("disk-rename-fail", format!("fail@{mid}")),
    ] {
        cases += 1;
        let schedule = FaultSchedule::parse(&spec).expect("fault spec literal");
        match disk_fault_case(dir, name, schedule, &golden) {
            Ok(()) => {
                println!("{name:<28} OK  ({spec})");
                report.metric(&format!("ok.{name}"), 1.0);
            }
            Err(e) => {
                failures += 1;
                println!("{name:<28} FAILED  {e}");
                report.metric(&format!("ok.{name}"), 0.0);
            }
        }
    }
    (cases, failures)
}

fn main() {
    let args = pearl_bench::Cli::new("chaos", "kill/resume bit-identity harness")
        .flag("--smoke", "reduced horizons and kill counts for CI")
        .flag("--serve", "also SIGKILL/restart the pearl-serve daemon and byte-compare")
        .flag("--disk", "explore every storage crash point of a serve drain workload")
        .parse();
    let smoke = args.has("--smoke");
    let pool = JobPool::new(args.jobs());
    let cycles = if smoke { SMOKE_CYCLES } else { FULL_CYCLES };
    let kills = if smoke { SMOKE_KILLS } else { FULL_KILLS };
    let dir = PathBuf::from(RESULTS_DIR).join("chaos");
    std::fs::create_dir_all(&dir).expect("create results/chaos");

    let mut report = Report::new("chaos", args.has("--json"));
    report.insert("cycles", JsonValue::u64(cycles));
    let mut failures = 0u32;
    let mut cases = 0u32;

    if args.has("--disk") {
        // Disk mode replaces the kill/resume scenarios: it is the same
        // contract (recover to byte-identical artifacts) driven through
        // the storage layer instead of process death.
        let (disk_cases, disk_failures) = run_disk_cases(smoke, &dir, &mut report);
        println!(
            "\n{} disk fault cases, {} failure(s); spools for failed cases kept in {}",
            disk_cases,
            disk_failures,
            dir.display()
        );
        report.metric("cases", f64::from(disk_cases));
        report.metric("failures", f64::from(disk_failures));
        report.finish().expect("write JSON artifact");
        if disk_failures > 0 {
            std::process::exit(1);
        }
        return;
    }

    println!("=== chaos: kill/resume bit-identity ({cycles} cycles/scenario) ===");
    // Scenarios are independent (distinct checkpoint paths, seeded kill
    // streams keyed by scenario index), so each runs as one pool job;
    // verdicts print in scenario order afterwards.
    let scenario_list = scenarios(smoke);
    let runs = pool
        .map(&scenario_list, |index, scenario| run_scenario(scenario, index, cycles, kills, &dir));
    for run in &runs {
        if let Some(e) = &run.golden_err {
            println!("{:<24} GOLDEN FAILED: {e}", run.name);
            failures += 1;
            continue;
        }
        for (label, status) in &run.cases {
            cases += 1;
            match status {
                CaseStatus::Ok { hash, delivered, trace_bytes } => {
                    println!(
                        "{label:<28} OK  hash {hash:016x}  {delivered} pkts  \
                         {trace_bytes} trace bytes"
                    );
                    report.metric(&format!("ok.{label}"), 1.0);
                }
                CaseStatus::Diverged { golden_hash, resumed_hash, path } => {
                    failures += 1;
                    println!(
                        "{label:<28} DIVERGED  golden {golden_hash:016x} vs resumed \
                         {resumed_hash:016x} ({})",
                        path.display()
                    );
                    report.metric(&format!("ok.{label}"), 0.0);
                }
                CaseStatus::Error(e) => {
                    failures += 1;
                    println!("{label:<28} ERROR  {e}");
                    report.metric(&format!("ok.{label}"), 0.0);
                }
            }
        }
    }

    // Post-mortem plumbing: an induced stall and an injected panic must
    // each leave a flightrec artifact that `report --flight` accepts.
    for (name, result) in [
        ("flightrec-stall", run_flight_stall_case(&dir)),
        ("flightrec-panic", run_flight_panic_case(&dir)),
    ] {
        cases += 1;
        match result {
            Ok(detail) => {
                println!("{name:<28} OK  {detail}");
                report.metric(&format!("ok.{name}"), 1.0);
            }
            Err(e) => {
                failures += 1;
                println!("{name:<28} FAILED  {e}");
                report.metric(&format!("ok.{name}"), 0.0);
            }
        }
    }

    if args.has("--serve") {
        cases += 1;
        let serve_cycles = if smoke { SERVE_SMOKE_CYCLES } else { SERVE_CYCLES };
        match run_serve_case(serve_cycles, &dir) {
            Ok(detail) => {
                println!("{:<28} OK  {detail}", "serve-sigkill-restart");
                report.metric("ok.serve-sigkill-restart", 1.0);
            }
            Err(e) => {
                failures += 1;
                println!("{:<28} FAILED  {e}", "serve-sigkill-restart");
                report.metric("ok.serve-sigkill-restart", 0.0);
            }
        }
    }

    println!(
        "\n{} kill/resume cases, {} failure(s); checkpoints in {}",
        cases,
        failures,
        dir.display()
    );
    report.metric("cases", f64::from(cases));
    report.metric("failures", f64::from(failures));
    report.finish().expect("write JSON artifact");
    if failures > 0 {
        std::process::exit(1);
    }
}
