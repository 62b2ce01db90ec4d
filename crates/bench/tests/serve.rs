//! End-to-end tests of the `pearl-serve` binary: full spool lifecycle
//! through a real process, including the headline robustness claim —
//! SIGKILL the daemon mid-run, restart it, and get byte-identical
//! artifacts.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_pearl-serve");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pearl-serve-e2e-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn drop_spec(spool: &Path, id: &str, body: &str) {
    let incoming = spool.join("incoming");
    std::fs::create_dir_all(&incoming).unwrap();
    std::fs::write(incoming.join(format!("{id}.json")), body).unwrap();
}

fn drain(spool: &Path) -> std::process::Output {
    Command::new(SERVE)
        .args(["--spool"])
        .arg(spool)
        .args(["--drain", "--jobs", "1", "--poll-ms", "10", "--backoff-base-ms", "20"])
        .output()
        .expect("spawn pearl-serve")
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn full_spool_lifecycle_through_the_binary() {
    let spool = scratch("lifecycle");
    drop_spec(
        &spool,
        "valid",
        r#"{"kind": "pearl", "cycles": 4000, "stall_window": 1000, "trace": true}"#,
    );
    drop_spec(&spool, "malformed", r#"{"kind": "warp", "cycles": 10}"#);
    drop_spec(
        &spool,
        "poison",
        r#"{"kind": "pearl", "cycles": 4000, "stall_window": 1000,
            "panic_at_cycle": 1000, "retry_budget": 1}"#,
    );

    let output = drain(&spool);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("1 completed"), "{stdout}");
    assert!(stdout.contains("1 quarantined"), "{stdout}");
    assert!(stdout.contains("1 rejected"), "{stdout}");

    assert!(spool.join("out/valid.result.json").exists());
    assert!(spool.join("out/valid.trace.jsonl").exists());
    assert!(spool.join("out/valid.manifest.json").exists());
    assert!(spool.join("rejected/malformed.postmortem.json").exists());
    let postmortem = read(spool.join("failed/poison.postmortem.json"));
    assert!(postmortem.contains("panic_at_cycle"), "{postmortem}");
    assert!(postmortem.contains("\"attempts\":2"), "{postmortem}");
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn out_of_range_io_retries_exit_2_instead_of_wrapping() {
    let spool = scratch("io-retries");
    // 2^32 would wrap to 0 attempts under a truncating cast.
    let output = Command::new(SERVE)
        .args(["--spool"])
        .arg(&spool)
        .args(["--drain", "--io-retries", "4294967296"])
        .output()
        .expect("spawn pearl-serve");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--io-retries"), "{stderr}");
    assert!(!spool.join("state").exists(), "no spool opened");
    std::fs::remove_dir_all(&spool).ok();
}

/// Spawns the daemon in watch mode against `spool`.
fn spawn_daemon(spool: &Path) -> Child {
    Command::new(SERVE)
        .args(["--spool"])
        .arg(spool)
        .args(["--jobs", "1", "--poll-ms", "10"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pearl-serve daemon")
}

#[test]
fn sigkill_and_restart_produce_byte_identical_artifacts() {
    let body = r#"{"kind": "pearl", "policy": "reactive", "window": 500, "seed": 41,
                   "cycles": 60000, "stall_window": 2000, "checkpoint_every": 2000,
                   "trace": true}"#;

    // Golden: one uninterrupted drain.
    let golden = scratch("kill-golden");
    drop_spec(&golden, "job", body);
    let output = drain(&golden);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let golden_result = read(golden.join("out/job.result.json"));
    let golden_trace = read(golden.join("out/job.trace.jsonl"));
    let golden_manifest = read(golden.join("out/job.manifest.json"));

    // Victim: SIGKILL the daemon once the job has checkpointed at least
    // once (the resume bundle exists), i.e. genuinely mid-run.
    let victim = scratch("kill-victim");
    drop_spec(&victim, "job", body);
    let mut child = spawn_daemon(&victim);
    let bundle = victim.join("state/job.resume.json");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if bundle.exists() {
            break;
        }
        assert!(Instant::now() < deadline, "daemon never checkpointed");
        if let Some(status) = child.try_wait().expect("poll daemon") {
            panic!("daemon exited prematurely: {status}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL daemon"); // SIGKILL on Unix: no cleanup runs
    child.wait().expect("reap daemon");
    assert!(
        !victim.join("out/job.result.json").exists(),
        "kill landed after completion; cannot exercise resume"
    );

    // Restart: recovery re-queues the job with its bundle and finishes.
    let output = drain(&victim);
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("1 recovered"), "{stdout}");

    assert_eq!(golden_result, read(victim.join("out/job.result.json")));
    assert_eq!(golden_trace, read(victim.join("out/job.trace.jsonl")));
    assert_eq!(golden_manifest, read(victim.join("out/job.manifest.json")));
    std::fs::remove_dir_all(&golden).ok();
    std::fs::remove_dir_all(&victim).ok();
}

#[test]
fn running_job_cancels_via_marker_file() {
    let spool = scratch("cancel-live");
    drop_spec(
        &spool,
        "victim",
        // No deadline, large horizon: only cancellation can end this
        // quickly.
        r#"{"kind": "pearl", "cycles": 10000000, "stall_window": 1000, "retry_budget": 0}"#,
    );
    let mut child = spawn_daemon(&spool);
    // Wait until the job is genuinely running (progress stream says
    // "started"), then drop the marker.
    let progress = spool.join("progress.jsonl");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if std::fs::read_to_string(&progress).map(|t| t.contains("\"started\"")).unwrap_or(false) {
            break;
        }
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::fs::create_dir_all(spool.join("cancel")).unwrap();
    std::fs::write(spool.join("cancel/victim"), "").unwrap();

    // The daemon observes the marker at the next chunk boundary; then a
    // stop sentinel shuts the (now idle) daemon down cleanly.
    let deadline = Instant::now() + Duration::from_secs(120);
    let postmortem = spool.join("cancelled/victim.postmortem.json");
    while !postmortem.exists() {
        assert!(Instant::now() < deadline, "cancellation never settled");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::fs::write(spool.join("stop"), "").unwrap();
    let status = child.wait().expect("daemon exits after stop");
    assert!(status.success());
    assert!(!spool.join("out/victim.result.json").exists());
    std::fs::remove_dir_all(&spool).ok();
}
