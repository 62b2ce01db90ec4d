//! One supervised attempt of one experiment spec.
//!
//! [`run_attempt`] builds the network a spec describes, drives it under
//! the forward-progress watchdog with a per-chunk controller, and
//! returns a typed [`AttemptEnd`]. The controller is where every
//! robustness feature hangs:
//!
//! - **deadline** — a wall-clock per-attempt budget checked at each
//!   chunk boundary;
//! - **cancellation** — a marker file in `spool/cancel/` aborts the run
//!   at the next boundary;
//! - **graceful shutdown** — the spool's `stop` sentinel checkpoints
//!   the run into its resume bundle and stops;
//! - **periodic checkpoints** — every `checkpoint_every` cycles the
//!   attempt rewrites its resume bundle so a SIGKILL loses at most one
//!   checkpoint interval of wall-clock work (and **zero** determinism:
//!   a resumed run's final artifacts are byte-identical to an
//!   uninterrupted one's);
//! - **poison specs** — `panic_at_cycle` panics the worker on purpose;
//!   the panic unwinds out of here and is caught by
//!   [`crate::JobPool::run_supervised`].
//!
//! ## The resume bundle
//!
//! A [`Checkpoint`] alone cannot make a killed *traced* run
//! byte-identical: the events recorded before the kill lived in memory.
//! The bundle therefore seals *checkpoint + trace-prefix JSONL +
//! dropped-count* in one atomic document (kind `"serve-resume"`), so
//! the final trace is exactly `prefix ++ post-resume events` — the
//! contract the chaos harness (`chaos --serve`) enforces byte for byte.
//!
//! The attempt keeps that JSONL as text and, at each checkpoint,
//! renders only the events recorded since the previous one, so an event
//! is rendered once however many bundles carry it. The bundles and the
//! final `out/<id>.trace.jsonl` are all cut from the same text.

use crate::serve::spec::ExperimentSpec;
use crate::serve::Spool;
use crate::watchdog::{run_watched_with, WatchError};
use pearl_telemetry::{
    jsonl, read_sealed_with, write_sealed_with, Checkpoint, FanoutProbe, JsonValue, Probe,
    ProgressEvent, ProgressLog, RunManifest, SharedFlightRecorder, SharedRecorder, Simulator,
    Storage,
};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Envelope kind tag for resume bundles.
pub const RESUME_KIND: &str = "serve-resume";

/// Why a run stopped without finishing or failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhy {
    /// The daemon is shutting down; the job re-queues with its resume
    /// bundle.
    Shutdown,
    /// A cancel marker appeared; the job is terminally cancelled.
    Cancelled,
}

/// How one attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptEnd {
    /// Ran to the spec's horizon; artifacts are on disk in `out/`.
    Completed {
        /// Final simulated cycle (the spec's horizon).
        at_cycle: u64,
        /// Total packets delivered.
        delivered: u64,
        /// Final state hash (post-mortem / identity checks).
        state_hash: u64,
    },
    /// Stopped early by shutdown or cancellation — not a failure, no
    /// retry charged.
    Stopped {
        /// Shutdown or cancellation.
        why: StopWhy,
        /// Cycle reached when the run stopped.
        at_cycle: u64,
    },
    /// The attempt failed (stall, deadline); charged against the retry
    /// budget. Panics are not represented here — they unwind into the
    /// supervised pool.
    Failed {
        /// Human-readable reason, recorded in the journal and
        /// post-mortem.
        reason: String,
    },
}

/// Everything one attempt needs.
pub struct AttemptContext<'a> {
    /// The spool the attempt reads markers from and writes state into.
    pub spool: &'a Spool,
    /// The validated spec.
    pub spec: &'a ExperimentSpec,
    /// 1-based attempt number (journal `attempts + 1`).
    pub attempt: u32,
    /// Consume the resume bundle if one exists (set after crash
    /// recovery or graceful shutdown).
    pub resume: bool,
    /// Storage every bundle, artifact and progress write goes through.
    pub storage: &'a dyn Storage,
    /// The daemon's seq-stamping progress log. Shared across the wave's
    /// worker threads so `progress.jsonl` lines carry sequence numbers
    /// in file order.
    pub progress: &'a ProgressLog,
    /// The process black box, when the daemon runs with one: the
    /// attempt's trace events feed its ring, and a watchdog stall dumps
    /// it as a `flightrec` post-mortem into `state/`.
    pub flight: Option<&'a SharedFlightRecorder>,
}

/// A parsed resume bundle.
struct ResumeBundle {
    checkpoint: Checkpoint,
    trace_prefix: String,
    dropped: u64,
}

fn load_resume_bundle(storage: &dyn Storage, spool: &Spool, id: &str) -> Option<ResumeBundle> {
    let path = spool.resume_path(id);
    if !storage.exists(&path) {
        return None;
    }
    // An unreadable or tampered bundle falls back to a clean restart
    // from cycle 0 — slower, but the deterministic simulator still
    // produces byte-identical final artifacts.
    let payload = read_sealed_with(storage, &path, RESUME_KIND).ok()?;
    let checkpoint = Checkpoint::from_json(payload.get("checkpoint")?).ok()?;
    let trace_prefix = payload.get("trace")?.as_str()?.to_string();
    let dropped = payload.get("dropped")?.as_str()?.parse().ok()?;
    Some(ResumeBundle { checkpoint, trace_prefix, dropped })
}

fn write_resume_bundle(
    storage: &dyn Storage,
    spool: &Spool,
    id: &str,
    net: &dyn Simulator,
    trace: &mut Trace,
) -> std::io::Result<()> {
    let payload = JsonValue::obj(vec![
        ("checkpoint", net.snapshot().to_json()),
        ("trace", JsonValue::str(trace.render())),
        ("dropped", JsonValue::str(trace.dropped().to_string())),
    ]);
    write_sealed_with(storage, spool.resume_path(id), RESUME_KIND, &payload)
}

/// An attempt's trace: the recorder on the network and the JSONL text
/// rendered from it so far, after the prefix a resume bundle carried.
#[derive(Default)]
struct Trace {
    recorder: SharedRecorder,
    jsonl: Vec<u8>,
    rendered: usize,
    prefix_dropped: u64,
}

impl Trace {
    /// Renders the events recorded since the last call and returns the
    /// whole text. The recorder keeps its first `cap` events and drops
    /// later ones, so a rendered event never changes and each is
    /// rendered once.
    fn render(&mut self) -> &str {
        self.recorder.with(|r| {
            jsonl::write_trace(&mut self.jsonl, &r.events()[self.rendered..])
                .expect("in-memory trace write");
            self.rendered = r.events().len();
        });
        std::str::from_utf8(&self.jsonl).expect("trace JSONL is UTF-8")
    }

    /// Events dropped past the recorder cap, before and after a resume.
    fn dropped(&self) -> u64 {
        self.prefix_dropped + self.recorder.dropped()
    }
}

/// Runs one attempt end to end and, on completion, writes the `out/`
/// artifacts (`<id>.result.json`, `<id>.manifest.json` and — for traced
/// specs — `<id>.trace.jsonl`) atomically.
///
/// # Panics
///
/// Panics when the spec's `panic_at_cycle` fires or the simulator
/// itself panics; callers run this under
/// [`crate::JobPool::run_supervised`].
pub fn run_attempt(ctx: &AttemptContext<'_>) -> AttemptEnd {
    let spec = ctx.spec;
    let spool = ctx.spool;
    let deadline = spec.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));

    let mut trace = Trace::default();
    // Acceptance built this spec once already, so an error here means
    // the build changed under a queued job.
    let mut net = match spec.build() {
        Ok(net) => net,
        Err(e) => return AttemptEnd::Failed { reason: format!("spec no longer builds: {e}") },
    };
    // One probe slot per network: the offline recorder (traced specs)
    // and the flight recorder share it through a fanout when both ride.
    let mut probes: Vec<Box<dyn Probe>> = Vec::new();
    if spec.trace {
        probes.push(Box::new(trace.recorder.clone()));
    }
    if let Some(flight) = ctx.flight {
        probes.push(Box::new(flight.clone()));
    }
    match probes.len() {
        0 => {}
        1 => net.attach_probe(probes.pop().expect("one probe")),
        _ => net.attach_probe(Box::new(FanoutProbe::new(probes))),
    }

    if ctx.resume {
        if let Some(bundle) = load_resume_bundle(ctx.storage, spool, &spec.id) {
            if net.restore(&bundle.checkpoint).is_ok() {
                trace.jsonl = bundle.trace_prefix.into_bytes();
                trace.prefix_dropped = bundle.dropped;
                let mut ev = ProgressEvent::new(&spec.id, "resumed");
                ev.attempt = ctx.attempt;
                ev.cycle = net.cycle();
                ev.delivered = net.delivered_packets();
                let _ = ctx.progress.append(ctx.storage, &spool.progress_path(), &mut ev);
            }
        }
    }

    let start_cycle = net.cycle();
    let remaining = spec.cycles.saturating_sub(start_cycle);
    let mut stop_why: Option<StopWhy> = None;
    let mut last_checkpoint = start_cycle;
    let outcome = run_watched_with(net.as_mut(), remaining, spec.stall_window, |n| {
        if let Some(at) = spec.panic_at_cycle {
            if n.cycle() >= at {
                panic!("poison spec: panic_at_cycle {at} reached at cycle {}", n.cycle());
            }
        }
        if ctx.storage.exists(&spool.cancel_path(&spec.id)) {
            stop_why = Some(StopWhy::Cancelled);
            return ControlFlow::Break("cancelled by marker".to_string());
        }
        if ctx.storage.exists(&spool.stop_path()) {
            // Checkpoint before yielding so the restarted daemon loses
            // nothing.
            let _ = write_resume_bundle(ctx.storage, spool, &spec.id, n, &mut trace);
            stop_why = Some(StopWhy::Shutdown);
            return ControlFlow::Break("daemon shutdown".to_string());
        }
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return ControlFlow::Break(format!(
                    "deadline of {} ms exceeded at cycle {}",
                    spec.deadline_ms.unwrap_or(0),
                    n.cycle()
                ));
            }
        }
        if spec.checkpoint_every > 0 && n.cycle() - last_checkpoint >= spec.checkpoint_every {
            last_checkpoint = n.cycle();
            if write_resume_bundle(ctx.storage, spool, &spec.id, n, &mut trace).is_ok() {
                let mut ev = ProgressEvent::new(&spec.id, "checkpointed");
                ev.attempt = ctx.attempt;
                ev.cycle = n.cycle();
                ev.delivered = n.delivered_packets();
                let _ = ctx.progress.append(ctx.storage, &spool.progress_path(), &mut ev);
            }
        }
        ControlFlow::Continue(())
    });

    match outcome {
        Ok(()) => {
            let state_hash = net.state_hash();
            match write_artifacts(ctx, net.as_ref(), state_hash, &mut trace) {
                Ok(()) => AttemptEnd::Completed {
                    at_cycle: net.cycle(),
                    delivered: net.delivered_packets(),
                    state_hash,
                },
                Err(e) => AttemptEnd::Failed { reason: format!("artifact write failed: {e}") },
            }
        }
        Err(WatchError::Stalled(e)) => {
            // The black box earns its keep here: dump the last window of
            // trace events before the stall is folded into a retry.
            if let Some(flight) = ctx.flight {
                let _ = crate::flightdump::dump_stall(
                    flight,
                    ctx.storage,
                    &spool.state(),
                    "pearl-serve",
                    &e,
                );
            }
            AttemptEnd::Failed { reason: e.to_string() }
        }
        Err(WatchError::Aborted { at_cycle, reason }) => match stop_why {
            Some(why) => AttemptEnd::Stopped { why, at_cycle },
            None => AttemptEnd::Failed { reason },
        },
    }
}

/// Writes the three `out/` artifacts. Every write is atomic and every
/// field deterministic (no timestamps, no attempt counters), so a
/// completed job's artifacts are byte-identical no matter how many
/// kills, resumes or retries preceded completion.
fn write_artifacts(
    ctx: &AttemptContext<'_>,
    net: &dyn Simulator,
    state_hash: u64,
    trace: &mut Trace,
) -> std::io::Result<()> {
    let spec = ctx.spec;
    let spool = ctx.spool;

    let result = JsonValue::obj(vec![
        ("id", JsonValue::str(&spec.id)),
        ("kind", JsonValue::str(spec.kind.name())),
        ("pair", JsonValue::str(spec.pair().label())),
        ("seed", JsonValue::str(spec.seed.to_string())),
        ("cycles", JsonValue::u64(spec.cycles)),
        ("state_hash", JsonValue::str(format!("{state_hash:016x}"))),
        ("summary", net.summary_json()),
    ]);
    pearl_telemetry::atomic_write_file_with(
        ctx.storage,
        spool.result_path(&spec.id),
        &format!("{result}\n"),
    )?;

    let mut trace_lines = 0u64;
    if spec.trace {
        let text = trace.render();
        trace_lines = text.lines().count() as u64;
        pearl_telemetry::atomic_write_file_with(ctx.storage, spool.trace_path(&spec.id), text)?;
    }

    let mut manifest = RunManifest::new("pearl-serve", spec.seed, spec.cycles)
        .with_trace_counts(trace_lines, trace.dropped())
        .with_extra("job", JsonValue::str(&spec.id))
        .with_extra("kind", JsonValue::str(spec.kind.name()))
        .with_extra("pair", JsonValue::str(spec.pair().label()));
    manifest.config_fingerprint = net.config_fingerprint();
    manifest.write_file_with(ctx.storage, spool.manifest_path(&spec.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::spec::ExperimentSpec;

    fn scratch(name: &str) -> Spool {
        let root = std::env::temp_dir().join(format!("pearl-serve-runner-{name}"));
        std::fs::remove_dir_all(&root).ok();
        let spool = Spool::new(root);
        spool.ensure_layout().unwrap();
        spool
    }

    fn spec(id: &str, body: &str) -> ExperimentSpec {
        ExperimentSpec::parse(id, body).unwrap()
    }

    #[test]
    fn attempt_completes_and_writes_deterministic_artifacts() {
        let spool = scratch("complete");
        let progress = ProgressLog::resuming_after(0);
        let spec = spec(
            "ok1",
            r#"{"kind": "pearl", "cycles": 4000, "stall_window": 1000, "trace": true}"#,
        );
        let ctx = AttemptContext {
            spool: &spool,
            spec: &spec,
            attempt: 1,
            resume: false,
            storage: &pearl_telemetry::OsStorage,
            progress: &progress,
            flight: None,
        };
        let end = run_attempt(&ctx);
        let AttemptEnd::Completed { at_cycle, delivered, .. } = end else {
            panic!("expected completion, got {end:?}");
        };
        assert_eq!(at_cycle, 4_000);
        assert!(delivered > 0);
        let result = std::fs::read_to_string(spool.result_path("ok1")).unwrap();
        let trace = std::fs::read_to_string(spool.trace_path("ok1")).unwrap();
        assert!(std::fs::metadata(spool.manifest_path("ok1")).is_ok());
        assert!(result.contains("\"state_hash\""));
        assert!(!trace.is_empty());

        // Re-running the identical attempt rewrites identical bytes.
        run_attempt(&ctx);
        assert_eq!(result, std::fs::read_to_string(spool.result_path("ok1")).unwrap());
        assert_eq!(trace, std::fs::read_to_string(spool.trace_path("ok1")).unwrap());
        std::fs::remove_dir_all(spool.root()).ok();
    }

    /// A first-attempt context over the real filesystem.
    fn attempt<'a>(
        spool: &'a Spool,
        spec: &'a ExperimentSpec,
        resume: bool,
        progress: &'a ProgressLog,
    ) -> AttemptContext<'a> {
        AttemptContext {
            spool,
            spec,
            attempt: 1,
            resume,
            storage: &pearl_telemetry::OsStorage,
            progress,
            flight: None,
        }
    }

    /// The result and trace artifacts of job `id`.
    fn artifacts(spool: &Spool, id: &str) -> (String, String) {
        (
            std::fs::read_to_string(spool.result_path(id)).unwrap(),
            std::fs::read_to_string(spool.trace_path(id)).unwrap(),
        )
    }

    /// Byte length and FNV-1a of the result and manifest artifacts of a
    /// traced, faulted PEARL spec and a half-bandwidth CMESH spec,
    /// generated before the summary rendering moved into the network
    /// crates.
    #[test]
    fn artifacts_keep_their_bytes() {
        let cases = [
            (
                "pin_pearl",
                r#"{"kind": "pearl", "policy": "reactive", "window": 500, "cycles": 4000,
                    "stall_window": 1000, "fault_rate": 0.02, "fault_seed": 7, "trace": true}"#,
                [(482, 0xc0e50d9750c8ac23), (209, 0x212606c7362c2a52)],
            ),
            (
                "pin_cmesh",
                r#"{"kind": "cmesh", "bandwidth_factor": 2, "cycles": 4000, "stall_window": 1000}"#,
                [(393, 0xa0200c75c7ccd0de), (207, 0x4f74fd5b7ec4f63c)],
            ),
        ];
        for (id, body, pins) in cases {
            let spool = scratch(id);
            let progress = ProgressLog::resuming_after(0);
            let spec = spec(id, body);
            let end = run_attempt(&attempt(&spool, &spec, false, &progress));
            assert!(matches!(end, AttemptEnd::Completed { .. }), "{end:?}");
            for (path, pin) in [spool.result_path(id), spool.manifest_path(id)].iter().zip(pins) {
                let text = std::fs::read_to_string(path).unwrap();
                let measured = (text.len(), pearl_telemetry::fingerprint(&text));
                assert_eq!(measured, pin, "{} moved:\n{text}", path.display());
            }
            std::fs::remove_dir_all(spool.root()).ok();
        }
    }

    #[test]
    fn shutdown_checkpoints_and_resume_is_byte_identical() {
        let spool = scratch("resume");
        let progress = ProgressLog::resuming_after(0);
        let body = r#"{"kind": "pearl", "policy": "reactive", "window": 500,
                       "cycles": 6000, "stall_window": 1000, "trace": true}"#;
        let res1 = spec("res1", body);

        // Golden: uninterrupted.
        let golden_spool = scratch("resume-golden");
        assert!(matches!(
            run_attempt(&attempt(&golden_spool, &res1, false, &progress)),
            AttemptEnd::Completed { .. }
        ));
        let golden = artifacts(&golden_spool, "res1");

        // Interrupted: stop sentinel appears after the second chunk.
        // (Dropping the sentinel mid-run via the filesystem exercises
        // exactly the daemon's shutdown path.)
        std::fs::write(spool.stop_path(), "").unwrap();
        let end = run_attempt(&attempt(&spool, &res1, false, &progress));
        let AttemptEnd::Stopped { why: StopWhy::Shutdown, at_cycle } = end else {
            panic!("expected shutdown stop, got {end:?}");
        };
        assert!(at_cycle < 6_000);
        assert!(spool.resume_path("res1").exists(), "bundle written on shutdown");

        // Restart: resume consumes the bundle and finishes.
        std::fs::remove_file(spool.stop_path()).unwrap();
        assert!(matches!(
            run_attempt(&attempt(&spool, &res1, true, &progress)),
            AttemptEnd::Completed { .. }
        ));
        assert_eq!(golden, artifacts(&spool, "res1"));

        // Periodic checkpoints, then a poison panic at cycle 3000: the
        // bundle left behind is cycle 2000's, its trace rendered in two
        // increments. Resuming it without the poison must still match an
        // uninterrupted run byte for byte.
        let clean = spec(
            "res2",
            r#"{"kind": "pearl", "policy": "reactive", "window": 500, "cycles": 6000,
                "stall_window": 1000, "checkpoint_every": 1000, "trace": true}"#,
        );
        let poisoned = spec(
            "res2",
            r#"{"kind": "pearl", "policy": "reactive", "window": 500, "cycles": 6000,
                "stall_window": 1000, "checkpoint_every": 1000, "trace": true,
                "panic_at_cycle": 3000}"#,
        );
        assert!(matches!(
            run_attempt(&attempt(&golden_spool, &clean, false, &progress)),
            AttemptEnd::Completed { .. }
        ));
        let golden = artifacts(&golden_spool, "res2");

        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_attempt(&attempt(&spool, &poisoned, false, &progress))
        }));
        assert!(crashed.is_err(), "the poison fires at cycle 3000");
        let bundle =
            read_sealed_with(&pearl_telemetry::OsStorage, spool.resume_path("res2"), RESUME_KIND)
                .unwrap();
        assert_eq!(Checkpoint::from_json(bundle.get("checkpoint").unwrap()).unwrap().cycle, 2_000);
        let prefix = bundle.get("trace").and_then(JsonValue::as_str).unwrap();
        let ats: Vec<u64> =
            jsonl::read_trace(&mut prefix.as_bytes()).unwrap().iter().map(|e| e.at()).collect();
        assert!(ats.iter().any(|&at| at < 1_000), "first increment rendered");
        assert!(ats.iter().any(|&at| (1_000..2_000).contains(&at)), "second increment rendered");
        assert!(golden.1.starts_with(prefix));

        assert!(matches!(
            run_attempt(&attempt(&spool, &clean, true, &progress)),
            AttemptEnd::Completed { .. }
        ));
        assert_eq!(golden, artifacts(&spool, "res2"));

        std::fs::remove_dir_all(spool.root()).ok();
        std::fs::remove_dir_all(golden_spool.root()).ok();
    }

    #[test]
    fn cancellation_and_deadline_end_attempts_without_artifacts() {
        let spool = scratch("cancel");
        let progress = ProgressLog::resuming_after(0);
        let spec = spec("c1", r#"{"kind": "pearl", "cycles": 50000, "stall_window": 1000}"#);
        std::fs::write(spool.cancel_path("c1"), "").unwrap();
        let ctx = AttemptContext {
            spool: &spool,
            spec: &spec,
            attempt: 1,
            resume: false,
            storage: &pearl_telemetry::OsStorage,
            progress: &progress,
            flight: None,
        };
        assert!(matches!(run_attempt(&ctx), AttemptEnd::Stopped { why: StopWhy::Cancelled, .. }));
        assert!(!spool.result_path("c1").exists());

        // An immediate (1 ms) deadline trips at the first boundary and
        // counts as a failure.
        let spec = ExperimentSpec::parse(
            "d1",
            r#"{"kind": "pearl", "cycles": 50000, "stall_window": 1000, "deadline_ms": 1}"#,
        )
        .unwrap();
        let ctx = AttemptContext {
            spool: &spool,
            spec: &spec,
            attempt: 1,
            resume: false,
            storage: &pearl_telemetry::OsStorage,
            progress: &progress,
            flight: None,
        };
        let end = run_attempt(&ctx);
        let AttemptEnd::Failed { reason } = end else {
            panic!("expected deadline failure, got {end:?}");
        };
        assert!(reason.contains("deadline"), "{reason}");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn poison_specs_panic_into_the_supervisor() {
        let spool = scratch("poison");
        let spec = spec(
            "p1",
            r#"{"kind": "pearl", "cycles": 9000, "stall_window": 1000, "panic_at_cycle": 2000}"#,
        );
        let pool = crate::JobPool::new(1);
        let results = pool.run_supervised(
            1,
            |_| spec.seed,
            |_| {
                let progress = ProgressLog::resuming_after(0);
                let ctx = AttemptContext {
                    spool: &spool,
                    spec: &spec,
                    attempt: 1,
                    resume: false,
                    storage: &pearl_telemetry::OsStorage,
                    progress: &progress,
                    flight: None,
                };
                run_attempt(&ctx)
            },
        );
        let err = results.into_iter().next().unwrap().unwrap_err();
        assert!(err.message.contains("panic_at_cycle 2000"), "{}", err.message);
        std::fs::remove_dir_all(spool.root()).ok();
    }
}
