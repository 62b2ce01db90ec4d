//! The `pearl-serve` daemon loop: scan, validate, schedule, supervise,
//! survive.
//!
//! One [`Daemon`] owns one [`Spool`]. Each iteration it
//!
//! 1. **scans** `incoming/` for new specs, validating each against the
//!    typed config layer — accepted specs move to `accepted/` and enter
//!    the journal, invalid ones move to `rejected/` with a post-mortem;
//! 2. **applies cancellations** dropped into `cancel/`;
//! 3. **dispatches** every ready job (queued, backoff elapsed) as one
//!    wave across the deterministic [`crate::JobPool`] in supervised
//!    mode, priorities first, FIFO within a priority;
//! 4. **settles** each outcome: completions move to `done/`, failures
//!    charge the retry budget and arm a bounded-exponential backoff,
//!    exhausted budgets quarantine to `failed/`, shutdown stops
//!    re-queue with their resume bundle.
//!
//! The journal is saved **before** a wave dispatches (jobs marked
//! `Running`) and again after it settles, so a SIGKILL at any point
//! leaves a journal from which [`Daemon::new`] recovers exactly:
//! `Running` jobs re-queue with `resume = true` and continue from their
//! bundle. Settling is idempotent — a job killed *after* its artifacts
//! were written but *before* the journal recorded `Done` simply re-runs
//! its tail and atomically rewrites byte-identical artifacts.

use crate::pool::JobPool;
use crate::serve::http::StatusBoard;
use crate::serve::journal::{backoff_ms, JobStatus, ServeJournal};
use crate::serve::queueing::summarize_progress;
use crate::serve::runner::{run_attempt, AttemptContext, AttemptEnd, StopWhy};
use crate::serve::spec::ExperimentSpec;
use crate::serve::{valid_job_id, Spool};
use pearl_telemetry::{
    atomic_write_file_with, prometheus_exposition, replay_progress_with, JsonValue,
    MetricsRegistry, OsStorage, ProgressEvent, ProgressLog, RetryPolicy, RetryStorage,
    SharedFlightRecorder, Storage,
};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Daemon tuning; the `pearl-serve` CLI maps one-to-one onto this.
#[derive(Clone)]
pub struct DaemonConfig {
    /// The spool to serve.
    pub spool: Spool,
    /// Worker threads for each dispatch wave.
    pub jobs: usize,
    /// Exit once every known job is terminal and `incoming/` is empty.
    pub drain: bool,
    /// Run exactly one scan + dispatch wave, then exit.
    pub once: bool,
    /// Longest idle sleep between scans (milliseconds). An idle daemon
    /// sleeps 1 ms, doubles the sleep on each idle iteration up to this
    /// cap, and starts over at 1 ms whenever a spec arrives, a
    /// cancellation applies or a wave runs.
    pub poll_ms: u64,
    /// Base of the bounded-exponential retry backoff (milliseconds).
    pub backoff_base_ms: u64,
    /// Cap of the retry backoff (milliseconds).
    pub backoff_cap_ms: u64,
    /// Storage every persistence path goes through. Defaults to the
    /// real filesystem; the chaos harness substitutes a
    /// [`pearl_telemetry::FaultStorage`].
    pub storage: Arc<dyn Storage>,
    /// Bounded retry policy wrapped around `storage` for transient
    /// errors (`EINTR`, `ENOSPC`, ...).
    pub io_retry: RetryPolicy,
    /// Live `/status` + `/metrics` publication target, set when the
    /// daemon runs with `--listen`. `None` (the default) publishes
    /// nothing: the loop does no extra work without a board.
    pub status: Option<StatusBoard>,
    /// The process black box: attached to every attempt's network
    /// alongside its trace recorder, and dumped as a `flightrec`
    /// post-mortem when the watchdog declares a stall.
    pub flight: Option<SharedFlightRecorder>,
}

impl fmt::Debug for DaemonConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DaemonConfig")
            .field("spool", &self.spool)
            .field("jobs", &self.jobs)
            .field("drain", &self.drain)
            .field("once", &self.once)
            .field("poll_ms", &self.poll_ms)
            .field("backoff_base_ms", &self.backoff_base_ms)
            .field("backoff_cap_ms", &self.backoff_cap_ms)
            .field("io_retry", &self.io_retry)
            .field("status", &self.status.is_some())
            .field("flight", &self.flight.is_some())
            .finish_non_exhaustive()
    }
}

impl DaemonConfig {
    /// Defaults for a spool root: machine-sized pool, idle sleeps capped
    /// at 200 ms, 500 ms backoff base capped at 60 s, real filesystem
    /// storage.
    pub fn new(spool: Spool) -> DaemonConfig {
        DaemonConfig {
            spool,
            jobs: crate::pool::available_jobs(),
            drain: false,
            once: false,
            poll_ms: 200,
            backoff_base_ms: 500,
            backoff_cap_ms: 60_000,
            storage: OsStorage::shared(),
            io_retry: RetryPolicy::default(),
            status: None,
            flight: None,
        }
    }
}

/// What one daemon invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Jobs that completed (artifacts in `out/`).
    pub completed: u64,
    /// Failed attempts recorded (retries included).
    pub failed_attempts: u64,
    /// Jobs quarantined after exhausting their budget.
    pub quarantined: u64,
    /// Specs rejected at validation.
    pub rejected: u64,
    /// Jobs cancelled by marker.
    pub cancelled: u64,
    /// Jobs recovered from a previous daemon's journal.
    pub recovered: u64,
    /// Orphaned `.tmp` files swept at startup (torn atomic writes).
    pub scavenged_tmp: u64,
    /// Accepted specs with no journal record, re-queued by moving them
    /// back to `incoming/` (a crash between the accept rename and the
    /// journal save).
    pub orphaned_specs: u64,
    /// Torn (unparseable) lines found in `progress.jsonl` at startup.
    pub torn_progress: u64,
    /// Sequence gaps found replaying `progress.jsonl` at startup —
    /// evidence of events lost between stamping and appending.
    pub progress_gaps: u64,
    /// True when the stop sentinel ended the run.
    pub shutdown: bool,
}

/// The daemon. Construct with [`Daemon::new`] (which performs crash
/// recovery), then [`Daemon::run`].
pub struct Daemon {
    config: DaemonConfig,
    storage: Arc<dyn Storage>,
    journal: ServeJournal,
    specs: HashMap<String, ExperimentSpec>,
    summary: DaemonSummary,
    progress: ProgressLog,
}

/// The idle sleep (ms) that follows one of `last_ms` (0 when the daemon
/// has not slept since it last did something): 1 ms, then doubling,
/// never more than `poll_ms`.
fn next_idle_ms(last_ms: u64, poll_ms: u64) -> u64 {
    last_ms.saturating_mul(2).clamp(1, poll_ms.max(1))
}

/// Milliseconds since the UNIX epoch (0 if the clock is before it).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

impl Daemon {
    /// Opens (or creates) the spool, scavenges crash debris, loads the
    /// journal and performs crash recovery: every `Running` job —
    /// evidence the previous daemon died mid-wave — re-queues with
    /// `resume = true` so its next attempt continues from the resume
    /// bundle. Attempt counters are untouched: a kill is not a failure.
    ///
    /// The scavenger runs first, before the journal is trusted:
    /// orphaned `.tmp` files (torn atomic writes) are deleted, a torn
    /// final `progress.jsonl` line is terminated so later appends don't
    /// glue onto it (the reader skips-and-reports it either way), and
    /// accepted specs with **no** journal record — a crash in the gap
    /// between the accept rename and the journal save — move back to
    /// `incoming/` for re-admission instead of being silently lost.
    ///
    /// # Errors
    ///
    /// Filesystem failures, or a corrupt journal (a typed
    /// [`pearl_telemetry::SnapshotError`] stringified into
    /// [`std::io::Error`] — refusing to guess is the point).
    pub fn new(config: DaemonConfig) -> std::io::Result<Daemon> {
        let storage: Arc<dyn Storage> =
            Arc::new(RetryStorage::new(config.storage.clone(), config.io_retry));
        let spool = &config.spool;
        spool.ensure_layout()?;
        let mut summary = DaemonSummary::default();

        // Scavenge orphaned `.tmp` siblings from torn atomic writes.
        // The tmp naming scheme guarantees these were never renamed
        // into place, so deleting them loses nothing.
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
            for path in storage.list(&dir)? {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if OsStorage::is_tmp_name(name) {
                    storage.remove(&path)?;
                    summary.scavenged_tmp += 1;
                }
            }
        }

        // A torn final progress line (crash mid-append) must become its
        // own line, or the next append glues onto it and corrupts an
        // otherwise-good event too. Count what the replay reports, and
        // seed the seq-stamping log past everything already on disk so
        // this daemon's events extend the stream monotonically.
        let mut last_seq = 0;
        if storage.exists(&spool.progress_path()) {
            let text = storage.read(&spool.progress_path())?;
            if !text.is_empty() && !text.ends_with('\n') {
                storage.append_line(&spool.progress_path(), "")?;
            }
            let replay = replay_progress_with(storage.as_ref(), spool.progress_path())?;
            summary.torn_progress = replay.torn.len() as u64;
            summary.progress_gaps = replay.gaps.len() as u64;
            last_seq = replay.max_seq();
        }
        let progress = ProgressLog::resuming_after(last_seq);

        let mut journal = ServeJournal::load_with(storage.as_ref(), spool.journal_path())
            .map_err(|e| std::io::Error::other(format!("journal unreadable: {e:?}")))?;

        // Accepted specs the journal has never heard of: the previous
        // daemon crashed after renaming incoming -> accepted but before
        // the journal save recorded the acceptance. Hand them back to
        // `incoming/` so the normal scan re-admits them.
        for path in storage.list(&spool.accepted())? {
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            let id = path.file_stem().and_then(|s| s.to_str()).unwrap_or("").to_string();
            if journal.get(&id).is_none() {
                storage.rename(&path, &spool.spec_path(&spool.incoming(), &id))?;
                summary.orphaned_specs += 1;
                let mut ev = ProgressEvent::new(&id, "rescued");
                let _ = progress.append(storage.as_ref(), &spool.progress_path(), &mut ev);
            }
        }

        let mut specs = HashMap::new();
        for record in &mut journal.jobs {
            if record.status == JobStatus::Running {
                record.status = JobStatus::Queued;
                record.resume = storage.exists(&spool.resume_path(&record.id));
                summary.recovered += 1;
                let mut ev = ProgressEvent::new(&record.id, "recovered");
                ev.attempt = record.attempts;
                let _ = progress.append(storage.as_ref(), &spool.progress_path(), &mut ev);
            }
            if record.status == JobStatus::Queued {
                // Re-load the spec the previous daemon accepted. A spec
                // that no longer parses (corrupted on disk) quarantines
                // rather than wedging the queue.
                let path = spool.spec_path(&spool.accepted(), &record.id);
                match storage.read(&path).map_err(|e| e.to_string()).and_then(|text| {
                    ExperimentSpec::parse(&record.id, &text).map_err(|e| e.to_string())
                }) {
                    Ok(spec) => {
                        specs.insert(record.id.clone(), spec);
                    }
                    // Settle-time renames commit before the journal save
                    // that records them, so a missing accepted spec can
                    // be a crash in that gap rather than corruption:
                    // trust the terminal directory the spec reached.
                    // (`done/` implies the artifacts too — they are
                    // written before the rename.)
                    Err(_) if storage.exists(&spool.spec_path(&spool.done(), &record.id)) => {
                        record.status = JobStatus::Done;
                        record.attempts += 1;
                        record.resume = false;
                        remove_if_exists(storage.as_ref(), &spool.resume_path(&record.id));
                        let mut ev = ProgressEvent::new(&record.id, "completed");
                        ev.attempt = record.attempts;
                        ev.detail = "recovered: finished before crash".into();
                        let _ = progress.append(storage.as_ref(), &spool.progress_path(), &mut ev);
                    }
                    Err(_) if storage.exists(&spool.spec_path(&spool.cancelled(), &record.id)) => {
                        record.status = JobStatus::Cancelled;
                        record.failures.push("cancelled before crash".into());
                        summary.cancelled += 1;
                    }
                    Err(_) if storage.exists(&spool.spec_path(&spool.failed(), &record.id)) => {
                        record.status = JobStatus::Quarantined;
                        record.attempts += 1;
                        summary.quarantined += 1;
                    }
                    Err(reason) => {
                        record.status = JobStatus::Quarantined;
                        record.failures.push(format!("accepted spec unreadable: {reason}"));
                        summary.quarantined += 1;
                        let _ =
                            storage.rename(&path, &spool.spec_path(&spool.failed(), &record.id));
                        let _ = write_postmortem(storage.as_ref(), spool, &spool.failed(), record);
                    }
                }
            }
        }
        journal.save_with(storage.as_ref(), spool.journal_path())?;
        Ok(Daemon { config, storage, journal, specs, summary, progress })
    }

    /// Read-only view of the journal (used by tests and the CLI).
    pub fn journal(&self) -> &ServeJournal {
        &self.journal
    }

    /// Runs the daemon loop until shutdown (stop sentinel), `--once`
    /// completes a wave, or `--drain` settles the queue.
    ///
    /// An idle loop backs its sleep off from 1 ms to `poll_ms` (see
    /// [`DaemonConfig::poll_ms`]), so a spec dropped into a quiet spool
    /// is admitted within milliseconds without the loop spinning. The
    /// status board is republished only after an iteration that changed
    /// something or moved the daemon's state.
    ///
    /// # Errors
    ///
    /// Filesystem failures saving the journal; per-job failures are
    /// handled, not propagated.
    pub fn run(&mut self) -> std::io::Result<DaemonSummary> {
        let mut published = "running";
        self.publish(published);
        let mut idle_ms = 0;
        loop {
            let found = self.scan_incoming()?;
            let cancelled = self.apply_cancellations()?;
            if self.storage.exists(&self.config.spool.stop_path()) {
                self.summary.shutdown = true;
                break;
            }
            let dispatched = self.dispatch_wave()?;
            let active = found || cancelled || dispatched > 0;
            let state = if self.settled() { "settled" } else { "running" };
            if active || state != published {
                self.publish(state);
                published = state;
            }
            if self.config.once {
                break;
            }
            if active {
                idle_ms = 0;
            }
            if dispatched == 0 {
                idle_ms = next_idle_ms(idle_ms, self.config.poll_ms);
                if self.settled() {
                    if self.config.drain {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(idle_ms));
                } else {
                    // Jobs exist but are waiting out a backoff; sleep
                    // only as long as the nearest deadline needs.
                    let wake = self
                        .journal
                        .jobs
                        .iter()
                        .filter(|j| j.status == JobStatus::Queued)
                        .map(|j| j.not_before_ms.saturating_sub(now_ms()))
                        .min()
                        .unwrap_or(idle_ms);
                    std::thread::sleep(Duration::from_millis(wake.clamp(1, idle_ms)));
                }
            }
        }
        self.journal.save_with(self.storage.as_ref(), self.config.spool.journal_path())?;
        self.publish(if self.summary.shutdown { "stopped" } else { "drained" });
        Ok(self.summary)
    }

    /// True when nothing is queued or running and `incoming/` is empty.
    fn settled(&self) -> bool {
        self.journal.jobs.iter().all(|j| j.status.is_terminal())
            && self
                .storage
                .list(&self.config.spool.incoming())
                .map(|d| d.is_empty())
                .unwrap_or(true)
    }

    /// Validates and admits everything in `incoming/`, in name order so
    /// acceptance order (and therefore FIFO tie-breaks) is
    /// deterministic. Returns whether there was any spec to admit or
    /// reject.
    fn scan_incoming(&mut self) -> std::io::Result<bool> {
        let spool = self.config.spool.clone();
        let entries: Vec<_> = self
            .storage
            .list(&spool.incoming())?
            .into_iter()
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        if entries.is_empty() {
            // Nothing admitted or rejected: don't rewrite the journal on
            // every idle poll tick.
            return Ok(false);
        }
        for path in entries {
            let id = path.file_stem().and_then(|s| s.to_str()).unwrap_or("").to_string();
            let verdict = if !valid_job_id(&id) {
                Err(format!("invalid job id {id:?} (1-64 chars of [A-Za-z0-9._-], no leading dot)"))
            } else if self.journal.get(&id).is_some() {
                Err(format!("duplicate job id {id:?}: ids are unique per spool"))
            } else {
                // A storage failure here is I/O trouble, not a bad
                // spec: propagate so the job stays in incoming/ and a
                // restart re-admits it, instead of rejecting it
                // forever. (Parse failures below still reject.)
                let text = self.storage.read(&path)?;
                ExperimentSpec::parse(&id, &text).map_err(|e| e.to_string())
            };
            match verdict {
                Ok(spec) => {
                    self.storage.rename(&path, &spool.spec_path(&spool.accepted(), &id))?;
                    let record = self.journal.accept(&id, spec.priority, spec.retry_budget);
                    let mut ev = ProgressEvent::new(&id, "accepted");
                    ev.detail = format!("priority {}", record.priority);
                    let _ = self.progress.append(
                        self.storage.as_ref(),
                        &spool.progress_path(),
                        &mut ev,
                    );
                    self.specs.insert(id, spec);
                }
                Err(reason) => {
                    // Quarantine the file under a name that cannot
                    // collide with a journaled job's spec.
                    let dest = if valid_job_id(&id) && self.journal.get(&id).is_none() {
                        spool.spec_path(&spool.rejected(), &id)
                    } else {
                        spool.rejected().join(format!(
                            "bad-{:016x}.json",
                            pearl_telemetry::fingerprint(&path.display().to_string())
                        ))
                    };
                    self.storage.rename(&path, &dest)?;
                    self.summary.rejected += 1;
                    let stem =
                        dest.file_stem().and_then(|s| s.to_str()).unwrap_or("bad").to_string();
                    if valid_job_id(&id) && self.journal.get(&id).is_none() {
                        let record = self.journal.accept(&id, 0, 0);
                        record.status = JobStatus::Rejected;
                        record.failures.push(reason.clone());
                    }
                    let body = JsonValue::obj(vec![
                        ("id", JsonValue::str(&stem)),
                        ("status", JsonValue::str("rejected")),
                        ("reason", JsonValue::str(&reason)),
                    ]);
                    atomic_write_file_with(
                        self.storage.as_ref(),
                        spool.postmortem_path(&spool.rejected(), &stem),
                        &format!("{body}\n"),
                    )?;
                    let mut ev = ProgressEvent::new(&stem, "rejected");
                    ev.detail = reason;
                    let _ = self.progress.append(
                        self.storage.as_ref(),
                        &spool.progress_path(),
                        &mut ev,
                    );
                }
            }
        }
        self.journal.save_with(self.storage.as_ref(), spool.journal_path())?;
        Ok(true)
    }

    /// Cancels queued jobs whose marker appeared (running jobs observe
    /// their marker themselves at the next chunk boundary). Markers for
    /// terminal or unknown jobs are cleaned up. Returns whether any job
    /// was cancelled.
    fn apply_cancellations(&mut self) -> std::io::Result<bool> {
        let spool = self.config.spool.clone();
        let mut dirty = false;
        for marker in self.storage.list(&spool.cancel_dir())? {
            let id =
                marker.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
            match self.journal.get_mut(&id) {
                Some(record) if record.status == JobStatus::Queued => {
                    record.status = JobStatus::Cancelled;
                    record.failures.push("cancelled before dispatch".into());
                    let _ = self.storage.rename(
                        &spool.spec_path(&spool.accepted(), &id),
                        &spool.spec_path(&spool.cancelled(), &id),
                    );
                    let record = self.journal.get(&id).expect("just updated");
                    write_postmortem(self.storage.as_ref(), &spool, &spool.cancelled(), record)?;
                    self.storage.remove(&marker)?;
                    remove_if_exists(self.storage.as_ref(), &spool.resume_path(&id));
                    self.specs.remove(&id);
                    self.summary.cancelled += 1;
                    dirty = true;
                    let mut ev = ProgressEvent::new(&id, "cancelled");
                    let _ = self.progress.append(
                        self.storage.as_ref(),
                        &spool.progress_path(),
                        &mut ev,
                    );
                }
                Some(record) if record.status.is_terminal() => {
                    self.storage.remove(&marker)?;
                }
                _ => {} // Running: the runner's controller acts on it.
            }
        }
        if dirty {
            self.journal.save_with(self.storage.as_ref(), spool.journal_path())?;
        }
        Ok(dirty)
    }

    /// Dispatches every ready job as one supervised wave. Returns how
    /// many jobs ran.
    fn dispatch_wave(&mut self) -> std::io::Result<usize> {
        let spool = self.config.spool.clone();
        let now = now_ms();
        let mut wave: Vec<(String, bool)> = self
            .journal
            .jobs
            .iter()
            .filter(|j| j.status == JobStatus::Queued && j.not_before_ms <= now)
            .filter(|j| self.specs.contains_key(&j.id))
            .map(|j| (j.id.clone(), j.resume))
            .collect();
        if wave.is_empty() {
            return Ok(0);
        }
        // Priority first, then acceptance order.
        wave.sort_by_key(|(id, _)| {
            let j = self.journal.get(id).expect("wave ids are journaled");
            (std::cmp::Reverse(j.priority), j.submit_index)
        });

        // Mark Running and persist BEFORE dispatch: a kill during the
        // wave must read as "these jobs were in flight".
        for (id, _) in &wave {
            let record = self.journal.get_mut(id).expect("wave ids are journaled");
            record.status = JobStatus::Running;
            let mut ev = ProgressEvent::new(id, "started");
            ev.attempt = record.attempts + 1;
            ev.detail = if record.resume { "resume".into() } else { "fresh".into() };
            let _ = self.progress.append(self.storage.as_ref(), &spool.progress_path(), &mut ev);
        }
        self.journal.save_with(self.storage.as_ref(), spool.journal_path())?;

        let contexts: Vec<AttemptContext<'_>> = wave
            .iter()
            .map(|(id, resume)| AttemptContext {
                spool: &spool,
                spec: &self.specs[id],
                attempt: self.journal.get(id).expect("journaled").attempts + 1,
                resume: *resume,
                storage: self.storage.as_ref(),
                progress: &self.progress,
                flight: self.config.flight.as_ref(),
            })
            .collect();
        let pool = JobPool::new(self.config.jobs);
        let results = pool.run_supervised(
            contexts.len(),
            |i| contexts[i].spec.seed,
            |i| run_attempt(&contexts[i]),
        );
        drop(contexts);

        for ((id, _), result) in wave.iter().zip(results) {
            self.settle(id, result)?;
        }
        self.journal.save_with(self.storage.as_ref(), spool.journal_path())?;
        Ok(wave.len())
    }

    /// Folds one attempt outcome into the journal and the spool.
    fn settle(
        &mut self,
        id: &str,
        result: Result<AttemptEnd, crate::pool::JobError>,
    ) -> std::io::Result<()> {
        let spool = self.config.spool.clone();
        let end = match result {
            Ok(end) => end,
            Err(job_error) => AttemptEnd::Failed { reason: job_error.message },
        };
        let record = self.journal.get_mut(id).expect("settled ids are journaled");
        match end {
            AttemptEnd::Completed { at_cycle, delivered, .. } => {
                record.attempts += 1;
                record.status = JobStatus::Done;
                record.resume = false;
                self.storage.rename(
                    &spool.spec_path(&spool.accepted(), id),
                    &spool.spec_path(&spool.done(), id),
                )?;
                remove_if_exists(self.storage.as_ref(), &spool.resume_path(id));
                remove_if_exists(self.storage.as_ref(), &spool.cancel_path(id));
                self.specs.remove(id);
                self.summary.completed += 1;
                let mut ev = ProgressEvent::new(id, "completed");
                ev.attempt = self.journal.get(id).expect("journaled").attempts;
                ev.cycle = at_cycle;
                ev.delivered = delivered;
                ev.detail = spool.result_path(id).display().to_string();
                let _ =
                    self.progress.append(self.storage.as_ref(), &spool.progress_path(), &mut ev);
            }
            AttemptEnd::Stopped { why: StopWhy::Shutdown, at_cycle } => {
                // Not a failure: re-queue to continue from the bundle
                // the runner just wrote.
                record.status = JobStatus::Queued;
                record.resume = self.storage.exists(&spool.resume_path(id));
                let mut ev = ProgressEvent::new(id, "shutdown");
                ev.attempt = record.attempts + 1;
                ev.cycle = at_cycle;
                let _ =
                    self.progress.append(self.storage.as_ref(), &spool.progress_path(), &mut ev);
            }
            AttemptEnd::Stopped { why: StopWhy::Cancelled, at_cycle } => {
                record.status = JobStatus::Cancelled;
                record.failures.push(format!("cancelled at cycle {at_cycle}"));
                self.storage.rename(
                    &spool.spec_path(&spool.accepted(), id),
                    &spool.spec_path(&spool.cancelled(), id),
                )?;
                let record = self.journal.get(id).expect("journaled");
                write_postmortem(self.storage.as_ref(), &spool, &spool.cancelled(), record)?;
                remove_if_exists(self.storage.as_ref(), &spool.cancel_path(id));
                remove_if_exists(self.storage.as_ref(), &spool.resume_path(id));
                self.specs.remove(id);
                self.summary.cancelled += 1;
                let mut ev = ProgressEvent::new(id, "cancelled");
                let _ =
                    self.progress.append(self.storage.as_ref(), &spool.progress_path(), &mut ev);
            }
            AttemptEnd::Failed { reason } => {
                record.attempts += 1;
                record.resume = false;
                record.failures.push(reason.clone());
                // Failed attempts restart deterministically from cycle
                // 0; a bundle from the failed attempt must not leak
                // into the retry.
                remove_if_exists(self.storage.as_ref(), &spool.resume_path(id));
                self.summary.failed_attempts += 1;
                if record.budget_exhausted() {
                    record.status = JobStatus::Quarantined;
                    self.storage.rename(
                        &spool.spec_path(&spool.accepted(), id),
                        &spool.spec_path(&spool.failed(), id),
                    )?;
                    let record = self.journal.get(id).expect("journaled");
                    write_postmortem(self.storage.as_ref(), &spool, &spool.failed(), record)?;
                    self.specs.remove(id);
                    self.summary.quarantined += 1;
                    let mut ev = ProgressEvent::new(id, "quarantined");
                    ev.attempt = self.journal.get(id).expect("journaled").attempts;
                    ev.detail = reason;
                    let _ = self.progress.append(
                        self.storage.as_ref(),
                        &spool.progress_path(),
                        &mut ev,
                    );
                } else {
                    record.status = JobStatus::Queued;
                    record.not_before_ms = now_ms()
                        + backoff_ms(
                            self.config.backoff_base_ms,
                            record.failures.len() as u32,
                            self.config.backoff_cap_ms,
                        );
                    let mut ev = ProgressEvent::new(id, "failed");
                    ev.attempt = record.attempts;
                    ev.detail = reason;
                    let _ = self.progress.append(
                        self.storage.as_ref(),
                        &spool.progress_path(),
                        &mut ev,
                    );
                }
            }
        }
        Ok(())
    }

    /// Renders the daemon's state into the introspection board: the
    /// `/status` JSON document and the `/metrics` Prometheus
    /// exposition, published atomically as one pair. A no-op without a
    /// board (`--listen` unset), so a bare daemon does no extra I/O.
    ///
    /// The queue statistics come from replaying `progress.jsonl`
    /// rather than private counters, so `/status` agrees with what an
    /// operator tailing the stream (or `GET /progress`) sees.
    fn publish(&self, state: &str) {
        let Some(board) = &self.config.status else { return };
        let spool = &self.config.spool;
        let events = replay_progress_with(self.storage.as_ref(), spool.progress_path())
            .map(|r| r.events)
            .unwrap_or_default();
        let queue = summarize_progress(&events);

        let mut queued = 0u64;
        let mut running = 0u64;
        let mut done = 0u64;
        let mut quarantined = 0u64;
        let mut rejected = 0u64;
        let mut cancelled = 0u64;
        let jobs: Vec<JsonValue> = self
            .journal
            .jobs
            .iter()
            .map(|j| {
                match j.status {
                    JobStatus::Queued => queued += 1,
                    JobStatus::Running => running += 1,
                    JobStatus::Done => done += 1,
                    JobStatus::Quarantined => quarantined += 1,
                    JobStatus::Rejected => rejected += 1,
                    JobStatus::Cancelled => cancelled += 1,
                }
                JsonValue::obj(vec![
                    ("id", JsonValue::str(&j.id)),
                    ("status", JsonValue::str(j.status.name())),
                    ("priority", JsonValue::u64(u64::from(j.priority))),
                    ("attempts", JsonValue::u64(u64::from(j.attempts))),
                    ("retry_budget", JsonValue::u64(u64::from(j.retry_budget))),
                    ("resume", JsonValue::Bool(j.resume)),
                ])
            })
            .collect();

        let s = &self.summary;
        let status = JsonValue::obj(vec![
            ("state", JsonValue::str(state)),
            ("progress_seq", JsonValue::u64(self.progress.last_seq())),
            (
                "counts",
                JsonValue::obj(vec![
                    ("queued", JsonValue::u64(queued)),
                    ("running", JsonValue::u64(running)),
                    ("done", JsonValue::u64(done)),
                    ("quarantined", JsonValue::u64(quarantined)),
                    ("rejected", JsonValue::u64(rejected)),
                    ("cancelled", JsonValue::u64(cancelled)),
                ]),
            ),
            (
                "summary",
                JsonValue::obj(vec![
                    ("completed", JsonValue::u64(s.completed)),
                    ("failed_attempts", JsonValue::u64(s.failed_attempts)),
                    ("quarantined", JsonValue::u64(s.quarantined)),
                    ("rejected", JsonValue::u64(s.rejected)),
                    ("cancelled", JsonValue::u64(s.cancelled)),
                    ("recovered", JsonValue::u64(s.recovered)),
                    ("scavenged_tmp", JsonValue::u64(s.scavenged_tmp)),
                    ("orphaned_specs", JsonValue::u64(s.orphaned_specs)),
                    ("torn_progress", JsonValue::u64(s.torn_progress)),
                    ("progress_gaps", JsonValue::u64(s.progress_gaps)),
                    ("shutdown", JsonValue::Bool(s.shutdown)),
                ]),
            ),
            ("queue", queue.to_json()),
            ("jobs", JsonValue::Arr(jobs)),
        ]);

        let mut m = MetricsRegistry::new();
        m.incr("serve.completed", s.completed);
        m.incr("serve.failed_attempts", s.failed_attempts);
        m.incr("serve.quarantined", s.quarantined);
        m.incr("serve.rejected", s.rejected);
        m.incr("serve.cancelled", s.cancelled);
        m.incr("serve.recovered", s.recovered);
        m.incr("serve.waves", queue.waves);
        m.incr("serve.retries", queue.total_retries);
        m.incr("serve.progress.torn", s.torn_progress);
        m.incr("serve.progress.gaps", s.progress_gaps);
        m.set_gauge("serve.queue.depth", queued as f64);
        m.set_gauge("serve.jobs.running", running as f64);
        m.set_gauge("serve.jobs.total", self.journal.jobs.len() as f64);
        m.set_gauge("serve.progress.seq", self.progress.last_seq() as f64);
        board.publish(status.to_string(), prometheus_exposition(&m.snapshot()));
    }
}

/// Best-effort removal of a file that may legitimately be absent. The
/// existence probe is metadata-only (uncounted by fault injection), so
/// crash-point indices don't shift with whether a resume bundle or
/// marker happened to exist.
fn remove_if_exists(storage: &dyn Storage, path: &Path) {
    if storage.exists(path) {
        let _ = storage.remove(path);
    }
}

/// Writes `<dir>/<id>.postmortem.json` for a terminal job: status,
/// attempts and the full failure history.
fn write_postmortem(
    storage: &dyn Storage,
    spool: &Spool,
    dir: &Path,
    record: &crate::serve::journal::JobRecord,
) -> std::io::Result<()> {
    let body = JsonValue::obj(vec![
        ("id", JsonValue::str(&record.id)),
        ("status", JsonValue::str(record.status.name())),
        ("attempts", JsonValue::u64(u64::from(record.attempts))),
        ("retry_budget", JsonValue::u64(u64::from(record.retry_budget))),
        ("failures", JsonValue::Arr(record.failures.iter().map(JsonValue::str).collect())),
    ]);
    atomic_write_file_with(storage, spool.postmortem_path(dir, &record.id), &format!("{body}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> Spool {
        let root = std::env::temp_dir().join(format!("pearl-serve-daemon-{name}"));
        std::fs::remove_dir_all(&root).ok();
        let spool = Spool::new(root);
        spool.ensure_layout().unwrap();
        spool
    }

    fn drop_spec(spool: &Spool, id: &str, body: &str) {
        std::fs::write(spool.spec_path(&spool.incoming(), id), body).unwrap();
    }

    fn drain_config(spool: &Spool) -> DaemonConfig {
        let mut config = DaemonConfig::new(spool.clone());
        config.drain = true;
        config.jobs = 2;
        config.poll_ms = 5;
        config.backoff_base_ms = 1;
        config
    }

    #[test]
    fn idle_sleep_backs_off_from_one_ms_to_poll_ms() {
        let schedule = |poll_ms: u64, n: usize| -> Vec<u64> {
            std::iter::successors(Some(next_idle_ms(0, poll_ms)), |&ms| {
                Some(next_idle_ms(ms, poll_ms))
            })
            .take(n)
            .collect()
        };
        assert_eq!(schedule(200, 10), [1, 2, 4, 8, 16, 32, 64, 128, 200, 200]);
        assert_eq!(schedule(1, 4), [1, 1, 1, 1]);
        assert_eq!(next_idle_ms(u64::MAX, 200), 200);
        // An iteration that did something resets the last sleep to 0, so
        // the next one starts over at 1 ms from wherever the backoff was.
        let reset = 0;
        assert_eq!(next_idle_ms(reset, 200), 1);
    }

    #[test]
    fn settled_idle_daemon_stops_republishing_status() {
        let spool = scratch("quiet-status");
        drop_spec(&spool, "q1", r#"{"kind": "cmesh", "cycles": 500}"#);
        let storage = Arc::new(pearl_telemetry::FaultStorage::counting());
        let board = StatusBoard::new();
        let mut config = DaemonConfig::new(spool.clone());
        config.jobs = 1;
        config.poll_ms = 2;
        config.storage = storage.clone();
        config.status = Some(board.clone());
        let mut daemon = Daemon::new(config).unwrap();
        let daemon = std::thread::spawn(move || daemon.run());

        let ops = |op: &str, path: &Path| {
            let path = path.display().to_string();
            storage.op_log().iter().filter(|r| r.op == op && r.path == path).count()
        };
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while !done() {
                assert!(std::time::Instant::now() < deadline, "daemon never {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        wait_for("settled", &|| board.status_json().contains("\"state\":\"settled\""));
        let replays = ops("read", &spool.progress_path());
        assert!(replays > 0, "publishing replays progress.jsonl");
        // Each idle iteration lists incoming/ twice: wait out five.
        let scans = ops("list", &spool.incoming());
        wait_for("idled", &|| ops("list", &spool.incoming()) >= scans + 10);
        assert_eq!(ops("read", &spool.progress_path()), replays, "idle loop replayed progress");

        std::fs::write(spool.stop_path(), "").unwrap();
        let summary = daemon.join().unwrap().unwrap();
        assert!(summary.shutdown);
        assert_eq!(summary.completed, 1);
        assert!(board.status_json().contains("\"state\":\"stopped\""));
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn accepts_rejects_and_completes() {
        let spool = scratch("mixed");
        drop_spec(&spool, "good", r#"{"kind": "pearl", "cycles": 3000, "stall_window": 1000}"#);
        drop_spec(&spool, "bad", r#"{"kind": "quantum", "cycles": 10}"#);
        drop_spec(&spool, "torn", "{this is not json");

        let mut daemon = Daemon::new(drain_config(&spool)).unwrap();
        let summary = daemon.run().unwrap();
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.rejected, 2);
        assert_eq!(summary.quarantined, 0);

        assert!(spool.result_path("good").exists());
        assert!(spool.manifest_path("good").exists());
        assert!(spool.spec_path(&spool.done(), "good").exists());
        assert!(spool.postmortem_path(&spool.rejected(), "bad").exists());
        assert!(spool.postmortem_path(&spool.rejected(), "torn").exists());
        assert!(!spool.trace_path("good").exists(), "untraced spec writes no trace");

        // The journal agrees with the filesystem.
        let journal = ServeJournal::load(spool.journal_path()).unwrap();
        assert_eq!(journal.get("good").unwrap().status, JobStatus::Done);
        assert_eq!(journal.get("bad").unwrap().status, JobStatus::Rejected);
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn poison_spec_quarantines_without_blocking_the_queue() {
        let spool = scratch("poison");
        drop_spec(
            &spool,
            "poison",
            r#"{"kind": "pearl", "cycles": 5000, "stall_window": 1000,
                "panic_at_cycle": 1000, "retry_budget": 1, "priority": 9}"#,
        );
        drop_spec(&spool, "healthy", r#"{"kind": "cmesh", "cycles": 2000, "stall_window": 1000}"#);

        let mut daemon = Daemon::new(drain_config(&spool)).unwrap();
        let summary = daemon.run().unwrap();
        // Budget 1 = two attempts, both panic, then quarantine; the
        // healthy job still completes.
        assert_eq!(summary.quarantined, 1);
        assert_eq!(summary.failed_attempts, 2);
        assert_eq!(summary.completed, 1);

        let record = daemon.journal().get("poison").unwrap();
        assert_eq!(record.status, JobStatus::Quarantined);
        assert_eq!(record.attempts, 2);
        assert_eq!(record.failures.len(), 2);
        assert!(record.failures[0].contains("panic_at_cycle"), "{:?}", record.failures);
        assert!(spool.postmortem_path(&spool.failed(), "poison").exists());
        assert!(spool.spec_path(&spool.failed(), "poison").exists());
        assert!(spool.result_path("healthy").exists());
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn queued_jobs_cancel_via_marker() {
        let spool = scratch("cancel");
        drop_spec(&spool, "victim", r#"{"kind": "pearl", "cycles": 3000}"#);
        std::fs::write(spool.cancel_path("victim"), "").unwrap();

        let mut config = drain_config(&spool);
        config.once = true; // one pass: scan + cancel, no dispatch needed
        let mut daemon = Daemon::new(config).unwrap();
        let summary = daemon.run().unwrap();
        assert_eq!(summary.cancelled, 1);
        assert_eq!(summary.completed, 0);
        assert_eq!(daemon.journal().get("victim").unwrap().status, JobStatus::Cancelled);
        assert!(spool.postmortem_path(&spool.cancelled(), "victim").exists());
        assert!(!spool.cancel_path("victim").exists(), "marker consumed");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn priorities_order_the_wave() {
        let spool = scratch("priority");
        drop_spec(&spool, "a-low", r#"{"kind": "cmesh", "cycles": 500, "priority": 1}"#);
        drop_spec(&spool, "b-high", r#"{"kind": "cmesh", "cycles": 500, "priority": 8}"#);
        drop_spec(&spool, "c-high", r#"{"kind": "cmesh", "cycles": 500, "priority": 8}"#);

        let mut config = drain_config(&spool);
        config.jobs = 1; // serial wave: start order == progress order
        let mut daemon = Daemon::new(config).unwrap();
        daemon.run().unwrap();
        let starts: Vec<String> = pearl_telemetry::read_progress(spool.progress_path())
            .unwrap()
            .into_iter()
            .filter(|e| e.kind == "started")
            .map(|e| e.job)
            .collect();
        assert_eq!(starts, vec!["b-high", "c-high", "a-low"]);
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn scavenger_sweeps_tmp_rescues_orphans_and_repairs_torn_progress() {
        let spool = scratch("scavenge");
        // Crash debris a previous daemon could have left behind: two
        // torn atomic writes' tmp siblings...
        std::fs::write(spool.out().join(".r1.result.json.tmp.999"), "half").unwrap();
        std::fs::write(spool.state().join(".journal.json.tmp.999"), "half").unwrap();
        // ...a spec renamed into accepted/ that the journal never
        // recorded (crash between the rename and the journal save)...
        std::fs::write(
            spool.spec_path(&spool.accepted(), "orphan"),
            r#"{"kind": "cmesh", "cycles": 500}"#,
        )
        .unwrap();
        // ...and a progress log whose final line was torn mid-append.
        let ev = pearl_telemetry::ProgressEvent::new("old", "accepted");
        pearl_telemetry::append_progress(spool.progress_path(), &ev).unwrap();
        {
            use std::io::Write;
            let mut f =
                std::fs::OpenOptions::new().append(true).open(spool.progress_path()).unwrap();
            f.write_all(b"{\"job\":\"torn\",\"ki").unwrap();
        }

        let mut daemon = Daemon::new(drain_config(&spool)).unwrap();
        let summary = daemon.run().unwrap();
        assert_eq!(summary.scavenged_tmp, 2);
        assert_eq!(summary.orphaned_specs, 1);
        assert_eq!(summary.torn_progress, 1);
        // The rescued spec re-entered through incoming/ and completed.
        assert_eq!(summary.completed, 1);
        assert!(spool.spec_path(&spool.done(), "orphan").exists());
        assert!(spool.result_path("orphan").exists());

        // No tmp debris survives, and the progress log replays cleanly
        // around the (still reported) torn line.
        for dir in [spool.out(), spool.state()] {
            for entry in std::fs::read_dir(dir).unwrap().filter_map(Result::ok) {
                let name = entry.file_name().to_string_lossy().to_string();
                assert!(!pearl_telemetry::OsStorage::is_tmp_name(&name), "orphan left: {name}");
            }
        }
        let replay = pearl_telemetry::replay_progress(spool.progress_path()).unwrap();
        assert_eq!(replay.torn.len(), 1);
        assert!(replay.torn[0].1.contains("torn"), "{:?}", replay.torn);
        assert!(replay.events.iter().any(|e| e.job == "orphan" && e.kind == "completed"));
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn seeded_transient_faults_with_retries_still_drain() {
        let spool = scratch("transient-faults");
        drop_spec(&spool, "t1", r#"{"kind": "cmesh", "cycles": 1000}"#);
        drop_spec(&spool, "t2", r#"{"kind": "pearl", "cycles": 2000, "stall_window": 1000}"#);
        let mut config = drain_config(&spool);
        // A tenth of the first 400 ops fail transiently; bounded
        // retries must absorb every burst without a single job failure.
        config.storage = Arc::new(pearl_telemetry::FaultStorage::new(
            pearl_telemetry::FaultSchedule::seeded(42, 400, 0.1),
        ));
        config.io_retry = RetryPolicy { attempts: 6, base_ms: 1, cap_ms: 4 };
        let mut daemon = Daemon::new(config).unwrap();
        let summary = daemon.run().unwrap();
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.failed_attempts, 0);
        assert!(spool.result_path("t1").exists());
        assert!(spool.result_path("t2").exists());
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn graceful_shutdown_then_restart_finishes_the_job() {
        let spool = scratch("restart");
        drop_spec(
            &spool,
            "longrun",
            r#"{"kind": "pearl", "cycles": 6000, "stall_window": 1000,
                "checkpoint_every": 2000, "trace": true}"#,
        );
        // First daemon: the stop sentinel is visible before any wave
        // dispatches, so the spec is accepted and journaled but never
        // started. (The mid-run shutdown checkpoint is exercised by the
        // runner's own tests and the chaos harness.)
        let mut daemon = Daemon::new(drain_config(&spool)).unwrap();
        std::fs::write(spool.stop_path(), "").unwrap();
        let summary = daemon.run().unwrap();
        assert!(summary.shutdown);
        assert_eq!(summary.completed, 0);
        assert_eq!(daemon.journal().get("longrun").unwrap().status, JobStatus::Queued);

        // Second daemon: picks the queued job back up and finishes it.
        std::fs::remove_file(spool.stop_path()).unwrap();
        let mut daemon = Daemon::new(drain_config(&spool)).unwrap();
        let summary = daemon.run().unwrap();
        assert_eq!(summary.completed, 1);
        assert!(spool.result_path("longrun").exists());
        assert!(spool.trace_path("longrun").exists());
        assert!(!spool.resume_path("longrun").exists(), "no stale bundle left behind");
        std::fs::remove_dir_all(spool.root()).ok();
    }
}
