//! The daemon's authoritative job-state journal and the retry/backoff
//! policy.
//!
//! The journal is the single document that survives a daemon kill: one
//! [`JobRecord`] per job the daemon has ever accepted, serialized
//! through the sealed-envelope layer
//! ([`pearl_telemetry::write_sealed`], kind `"serve-journal"`) so a
//! half-written or tampered journal is a typed error, never silent
//! garbage. The daemon rewrites the journal on every state transition
//! — the write is an atomic tmp-then-rename, so a kill at any
//! instruction leaves either the old or the new complete journal.
//!
//! ## Job state machine
//!
//! ```text
//! (incoming spec) ──reject──▶ Rejected                (terminal)
//!        │accept
//!        ▼
//!     Queued ◀───────────────────────────┐
//!        │dispatch                       │backoff elapsed; budget left
//!        ▼                               │
//!     Running ──panic/stall/deadline──▶ (failure recorded)
//!        │                               │budget spent
//!        │complete                       ▼
//!        ▼                          Quarantined        (terminal)
//!      Done  (terminal)
//!
//! Running ──daemon killed──▶ Queued (resume=true; not a failure)
//! Queued/Running ──cancel marker──▶ Cancelled          (terminal)
//! ```
//!
//! A kill is *not* a failure: recovery re-queues `Running` jobs with
//! `resume = true` and the attempt counter untouched, and the runner
//! continues from the resume bundle. Only a completed *failed attempt*
//! (panic, stall, deadline) increments `attempts`, pushes a reason onto
//! `failures`, and arms the bounded-exponential backoff.

use pearl_telemetry::{read_sealed, write_sealed, JsonValue, SnapshotError, Storage};
use std::path::Path;

/// Envelope kind tag for the serve journal.
pub const JOURNAL_KIND: &str = "serve-journal";

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted and waiting to run (or waiting out a retry backoff).
    Queued,
    /// Dispatched into the pool. On recovery this means the daemon died
    /// mid-run.
    Running,
    /// Completed; artifacts live in `out/`.
    Done,
    /// Retry budget spent; spec and post-mortem live in `failed/`.
    Quarantined,
    /// Failed validation; spec and post-mortem live in `rejected/`.
    Rejected,
    /// Cancelled by marker file; spec and post-mortem live in
    /// `cancelled/`.
    Cancelled,
}

impl JobStatus {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Quarantined => "quarantined",
            JobStatus::Rejected => "rejected",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<JobStatus> {
        Some(match name {
            "queued" => JobStatus::Queued,
            "running" => JobStatus::Running,
            "done" => JobStatus::Done,
            "quarantined" => JobStatus::Quarantined,
            "rejected" => JobStatus::Rejected,
            "cancelled" => JobStatus::Cancelled,
            _ => return None,
        })
    }

    /// Terminal states never leave the journal's history.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Quarantined | JobStatus::Rejected | JobStatus::Cancelled
        )
    }
}

/// One job's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id (spec file stem).
    pub id: String,
    /// Scheduling priority 0–9 (higher first).
    pub priority: u8,
    /// Monotonic acceptance order; FIFO tiebreak within a priority.
    pub submit_index: u64,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Completed attempts so far (failed or successful).
    pub attempts: u32,
    /// Retries allowed after the first failure.
    pub retry_budget: u32,
    /// Earliest wall-clock dispatch time (ms since the UNIX epoch);
    /// 0 = immediately. Arms the retry backoff.
    pub not_before_ms: u64,
    /// True when a resume bundle should seed the next attempt (set on
    /// crash recovery and graceful shutdown, cleared on dispatch
    /// consumption).
    pub resume: bool,
    /// Failure reasons, oldest first; drives the backoff exponent.
    pub failures: Vec<String>,
}

impl JobRecord {
    /// A freshly accepted job.
    pub fn new(
        id: impl Into<String>,
        priority: u8,
        retry_budget: u32,
        submit_index: u64,
    ) -> JobRecord {
        JobRecord {
            id: id.into(),
            priority,
            submit_index,
            status: JobStatus::Queued,
            attempts: 0,
            retry_budget,
            not_before_ms: 0,
            resume: false,
            failures: Vec::new(),
        }
    }

    /// True once every allowed attempt (1 + retry budget) has failed.
    pub fn budget_exhausted(&self) -> bool {
        self.attempts > self.retry_budget
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("id", JsonValue::str(&self.id)),
            ("priority", JsonValue::u64(u64::from(self.priority))),
            ("submit_index", JsonValue::str(self.submit_index.to_string())),
            ("status", JsonValue::str(self.status.name())),
            ("attempts", JsonValue::u64(u64::from(self.attempts))),
            ("retry_budget", JsonValue::u64(u64::from(self.retry_budget))),
            ("not_before_ms", JsonValue::str(self.not_before_ms.to_string())),
            ("resume", JsonValue::Bool(self.resume)),
            ("failures", JsonValue::Arr(self.failures.iter().map(JsonValue::str).collect())),
        ])
    }

    fn from_json(v: &JsonValue) -> Option<JobRecord> {
        Some(JobRecord {
            id: v.get("id")?.as_str()?.to_string(),
            priority: u8::try_from(v.get("priority")?.as_u64()?).ok()?,
            submit_index: v.get("submit_index")?.as_str()?.parse().ok()?,
            status: JobStatus::from_name(v.get("status")?.as_str()?)?,
            attempts: u32::try_from(v.get("attempts")?.as_u64()?).ok()?,
            retry_budget: u32::try_from(v.get("retry_budget")?.as_u64()?).ok()?,
            not_before_ms: v.get("not_before_ms")?.as_str()?.parse().ok()?,
            resume: matches!(v.get("resume")?, JsonValue::Bool(true)),
            failures: v
                .get("failures")?
                .as_arr()?
                .iter()
                .map(|f| f.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// The whole journal: every job the daemon has accepted, in acceptance
/// order, plus the acceptance counter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeJournal {
    /// All job records, acceptance order.
    pub jobs: Vec<JobRecord>,
    /// Next submit index to hand out.
    pub next_submit_index: u64,
}

impl ServeJournal {
    /// An empty journal.
    pub fn new() -> ServeJournal {
        ServeJournal::default()
    }

    /// Loads the journal from `path`; a missing file is an empty
    /// journal (first boot), anything else unreadable is a typed error.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a corrupt, tampered or foreign journal.
    pub fn load(
        storage: &dyn Storage,
        path: impl AsRef<Path>,
    ) -> Result<ServeJournal, SnapshotError> {
        let path = path.as_ref();
        if !storage.exists(path) {
            return Ok(ServeJournal::new());
        }
        let payload = read_sealed(storage, path, JOURNAL_KIND)?;
        let jobs = payload
            .get("jobs")
            .and_then(JsonValue::as_arr)
            .ok_or(SnapshotError::BadShape { context: "journal jobs" })?
            .iter()
            .map(JobRecord::from_json)
            .collect::<Option<Vec<_>>>()
            .ok_or(SnapshotError::BadShape { context: "journal job record" })?;
        let next_submit_index = payload
            .get("next_submit_index")
            .and_then(JsonValue::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or(SnapshotError::BadShape { context: "journal next_submit_index" })?;
        Ok(ServeJournal { jobs, next_submit_index })
    }

    /// Atomically persists the journal (sealed envelope,
    /// tmp-then-rename).
    ///
    /// # Errors
    ///
    /// Propagates storage failures; the previous journal survives.
    pub fn save(&self, storage: &dyn Storage, path: impl AsRef<Path>) -> std::io::Result<()> {
        let payload = JsonValue::obj(vec![
            ("jobs", JsonValue::Arr(self.jobs.iter().map(JobRecord::to_json).collect())),
            ("next_submit_index", JsonValue::str(self.next_submit_index.to_string())),
        ]);
        write_sealed(storage, path, JOURNAL_KIND, &payload)
    }

    /// The record for `id`, if any.
    pub fn get(&self, id: &str) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Mutable access to the record for `id`.
    pub fn get_mut(&mut self, id: &str) -> Option<&mut JobRecord> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    /// Accepts a new job, assigning the next submit index.
    pub fn accept(&mut self, id: &str, priority: u8, retry_budget: u32) -> &mut JobRecord {
        let record = JobRecord::new(id, priority, retry_budget, self.next_submit_index);
        self.next_submit_index += 1;
        self.jobs.push(record);
        self.jobs.last_mut().expect("just pushed")
    }
}

/// Bounded exponential backoff: the delay before retry number
/// `failures` (1-based), `base_ms * 2^(failures-1)` capped at `cap_ms`.
/// Deterministic (no jitter) — the daemon serves a single spool, so
/// thundering herds are not a concern and reproducible schedules are.
pub fn backoff_ms(base_ms: u64, failures: u32, cap_ms: u64) -> u64 {
    if failures == 0 {
        return 0;
    }
    let shift = (failures - 1).min(32);
    base_ms.saturating_mul(1u64 << shift).min(cap_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_telemetry::OsStorage;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pearl-serve-journal-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_round_trips_and_missing_reads_empty() {
        let dir = scratch("roundtrip");
        let path = dir.join("journal.json");
        assert_eq!(ServeJournal::load(&OsStorage, &path).unwrap(), ServeJournal::new());

        let mut journal = ServeJournal::new();
        journal.accept("fig05", 9, 2);
        {
            let rec = journal.accept("poison", 4, 1);
            rec.status = JobStatus::Running;
            rec.attempts = 1;
            rec.resume = true;
            rec.not_before_ms = 9_999_999_999_999; // past 2^33: string field
            rec.failures.push("panicked: boom".into());
        }
        journal.save(&OsStorage, &path).unwrap();
        let loaded = ServeJournal::load(&OsStorage, &path).unwrap();
        assert_eq!(loaded, journal);
        assert_eq!(loaded.next_submit_index, 2);
        assert_eq!(loaded.get("poison").unwrap().failures, vec!["panicked: boom".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_journal_is_a_typed_error_not_garbage() {
        let dir = scratch("corrupt");
        let path = dir.join("journal.json");
        let mut journal = ServeJournal::new();
        journal.accept("a", 4, 0);
        journal.save(&OsStorage, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"attempts\":0", "\"attempts\":7")).unwrap();
        assert!(matches!(
            ServeJournal::load(&OsStorage, &path),
            Err(SnapshotError::HashMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_and_backoff_shape() {
        let mut rec = JobRecord::new("j", 4, 2, 0);
        assert!(!rec.budget_exhausted());
        rec.attempts = 2;
        assert!(!rec.budget_exhausted(), "budget 2 allows 3 attempts");
        rec.attempts = 3;
        assert!(rec.budget_exhausted());

        assert_eq!(backoff_ms(250, 0, 60_000), 0);
        assert_eq!(backoff_ms(250, 1, 60_000), 250);
        assert_eq!(backoff_ms(250, 2, 60_000), 500);
        assert_eq!(backoff_ms(250, 5, 60_000), 4_000);
        assert_eq!(backoff_ms(250, 20, 60_000), 60_000, "cap holds");
        assert_eq!(backoff_ms(250, 200, 60_000), 60_000, "huge exponents saturate");
    }

    #[test]
    fn status_names_round_trip() {
        for status in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Quarantined,
            JobStatus::Rejected,
            JobStatus::Cancelled,
        ] {
            assert_eq!(JobStatus::from_name(status.name()), Some(status));
        }
        assert_eq!(JobStatus::from_name("nope"), None);
        assert!(JobStatus::Done.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
    }
}
