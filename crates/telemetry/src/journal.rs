//! Crash-safe journal envelopes and progress streaming for long-running
//! services.
//!
//! The serving layer (`pearl-serve`) keeps two kinds of on-disk state:
//!
//! - a **journal** — the authoritative job-state document, rewritten on
//!   every transition. It reuses the checkpoint writer's contract
//!   (atomic tmp-then-rename via [`crate::atomic_write_file`]) and adds
//!   the same integrity seal: a version, a kind tag and an FNV-1a hash
//!   of the payload, all verified on read. A daemon killed mid-write
//!   restarts from either the previous complete journal or the new one,
//!   never a truncated hybrid; a corrupted or hand-edited journal is a
//!   typed [`SnapshotError`] instead of silent garbage.
//! - a **progress stream** — an append-only JSONL file of
//!   [`ProgressEvent`] lines, one per observable job transition
//!   (accepted, started, checkpointed, completed, …). The stream is
//!   informational: readers tail it for liveness, and a torn final line
//!   after a crash is expected and skipped by [`read_progress`].

use crate::json::JsonValue;
use crate::manifest::fingerprint;
use crate::snapshot::SnapshotError;
use crate::storage::{OsStorage, Storage};
use std::path::Path;

/// Version of the sealed-journal layout. Bumped on any incompatible
/// change; [`read_sealed`] rejects other versions.
pub const JOURNAL_VERSION: u64 = 1;

/// Writes `payload` to `path` inside a sealed envelope: layout version,
/// `kind` tag and an FNV-1a hash of the serialized payload, written
/// atomically (tmp-then-rename, parents created).
///
/// # Errors
///
/// Propagates filesystem failures; on error the previous journal (if
/// any) is left intact.
pub fn write_sealed(
    path: impl AsRef<Path>,
    kind: &str,
    payload: &JsonValue,
) -> std::io::Result<()> {
    write_sealed_with(&OsStorage, path, kind, payload)
}

/// [`write_sealed`] through an explicit [`Storage`], so fault injection
/// covers the journal write.
///
/// # Errors
///
/// Propagates storage failures; on error the previous journal (if any)
/// is left intact.
pub fn write_sealed_with(
    storage: &dyn Storage,
    path: impl AsRef<Path>,
    kind: &str,
    payload: &JsonValue,
) -> std::io::Result<()> {
    // Render the payload once: the hashed text is spliced verbatim into
    // the envelope, byte-identical to rendering the envelope as one
    // `JsonValue` object.
    let payload = payload.to_string();
    let envelope = format!(
        "{{\"version\":{},\"kind\":{},\"payload_hash\":{},\"payload\":{payload}}}\n",
        JsonValue::u64(JOURNAL_VERSION),
        JsonValue::str(kind),
        JsonValue::str(fingerprint(&payload).to_string()),
    );
    storage.write_atomic(path.as_ref(), &envelope)
}

/// Reads a document written by [`write_sealed`], verifying the version,
/// the `kind` tag and the payload hash before returning the payload.
///
/// # Errors
///
/// [`SnapshotError::VersionMismatch`] / [`SnapshotError::KindMismatch`]
/// / [`SnapshotError::HashMismatch`] on a stale, foreign or corrupted
/// file; [`SnapshotError::Io`] / [`SnapshotError::Json`] /
/// [`SnapshotError::BadShape`] on unreadable content.
pub fn read_sealed(path: impl AsRef<Path>, kind: &str) -> Result<JsonValue, SnapshotError> {
    read_sealed_with(&OsStorage, path, kind)
}

/// [`read_sealed`] through an explicit [`Storage`].
///
/// # Errors
///
/// Same failure modes as [`read_sealed`].
pub fn read_sealed_with(
    storage: &dyn Storage,
    path: impl AsRef<Path>,
    kind: &str,
) -> Result<JsonValue, SnapshotError> {
    let text = storage.read(path.as_ref())?;
    let doc = JsonValue::parse(text.trim())?;
    let version = doc
        .get("version")
        .and_then(JsonValue::as_u64)
        .ok_or(SnapshotError::BadShape { context: "journal version" })?;
    if version != JOURNAL_VERSION {
        return Err(SnapshotError::VersionMismatch { found: version, expected: JOURNAL_VERSION });
    }
    let found_kind = doc
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or(SnapshotError::BadShape { context: "journal kind" })?;
    if found_kind != kind {
        return Err(SnapshotError::KindMismatch {
            found: found_kind.to_string(),
            expected: kind.to_string(),
        });
    }
    let recorded: u64 = doc
        .get("payload_hash")
        .and_then(JsonValue::as_str)
        .and_then(|s| s.parse().ok())
        .ok_or(SnapshotError::BadShape { context: "journal payload_hash" })?;
    let payload =
        doc.get("payload").ok_or(SnapshotError::BadShape { context: "journal payload" })?;
    let recomputed = fingerprint(&payload.to_string());
    if recomputed != recorded {
        return Err(SnapshotError::HashMismatch { found: recomputed, expected: recorded });
    }
    Ok(payload.clone())
}

/// One observable transition of a served job, streamed as a JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressEvent {
    /// Monotonic sequence number stamped by the writer ([`ProgressLog`]),
    /// 1-based so tail-followers can detect missed lines. `0` marks an
    /// unstamped line (legacy streams, hand-built events).
    pub seq: u64,
    /// Job identifier (the spec file stem).
    pub job: String,
    /// Transition kind (`"accepted"`, `"started"`, `"checkpointed"`,
    /// `"completed"`, `"failed"`, `"quarantined"`, `"rejected"`,
    /// `"resumed"`, `"cancelled"`, `"shutdown"`).
    pub kind: String,
    /// Attempt number the event belongs to (0 before the first run).
    pub attempt: u32,
    /// Simulated cycle reached when the event fired.
    pub cycle: u64,
    /// Packets delivered when the event fired.
    pub delivered: u64,
    /// Free-form detail (failure reason, artifact path, …).
    pub detail: String,
}

impl ProgressEvent {
    /// Builds an event with zeroed counters and empty detail.
    pub fn new(job: impl Into<String>, kind: impl Into<String>) -> ProgressEvent {
        ProgressEvent {
            seq: 0,
            job: job.into(),
            kind: kind.into(),
            attempt: 0,
            cycle: 0,
            delivered: 0,
            detail: String::new(),
        }
    }

    /// Renders the event as a single-line JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("seq", JsonValue::str(self.seq.to_string())),
            ("job", JsonValue::str(&self.job)),
            ("kind", JsonValue::str(&self.kind)),
            ("attempt", JsonValue::u64(u64::from(self.attempt))),
            ("cycle", JsonValue::str(self.cycle.to_string())),
            ("delivered", JsonValue::str(self.delivered.to_string())),
            ("detail", JsonValue::str(&self.detail)),
        ])
    }

    /// Parses an event from its JSON form. A missing `seq` field (a
    /// line written before sequencing existed) parses as `seq` 0.
    pub fn from_json(v: &JsonValue) -> Option<ProgressEvent> {
        Some(ProgressEvent {
            seq: match v.get("seq") {
                Some(s) => s.as_str()?.parse().ok()?,
                None => 0,
            },
            job: v.get("job")?.as_str()?.to_string(),
            kind: v.get("kind")?.as_str()?.to_string(),
            attempt: u32::try_from(v.get("attempt")?.as_u64()?).ok()?,
            cycle: v.get("cycle")?.as_str()?.parse().ok()?,
            delivered: v.get("delivered")?.as_str()?.parse().ok()?,
            detail: v.get("detail")?.as_str()?.to_string(),
        })
    }
}

/// Appends one progress line to `path`, creating parent directories.
/// Each line is written and flushed in a single call so concurrent
/// writers from worker threads interleave at line granularity.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn append_progress(path: impl AsRef<Path>, event: &ProgressEvent) -> std::io::Result<()> {
    append_progress_with(&OsStorage, path, event)
}

/// [`append_progress`] through an explicit [`Storage`], so fault
/// injection covers the append.
///
/// # Errors
///
/// Propagates storage failures.
pub fn append_progress_with(
    storage: &dyn Storage,
    path: impl AsRef<Path>,
    event: &ProgressEvent,
) -> std::io::Result<()> {
    storage.append_line(path.as_ref(), &event.to_json().to_string())
}

/// The result of replaying a progress stream: the complete events plus
/// every line that had to be skipped (a torn tail after a crash, or a
/// line a torn append glued onto), reported instead of silently
/// dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgressReplay {
    /// The events parsed from complete lines, in file order.
    pub events: Vec<ProgressEvent>,
    /// Skipped lines as `(1-based line number, verbatim content)` —
    /// non-empty means a crash tore the stream at some point.
    pub torn: Vec<(usize, String)>,
    /// Sequence gaps among stamped lines as `(last seen seq, next
    /// seq)` pairs with `next > last + 1` — non-empty means lines were
    /// lost between the two (distinct from torn lines, which are
    /// present but unreadable). Unstamped lines (`seq` 0) never
    /// participate.
    pub gaps: Vec<(u64, u64)>,
}

impl ProgressReplay {
    /// The highest stamped sequence number in the stream (0 when no
    /// line is stamped) — the value a restarting writer resumes after.
    pub fn max_seq(&self) -> u64 {
        self.events.iter().map(|e| e.seq).max().unwrap_or(0)
    }
}

/// Replays every line of the progress stream at `path`, collecting the
/// complete events and **reporting** (not erroring on, not hiding)
/// every torn or corrupt line. A missing file replays as empty.
///
/// # Errors
///
/// Propagates filesystem failures other than the file being absent.
pub fn replay_progress(path: impl AsRef<Path>) -> std::io::Result<ProgressReplay> {
    replay_progress_with(&OsStorage, path)
}

/// [`replay_progress`] through an explicit [`Storage`].
///
/// # Errors
///
/// Propagates storage failures other than the file being absent.
pub fn replay_progress_with(
    storage: &dyn Storage,
    path: impl AsRef<Path>,
) -> std::io::Result<ProgressReplay> {
    let text = match storage.read(path.as_ref()) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ProgressReplay::default()),
        Err(e) => return Err(e),
    };
    let mut replay = ProgressReplay::default();
    let mut last_seq = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match JsonValue::parse(line).ok().as_ref().and_then(ProgressEvent::from_json) {
            Some(event) => {
                if event.seq > 0 {
                    if last_seq > 0 && event.seq > last_seq + 1 {
                        replay.gaps.push((last_seq, event.seq));
                    }
                    last_seq = last_seq.max(event.seq);
                }
                replay.events.push(event);
            }
            None => replay.torn.push((i + 1, line.to_string())),
        }
    }
    Ok(replay)
}

/// Stamps monotonic `seq` numbers onto progress events and appends them
/// under one lock, so lines appended concurrently from worker threads
/// carry sequence numbers in file order — the property
/// [`replay_progress`]'s gap detection relies on. Seqs are 1-based;
/// a restarting writer resumes from [`ProgressReplay::max_seq`].
#[derive(Debug)]
pub struct ProgressLog {
    last: std::sync::Mutex<u64>,
}

impl ProgressLog {
    /// A log whose next stamped seq is `last + 1`. Pass 0 for a fresh
    /// stream, or the replay's [`ProgressReplay::max_seq`] on restart.
    pub fn resuming_after(last: u64) -> ProgressLog {
        ProgressLog { last: std::sync::Mutex::new(last) }
    }

    /// Stamps the next seq onto `event` and appends it to `path`
    /// through `storage`, all under the log's lock. Returns the stamped
    /// seq. A poisoned lock is recovered, not propagated.
    ///
    /// # Errors
    ///
    /// Propagates storage failures; the seq is consumed either way, so
    /// a failed append surfaces as a gap to tail-followers rather than
    /// a silently reused number.
    pub fn append(
        &self,
        storage: &dyn Storage,
        path: &Path,
        event: &mut ProgressEvent,
    ) -> std::io::Result<u64> {
        let mut last = self.last.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *last += 1;
        event.seq = *last;
        storage.append_line(path, &event.to_json().to_string())?;
        Ok(*last)
    }

    /// The last seq this log stamped (or was seeded with).
    pub fn last_seq(&self) -> u64 {
        *self.last.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Reads every complete progress line from `path`. Unparseable lines
/// (a torn final line after a crash) are skipped, not errors; a missing
/// file reads as empty. Callers that should *surface* torn lines use
/// [`replay_progress`] instead.
///
/// # Errors
///
/// Propagates filesystem failures other than the file being absent.
pub fn read_progress(path: impl AsRef<Path>) -> std::io::Result<Vec<ProgressEvent>> {
    Ok(replay_progress(path)?.events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::atomic_write_file;
    use std::io::Write;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pearl-telemetry-journal-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sealed_round_trip_and_tamper_detection() {
        let dir = scratch("seal");
        let path = dir.join("journal.json");
        let payload = JsonValue::obj(vec![
            ("jobs", JsonValue::Arr(vec![JsonValue::str("a"), JsonValue::str("b")])),
            ("pass", JsonValue::u64(3)),
        ]);
        write_sealed(&path, "serve-journal", &payload).unwrap();
        assert_eq!(read_sealed(&path, "serve-journal").unwrap(), payload);

        // A foreign kind is rejected before the payload is looked at.
        assert!(matches!(read_sealed(&path, "other"), Err(SnapshotError::KindMismatch { .. })));

        // Flip a payload byte: the seal catches it.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"pass\":3", "\"pass\":4")).unwrap();
        assert!(matches!(
            read_sealed(&path, "serve-journal"),
            Err(SnapshotError::HashMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_envelope_bytes_match_the_object_rendering() {
        let dir = scratch("seal-bytes");
        let path = dir.join("bundle.json");
        let payload = JsonValue::obj(vec![
            ("trace", JsonValue::str("{\"event\":\"fault\",\"at\":3}\n\t\u{1}é中😀\u{2028}\\")),
            (
                "nested",
                JsonValue::obj(vec![
                    ("quote\"key", JsonValue::Arr(vec![JsonValue::Num(0.5), JsonValue::Null])),
                    ("ok", JsonValue::Bool(true)),
                ]),
            ),
            ("dropped", JsonValue::str("0")),
        ]);
        let kind = "serve-\"resume\"";
        write_sealed_with(&OsStorage, &path, kind, &payload).unwrap();
        let envelope = JsonValue::obj(vec![
            ("version", JsonValue::u64(JOURNAL_VERSION)),
            ("kind", JsonValue::str(kind)),
            ("payload_hash", JsonValue::str(fingerprint(&payload.to_string()).to_string())),
            ("payload", payload.clone()),
        ]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{envelope}\n"));
        assert_eq!(read_sealed(&path, kind).unwrap(), payload);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_rejects_other_versions() {
        let dir = scratch("version");
        let path = dir.join("journal.json");
        let doc = JsonValue::obj(vec![
            ("version", JsonValue::u64(JOURNAL_VERSION + 1)),
            ("kind", JsonValue::str("serve-journal")),
            ("payload_hash", JsonValue::str("0")),
            ("payload", JsonValue::Null),
        ]);
        atomic_write_file(&path, &doc.to_string()).unwrap();
        assert!(matches!(
            read_sealed(&path, "serve-journal"),
            Err(SnapshotError::VersionMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_events_round_trip_and_tolerate_torn_tails() {
        let dir = scratch("progress");
        let path = dir.join("progress.jsonl");
        let mut started = ProgressEvent::new("job-a", "started");
        started.attempt = 1;
        let mut ck = ProgressEvent::new("job-a", "checkpointed");
        ck.attempt = 1;
        ck.cycle = 5_000;
        ck.delivered = 1_234;
        ck.detail = "state/job-a.resume.json".into();
        append_progress(&path, &started).unwrap();
        append_progress(&path, &ck).unwrap();
        // Simulate a crash mid-append: a torn, unparseable final line.
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"job\":\"job-a\",\"kind\":\"comp").unwrap();
        }
        let events = read_progress(&path).unwrap();
        assert_eq!(events, vec![started, ck]);
        // A missing stream reads as empty, not an error.
        assert_eq!(read_progress(dir.join("absent.jsonl")).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_reports_a_line_truncated_mid_write() {
        let dir = scratch("replay-torn");
        let path = dir.join("progress.jsonl");
        let a = ProgressEvent::new("job-a", "started");
        let b = ProgressEvent::new("job-a", "completed");
        append_progress(&path, &a).unwrap();
        append_progress(&path, &b).unwrap();
        // Truncate mid-line: chop the file inside the final record.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 9;
        std::fs::write(&path, &text[..cut]).unwrap();
        let replay = replay_progress(&path).unwrap();
        assert_eq!(replay.events, vec![a.clone()], "only the complete line survives");
        assert_eq!(replay.torn.len(), 1, "the torn tail is reported, not hidden");
        assert_eq!(replay.torn[0].0, 2);
        assert!(replay.torn[0].1.starts_with("{\"seq\":\"0\",\"job\":\"job-a\""));
        // The lenient reader sees the same events, minus the report.
        assert_eq!(read_progress(&path).unwrap(), vec![a]);
        // A missing stream replays as empty with no torn lines.
        let empty = replay_progress(dir.join("absent.jsonl")).unwrap();
        assert_eq!(empty, ProgressReplay::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_log_stamps_monotonic_seqs_and_replay_detects_gaps() {
        let dir = scratch("seq");
        let path = dir.join("progress.jsonl");
        let log = ProgressLog::resuming_after(0);
        let mut a = ProgressEvent::new("job-a", "accepted");
        let mut b = ProgressEvent::new("job-a", "started");
        assert_eq!(log.append(&OsStorage, &path, &mut a).unwrap(), 1);
        assert_eq!(log.append(&OsStorage, &path, &mut b).unwrap(), 2);
        assert_eq!((a.seq, b.seq), (1, 2));

        let replay = replay_progress(&path).unwrap();
        assert_eq!(replay.events, vec![a, b]);
        assert!(replay.gaps.is_empty());
        assert_eq!(replay.max_seq(), 2);

        // A writer that skips seqs (a lost line) shows up as a gap.
        let mut d = ProgressEvent::new("job-a", "completed");
        d.seq = 5;
        append_progress(&path, &d).unwrap();
        let replay = replay_progress(&path).unwrap();
        assert_eq!(replay.gaps, vec![(2, 5)]);
        assert_eq!(replay.max_seq(), 5);

        // A restarted writer resumes after the highest stamped seq.
        let resumed = ProgressLog::resuming_after(replay.max_seq());
        let mut e = ProgressEvent::new("job-b", "accepted");
        assert_eq!(resumed.append(&OsStorage, &path, &mut e).unwrap(), 6);
        assert!(replay_progress(&path).unwrap().gaps == vec![(2, 5)], "no new gap after resume");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unstamped_legacy_lines_parse_with_seq_zero_and_never_gap() {
        let dir = scratch("legacy");
        let path = dir.join("progress.jsonl");
        // A pre-seq line (no "seq" field at all) still parses.
        OsStorage
            .append_line(
                &path,
                r#"{"job":"old","kind":"accepted","attempt":0,"cycle":"0","delivered":"0","detail":""}"#,
            )
            .unwrap();
        let mut stamped = ProgressEvent::new("new", "accepted");
        ProgressLog::resuming_after(0).append(&OsStorage, &path, &mut stamped).unwrap();
        let replay = replay_progress(&path).unwrap();
        assert_eq!(replay.events.len(), 2);
        assert_eq!(replay.events[0].seq, 0);
        assert_eq!(replay.events[1].seq, 1);
        assert!(replay.gaps.is_empty(), "seq-0 lines never participate in gap detection");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_append_then_glued_line_is_reported_and_later_lines_survive() {
        let dir = scratch("replay-glue");
        let path = dir.join("progress.jsonl");
        let a = ProgressEvent::new("job-a", "started");
        let c = ProgressEvent::new("job-a", "completed");
        append_progress(&path, &a).unwrap();
        // A torn append leaves half a line with no newline; the next
        // successful append glues onto it, corrupting one line.
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"job\":\"job-a\",\"ki").unwrap();
        }
        append_progress(&path, &c).unwrap();
        let replay = replay_progress(&path).unwrap();
        assert_eq!(replay.events, vec![a]);
        assert_eq!(replay.torn.len(), 1);
        assert!(replay.torn[0].1.contains("\"ki{"), "glued line reported verbatim");
        std::fs::remove_dir_all(&dir).ok();
    }
}
