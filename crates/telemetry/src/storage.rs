//! Pluggable storage with deterministic fault injection.
//!
//! Every persistence path in the workspace — checkpoints, sealed
//! journals, progress streams, manifests, traces, the `pearl-serve`
//! spool — funnels through the [`Storage`] trait: each reader and
//! writer takes the storage it goes through as its first argument.
//! Production code uses [`OsStorage`] (the real filesystem, with the
//! atomic tmp-then-rename write of [`Storage::write_atomic`]); tests
//! and the `chaos --disk` crash-point explorer substitute a [`FaultStorage`]
//! that injects failures from a **deterministic schedule**:
//!
//! - `fail@N` — the N-th storage operation fails outright (a rename
//!   failure, a permission error, a bad disk);
//! - `torn@N` — the N-th write is *torn*: roughly half the bytes land
//!   on disk (a partial `.tmp` file for atomic writes, a half line
//!   with no trailing newline for appends) and the op reports failure.
//!   This is the on-disk state a real crash mid-write leaves behind;
//! - `eintr@N` / `enospc@N[xK]` — transient `EINTR` / `ENOSPC`-style
//!   errors (optionally a burst of K consecutive ops) that a
//!   [`RetryStorage`] recovers from;
//! - `crash@K` — every operation after the K-th fails permanently,
//!   freezing the on-disk state exactly as it was after op K. The
//!   explorer restarts the daemon against a clean [`OsStorage`] and
//!   asserts the recovery invariants.
//!
//! The same seed + schedule always produces the same fault sequence
//! (pinned by tests and byte-compared via
//! [`FaultStorage::fault_log_text`]), so every chaos finding is
//! replayable. [`RetryStorage`] layers bounded exponential retry over
//! any storage, converting transient faults into slow successes and
//! exhausted budgets into a typed [`RetryExhausted`] give-up error
//! instead of a panic.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Object-safe file-storage surface used by every artifact writer and
/// reader in the workspace. Implementations must be thread-safe: the
/// serve daemon shares one storage across pool workers.
pub trait Storage: Send + Sync {
    /// Writes `contents` to `path` atomically (tmp-then-rename in the
    /// same directory, the tmp fsynced before the rename, parents
    /// created): readers observe either the previous complete file or
    /// the new one, never a hybrid.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; no `.tmp` residue is left on
    /// error (injected *torn* writes deliberately violate this to
    /// simulate a crash mid-write).
    fn write_atomic(&self, path: &Path, contents: &str) -> std::io::Result<()>;

    /// Appends `line` plus a trailing newline to `path` in one write
    /// call, creating the file and parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn append_line(&self, path: &Path, line: &str) -> std::io::Result<()>;

    /// Reads the file at `path` to a string.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (including `NotFound`).
    fn read(&self, path: &Path) -> std::io::Result<String>;

    /// Renames `from` to `to` (same filesystem).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn remove(&self, path: &Path) -> std::io::Result<()>;

    /// Lists the entries of `dir`, sorted by path for determinism. A
    /// missing directory lists as empty, not an error.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures other than `NotFound`.
    fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>>;

    /// Whether a filesystem entry exists at `path`. Metadata-only:
    /// implementations do not count or fault this probe (a pure
    /// existence check cannot tear state).
    fn exists(&self, path: &Path) -> bool;
}

// ---------------------------------------------------------------------------
// Error classification
// ---------------------------------------------------------------------------

/// Whether an I/O error is *transient* — the class a bounded retry is
/// allowed to absorb: `EINTR`, `ENOSPC`-style pressure, would-block and
/// timeout conditions.
pub fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::StorageFull
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Marker payload for a simulated crash: once a [`FaultStorage`]
/// crosses its `crash@K` point, every operation fails with an error
/// wrapping this type so callers (and tests) can tell a simulated
/// crash from a genuine fault.
#[derive(Debug)]
pub struct InjectedCrash {
    /// The op index after which the simulated crash occurred.
    pub after_op: u64,
}

impl fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulated crash: storage frozen after op {}", self.after_op)
    }
}

impl std::error::Error for InjectedCrash {}

/// Whether an I/O error is a simulated [`InjectedCrash`] from a
/// [`FaultStorage`] (directly or wrapped in a [`RetryExhausted`]).
pub fn is_injected_crash(e: &std::io::Error) -> bool {
    let mut source: Option<&(dyn std::error::Error + 'static)> =
        e.get_ref().map(|inner| inner as _);
    while let Some(inner) = source {
        if inner.is::<InjectedCrash>() {
            return true;
        }
        source = inner.source();
    }
    false
}

/// Typed give-up error produced by [`RetryStorage`] when a transient
/// fault outlives the retry budget.
#[derive(Debug)]
pub struct RetryExhausted {
    /// The storage operation that kept failing (`"write_atomic"`, …).
    pub op: &'static str,
    /// The path the operation targeted.
    pub path: PathBuf,
    /// How many attempts were made before giving up.
    pub attempts: u32,
    /// The last underlying error.
    pub last: std::io::Error,
}

impl fmt::Display for RetryExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "storage {} on {} still failing after {} attempts: {}",
            self.op,
            self.path.display(),
            self.attempts,
            self.last
        )
    }
}

impl std::error::Error for RetryExhausted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.last)
    }
}

/// Whether an I/O error is a [`RetryExhausted`] give-up from a
/// [`RetryStorage`].
pub fn is_retry_exhausted(e: &std::io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<RetryExhausted>())
}

// ---------------------------------------------------------------------------
// OsStorage — the real filesystem
// ---------------------------------------------------------------------------

/// The production [`Storage`]: the real filesystem with atomic
/// tmp-then-rename writes, single-call appends and sorted listings.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsStorage;

impl OsStorage {
    /// A shareable handle, for threading through configs.
    pub fn shared() -> Arc<dyn Storage> {
        Arc::new(OsStorage)
    }

    /// The temporary-file sibling used by [`Storage::write_atomic`] for
    /// `path`: `.{file_name}.tmp.{pid}` in the same directory. The
    /// startup scavenger matches this shape when sweeping orphans.
    ///
    /// # Errors
    ///
    /// Fails when `path` has no file name.
    pub fn tmp_sibling(path: &Path) -> std::io::Result<PathBuf> {
        let file_name = path
            .file_name()
            .ok_or_else(|| std::io::Error::other("atomic write target has no file name"))?;
        let mut tmp = path.to_path_buf();
        tmp.set_file_name(format!(".{}.tmp.{}", file_name.to_string_lossy(), std::process::id()));
        Ok(tmp)
    }

    /// Whether `file_name` looks like a [`Self::tmp_sibling`] of any
    /// writer (any pid): a leading dot and a `.tmp.` infix.
    pub fn is_tmp_name(file_name: &str) -> bool {
        file_name.starts_with('.') && file_name.contains(".tmp.")
    }

    fn ensure_parent(path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(())
    }
}

impl Storage for OsStorage {
    fn write_atomic(&self, path: &Path, contents: &str) -> std::io::Result<()> {
        Self::ensure_parent(path)?;
        let tmp = Self::tmp_sibling(path)?;
        let result = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(contents.as_bytes())?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }

    fn append_line(&self, path: &Path, line: &str) -> std::io::Result<()> {
        Self::ensure_parent(path)?;
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(format!("{line}\n").as_bytes())
    }

    fn read(&self, path: &Path) -> std::io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut paths = Vec::new();
        for entry in entries {
            paths.push(entry?.path());
        }
        paths.sort();
        Ok(paths)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------------
// Fault schedules
// ---------------------------------------------------------------------------

/// One injected fault kind at a scheduled operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The op fails outright without touching disk (permanent error).
    Fail,
    /// The op writes roughly half its bytes, then reports failure —
    /// the state a crash mid-write leaves behind. Non-write ops treat
    /// this as [`FaultKind::Fail`].
    Torn,
    /// Transient `ENOSPC`-style pressure ([`std::io::ErrorKind::StorageFull`]).
    Enospc,
    /// Transient `EINTR` ([`std::io::ErrorKind::Interrupted`]).
    Eintr,
}

impl FaultKind {
    /// Stable lowercase name used by [`FaultSchedule::parse`] and the
    /// fault log.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Fail => "fail",
            FaultKind::Torn => "torn",
            FaultKind::Enospc => "enospc",
            FaultKind::Eintr => "eintr",
        }
    }

    fn from_name(name: &str) -> Option<FaultKind> {
        match name {
            "fail" => Some(FaultKind::Fail),
            "torn" => Some(FaultKind::Torn),
            "enospc" => Some(FaultKind::Enospc),
            "eintr" => Some(FaultKind::Eintr),
            _ => None,
        }
    }

    fn to_error(self) -> std::io::Error {
        match self {
            FaultKind::Fail => std::io::Error::other("injected storage failure"),
            FaultKind::Torn => std::io::Error::other("injected torn write"),
            FaultKind::Enospc => std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "injected ENOSPC: no space left on device",
            ),
            FaultKind::Eintr => std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected EINTR: interrupted system call",
            ),
        }
    }
}

/// A deterministic fault plan: op-indexed faults plus an optional
/// crash point. Operation indices are 0-based in the order a single
/// [`FaultStorage`] executes them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Faults keyed by the 0-based operation index they fire at.
    pub faults: BTreeMap<u64, FaultKind>,
    /// When `Some(k)`, every operation with index `>= k` fails with an
    /// [`InjectedCrash`] error: the on-disk state freezes exactly as it
    /// was after the first `k` ops (crash-after-op-K semantics).
    pub crash_at: Option<u64>,
}

impl FaultSchedule {
    /// An empty schedule (no faults; useful for op counting).
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// A schedule that crashes after the first `k` operations succeed.
    pub fn crash_after(k: u64) -> FaultSchedule {
        FaultSchedule { faults: BTreeMap::new(), crash_at: Some(k) }
    }

    /// Adds one fault at `index` (builder style).
    #[must_use]
    pub fn with_fault(mut self, index: u64, kind: FaultKind) -> FaultSchedule {
        self.faults.insert(index, kind);
        self
    }

    /// Parses a comma-separated spec: `kind@index` tokens (kinds
    /// `fail` / `torn` / `enospc` / `eintr`), an optional `xCOUNT`
    /// burst suffix (`enospc@12x3` = ops 12,13,14), and `crash@K` for
    /// the crash point. Example: `"fail@7,enospc@12x3,torn@30,crash@40"`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the offending token.
    pub fn parse(spec: &str) -> Result<FaultSchedule, String> {
        let mut schedule = FaultSchedule::none();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, at) = token
                .split_once('@')
                .ok_or_else(|| format!("fault token {token:?} is not kind@index"))?;
            let (index, count) = match at.split_once('x') {
                Some((index, count)) => (
                    index
                        .parse::<u64>()
                        .map_err(|_| format!("bad op index in fault token {token:?}"))?,
                    count
                        .parse::<u64>()
                        .map_err(|_| format!("bad burst count in fault token {token:?}"))?,
                ),
                None => (
                    at.parse::<u64>()
                        .map_err(|_| format!("bad op index in fault token {token:?}"))?,
                    1,
                ),
            };
            if kind == "crash" {
                schedule.crash_at = Some(index);
                continue;
            }
            let kind = FaultKind::from_name(kind)
                .ok_or_else(|| format!("unknown fault kind in token {token:?}"))?;
            for i in index..index.saturating_add(count) {
                schedule.faults.insert(i, kind);
            }
        }
        Ok(schedule)
    }

    /// A seeded random schedule of **transient** faults (`eintr` /
    /// `enospc`) over the first `ops` operations at roughly `rate`
    /// faults per op. Same seed, same schedule — always. Only
    /// transient kinds are drawn so a retry-wrapped run completes with
    /// byte-identical artifacts.
    pub fn seeded(seed: u64, ops: u64, rate: f64) -> FaultSchedule {
        let mut rng = pearl_noc::SimRng::from_seed(seed);
        let threshold = (rate.clamp(0.0, 1.0) * 1_000_000.0) as u64;
        let mut schedule = FaultSchedule::none();
        for i in 0..ops {
            if rng.next_u64() % 1_000_000 < threshold {
                let kind = if rng.next_u64().is_multiple_of(2) {
                    FaultKind::Eintr
                } else {
                    FaultKind::Enospc
                };
                schedule.faults.insert(i, kind);
            }
        }
        schedule
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (index, kind) in &self.faults {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{}@{index}", kind.name())?;
            first = false;
        }
        if let Some(k) = self.crash_at {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "crash@{k}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FaultStorage — deterministic fault injection
// ---------------------------------------------------------------------------

/// One executed storage operation, recorded when tracing is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// 0-based operation index.
    pub index: u64,
    /// Operation name (`"write_atomic"`, `"append_line"`, …).
    pub op: &'static str,
    /// Target path, lossy-rendered.
    pub path: String,
}

/// One injected fault, recorded in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// 0-based operation index the fault fired at.
    pub index: u64,
    /// Operation name the fault hit.
    pub op: &'static str,
    /// Target path, lossy-rendered.
    pub path: String,
    /// The injected kind.
    pub kind: FaultKind,
}

struct FaultState {
    schedule: FaultSchedule,
    next_op: u64,
    crashed: bool,
    trace_ops: bool,
    op_log: Vec<OpRecord>,
    fault_log: Vec<FaultRecord>,
}

/// A [`Storage`] wrapper around the real filesystem that injects
/// faults from a deterministic [`FaultSchedule`]. Operations are
/// indexed in execution order under one internal lock, so a
/// single-threaded (`--jobs 1`) run always sees the same op↔fault
/// alignment; multi-threaded runs stay *recoverable* (every fault is
/// still drawn from the schedule) even though indices interleave.
pub struct FaultStorage {
    inner: OsStorage,
    state: Mutex<FaultState>,
}

enum Injection {
    None,
    Fault(FaultKind),
}

impl FaultStorage {
    /// Wraps the real filesystem with `schedule`.
    pub fn new(schedule: FaultSchedule) -> FaultStorage {
        FaultStorage {
            inner: OsStorage,
            state: Mutex::new(FaultState {
                schedule,
                next_op: 0,
                crashed: false,
                trace_ops: false,
                op_log: Vec::new(),
                fault_log: Vec::new(),
            }),
        }
    }

    /// A fault-free counting storage that records every operation in
    /// its op log — the `chaos --disk` golden pass uses this to learn
    /// the total op count and which indices are writes vs. renames.
    pub fn counting() -> FaultStorage {
        let storage = FaultStorage::new(FaultSchedule::none());
        storage.state.lock().expect("fault state lock").trace_ops = true;
        storage
    }

    /// Enables per-op tracing (see [`Self::op_log`]).
    #[must_use]
    pub fn with_op_trace(self) -> FaultStorage {
        self.state.lock().expect("fault state lock").trace_ops = true;
        self
    }

    /// Total operations indexed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("fault state lock").next_op
    }

    /// The recorded operations (empty unless tracing was enabled).
    pub fn op_log(&self) -> Vec<OpRecord> {
        self.state.lock().expect("fault state lock").op_log.clone()
    }

    /// The faults injected so far, in execution order.
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        self.state.lock().expect("fault state lock").fault_log.clone()
    }

    /// Stable one-line-per-fault rendering of the fault log, for
    /// byte-exact determinism comparisons across runs.
    pub fn fault_log_text(&self) -> String {
        let state = self.state.lock().expect("fault state lock");
        let mut out = String::new();
        for record in &state.fault_log {
            out.push_str(&format!(
                "{} {} {} {}\n",
                record.index,
                record.kind.name(),
                record.op,
                record.path
            ));
        }
        out
    }

    /// Whether the simulated crash point has been crossed.
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("fault state lock").crashed
    }

    /// Indexes one operation and decides its fate. Past the crash
    /// point every op fails with an [`InjectedCrash`] error and the
    /// filesystem is left untouched.
    fn begin(&self, op: &'static str, path: &Path) -> std::io::Result<Injection> {
        let mut state = self.state.lock().expect("fault state lock");
        if state.crashed {
            let after_op = state.schedule.crash_at.unwrap_or(0);
            return Err(std::io::Error::other(InjectedCrash { after_op }));
        }
        let index = state.next_op;
        state.next_op += 1;
        if state.trace_ops {
            state.op_log.push(OpRecord { index, op, path: path.display().to_string() });
        }
        if let Some(k) = state.schedule.crash_at {
            if index >= k {
                state.crashed = true;
                return Err(std::io::Error::other(InjectedCrash { after_op: k }));
            }
        }
        if let Some(kind) = state.schedule.faults.get(&index).copied() {
            state.fault_log.push(FaultRecord { index, op, path: path.display().to_string(), kind });
            return Ok(Injection::Fault(kind));
        }
        Ok(Injection::None)
    }
}

impl Storage for FaultStorage {
    fn write_atomic(&self, path: &Path, contents: &str) -> std::io::Result<()> {
        match self.begin("write_atomic", path)? {
            Injection::None => self.inner.write_atomic(path, contents),
            Injection::Fault(FaultKind::Torn) => {
                // Leave the partial tmp file a crash mid-write would:
                // half the bytes, never renamed into place.
                OsStorage::ensure_parent(path)?;
                let tmp = OsStorage::tmp_sibling(path)?;
                let torn = &contents.as_bytes()[..contents.len() / 2];
                std::fs::write(&tmp, torn)?;
                Err(FaultKind::Torn.to_error())
            }
            Injection::Fault(kind) => Err(kind.to_error()),
        }
    }

    fn append_line(&self, path: &Path, line: &str) -> std::io::Result<()> {
        match self.begin("append_line", path)? {
            Injection::None => self.inner.append_line(path, line),
            Injection::Fault(FaultKind::Torn) => {
                // Half the line, no newline — the torn tail readers
                // must skip-and-report.
                OsStorage::ensure_parent(path)?;
                let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
                file.write_all(&line.as_bytes()[..line.len() / 2])?;
                Err(FaultKind::Torn.to_error())
            }
            Injection::Fault(kind) => Err(kind.to_error()),
        }
    }

    fn read(&self, path: &Path) -> std::io::Result<String> {
        match self.begin("read", path)? {
            Injection::None => self.inner.read(path),
            Injection::Fault(kind) => Err(kind.to_error()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        match self.begin("rename", from)? {
            Injection::None => self.inner.rename(from, to),
            Injection::Fault(kind) => Err(kind.to_error()),
        }
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        match self.begin("remove", path)? {
            Injection::None => self.inner.remove(path),
            Injection::Fault(kind) => Err(kind.to_error()),
        }
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        match self.begin("list", dir)? {
            Injection::None => self.inner.list(dir),
            Injection::Fault(kind) => Err(kind.to_error()),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        // Metadata-only probe: uncounted and unfaulted by design, so
        // crash-point indices stay stable across code that merely
        // checks for sentinels.
        self.inner.exists(path)
    }
}

// ---------------------------------------------------------------------------
// RetryStorage — bounded retry with backoff for transient faults
// ---------------------------------------------------------------------------

/// Retry budget for transient storage errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retry).
    pub attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub cap_ms: u64,
}

impl RetryPolicy {
    /// No retries: every error propagates immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy { attempts: 1, base_ms: 0, cap_ms: 0 }
    }

    /// Backoff before retry number `retry` (0-based), bounded by the
    /// cap: `min(cap, base << retry)`.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let shifted = self.base_ms.checked_shl(retry).unwrap_or(u64::MAX);
        shifted.min(self.cap_ms)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { attempts: 3, base_ms: 5, cap_ms: 100 }
    }
}

/// A [`Storage`] decorator that retries transient errors (per
/// [`is_transient`]) with bounded exponential backoff, and converts an
/// exhausted budget into a typed [`RetryExhausted`] error. Permanent
/// errors (including [`InjectedCrash`]) propagate on the first try.
pub struct RetryStorage {
    inner: Arc<dyn Storage>,
    policy: RetryPolicy,
}

impl RetryStorage {
    /// Wraps `inner` with `policy`.
    pub fn new(inner: Arc<dyn Storage>, policy: RetryPolicy) -> RetryStorage {
        RetryStorage { inner, policy }
    }

    fn run<T>(
        &self,
        op: &'static str,
        path: &Path,
        mut call: impl FnMut() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let attempts = self.policy.attempts.max(1);
        let mut retry = 0u32;
        loop {
            match call() {
                Ok(value) => return Ok(value),
                Err(e) if is_transient(&e) && retry + 1 < attempts => {
                    let backoff = self.policy.backoff_ms(retry);
                    if backoff > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(backoff));
                    }
                    retry += 1;
                }
                Err(e) if is_transient(&e) => {
                    return Err(std::io::Error::other(RetryExhausted {
                        op,
                        path: path.to_path_buf(),
                        attempts,
                        last: e,
                    }));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Storage for RetryStorage {
    fn write_atomic(&self, path: &Path, contents: &str) -> std::io::Result<()> {
        self.run("write_atomic", path, || self.inner.write_atomic(path, contents))
    }

    fn append_line(&self, path: &Path, line: &str) -> std::io::Result<()> {
        self.run("append_line", path, || self.inner.append_line(path, line))
    }

    fn read(&self, path: &Path) -> std::io::Result<String> {
        self.run("read", path, || self.inner.read(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.run("rename", from, || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.run("remove", path, || self.inner.remove(path))
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.run("list", dir, || self.inner.list(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pearl-telemetry-storage-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn os_storage_write_read_list_round_trip() {
        let dir = scratch("os");
        let storage = OsStorage;
        let a = dir.join("sub").join("a.json");
        let b = dir.join("sub").join("b.json");
        storage.write_atomic(&a, "alpha").unwrap();
        storage.write_atomic(&b, "beta").unwrap();
        assert_eq!(storage.read(&a).unwrap(), "alpha");
        assert_eq!(storage.list(&dir.join("sub")).unwrap(), vec![a.clone(), b.clone()]);
        assert!(storage.exists(&a));
        storage.remove(&a).unwrap();
        assert!(!storage.exists(&a));
        // Missing directory lists as empty.
        assert!(storage.list(&dir.join("absent")).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schedule_parses_and_round_trips_through_display() {
        let schedule = FaultSchedule::parse("fail@7,enospc@12x3,torn@30,crash@40").unwrap();
        assert_eq!(schedule.faults.get(&7), Some(&FaultKind::Fail));
        for i in 12..15 {
            assert_eq!(schedule.faults.get(&i), Some(&FaultKind::Enospc));
        }
        assert_eq!(schedule.faults.get(&30), Some(&FaultKind::Torn));
        assert_eq!(schedule.crash_at, Some(40));
        assert_eq!(FaultSchedule::parse(&schedule.to_string()).unwrap(), schedule);
        assert!(FaultSchedule::parse("bogus@1").is_err());
        assert!(FaultSchedule::parse("fail").is_err());
        assert!(FaultSchedule::parse("fail@x").is_err());
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let a = FaultSchedule::seeded(42, 500, 0.05);
        let b = FaultSchedule::seeded(42, 500, 0.05);
        assert_eq!(a, b);
        assert!(!a.faults.is_empty(), "5% of 500 ops should draw some faults");
        assert!(a.faults.values().all(|k| matches!(k, FaultKind::Eintr | FaultKind::Enospc)));
        let c = FaultSchedule::seeded(43, 500, 0.05);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn fault_storage_injects_deterministically_and_logs() {
        let dir = scratch("inject");
        let run = |dir: &Path| {
            let storage =
                FaultStorage::new(FaultSchedule::parse("fail@1,eintr@3").unwrap()).with_op_trace();
            let target = dir.join("f.json");
            storage.write_atomic(&target, "one").unwrap(); // op 0
            let err = storage.write_atomic(&target, "two").unwrap_err(); // op 1: fail
            assert!(!is_transient(&err));
            storage.write_atomic(&target, "three").unwrap(); // op 2
            let err = storage.append_line(&target, "x").unwrap_err(); // op 3: eintr
            assert!(is_transient(&err));
            assert_eq!(storage.ops(), 4);
            storage.fault_log_text()
        };
        let first = run(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let dir = scratch("inject");
        let second = run(&dir);
        assert_eq!(first, second, "same schedule must produce a byte-identical fault log");
        assert!(first.contains("1 fail write_atomic"));
        assert!(first.contains("3 eintr append_line"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_point_freezes_all_subsequent_ops() {
        let dir = scratch("crash");
        let storage = FaultStorage::new(FaultSchedule::crash_after(2));
        let target = dir.join("f.json");
        storage.write_atomic(&target, "one").unwrap(); // op 0
        storage.write_atomic(&target, "two").unwrap(); // op 1
        let err = storage.write_atomic(&target, "three").unwrap_err(); // op 2: crash
        assert!(is_injected_crash(&err));
        assert!(storage.crashed());
        // Everything after the crash keeps failing; disk is frozen.
        let err = storage.read(&target).unwrap_err();
        assert!(is_injected_crash(&err));
        let err = storage.list(&dir).unwrap_err();
        assert!(is_injected_crash(&err));
        assert_eq!(std::fs::read_to_string(&target).unwrap(), "two");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_failure_leaves_no_tmp_orphan() {
        let dir = scratch("orphan");
        let storage = FaultStorage::new(FaultSchedule::none().with_fault(0, FaultKind::Fail));
        let err = storage.write_atomic(&dir.join("f.json"), "contents").unwrap_err();
        assert!(!is_injected_crash(&err));
        let orphans: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| OsStorage::is_tmp_name(&e.file_name().to_string_lossy()))
            .collect();
        assert!(orphans.is_empty(), "fail-fault must not leave tmp files: {orphans:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_leaves_partial_tmp_for_the_scavenger() {
        let dir = scratch("torn");
        let storage = FaultStorage::new(FaultSchedule::none().with_fault(0, FaultKind::Torn));
        let target = dir.join("f.json");
        storage.write_atomic(&target, "0123456789").unwrap_err();
        assert!(!storage.exists(&target), "torn write must never reach the target");
        let tmp = OsStorage::tmp_sibling(&target).unwrap();
        assert_eq!(std::fs::read_to_string(&tmp).unwrap(), "01234");
        assert!(OsStorage::is_tmp_name(&tmp.file_name().unwrap().to_string_lossy()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_append_leaves_half_line_without_newline() {
        let dir = scratch("torn-append");
        let storage = FaultStorage::new(FaultSchedule::none().with_fault(1, FaultKind::Torn));
        let target = dir.join("p.jsonl");
        storage.append_line(&target, "{\"ok\":1}").unwrap(); // op 0
        storage.append_line(&target, "{\"ok\":2}").unwrap_err(); // op 1: torn
        let text = std::fs::read_to_string(&target).unwrap();
        assert!(text.starts_with("{\"ok\":1}\n"));
        assert!(!text.ends_with('\n'), "torn tail must lack its newline");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_storage_absorbs_transient_bursts() {
        let dir = scratch("retry");
        let inner = Arc::new(FaultStorage::new(FaultSchedule::parse("eintr@0,enospc@1").unwrap()));
        let storage =
            RetryStorage::new(inner.clone(), RetryPolicy { attempts: 3, base_ms: 0, cap_ms: 0 });
        // Two consecutive transient faults, three attempts: succeeds.
        storage.write_atomic(&dir.join("f.json"), "done").unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("f.json")).unwrap(), "done");
        assert_eq!(inner.fault_log().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_storage_gives_up_with_typed_error() {
        let dir = scratch("giveup");
        let inner = Arc::new(FaultStorage::new(FaultSchedule::parse("enospc@0x5").unwrap()));
        let storage = RetryStorage::new(inner, RetryPolicy { attempts: 3, base_ms: 0, cap_ms: 0 });
        let err = storage.write_atomic(&dir.join("f.json"), "never").unwrap_err();
        assert!(is_retry_exhausted(&err), "{err}");
        assert!(err.to_string().contains("after 3 attempts"), "{err}");
        assert!(!dir.join("f.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_storage_does_not_retry_permanent_or_crash_errors() {
        let dir = scratch("permanent");
        let inner =
            Arc::new(FaultStorage::new(FaultSchedule::none().with_fault(0, FaultKind::Fail)));
        let storage =
            RetryStorage::new(inner.clone(), RetryPolicy { attempts: 5, base_ms: 0, cap_ms: 0 });
        storage.write_atomic(&dir.join("f.json"), "x").unwrap_err();
        assert_eq!(inner.ops(), 1, "permanent errors must not be retried");

        let crashy = Arc::new(FaultStorage::new(FaultSchedule::crash_after(0)));
        let storage =
            RetryStorage::new(crashy.clone(), RetryPolicy { attempts: 5, base_ms: 0, cap_ms: 0 });
        let err = storage.write_atomic(&dir.join("g.json"), "x").unwrap_err();
        assert!(is_injected_crash(&err));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let policy = RetryPolicy { attempts: 10, base_ms: 5, cap_ms: 40 };
        assert_eq!(policy.backoff_ms(0), 5);
        assert_eq!(policy.backoff_ms(1), 10);
        assert_eq!(policy.backoff_ms(2), 20);
        assert_eq!(policy.backoff_ms(3), 40);
        assert_eq!(policy.backoff_ms(4), 40);
        assert_eq!(policy.backoff_ms(63), 40);
        assert_eq!(policy.backoff_ms(64), 40, "shift overflow must saturate, not wrap");
    }

    #[test]
    fn counting_storage_records_every_op() {
        let dir = scratch("count");
        let storage = FaultStorage::counting();
        storage.write_atomic(&dir.join("a"), "1").unwrap();
        storage.append_line(&dir.join("b"), "2").unwrap();
        storage.read(&dir.join("a")).unwrap();
        storage.rename(&dir.join("a"), &dir.join("c")).unwrap();
        storage.list(&dir).unwrap();
        storage.remove(&dir.join("c")).unwrap();
        let log = storage.op_log();
        assert_eq!(log.len(), 6);
        assert_eq!(
            log.iter().map(|r| r.op).collect::<Vec<_>>(),
            vec!["write_atomic", "append_line", "read", "rename", "list", "remove"]
        );
        assert_eq!(log.iter().map(|r| r.index).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
