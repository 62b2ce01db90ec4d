//! Process-level post-mortem plumbing over the telemetry
//! [`FlightRecorder`].
//!
//! The telemetry crate owns the ring buffer and the sealed `flightrec
//! v1` artifact; this module owns the two *process* questions: **when**
//! to dump (a panic anywhere in the process, or a watchdog
//! [`StallError`]) and **where** (a `flightrec_<bin>_<ts>.json` next to
//! the bin's other state, named so an operator can tell post-mortems of
//! different binaries and incidents apart).
//!
//! [`FlightGuard::install`] chains onto the existing panic hook rather
//! than replacing it, so the standard panic message still prints, and a
//! process-wide once-flag keeps a retried poison job from burying the
//! first (most interesting) post-mortem under later ones. The hook path
//! deliberately writes through [`OsStorage`] even when the owning
//! harness routes everything else through fault injection: a post-mortem
//! of a fault-injection run must not itself be fault-injected away.

use crate::watchdog::StallError;
use pearl_telemetry::{FlightRecorder, OsStorage, Shared, Storage};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Milliseconds since the UNIX epoch (0 if the clock reads earlier).
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// A free `flightrec_<bin>_<ts>.json` path under `dir`. Timestamps are
/// milliseconds; if two dumps land on the same millisecond the suffix
/// is bumped until the name is free, so a wave of simultaneous stalls
/// cannot overwrite each other's post-mortems.
pub fn postmortem_path(storage: &dyn Storage, dir: &Path, bin: &str) -> PathBuf {
    let mut ts = now_ms();
    loop {
        let candidate = dir.join(format!("flightrec_{bin}_{ts}.json"));
        if !storage.exists(&candidate) {
            return candidate;
        }
        ts += 1;
    }
}

/// Dumps `recorder` as a stall post-mortem into `dir` and names the
/// artifact on stderr. Returns the path on success; a failed dump is
/// reported, not propagated — the stall itself is the primary error and
/// must keep flowing to the retry/quarantine machinery.
pub fn dump_stall(
    recorder: &Shared<FlightRecorder>,
    storage: &dyn Storage,
    dir: &Path,
    bin: &str,
    stall: &StallError,
) -> Option<PathBuf> {
    let path = postmortem_path(storage, dir, bin);
    match recorder.with(|r| r.dump(storage, &path)) {
        Ok(()) => {
            eprintln!("flight recorder: stall ({stall}) — post-mortem at {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("flight recorder: stall post-mortem dump failed: {e}");
            None
        }
    }
}

/// Owns one process's black box: a shared [`FlightRecorder`] plus a
/// chained panic hook that dumps it to `flightrec_<bin>_<ts>.json`
/// before the panic message prints. Clones of
/// [`FlightGuard::recorder`] ride inside networks as probes; the guard
/// itself sits in `main`.
#[derive(Debug)]
pub struct FlightGuard {
    recorder: Shared<FlightRecorder>,
    bin: &'static str,
    dir: PathBuf,
    dumped: Arc<AtomicBool>,
}

impl FlightGuard {
    /// Creates the recorder and chains the panic hook. The hook fires
    /// on the *first* panic anywhere in the process (worker threads
    /// included — a supervised poison job's panic is exactly the moment
    /// a black box earns its keep), dumps through [`OsStorage`], then
    /// defers to the previously installed hook.
    pub fn install(bin: &'static str, dir: impl Into<PathBuf>) -> FlightGuard {
        let guard = FlightGuard {
            recorder: Shared::new(FlightRecorder::new()),
            bin,
            dir: dir.into(),
            dumped: Arc::new(AtomicBool::new(false)),
        };
        let recorder = guard.recorder.clone();
        let dumped = guard.dumped.clone();
        let dir = guard.dir.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !dumped.swap(true, Ordering::SeqCst) {
                let _ = std::fs::create_dir_all(&dir);
                let path = postmortem_path(&OsStorage, &dir, bin);
                match recorder.with(|r| r.dump(&OsStorage, &path)) {
                    Ok(()) => {
                        eprintln!("flight recorder: panic — post-mortem at {}", path.display());
                    }
                    Err(e) => eprintln!("flight recorder: panic post-mortem dump failed: {e}"),
                }
            }
            prev(info);
        }));
        guard
    }

    /// A clone of the recorder, for attaching to networks as a probe
    /// (directly, or through a
    /// [`FanoutProbe`](pearl_telemetry::FanoutProbe) when an offline
    /// recorder shares the slot). It never switches span tracking on by
    /// itself; it keeps the spans of a fanout whose other member wants
    /// them.
    pub fn recorder(&self) -> Shared<FlightRecorder> {
        self.recorder.clone()
    }

    /// Dumps the black box now (a stall or any other "about to exit
    /// abnormally" moment), once: later calls — and the panic hook —
    /// become no-ops. Returns the artifact path, or `None` if already
    /// dumped or the write failed.
    pub fn dump_now(&self, reason: &str) -> Option<PathBuf> {
        if self.dumped.swap(true, Ordering::SeqCst) {
            return None;
        }
        let _ = std::fs::create_dir_all(&self.dir);
        let path = postmortem_path(&OsStorage, &self.dir, self.bin);
        match self.recorder.with(|r| r.dump(&OsStorage, &path)) {
            Ok(()) => {
                eprintln!("flight recorder: {reason} — post-mortem at {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("flight recorder: post-mortem dump failed ({reason}): {e}");
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_telemetry::{FlightDump, Probe, TraceEvent};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pearl-flightdump-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn event(at: u64) -> TraceEvent {
        TraceEvent::InjectionStall { router: 1, at, core: pearl_noc::CoreType::Cpu }
    }

    #[test]
    fn dump_now_writes_once_and_reconciles() {
        let dir = scratch("dump-once");
        let guard = FlightGuard::install("testbin", &dir);
        let mut probe = guard.recorder();
        for at in 0..5 {
            probe.record(&event(at));
        }
        let path = guard.dump_now("unit test").expect("first dump succeeds");
        assert!(path.file_name().unwrap().to_string_lossy().starts_with("flightrec_testbin_"));
        let dump = FlightDump::read(&OsStorage, &path).unwrap();
        dump.reconcile().unwrap();
        assert_eq!(dump.events_seen, 5);
        assert_eq!(guard.dump_now("again"), None, "once-flag blocks a second dump");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stall_dump_names_a_fresh_artifact_per_incident() {
        let dir = scratch("stall");
        let recorder = Shared::new(FlightRecorder::new());
        let stall = StallError { at_cycle: 4_000, window: 1_000, delivered: 7 };
        let a = dump_stall(&recorder, &OsStorage, &dir, "chaos", &stall).unwrap();
        let b = dump_stall(&recorder, &OsStorage, &dir, "chaos", &stall).unwrap();
        assert_ne!(a, b, "same-millisecond dumps get distinct names");
        for path in [a, b] {
            FlightDump::read(&OsStorage, &path).unwrap().reconcile().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
