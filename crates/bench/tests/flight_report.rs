//! End-to-end test of `report --flight` on a post-mortem without spans:
//! the flight recorder never asks for spans, so pearl-serve's and
//! chaos's dumps hold none, and the report must say so rather than
//! claim that every traced packet ejected.

use pearl_noc::CoreType;
use pearl_telemetry::{FlightRecorder, OsStorage, Probe, TraceEvent};
use std::process::Command;

#[test]
fn a_dump_without_spans_reports_no_spans_recorded() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("flight-report-no-spans");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flightrec.json");
    let mut recorder = FlightRecorder::new();
    for at in 0..5 {
        recorder.record(&TraceEvent::InjectionStall { router: 1, at, core: CoreType::Cpu });
    }
    recorder.dump(&OsStorage, &path).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("--flight")
        .arg(&path)
        .current_dir(&dir)
        .output()
        .expect("spawn report");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let open_spans = stdout
        .split_once("-- deepest open span trace --\n")
        .and_then(|(_, rest)| rest.lines().next())
        .unwrap_or_else(|| panic!("no open-span section in:\n{stdout}"));
    assert_eq!(open_spans, "  (no spans recorded)");
    assert!(!stdout.contains("every traced packet ejected"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
