//! End-to-end tests of the `experiments` runner: its stdout is the
//! committed `results/<name>.txt` text, and a bad name stops it before
//! any experiment runs.

use pearl_bench::experiments::EXPERIMENTS;
use std::path::Path;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn experiments")
}

fn committed(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn stdout_is_the_committed_text_in_the_order_named() {
    let out = experiments(&["tables", "timeline", "--jobs", "2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut expected = committed("tables.txt");
    expected.extend(committed("timeline.txt"));
    assert!(out.stdout == expected, "stdout differs from results/tables.txt + timeline.txt");
}

#[test]
fn unknown_name_exits_2_before_anything_runs() {
    let out = experiments(&["tables", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "an experiment ran before the bad name was rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99"), "{stderr}");
    for (name, _) in EXPERIMENTS {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}
