//! Machine-readable experiment artifacts.
//!
//! Every experiment, and every sweep binary beside the `experiments`
//! runner, keeps its human-readable text output and, when invoked with
//! `--json`, additionally writes `results/<name>.json` — the same
//! numbers as a structured artifact a plotting script or CI check can
//! consume without scraping tables.
//!
//! [`Report`] wraps the text-table helper: [`Report::table`] prints
//! through [`crate::harness::table`] *and* records the rows;
//! [`Report::record_table`] records without printing (for output with
//! a bespoke text format); [`Report::metric`] and [`Report::insert`]
//! capture headline scalars and arbitrary JSON. [`Report::finish`]
//! writes the artifact (a no-op without `--json`).

use crate::harness::{mean, table, Row};
use pearl_telemetry::{JsonValue, OsStorage, Storage};
use std::path::PathBuf;

/// Directory every artifact lands in, next to the committed text logs.
pub const RESULTS_DIR: &str = "results";

/// Structured mirror of a binary's printed output.
#[derive(Debug)]
pub struct Report {
    name: String,
    json: bool,
    tables: Vec<JsonValue>,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
    extra: Vec<(String, JsonValue)>,
}

impl Report {
    /// Creates a report named after its experiment or binary; `json`
    /// (the `--json` flag) makes [`Self::finish`] write the artifact.
    pub fn new(name: &str, json: bool) -> Report {
        Report {
            name: name.to_string(),
            json,
            tables: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// True when `finish` will write an artifact.
    pub fn json_enabled(&self) -> bool {
        self.json
    }

    /// Prints a text table (identical to [`crate::harness::table`]) and
    /// records it in the artifact.
    pub fn table(&mut self, title: &str, columns: &[&str], rows: &[Row], decimals: usize) {
        table(title, columns, rows, decimals);
        self.record_table(title, columns, rows);
    }

    /// Records a table in the artifact without printing — for output
    /// with its own text format.
    pub fn record_table(&mut self, title: &str, columns: &[&str], rows: &[Row]) {
        self.tables.push(table_to_json(title, columns, rows));
    }

    /// Records a headline scalar (`"saving_pct": 41.7`).
    pub fn metric(&mut self, key: &str, value: f64) {
        self.metrics.push((key.to_string(), value));
    }

    /// Prints a free-text note and records it.
    pub fn note(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("{text}");
        self.notes.push(text);
    }

    /// Attaches an arbitrary JSON value under `key`.
    pub fn insert(&mut self, key: &str, value: JsonValue) {
        self.extra.push((key.to_string(), value));
    }

    /// Renders the full artifact.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("name", JsonValue::str(&self.name)),
            ("tables", JsonValue::Arr(self.tables.clone())),
            (
                "metrics",
                JsonValue::Obj(
                    self.metrics.iter().map(|(k, v)| (k.clone(), JsonValue::Num(*v))).collect(),
                ),
            ),
            ("notes", JsonValue::Arr(self.notes.iter().map(JsonValue::str).collect())),
        ];
        for (k, v) in &self.extra {
            fields.push((k.as_str(), v.clone()));
        }
        JsonValue::obj(fields)
    }

    /// The path `finish` writes to.
    pub fn artifact_path(&self) -> PathBuf {
        PathBuf::from(RESULTS_DIR).join(format!("{}.json", self.name))
    }

    /// Writes `results/<name>.json` atomically (tmp-then-rename) when
    /// JSON mode is on, returning the path written (None without
    /// `--json`). A crash mid-write leaves the previous artifact intact
    /// rather than a truncated file.
    pub fn finish(&self) -> std::io::Result<Option<PathBuf>> {
        if !self.json {
            return Ok(None);
        }
        let path = self.artifact_path();
        OsStorage.write_atomic(&path, &format!("{}\n", self.to_json()))?;
        eprintln!("[wrote {}]", path.display());
        Ok(Some(path))
    }
}

/// Renders one table (with its derived mean row) as JSON.
fn table_to_json(title: &str, columns: &[&str], rows: &[Row]) -> JsonValue {
    let mean_row: Vec<JsonValue> = (0..columns.len())
        .map(|c| {
            let col: Vec<f64> = rows.iter().map(|r| r.values[c]).collect();
            JsonValue::Num(mean(&col))
        })
        .collect();
    JsonValue::obj(vec![
        ("title", JsonValue::str(title)),
        ("columns", JsonValue::Arr(columns.iter().map(|&c| JsonValue::str(c)).collect())),
        (
            "rows",
            JsonValue::Arr(
                rows.iter()
                    .map(|r| {
                        JsonValue::obj(vec![
                            ("label", JsonValue::str(&r.label)),
                            (
                                "values",
                                JsonValue::Arr(
                                    r.values.iter().map(|&v| JsonValue::Num(v)).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("mean", JsonValue::Arr(mean_row)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips_through_the_parser() {
        let mut report = Report::new("unit", true);
        report.record_table(
            "t",
            &["a", "b"],
            &[Row::new("p0", vec![1.0, 2.0]), Row::new("p1", vec![3.0, 4.0])],
        );
        report.metric("saving_pct", 41.7);
        report.insert("cycles", JsonValue::u64(60_000));
        let text = report.to_json().to_string();
        let parsed = JsonValue::parse(&text).expect("self-produced JSON parses");
        assert_eq!(parsed.get("name").and_then(JsonValue::as_str), Some("unit"));
        let tables = parsed.get("tables").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(tables.len(), 1);
        // The derived mean row is part of the artifact.
        let mean_row = tables[0].get("mean").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(mean_row[0].as_f64(), Some(2.0));
        assert_eq!(parsed.get("cycles").and_then(JsonValue::as_u64), Some(60_000));
    }

    #[test]
    fn finish_is_a_no_op_without_json() {
        let report = Report::new("never-written", false);
        assert_eq!(report.finish().unwrap(), None);
        assert!(!report.artifact_path().exists());
    }
}
