//! The hot-path wasted-work artifact: one instrumented run's merged
//! self-profile with its work counters and (when the `alloc-count`
//! feature is on) allocation attribution, exported as
//! `results/hotpath_<source>.json` plus a folded-stacks text file for
//! `flamegraph.pl` / Perfetto.
//!
//! [`Hotpath::validate`] is the reconciliation gate `report --hotpath`
//! enforces: the counter inequalities ([`WorkCounters::reconcile`]),
//! cycle agreement between profiler and counters, and the timing
//! containment invariants (attributed ≤ wall, sub-phases ≤ their
//! section, nested sub-phases ≤ their enclosing sub-phase). An artifact
//! that fails any of these is worse than no artifact — the gate exits
//! non-zero rather than letting a broken attribution steer the
//! optimization work.

use crate::report::RESULTS_DIR;
use pearl_telemetry::{AllocStats, JsonValue, ProfileReport, Section, SubSection, WorkCounters};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Schema version stamped into every `hotpath_*.json`.
pub const HOTPATH_SCHEMA_VERSION: u64 = 1;

/// Slack allowed on every timing inequality: durations round-trip
/// through f64 seconds in the artifact, and `Instant` reads inside a
/// section are not atomic with the section's own window.
const TIME_EPSILON: Duration = Duration::from_millis(2);

/// One run's hot-path observation: where the wall time went and why
/// (`profile`, whose `work` counters the artifact stores under `work`)
/// and what it allocated (`alloc`, `None` unless built with
/// `--features alloc-count`).
#[derive(Debug, Clone)]
pub struct Hotpath {
    /// Artifact stem: files land at `results/hotpath_<source>.json`
    /// and `results/hotpath_<source>.folded`.
    pub source: String,
    /// Merged self-profile and work counters of the instrumented
    /// run(s).
    pub profile: ProfileReport,
    /// Per-section allocation totals, when the counting allocator was
    /// compiled in.
    pub alloc: Option<AllocStats>,
}

impl Hotpath {
    /// Bundles one run's observations under the artifact stem `source`.
    pub fn new(
        source: impl Into<String>,
        profile: ProfileReport,
        alloc: Option<AllocStats>,
    ) -> Hotpath {
        Hotpath { source: source.into(), profile, alloc }
    }

    /// Path of the JSON artifact.
    pub fn json_path(&self) -> PathBuf {
        PathBuf::from(RESULTS_DIR).join(format!("hotpath_{}.json", self.source))
    }

    /// Path of the folded-stacks artifact.
    pub fn folded_path(&self) -> PathBuf {
        PathBuf::from(RESULTS_DIR).join(format!("hotpath_{}.folded", self.source))
    }

    /// Renders the artifact document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("name", JsonValue::str("hotpath")),
            ("schema_version", JsonValue::u64(HOTPATH_SCHEMA_VERSION)),
            ("source", JsonValue::str(&self.source)),
            ("cycles", JsonValue::u64(self.profile.cycles)),
            ("profile", self.profile.to_json()),
            (
                "work",
                JsonValue::obj(vec![
                    ("counters", self.profile.work.to_json()),
                    ("ratios", self.profile.work.ratios().to_json()),
                ]),
            ),
            ("alloc", self.alloc.as_ref().map_or(JsonValue::Null, AllocStats::to_json)),
        ])
    }

    /// Parses an artifact written by [`Hotpath::to_json`].
    pub fn from_json(v: &JsonValue) -> Option<Hotpath> {
        if v.get("name").and_then(JsonValue::as_str) != Some("hotpath") {
            return None;
        }
        let mut profile = ProfileReport::from_json(v.get("profile")?)?;
        profile.work = WorkCounters::from_json(v.get("work")?.get("counters")?)?;
        Some(Hotpath {
            source: v.get("source")?.as_str()?.to_string(),
            profile,
            alloc: v.get("alloc").and_then(AllocStats::from_json),
        })
    }

    /// Reads and parses `results/hotpath_<source>.json` from `path`.
    ///
    /// # Errors
    ///
    /// A human-readable reason: unreadable file, malformed JSON, or a
    /// document that is not a hotpath artifact.
    pub fn read_file(path: &str) -> Result<Hotpath, String> {
        Hotpath::read_file_with(&pearl_telemetry::OsStorage, path)
    }

    /// [`Hotpath::read_file`] through an explicit
    /// [`pearl_telemetry::Storage`], so fault injection covers it.
    ///
    /// # Errors
    ///
    /// A human-readable reason: unreadable file, malformed JSON, or a
    /// document that is not a hotpath artifact.
    pub fn read_file_with(
        storage: &dyn pearl_telemetry::Storage,
        path: &str,
    ) -> Result<Hotpath, String> {
        let text = storage.read(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc =
            JsonValue::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e:?}"))?;
        Hotpath::from_json(&doc).ok_or_else(|| format!("{path} is not a hotpath artifact"))
    }

    /// Writes the JSON and folded-stacks artifacts atomically, returning
    /// the two paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write(&self) -> std::io::Result<(PathBuf, PathBuf)> {
        self.write_with(&pearl_telemetry::OsStorage)
    }

    /// [`Hotpath::write`] through an explicit
    /// [`pearl_telemetry::Storage`].
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn write_with(
        &self,
        storage: &dyn pearl_telemetry::Storage,
    ) -> std::io::Result<(PathBuf, PathBuf)> {
        let json_path = self.json_path();
        pearl_telemetry::atomic_write_file_with(
            storage,
            &json_path,
            &format!("{}\n", self.to_json()),
        )?;
        let folded_path = self.folded_path();
        pearl_telemetry::atomic_write_file_with(storage, &folded_path, &self.profile.folded())?;
        Ok((json_path, folded_path))
    }

    /// The reconciliation gate: checks every invariant an honest
    /// observation obeys. Performed on the *parsed* artifact so the gate
    /// also catches export bugs, not just collection bugs.
    ///
    /// # Errors
    ///
    /// The first violated invariant, named.
    pub fn validate(&self) -> Result<(), String> {
        let work = &self.profile.work;
        work.reconcile()?;
        if self.profile.cycles > 0 && work.cycles > 0 && self.profile.cycles != work.cycles {
            return Err(format!(
                "profiler covered {} cycles but work counters covered {}",
                self.profile.cycles, work.cycles
            ));
        }
        let attributed = self.profile.attributed();
        if attributed > self.profile.wall + TIME_EPSILON {
            return Err(format!(
                "sections attribute {:.6} s but the wall clock is {:.6} s",
                attributed.as_secs_f64(),
                self.profile.wall.as_secs_f64()
            ));
        }
        for section in Section::ALL {
            let covered: Duration = self
                .profile
                .subs
                .iter()
                .filter(|(s, _)| s.parent() == section && s.nested_in().is_none())
                .map(|(_, d)| *d)
                .sum();
            if covered > self.profile.section_time(section) + TIME_EPSILON {
                return Err(format!(
                    "sub-phases of {} attribute {:.6} s but the section holds {:.6} s",
                    section.name(),
                    covered.as_secs_f64(),
                    self.profile.section_time(section).as_secs_f64()
                ));
            }
        }
        for sub in SubSection::ALL {
            if let Some(outer) = sub.nested_in() {
                if self.profile.sub_time(sub) > self.profile.sub_time(outer) + TIME_EPSILON {
                    return Err(format!(
                        "nested sub-phase {} attributes {:.6} s but its enclosing {} holds \
                         {:.6} s",
                        sub.name(),
                        self.profile.sub_time(sub).as_secs_f64(),
                        outer.name(),
                        self.profile.sub_time(outer).as_secs_f64()
                    ));
                }
            }
        }
        Ok(())
    }

    /// The wasted-work rows `(name, visits, useful, wasted)` sorted by
    /// wasted visits descending — the "top wasted loops" ranking.
    pub fn wasted_rows(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut rows: Vec<_> = self
            .profile
            .work
            .pairs()
            .into_iter()
            .map(|(name, visits, useful)| (name, visits, useful, visits - useful))
            .collect();
        rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hotpath {
        let mut profiler = pearl_telemetry::SelfProfiler::start();
        let t0 = std::time::Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        profiler.add(Section::Transport, t0);
        profiler.tick();
        *profiler.work_mut() = WorkCounters {
            cycles: 1,
            routers_scanned: 16,
            routers_with_work: 4,
            arb_attempts: 8,
            arb_grants: 6,
            loop_iterations: 64,
            flits_moved: 10,
            ..WorkCounters::new()
        };
        Hotpath::new("unit", profiler.report(), None)
    }

    #[test]
    fn json_round_trips_and_validates() {
        let hp = sample();
        hp.validate().unwrap();
        let doc = hp.to_json();
        let parsed = Hotpath::from_json(&JsonValue::parse(&doc.to_string()).unwrap()).unwrap();
        assert_eq!(parsed.source, "unit");
        assert_eq!(parsed.profile.work, hp.profile.work);
        assert_eq!(parsed.profile.cycles, hp.profile.cycles);
        parsed.validate().unwrap();
        // A document that is not a hotpath artifact is rejected.
        assert!(Hotpath::from_json(&JsonValue::obj(vec![("name", JsonValue::str("x"))])).is_none());
    }

    #[test]
    fn validate_names_the_violated_invariant() {
        let mut broken = sample();
        broken.profile.work.arb_grants = broken.profile.work.arb_attempts + 1;
        assert!(broken.validate().unwrap_err().contains("arbitration"));

        let mut skewed = sample();
        skewed.profile.work.cycles = skewed.profile.cycles + 5;
        assert!(skewed.validate().unwrap_err().contains("cycles"));

        let mut inflated = sample();
        inflated.profile.sections = vec![(Section::Transport, Duration::from_secs(3600))];
        assert!(inflated.validate().unwrap_err().contains("wall clock"));

        let mut oversub = sample();
        oversub.profile.subs = vec![(SubSection::TransportLaunch, Duration::from_secs(3600))];
        assert!(oversub.validate().unwrap_err().contains("sub-phases of transport"));
    }

    #[test]
    fn wasted_rows_rank_by_absolute_waste() {
        let rows = sample().wasted_rows();
        assert_eq!(rows[0].0, "router_scan"); // 12 wasted visits
        assert_eq!(rows[0].3, 12);
        assert_eq!(rows[1].0, "arbitration"); // 2 wasted visits
        for (_, visits, useful, wasted) in rows {
            assert_eq!(wasted, visits - useful);
        }
    }

    #[test]
    fn artifact_paths_follow_the_source_stem() {
        let hp = sample();
        assert_eq!(hp.json_path(), PathBuf::from("results/hotpath_unit.json"));
        assert_eq!(hp.folded_path(), PathBuf::from("results/hotpath_unit.folded"));
    }
}
