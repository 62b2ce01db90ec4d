//! Wall-clock self-profiling of the simulator hot loop.
//!
//! The ROADMAP's perf work needs to know *where* simulated time goes —
//! routing vs. DBA vs. the power/thermal models — and how many
//! simulated cycles per wall-clock second a configuration sustains.
//! [`SelfProfiler`] accumulates per-[`Section`] wall time; the network
//! runs each [`Phase`] of its `step` through one helper that, with
//! profiling on, charges the phase's `Instant` delta here. It also owns
//! the run's [`WorkCounters`], so one switch turns on both where and
//! why. Profiling is opt-in: without it each phase costs one branch.

use crate::json::JsonValue;
use crate::work::WorkCounters;
use std::fmt;
use std::time::{Duration, Instant};

/// A phase of the simulator step loop that wall time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Structural fault injection (`FaultModel::step`).
    Faults,
    /// Workload injection and response release.
    Injection,
    /// Dynamic bandwidth allocation.
    Dba,
    /// Optical transport: starting transfers and landing deliveries
    /// (including CRC checks and retransmission scheduling).
    Transport,
    /// Ejection, serving and latency accounting.
    Ejection,
    /// Laser power scaling, window closes and the thermal/power models.
    Power,
    /// Statistics, timeline sampling and telemetry bookkeeping.
    Accounting,
}

impl Section {
    /// Every section, in step-loop order.
    pub const ALL: [Section; 7] = [
        Section::Faults,
        Section::Injection,
        Section::Dba,
        Section::Transport,
        Section::Ejection,
        Section::Power,
        Section::Accounting,
    ];

    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Section::Faults => "faults",
            Section::Injection => "injection",
            Section::Dba => "dba",
            Section::Transport => "transport",
            Section::Ejection => "ejection",
            Section::Power => "power",
            Section::Accounting => "accounting",
        }
    }

    /// Parses a stable [`Section::name`] back to its section.
    pub fn from_name(name: &str) -> Option<Section> {
        Section::ALL.into_iter().find(|s| s.name() == name)
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Section::Faults => 0,
            Section::Injection => 1,
            Section::Dba => 2,
            Section::Transport => 3,
            Section::Ejection => 4,
            Section::Power => 5,
            Section::Accounting => 6,
        }
    }
}

/// A nestable sub-phase of a [`Section`], named `section/sub`.
///
/// Sub-sections refine the coarse section attribution: a section's wall
/// time splits into its *top-level* subs (those with
/// [`SubSection::nested_in`] `== None`) plus an implicit per-section
/// residual. Nested subs (e.g. [`SubSection::PowerMl`] inside
/// [`SubSection::PowerScale`]) refine a parent sub the same way and do
/// **not** count against the section directly — summing them alongside
/// their parent would double-count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubSection {
    /// Workload injection (`injection/traffic`).
    InjectTraffic,
    /// Pending endpoint-response release (`injection/responses`).
    InjectResponses,
    /// Local flit serialization into injection VCs (`injection/serialize`,
    /// cmesh).
    InjectSerialize,
    /// Landing in-flight deliveries, CRC checks and NACK scheduling
    /// (`transport/land`).
    TransportLand,
    /// Channel scan and transfer launch (`transport/launch`).
    TransportLaunch,
    /// Route computation for buffered head flits (`transport/routes`,
    /// cmesh).
    TransportRoutes,
    /// Switch allocation / output arbitration (`transport/arbitration`,
    /// cmesh).
    TransportArbitration,
    /// Link-flit delivery into downstream buffers (`transport/link`,
    /// cmesh).
    TransportLink,
    /// Per-router laser tick and energy accounting (`power/sample`).
    PowerSample,
    /// Scaling-window scan and window-boundary work (`power/scale`).
    PowerScale,
    /// ML feature extraction, prediction and ladder decision
    /// (`power/ml`, nested inside `power/scale`).
    PowerMl,
}

impl SubSection {
    /// Every sub-section, grouped by parent section.
    pub const ALL: [SubSection; 11] = [
        SubSection::InjectTraffic,
        SubSection::InjectResponses,
        SubSection::InjectSerialize,
        SubSection::TransportLand,
        SubSection::TransportLaunch,
        SubSection::TransportRoutes,
        SubSection::TransportArbitration,
        SubSection::TransportLink,
        SubSection::PowerSample,
        SubSection::PowerScale,
        SubSection::PowerMl,
    ];

    /// Stable `section/sub` path used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SubSection::InjectTraffic => "injection/traffic",
            SubSection::InjectResponses => "injection/responses",
            SubSection::InjectSerialize => "injection/serialize",
            SubSection::TransportLand => "transport/land",
            SubSection::TransportLaunch => "transport/launch",
            SubSection::TransportRoutes => "transport/routes",
            SubSection::TransportArbitration => "transport/arbitration",
            SubSection::TransportLink => "transport/link",
            SubSection::PowerSample => "power/sample",
            SubSection::PowerScale => "power/scale",
            SubSection::PowerMl => "power/ml",
        }
    }

    /// The last path component (`"launch"`, `"ml"`, …), used as the
    /// frame name in folded stacks.
    pub fn leaf(self) -> &'static str {
        self.name().rsplit('/').next().unwrap_or(self.name())
    }

    /// The [`Section`] this sub-phase belongs to.
    pub fn parent(self) -> Section {
        match self {
            SubSection::InjectTraffic
            | SubSection::InjectResponses
            | SubSection::InjectSerialize => Section::Injection,
            SubSection::TransportLand
            | SubSection::TransportLaunch
            | SubSection::TransportRoutes
            | SubSection::TransportArbitration
            | SubSection::TransportLink => Section::Transport,
            SubSection::PowerSample | SubSection::PowerScale | SubSection::PowerMl => {
                Section::Power
            }
        }
    }

    /// The sub-section this one is nested inside, when its time is a
    /// refinement of another sub rather than of the section directly.
    pub fn nested_in(self) -> Option<SubSection> {
        match self {
            SubSection::PowerMl => Some(SubSection::PowerScale),
            _ => None,
        }
    }

    /// Parses a stable [`SubSection::name`] path back to its sub-section.
    pub fn from_name(name: &str) -> Option<SubSection> {
        SubSection::ALL.into_iter().find(|s| s.name() == name)
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            SubSection::InjectTraffic => 0,
            SubSection::InjectResponses => 1,
            SubSection::InjectSerialize => 2,
            SubSection::TransportLand => 3,
            SubSection::TransportLaunch => 4,
            SubSection::TransportRoutes => 5,
            SubSection::TransportArbitration => 6,
            SubSection::TransportLink => 7,
            SubSection::PowerSample => 8,
            SubSection::PowerScale => 9,
            SubSection::PowerMl => 10,
        }
    }
}

/// A step-loop phase the profiler charges wall time to: a whole
/// [`Section`] or one of its [`SubSection`]s.
pub trait Phase: Copy {
    /// The section the phase's allocations are attributed to.
    fn section(self) -> Section;

    /// Charges the time since `t0` to this phase.
    fn charge(self, profiler: &mut SelfProfiler, t0: Instant);
}

impl Phase for Section {
    #[inline]
    fn section(self) -> Section {
        self
    }

    #[inline]
    fn charge(self, profiler: &mut SelfProfiler, t0: Instant) {
        profiler.add(self, t0);
    }
}

impl Phase for SubSection {
    #[inline]
    fn section(self) -> Section {
        self.parent()
    }

    #[inline]
    fn charge(self, profiler: &mut SelfProfiler, t0: Instant) {
        profiler.add_sub(self, t0);
    }
}

/// Accumulates wall time per [`Section`] (and optional [`SubSection`])
/// plus the run's [`WorkCounters`], whose `cycles` is the simulated-cycle
/// count.
#[derive(Debug, Clone)]
pub struct SelfProfiler {
    totals: [Duration; Section::ALL.len()],
    sub_totals: [Duration; SubSection::ALL.len()],
    work: WorkCounters,
    started: Instant,
}

impl SelfProfiler {
    /// Starts a profiler; the overall wall clock begins now.
    pub fn start() -> SelfProfiler {
        SelfProfiler {
            totals: [Duration::ZERO; Section::ALL.len()],
            sub_totals: [Duration::ZERO; SubSection::ALL.len()],
            work: WorkCounters::new(),
            started: Instant::now(),
        }
    }

    /// Attributes the time since `t0` to `section`.
    #[inline]
    pub fn add(&mut self, section: Section, t0: Instant) {
        self.totals[section.index()] += t0.elapsed();
    }

    /// Attributes the time since `t0` to `sub`. Sub-section time is a
    /// refinement: the caller also times the enclosing section, so subs
    /// never add to the section totals.
    #[inline]
    pub fn add_sub(&mut self, sub: SubSection, t0: Instant) {
        self.sub_totals[sub.index()] += t0.elapsed();
    }

    /// The wasted-work counters the hot loops count into.
    #[inline]
    pub fn work_mut(&mut self) -> &mut WorkCounters {
        &mut self.work
    }

    /// Counts one simulated cycle.
    #[inline]
    pub fn tick(&mut self) {
        self.work.cycles += 1;
    }

    /// Simulated cycles counted so far.
    pub fn cycles(&self) -> u64 {
        self.work.cycles
    }

    /// Snapshots the profile. The report's wall clock is the time since
    /// [`SelfProfiler::start`]; attributed time is the per-section sum
    /// (always ≤ wall, the remainder being untimed glue).
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            cycles: self.work.cycles,
            wall: self.started.elapsed(),
            sections: Section::ALL.into_iter().map(|s| (s, self.totals[s.index()])).collect(),
            subs: SubSection::ALL.into_iter().map(|s| (s, self.sub_totals[s.index()])).collect(),
            work: self.work.clone(),
        }
    }
}

/// A finished profile: cycles, wall time, per-section attribution and
/// the work counters of the same cycles.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Simulated cycles covered.
    pub cycles: u64,
    /// Total wall-clock time.
    pub wall: Duration,
    /// `(section, attributed time)` in step-loop order.
    pub sections: Vec<(Section, Duration)>,
    /// `(sub-section, attributed time)` in [`SubSection::ALL`] order.
    /// Empty for profiles collected before sub-phase timing existed.
    pub subs: Vec<(SubSection, Duration)>,
    /// Wasted-work counters. Not part of [`ProfileReport::to_json`]:
    /// artifacts store them beside the timing (see
    /// [`WorkCounters::to_json`]).
    pub work: WorkCounters,
}

impl ProfileReport {
    /// Aggregates per-job profiles into one report: simulated cycles,
    /// wall time and per-section/sub-section attribution all *sum*. For
    /// profiles collected on concurrent pool workers the summed `wall`
    /// is aggregate worker compute time, not elapsed time — the right
    /// denominator for attribution percentages, and what the run
    /// manifest records alongside the pool width.
    pub fn merged<'a, I: IntoIterator<Item = &'a ProfileReport>>(reports: I) -> ProfileReport {
        let mut totals = [Duration::ZERO; Section::ALL.len()];
        let mut sub_totals = [Duration::ZERO; SubSection::ALL.len()];
        let mut cycles = 0u64;
        let mut wall = Duration::ZERO;
        let mut work = WorkCounters::new();
        for report in reports {
            cycles += report.cycles;
            wall += report.wall;
            work.merge(&report.work);
            for &(section, d) in &report.sections {
                totals[section.index()] += d;
            }
            for &(sub, d) in &report.subs {
                sub_totals[sub.index()] += d;
            }
        }
        ProfileReport {
            cycles,
            wall,
            sections: Section::ALL.into_iter().map(|s| (s, totals[s.index()])).collect(),
            subs: SubSection::ALL.into_iter().map(|s| (s, sub_totals[s.index()])).collect(),
            work,
        }
    }

    /// Simulated cycles per wall-clock second (0 for an instant run).
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.cycles as f64 / secs
        } else {
            0.0
        }
    }

    /// Total attributed time across all sections.
    pub fn attributed(&self) -> Duration {
        self.sections.iter().map(|(_, d)| *d).sum()
    }

    /// Wall time not attributed to any section — loop glue, profiler
    /// bookkeeping and everything outside the step loop. Non-negative by
    /// construction for profiles from [`SelfProfiler::report`] (each
    /// section is timed inside the wall window); debug builds assert it.
    pub fn residual(&self) -> Duration {
        let attributed = self.attributed();
        debug_assert!(
            self.wall + Duration::from_millis(1) >= attributed,
            "profile attributes more time ({attributed:?}) than its wall clock ({:?})",
            self.wall
        );
        self.wall.saturating_sub(attributed)
    }

    /// Time attributed to `section` (zero if absent).
    pub fn section_time(&self, section: Section) -> Duration {
        self.sections.iter().find(|(s, _)| *s == section).map_or(Duration::ZERO, |(_, d)| *d)
    }

    /// Time attributed to `sub` (zero if absent).
    pub fn sub_time(&self, sub: SubSection) -> Duration {
        self.subs.iter().find(|(s, _)| *s == sub).map_or(Duration::ZERO, |(_, d)| *d)
    }

    /// `section`'s time not covered by its top-level sub-sections (the
    /// unrefined remainder; clamped at zero).
    pub fn section_residual(&self, section: Section) -> Duration {
        let covered: Duration = self
            .subs
            .iter()
            .filter(|(s, _)| s.parent() == section && s.nested_in().is_none())
            .map(|(_, d)| *d)
            .sum();
        self.section_time(section).saturating_sub(covered)
    }

    /// Renders the profile as folded stacks for `flamegraph.pl` — one
    /// `frame;frame… <weight>` line per leaf, weighted in integer
    /// microseconds. The root frame is `step`; section residuals become
    /// section self-weight, the overall residual becomes `step;other`.
    pub fn folded(&self) -> String {
        let us = |d: Duration| d.as_micros();
        let mut out = String::new();
        for &(section, _) in &self.sections {
            let self_us = us(self.section_residual(section));
            if self_us > 0 {
                out.push_str(&format!("step;{} {}\n", section.name(), self_us));
            }
            for &(sub, d) in &self.subs {
                if sub.parent() != section {
                    continue;
                }
                let mut frames = format!("step;{}", section.name());
                if let Some(outer) = sub.nested_in() {
                    frames.push_str(&format!(";{}", outer.leaf()));
                }
                frames.push_str(&format!(";{}", sub.leaf()));
                // A nested sub's time is carved out of its parent sub's
                // self-weight so the flame widths still sum correctly.
                let nested: Duration = self
                    .subs
                    .iter()
                    .filter(|(n, _)| n.nested_in() == Some(sub))
                    .map(|(_, nd)| *nd)
                    .sum();
                let weight = us(d.saturating_sub(nested));
                if weight > 0 {
                    out.push_str(&format!("{frames} {weight}\n"));
                }
            }
        }
        let other = us(self.residual());
        if other > 0 {
            out.push_str(&format!("step;other {other}\n"));
        }
        out
    }

    /// Renders the report as a JSON object (durations in seconds).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("cycles", JsonValue::u64(self.cycles)),
            ("wall_seconds", JsonValue::Num(self.wall.as_secs_f64())),
            ("cycles_per_sec", JsonValue::Num(self.cycles_per_sec())),
            (
                "sections",
                JsonValue::Obj(
                    self.sections
                        .iter()
                        .map(|(s, d)| (s.name().to_string(), JsonValue::Num(d.as_secs_f64())))
                        .collect(),
                ),
            ),
            (
                "subs",
                JsonValue::Obj(
                    self.subs
                        .iter()
                        .map(|(s, d)| (s.name().to_string(), JsonValue::Num(d.as_secs_f64())))
                        .collect(),
                ),
            ),
            ("residual_seconds", JsonValue::Num(self.residual().as_secs_f64())),
        ])
    }

    /// Parses a report serialized by [`ProfileReport::to_json`], with
    /// zero work counters. Unknown section/sub names are skipped
    /// (forward compatibility); a missing `subs` object reads as no
    /// sub-phase data.
    pub fn from_json(v: &JsonValue) -> Option<ProfileReport> {
        let cycles = v.get("cycles")?.as_u64()?;
        let wall = Duration::from_secs_f64(v.get("wall_seconds")?.as_f64()?.max(0.0));
        let mut totals = [Duration::ZERO; Section::ALL.len()];
        if let Some(JsonValue::Obj(entries)) = v.get("sections") {
            for (name, d) in entries {
                if let (Some(s), Some(secs)) = (Section::from_name(name), d.as_f64()) {
                    totals[s.index()] = Duration::from_secs_f64(secs.max(0.0));
                }
            }
        }
        let mut sub_totals = [Duration::ZERO; SubSection::ALL.len()];
        if let Some(JsonValue::Obj(entries)) = v.get("subs") {
            for (name, d) in entries {
                if let (Some(s), Some(secs)) = (SubSection::from_name(name), d.as_f64()) {
                    sub_totals[s.index()] = Duration::from_secs_f64(secs.max(0.0));
                }
            }
        }
        Some(ProfileReport {
            cycles,
            wall,
            sections: Section::ALL.into_iter().map(|s| (s, totals[s.index()])).collect(),
            subs: SubSection::ALL.into_iter().map(|s| (s, sub_totals[s.index()])).collect(),
            work: WorkCounters::new(),
        })
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "self-profile: {} cycles in {:.3} s ({:.0} cycles/s)",
            self.cycles,
            self.wall.as_secs_f64(),
            self.cycles_per_sec()
        )?;
        let wall = self.wall.as_secs_f64().max(f64::MIN_POSITIVE);
        for (section, d) in &self.sections {
            writeln!(
                f,
                "  {:<12} {:>9.3} ms  {:>5.1}%",
                section.name(),
                d.as_secs_f64() * 1e3,
                100.0 * d.as_secs_f64() / wall
            )?;
            for (sub, sd) in &self.subs {
                if sub.parent() != *section || sd.is_zero() {
                    continue;
                }
                let indent = if sub.nested_in().is_some() { "      " } else { "    " };
                writeln!(
                    f,
                    "{indent}{:<10} {:>9.3} ms  {:>5.1}%",
                    sub.leaf(),
                    sd.as_secs_f64() * 1e3,
                    100.0 * sd.as_secs_f64() / wall
                )?;
            }
        }
        let other = self.residual();
        writeln!(
            f,
            "  {:<12} {:>9.3} ms  {:>5.1}%",
            "other",
            other.as_secs_f64() * 1e3,
            100.0 * other.as_secs_f64() / wall
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_time_to_sections() {
        let mut p = SelfProfiler::start();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        p.add(Section::Dba, t0);
        p.tick();
        p.tick();
        p.work_mut().dba_invocations += 3;
        let report = p.report();
        assert_eq!(report.cycles, 2);
        // The counters ride along and share the cycle count.
        assert_eq!(report.work.cycles, 2);
        assert_eq!(report.work.dba_invocations, 3);
        assert!(report.wall >= Duration::from_millis(2));
        let dba = report.sections.iter().find(|(s, _)| *s == Section::Dba).unwrap().1;
        assert!(dba >= Duration::from_millis(2));
        assert!(report.attributed() <= report.wall + Duration::from_millis(1));
        assert!(report.cycles_per_sec() > 0.0);
    }

    #[test]
    fn report_serializes_every_section() {
        let p = SelfProfiler::start();
        let json = p.report().to_json();
        let sections = json.get("sections").unwrap();
        for s in Section::ALL {
            assert!(sections.get(s.name()).is_some(), "{}", s.name());
        }
        // Parses back cleanly.
        assert!(JsonValue::parse(&json.to_string()).is_ok());
    }

    fn report(cycles: u64, ms_dba: u64, ms_power: u64) -> ProfileReport {
        ProfileReport {
            cycles,
            wall: Duration::from_millis(ms_dba + ms_power + 1),
            sections: vec![
                (Section::Dba, Duration::from_millis(ms_dba)),
                (Section::Power, Duration::from_millis(ms_power)),
            ],
            subs: vec![
                (SubSection::PowerScale, Duration::from_millis(ms_power / 2)),
                (SubSection::PowerMl, Duration::from_millis(ms_power / 4)),
            ],
            work: WorkCounters { cycles, dba_invocations: ms_dba, ..WorkCounters::new() },
        }
    }

    #[test]
    fn merged_sums_cycles_wall_and_sections() {
        let merged = ProfileReport::merged([&report(100, 2, 4), &report(250, 5, 8)]);
        assert_eq!(merged.cycles, 350);
        assert_eq!(merged.wall, Duration::from_millis(7 + 14));
        assert_eq!(merged.work.cycles, 350);
        assert_eq!(merged.work.dba_invocations, 7);
        // Every section appears in canonical order, absent ones zeroed.
        assert_eq!(merged.sections.len(), Section::ALL.len());
        let by_name = |name: &str| {
            merged.sections.iter().find(|(s, _)| s.name() == name).map(|(_, d)| *d).unwrap()
        };
        assert_eq!(by_name("dba"), Duration::from_millis(7));
        assert_eq!(by_name("power"), Duration::from_millis(12));
        assert_eq!(by_name("transport"), Duration::ZERO);
        // Sub-sections merge the same way.
        assert_eq!(merged.sub_time(SubSection::PowerScale), Duration::from_millis(6));
        assert_eq!(merged.sub_time(SubSection::PowerMl), Duration::from_millis(3));
        assert_eq!(merged.sub_time(SubSection::TransportLaunch), Duration::ZERO);
    }

    #[test]
    fn merged_of_nothing_is_the_zero_profile() {
        let empty = ProfileReport::merged([]);
        assert_eq!(empty.cycles, 0);
        assert_eq!(empty.wall, Duration::ZERO);
        assert_eq!(empty.attributed(), Duration::ZERO);
        assert_eq!(empty.residual(), Duration::ZERO);
        assert_eq!(empty.sections.len(), Section::ALL.len());
        assert_eq!(empty.subs.len(), SubSection::ALL.len());
        assert_eq!(empty.cycles_per_sec(), 0.0);
    }

    #[test]
    fn merged_single_report_is_canonicalized_identity() {
        let single = report(100, 2, 4);
        let merged = ProfileReport::merged([&single]);
        assert_eq!(merged.cycles, single.cycles);
        assert_eq!(merged.wall, single.wall);
        assert_eq!(merged.attributed(), single.attributed());
        // Canonicalization pads the uneven section set to ALL…
        assert_eq!(merged.sections.len(), Section::ALL.len());
        // …without changing any attributed value.
        for (s, d) in &single.sections {
            assert_eq!(merged.section_time(*s), *d);
        }
        for (s, d) in &single.subs {
            assert_eq!(merged.sub_time(*s), *d);
        }
    }

    #[test]
    fn merged_uneven_section_sets_and_cycles_per_sec() {
        // One report knows only dba/power, the other only transport:
        // the merge must keep both without inventing time.
        let a = report(100, 10, 0);
        let b = ProfileReport {
            cycles: 300,
            wall: Duration::from_millis(29),
            sections: vec![(Section::Transport, Duration::from_millis(20))],
            subs: Vec::new(),
            work: WorkCounters::new(),
        };
        let merged = ProfileReport::merged([&a, &b]);
        assert_eq!(merged.section_time(Section::Dba), Duration::from_millis(10));
        assert_eq!(merged.section_time(Section::Transport), Duration::from_millis(20));
        assert_eq!(merged.attributed(), a.attributed() + b.attributed());
        // cycles/sec uses the *summed* wall: 400 cycles over 40 ms.
        assert_eq!(merged.cycles, 400);
        assert_eq!(merged.wall, Duration::from_millis(40));
        assert!((merged.cycles_per_sec() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn residual_is_wall_minus_attributed_and_surfaced() {
        let r = report(100, 2, 4);
        assert_eq!(r.residual(), Duration::from_millis(1));
        // power/scale covers 2 of power's 4 ms; power/ml nests inside
        // scale so it must NOT count against the section residual.
        assert_eq!(r.section_residual(Section::Power), Duration::from_millis(2));
        let text = r.to_string();
        assert!(text.contains("other"), "residual row missing:\n{text}");
        let json = r.to_json();
        assert!(json.get("residual_seconds").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn json_round_trips_sections_subs_and_residual() {
        let r = report(123, 3, 8);
        let parsed = ProfileReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.cycles, 123);
        assert!((parsed.wall.as_secs_f64() - r.wall.as_secs_f64()).abs() < 1e-9);
        assert_eq!(parsed.section_time(Section::Dba), Duration::from_millis(3));
        assert_eq!(parsed.sub_time(SubSection::PowerMl), Duration::from_millis(2));
        // A pre-sub-section document (no "subs") still parses.
        let legacy = JsonValue::obj(vec![
            ("cycles", JsonValue::u64(5)),
            ("wall_seconds", JsonValue::Num(0.5)),
            ("sections", JsonValue::obj(vec![("dba", JsonValue::Num(0.25))])),
        ]);
        let parsed = ProfileReport::from_json(&legacy).unwrap();
        assert_eq!(parsed.section_time(Section::Dba), Duration::from_millis(250));
        assert_eq!(parsed.sub_time(SubSection::PowerMl), Duration::ZERO);
    }

    #[test]
    fn folded_stacks_nest_subs_and_conserve_weight() {
        let r = report(100, 2, 8);
        let folded = r.folded();
        // power: 8 ms total, scale 4 ms (ml 2 ms carved out of it).
        assert!(folded.contains("step;dba 2000\n"), "{folded}");
        assert!(folded.contains("step;power 4000\n"), "{folded}");
        assert!(folded.contains("step;power;scale 2000\n"), "{folded}");
        assert!(folded.contains("step;power;scale;ml 2000\n"), "{folded}");
        assert!(folded.contains("step;other 1000\n"), "{folded}");
        // Total folded weight equals the wall clock (in µs).
        let total: u128 = folded
            .lines()
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|w| w.parse::<u128>().ok())
            .sum();
        assert_eq!(total, r.wall.as_micros());
    }

    #[test]
    fn every_sub_section_maps_to_a_section_and_round_trips_names() {
        for sub in SubSection::ALL {
            assert_eq!(SubSection::from_name(sub.name()), Some(sub));
            let (section, leaf) = sub.name().split_once('/').unwrap();
            assert_eq!(Section::from_name(section), Some(sub.parent()));
            assert_eq!(sub.leaf(), leaf);
            if let Some(outer) = sub.nested_in() {
                assert_eq!(outer.parent(), sub.parent(), "nesting crosses sections");
            }
        }
        for s in Section::ALL {
            assert_eq!(Section::from_name(s.name()), Some(s));
        }
    }

    #[test]
    fn display_is_stable() {
        let p = SelfProfiler::start();
        let text = p.report().to_string();
        assert!(text.contains("cycles/s"));
        assert!(text.contains("transport"));
        assert!(text.contains("other"));
    }
}
