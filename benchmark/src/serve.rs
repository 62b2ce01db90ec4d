//! The serve workload: an open loop of experiment specs against an
//! in-process pearl-serve daemon, with one graceful restart half way.
//!
//! Two threads carry the load: the daemon's (one job at a time) and this
//! one, which writes each spec when it is due, polls for its artifact,
//! and drives the restart. Latency runs from the time a spec was due to
//! the time its `out/<id>.result.json` appeared, so a daemon stall
//! shows in every spec that came due during it.

use crate::digest::Golden;
use crate::layers::{ml_layer, net_layers, sim_layer, traffic_layer};
use crate::metrics::Outcome;
use crate::net::{Fabric, Net, Summary, Unit};
use crate::stats::{median, percentile, tail_percentile};
use crate::sweep::{measure, model_metrics, rounds_metrics, Rounds};
use crate::workload::{record_peak_rss, RunOpts};
use pearl_bench::{Daemon, DaemonConfig, DaemonSummary, Spool};
use pearl_core::PearlPolicy;
use pearl_telemetry::JsonValue;
use pearl_workloads::BenchmarkPair;
use std::hint::black_box;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the generator looks for due specs and new artifacts.
const POLL: Duration = Duration::from_millis(2);

/// A spec whose artifact has not appeared this long after it was due
/// counts as failed.
const GIVE_UP: Duration = Duration::from_secs(20);

/// Reservation window of the served PEARL specs.
const SERVE_WINDOW: u64 = 500;

/// One spec of the open loop: the file the generator writes and the
/// unit that simulates the same run directly.
pub struct Spec {
    /// Job id (the spec file stem).
    pub id: String,
    /// The spec document.
    pub body: String,
    /// Whether the spec asks the daemon for a trace.
    pub traced: bool,
    /// The same simulation, for the direct reference run.
    pub unit: Unit,
}

/// `count` specs alternating a traced, periodically checkpointed PEARL
/// reactive RW500 run and an untraced CMESH run; pairs rotate over the
/// 16 test pairs and spec `i` is seeded `seed + i`.
pub fn specs(opts: &RunOpts, count: usize) -> Vec<Spec> {
    let pairs = BenchmarkPair::test_pairs();
    (0..count)
        .map(|i| {
            let id = format!("s{i:03}");
            let pair_index = i % pairs.len();
            let seed = opts.seed.wrapping_add(i as u64);
            let (body, fabric, cycles) = if i % 2 == 0 {
                let cycles = opts.plan.serve_pearl_cycles;
                let body = format!(
                    r#"{{"kind": "pearl", "policy": "reactive", "window": {SERVE_WINDOW}, "pair": {pair_index}, "seed": "{seed}", "cycles": {cycles}, "stall_window": 500, "checkpoint_every": {}, "trace": true}}"#,
                    cycles / 4
                );
                (body, Fabric::Pearl(Box::new(PearlPolicy::reactive(SERVE_WINDOW))), cycles)
            } else {
                let cycles = opts.plan.serve_cmesh_cycles;
                let body = format!(
                    r#"{{"kind": "cmesh", "pair": {pair_index}, "seed": "{seed}", "cycles": {cycles}}}"#
                );
                (body, Fabric::Cmesh, cycles)
            };
            let traced = matches!(fabric, Fabric::Pearl(_));
            let unit = Unit { key: id.clone(), fabric, pair: pairs[pair_index], seed, cycles };
            Spec { id, body, traced, unit }
        })
        .collect()
}

/// When one spec was due, written, admitted (left `incoming/`) and done
/// (its result artifact appeared), relative to the start of the loop.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// When the spec was due.
    pub due: Duration,
    /// When the generator wrote it.
    pub written: Option<Duration>,
    /// When the daemon took it from `incoming/`.
    pub admitted: Option<Duration>,
    /// When its result artifact appeared.
    pub done: Option<Duration>,
}

impl Timeline {
    /// Due-to-done latency (ms).
    pub fn latency_ms(&self) -> Option<f64> {
        Some(self.done?.saturating_sub(self.due).as_secs_f64() * 1e3)
    }
}

/// What the open loop drives: the daemon, or a fake in tests.
pub trait Server {
    /// Hands spec `i` over.
    fn submit(&mut self, i: usize) -> io::Result<()>;
    /// Whether spec `i` has been admitted.
    fn admitted(&self, i: usize) -> bool;
    /// Whether spec `i`'s result exists.
    fn done(&self, i: usize) -> bool;
    /// Called on every poll with the timelines so far.
    fn tick(&mut self, now: Duration, timelines: &[Timeline]) -> io::Result<()>;
    /// Whether the server's own work (a restart) is still under way.
    fn restarting(&self) -> bool;
}

/// Submits spec `i` at `i * interval` whatever the server is doing,
/// polls every [`POLL`] for admissions and results, and returns once
/// every spec is done and the server has finished restarting, or
/// [`GIVE_UP`] has passed since the last spec was due.
pub fn open_loop(
    server: &mut impl Server,
    count: usize,
    interval: Duration,
) -> io::Result<Vec<Timeline>> {
    let start = Instant::now();
    let mut timelines: Vec<Timeline> =
        (0..count).map(|i| Timeline { due: interval * i as u32, ..Timeline::default() }).collect();
    let last_due = timelines.last().map_or(Duration::ZERO, |t| t.due);
    let mut next = 0;
    loop {
        while next < count && timelines[next].due <= start.elapsed() {
            server.submit(next)?;
            timelines[next].written = Some(start.elapsed());
            next += 1;
        }
        let now = start.elapsed();
        for (i, t) in timelines[..next].iter_mut().enumerate().filter(|(_, t)| t.done.is_none()) {
            if t.admitted.is_none() && server.admitted(i) {
                t.admitted = Some(now);
            }
            if server.done(i) {
                t.admitted.get_or_insert(now);
                t.done = Some(now);
            }
        }
        server.tick(now, &timelines)?;
        let finished =
            next == count && timelines.iter().all(|t| t.done.is_some()) && !server.restarting();
        if finished || now > last_due + GIVE_UP {
            return Ok(timelines);
        }
        let until_due = timelines.get(next).map_or(POLL, |t| t.due.saturating_sub(now));
        std::thread::sleep(until_due.min(POLL));
    }
}

/// The spool-backed server: writes specs into `incoming/`, watches
/// `out/`, and performs one graceful restart while spec `restart_at`
/// runs (stop sentinel, wait for the daemon thread to exit, remove the
/// sentinel, `Daemon::new` again) without pausing the generator.
struct DaemonServer<'a> {
    spool: Spool,
    config: DaemonConfig,
    specs: &'a [Spec],
    thread: Option<JoinHandle<io::Result<DaemonSummary>>>,
    restart_at: Option<usize>,
    stopping_since: Option<Duration>,
    stop_ms: f64,
    restart_ms: f64,
    problems: Vec<String>,
}

impl DaemonServer<'_> {
    fn spawn(&mut self, mut daemon: Daemon) {
        self.thread = Some(std::thread::spawn(move || daemon.run()));
    }

    /// Stops the daemon and waits for its thread.
    fn stop(&mut self) -> io::Result<DaemonSummary> {
        let thread = self.thread.take().ok_or(io::Error::other("no daemon is running"))?;
        std::fs::write(self.spool.stop_path(), "")?;
        let summary = thread.join().map_err(|_| io::Error::other("the daemon thread panicked"))?;
        std::fs::remove_file(self.spool.stop_path())?;
        summary
    }
}

impl Server for DaemonServer<'_> {
    fn submit(&mut self, i: usize) -> io::Result<()> {
        let spec = &self.specs[i];
        // Written beside its final name and renamed into place, so the
        // daemon never reads a partial spec.
        let partial = self.spool.incoming().join(format!("{}.json.part", spec.id));
        std::fs::write(&partial, &spec.body)?;
        std::fs::rename(&partial, self.spool.spec_path(&self.spool.incoming(), &spec.id))
    }

    fn admitted(&self, i: usize) -> bool {
        !self.spool.spec_path(&self.spool.incoming(), &self.specs[i].id).exists()
    }

    fn done(&self, i: usize) -> bool {
        self.spool.result_path(&self.specs[i].id).exists()
    }

    fn tick(&mut self, now: Duration, timelines: &[Timeline]) -> io::Result<()> {
        if let Some(since) = self.stopping_since {
            if self.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                let thread = self.thread.take().expect("checked above");
                match thread.join() {
                    Ok(Ok(summary)) if summary.shutdown => {}
                    Ok(Ok(_)) => self.problems.push("the daemon exited without the stop".into()),
                    Ok(Err(e)) => self.problems.push(format!("the daemon failed: {e}")),
                    Err(_) => self.problems.push("the daemon thread panicked".into()),
                }
                self.stop_ms = (now - since).as_secs_f64() * 1e3;
                std::fs::remove_file(self.spool.stop_path())?;
                let t = Instant::now();
                let daemon = Daemon::new(self.config.clone())?;
                self.restart_ms = t.elapsed().as_secs_f64() * 1e3;
                self.spawn(daemon);
                self.stopping_since = None;
            }
        } else if let Some(k) = self.restart_at {
            // Stop once spec k has checkpointed, so the daemon stops it
            // mid-run and the restarted daemon resumes it from its bundle.
            let id = &self.specs[k].id;
            if timelines[k].done.is_some() || self.spool.resume_path(id).exists() {
                std::fs::write(self.spool.stop_path(), "")?;
                self.stopping_since = Some(now);
                self.restart_at = None;
            }
        }
        Ok(())
    }

    fn restarting(&self) -> bool {
        self.restart_at.is_some() || self.stopping_since.is_some()
    }
}

/// A fresh directory inside this package's `target/` for one spool.
fn fresh_spool() -> io::Result<Spool> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("serve-{}-{n}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root)?;
    }
    std::fs::create_dir_all(&root)?;
    Ok(Spool::new(root))
}

/// Setup: a fresh spool, a daemon over it with `DaemonConfig::new`
/// defaults except one job at a time, and a warm-up running the first
/// spec of each pair directly, so caches fill and lazy set-up finishes
/// before the first spec is due. (The warm-up also keeps `setup_s` from
/// being a handful of filesystem calls whose latency varies by tens of
/// per cent.) Returns the `Daemon::new` time (ms) as well.
fn setup(specs: &[Spec]) -> io::Result<(DaemonConfig, Daemon, f64)> {
    let mut config = DaemonConfig::new(fresh_spool()?);
    config.jobs = 1;
    let t = Instant::now();
    let daemon = Daemon::new(config.clone())?;
    let startup_ms = t.elapsed().as_secs_f64() * 1e3;
    for spec in specs.iter().take(BenchmarkPair::test_pairs().len()) {
        black_box(Net::build(&spec.unit).run(spec.unit.cycles));
    }
    Ok((config, daemon, startup_ms))
}

/// Everything one serving session measured.
struct Served {
    units: Vec<Unit>,
    timelines: Vec<Timeline>,
    refs: Rounds,
    setup_secs: Vec<f64>,
    startup_ms: f64,
    stop_ms: f64,
    restart_ms: f64,
    resumed: u64,
    out_bytes: u64,
}

impl Served {
    /// Due-to-result latency of every served spec (ms).
    fn latencies(&self) -> Vec<f64> {
        self.timelines.iter().filter_map(Timeline::latency_ms).collect()
    }

    /// How late the generator wrote its latest spec (ms).
    fn generator_late_ms(&self) -> f64 {
        let late = self.timelines.iter().filter_map(|t| Some(t.written?.saturating_sub(t.due)));
        late.map(|d| d.as_secs_f64() * 1e3).fold(0.0, f64::max)
    }
}

/// Sets up `setup_repeats` times (keeping the last daemon), serves
/// `count` specs with a restart while spec `count / 2` runs,
/// simulates every spec directly in `ref_rounds` interleaved rounds, and
/// checks each served artifact against its direct run. Each spec is one
/// op. `None` when the session could not run at all.
fn serve(
    opts: &RunOpts,
    count: usize,
    setup_repeats: usize,
    ref_rounds: usize,
    outcome: &mut Outcome,
) -> Option<Served> {
    match serve_session(opts, count, setup_repeats, ref_rounds, outcome) {
        Ok(served) => Some(served),
        Err(e) => {
            outcome.ops.fail(format!("serving failed: {e}"));
            None
        }
    }
}

fn serve_session(
    opts: &RunOpts,
    count: usize,
    setup_repeats: usize,
    ref_rounds: usize,
    outcome: &mut Outcome,
) -> io::Result<Served> {
    let specs = specs(opts, count);
    let mut setup_secs = Vec::new();
    let mut session = None;
    for _ in 0..setup_repeats.max(1) {
        let t = Instant::now();
        let next = setup(&specs)?;
        setup_secs.push(t.elapsed().as_secs_f64());
        if let Some((config, _, _)) = session.replace(next) {
            std::fs::remove_dir_all(config.spool.root())?;
        }
    }
    let (config, daemon, startup_ms) = session.expect("at least one setup");
    let spool = config.spool.clone();

    let mut server = DaemonServer {
        spool: spool.clone(),
        config,
        specs: &specs,
        thread: None,
        restart_at: Some(count / 2),
        stopping_since: None,
        stop_ms: f64::NAN,
        restart_ms: f64::NAN,
        problems: Vec::new(),
    };
    server.spawn(daemon);
    let timelines = open_loop(&mut server, count, opts.plan.serve_interval);
    let summary = server.stop();
    let timelines = timelines?;
    let (stop_ms, restart_ms) = (server.stop_ms, server.restart_ms);
    let mut session_problems = std::mem::take(&mut server.problems);
    match summary {
        Ok(s) if s.rejected + s.quarantined + s.cancelled > 0 => session_problems
            .push(format!("the daemon rejected, quarantined or cancelled specs: {s:?}")),
        Ok(_) => {}
        Err(e) => session_problems.push(format!("the final daemon failed: {e}")),
    }
    for problem in session_problems {
        outcome.ops.fail(problem);
    }

    let units: Vec<Unit> = specs.iter().map(|s| s.unit.clone()).collect();
    let golden = opts.checks_golden().then(|| Golden::for_workload("serve"));
    if golden.as_ref().is_some_and(Golden::is_empty) {
        outcome.ops.fail("no golden digests blessed for serve");
    }
    let refs = measure(&units, Duration::ZERO, ref_rounds, golden.as_ref(), &mut outcome.ops);

    for (i, (spec, t)) in specs.iter().zip(&timelines).enumerate() {
        let problems = match t.done {
            None => vec![format!("no artifact within {GIVE_UP:?} of its due time")],
            Some(done) if done > t.due + GIVE_UP => vec!["artifact late".to_string()],
            Some(_) => check_artifact(&spool, spec, &refs.summaries[i], refs.hashes[i])
                .unwrap_or_else(|e| vec![format!("result artifact: {e}")]),
        };
        outcome.ops.record(&spec.id, &problems);
    }

    let events = pearl_telemetry::read_progress(spool.progress_path())?;
    let resumed = events.iter().filter(|e| e.kind == "resumed").count() as u64;
    let mut out_bytes = 0;
    for entry in std::fs::read_dir(spool.out())? {
        out_bytes += entry?.metadata()?.len();
    }
    if outcome.ops.failed == 0 {
        std::fs::remove_dir_all(spool.root())?;
    } else {
        outcome.note(format!("spool kept for inspection: {}", spool.root().display()));
    }
    Ok(Served {
        units,
        timelines,
        refs,
        setup_secs,
        startup_ms,
        stop_ms,
        restart_ms,
        resumed,
        out_bytes,
    })
}

/// Compares a served result artifact with the spec's direct run: every
/// summary field bit for bit and, for untraced specs, the state hash. (A
/// trace recorder's span state enters the state hash of a traced run,
/// so a traced spec's hash differs from its untraced direct run's.)
fn check_artifact(
    spool: &Spool,
    spec: &Spec,
    direct: &Summary,
    direct_hash: u64,
) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(spool.result_path(&spec.id)).map_err(|e| e.to_string())?;
    let doc = JsonValue::parse(text.trim()).map_err(|e| e.to_string())?;
    let mut problems = Vec::new();
    for (name, expected) in direct.artifact_fields() {
        let served = doc.get("summary").and_then(|s| s.get(name)).and_then(JsonValue::as_f64);
        if served.map(f64::to_bits) != Some(expected.to_bits()) {
            problems.push(format!("summary {name}: served {served:?}, direct run {expected}"));
        }
    }
    if !spec.traced {
        let hex = doc.get("state_hash").and_then(JsonValue::as_str).ok_or("no state_hash")?;
        let hash = u64::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        if hash != direct_hash {
            problems.push(format!("state hash {hash:016x} != direct run {direct_hash:016x}"));
        }
    }
    Ok(problems)
}

/// Records the serve layer's per-layer metrics.
fn serve_layer_metrics(outcome: &mut Outcome, served: &Served) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let stage = |f: &dyn Fn(&Timeline) -> Option<Duration>| -> f64 {
        median(&served.timelines.iter().filter_map(f).map(ms).collect::<Vec<_>>())
    };
    outcome.metric("serve.startup_ms", served.startup_ms);
    outcome.metric("serve.stop_ms", served.stop_ms);
    outcome.metric("serve.restart_ms", served.restart_ms);
    outcome.metric("serve.admit_ms_p50", stage(&|t| Some(t.admitted?.saturating_sub(t.due))));
    outcome.metric("serve.run_ms_p50", stage(&|t| Some(t.done?.saturating_sub(t.admitted?))));
    let direct_ms: Vec<f64> = served.refs.best_secs().iter().map(|s| s * 1e3).collect();
    outcome.metric("serve.direct_ms_p50", median(&direct_ms));
    outcome.metric("serve.latency_p90_ms", percentile(&served.latencies(), 90.0));
    outcome.metric("serve.out_bytes", served.out_bytes as f64);
    outcome.metric("serve.resumed_jobs", served.resumed as f64);
    outcome.metric("serve.generator_late_ms_max", served.generator_late_ms());
}

/// Specs served in a run: one due every `plan.serve_interval` for the
/// whole measurement budget.
pub fn spec_count(opts: &RunOpts) -> usize {
    let count = opts.seconds.as_secs_f64() / opts.plan.serve_interval.as_secs_f64();
    (count.floor() as usize).max(2)
}

/// The serve workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut outcome = Outcome::default();
    let interval = opts.plan.serve_interval.as_secs_f64();
    let count = spec_count(opts);
    let repeats = if opts.trace { 1 } else { opts.plan.setup_repeats };
    let Some(served) = serve(opts, count, repeats, 2, &mut outcome) else {
        return outcome;
    };
    let units = &served.units;
    if opts.trace {
        serve_layer_metrics(&mut outcome, &served);
        net_layers(
            &mut outcome,
            units,
            &served.refs.digests,
            opts.seconds / 2,
            served.refs.cycles_per_s(units),
        );
        traffic_layer(&mut outcome, units);
        ml_layer(&mut outcome, &opts.plan);
        sim_layer(&mut outcome, &served.refs.summaries);
        return outcome;
    }

    let latencies = served.latencies();
    outcome.metric("latency_ms", median(&latencies));
    let tail = match tail_percentile(latencies.len()) {
        Some(p) => format!("p{p} = {:.1} ms", percentile(&latencies, p)),
        None => "none has 10 samples beyond it".to_string(),
    };
    outcome.note(format!(
        "latency over {} specs due every {:.0} ms: p50 {:.1} ms; highest supported tail {tail}",
        latencies.len(),
        interval * 1e3,
        median(&latencies)
    ));
    outcome.note(format!(
        "generator at most {:.1} ms late; restart: stop {:.1} ms, Daemon::new {:.1} ms; \
         {} jobs resumed from a checkpoint",
        served.generator_late_ms(),
        served.stop_ms,
        served.restart_ms,
        served.resumed
    ));
    rounds_metrics(&mut outcome, units, &served.refs);
    record_peak_rss(&mut outcome);
    outcome.metric("setup_s", median(&served.setup_secs));
    model_metrics(&mut outcome, &served.refs.summaries);
    outcome
}

/// The serve layer of a traced run of another workload: a short session
/// of `plan.serve_probe_specs` specs with the same mix and restart.
pub fn probe_layer(outcome: &mut Outcome, opts: &RunOpts) {
    if let Some(served) = serve(opts, opts.plan.serve_probe_specs, 1, 1, outcome) {
        serve_layer_metrics(outcome, &served);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single FIFO server with a fixed service time that stops serving
    /// during `stall`.
    struct FakeServer {
        clock: Instant,
        service: Duration,
        stall: std::ops::Range<Duration>,
        free_at: Duration,
        done_at: Vec<Option<Duration>>,
    }

    impl Server for FakeServer {
        fn submit(&mut self, i: usize) -> io::Result<()> {
            let mut begin = self.clock.elapsed().max(self.free_at);
            if self.stall.contains(&begin) {
                begin = self.stall.end;
            }
            self.free_at = begin + self.service;
            self.done_at[i] = Some(self.free_at);
            Ok(())
        }
        fn admitted(&self, i: usize) -> bool {
            self.done_at[i].is_some()
        }
        fn done(&self, i: usize) -> bool {
            self.done_at[i].is_some_and(|d| self.clock.elapsed() >= d)
        }
        fn tick(&mut self, _: Duration, _: &[Timeline]) -> io::Result<()> {
            Ok(())
        }
        fn restarting(&self) -> bool {
            false
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_so_a_stall_inflates_later_specs() {
        let ms = Duration::from_millis;
        let mut server = FakeServer {
            clock: Instant::now(),
            service: ms(1),
            stall: ms(40)..ms(140),
            free_at: Duration::ZERO,
            done_at: vec![None; 40],
        };
        let timelines = open_loop(&mut server, 40, ms(5)).unwrap();
        for t in &timelines {
            let latency = t.latency_ms().unwrap();
            if server.stall.contains(&t.due) {
                // Every spec due during the stall waits for its end.
                let wait = (server.stall.end - t.due).as_secs_f64() * 1e3;
                assert!(latency >= wait, "due {:?}: {latency} ms < {wait} ms", t.due);
            }
        }
        // The spec due first in the stall waits the whole stall; a
        // closed loop would never have sent it during the stall.
        let first_in_stall = timelines.iter().find(|t| t.due >= ms(40)).unwrap();
        assert!(first_in_stall.latency_ms().unwrap() >= 100.0);
        // Well after the stall the server keeps up again.
        let after: Vec<f64> = timelines
            .iter()
            .filter(|t| t.due >= ms(170))
            .filter_map(Timeline::latency_ms)
            .collect();
        assert!(median(&after) < 50.0, "{after:?}");
    }
}
