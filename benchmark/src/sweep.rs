//! The three sweep workloads (`pearl_dyn`, `pearl_ml`, `cmesh`) and the
//! interleaved-rounds timing loop they share with the serve workload's
//! direct reference runs.

use crate::digest::Golden;
use crate::layers;
use crate::metrics::{Ops, Outcome};
use crate::net::{Fabric, Net, Summary, Unit};
use crate::serve;
use crate::stats::{fastest_round_total, median, quartiles};
use crate::workload::{record_peak_rss, Plan, RunOpts, Workload};
use pearl_core::{MlTrainer, PearlPolicy, TrainedModel};
use pearl_workloads::BenchmarkPair;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reservation window of the ML workload and the ML layer probe.
pub const ML_WINDOW: u64 = 500;

/// The ML trainer of the `pearl_ml` setup: the figures' pipeline
/// (`MlTrainer::new(500)`: two collection passes over the 36 training
/// and 4 validation pairs, λ selection after each) with shorter
/// collection runs, so that setup can be repeated within a run.
pub fn trainer(plan: &Plan) -> MlTrainer {
    MlTrainer { cycles_per_pair: plan.ml_train_cycles, ..MlTrainer::new(ML_WINDOW) }
}

/// `replicas` units for each of the first `plan.sweep_pairs` test pairs
/// under `fabric`; unit `u` (replica `u / pairs` of pair `u % pairs`) is
/// seeded `seed + u`. Several short units per pair average the seed's
/// effect on the load more than one long unit does.
pub fn sweep_units(fabric: &Fabric, cycles: u64, replicas: usize, opts: &RunOpts) -> Vec<Unit> {
    let pairs: Vec<BenchmarkPair> =
        BenchmarkPair::test_pairs().into_iter().take(opts.plan.sweep_pairs).collect();
    (0..replicas * pairs.len())
        .map(|u| {
            let pair = pairs[u % pairs.len()];
            Unit {
                key: format!("{}/{}", pair.label(), u / pairs.len()),
                fabric: fabric.clone(),
                pair,
                seed: opts.seed.wrapping_add(u as u64),
                cycles,
            }
        })
        .collect()
}

/// A workload ready to time.
struct Setup {
    units: Vec<Unit>,
    model: Option<TrainedModel>,
}

/// Builds the units (training the ML model first for `pearl_ml`) and
/// warms every unit up for `plan.warmup_cycles`, so caches fill and lazy
/// set-up finishes before timing.
fn setup(workload: Workload, opts: &RunOpts) -> Result<Setup, String> {
    let plan = &opts.plan;
    let (fabric, model) = match workload {
        Workload::PearlDyn => (Fabric::Pearl(Box::new(PearlPolicy::dyn_64wl())), None),
        Workload::PearlMl => {
            let model = trainer(plan).train().map_err(|e| format!("ML training failed: {e:?}"))?;
            (
                Fabric::Pearl(Box::new(PearlPolicy::ml(ML_WINDOW, model.scaler.clone(), true))),
                Some(model),
            )
        }
        Workload::Cmesh => (Fabric::Cmesh, None),
        Workload::Serve => unreachable!("serve is not a sweep"),
    };
    // A PEARL cycle's host cost grows with the load the seed produces; a
    // CMESH cycle's barely does, so CMESH needs no replicas.
    let units = match fabric {
        Fabric::Pearl(_) => sweep_units(&fabric, plan.pearl_cycles, plan.pearl_replicas, opts),
        Fabric::Cmesh => sweep_units(&fabric, plan.cmesh_cycles, 1, opts),
    };
    for unit in &units {
        black_box(Net::build(unit).run(plan.warmup_cycles));
    }
    Ok(Setup { units, model })
}

/// The units of a sweep workload, as its setup builds them.
pub fn units(workload: Workload, opts: &RunOpts) -> Result<Vec<Unit>, String> {
    setup(workload, opts).map(|s| s.units)
}

/// Timings of interleaved rounds over a list of units.
pub struct Rounds {
    /// `secs[u][r]`: unit `u`'s build + run time in round `r`.
    pub secs: Vec<Vec<f64>>,
    /// Each unit's summary (all rounds agree, or the op failed).
    pub summaries: Vec<Summary>,
    /// Each unit's digest.
    pub digests: Vec<u64>,
    /// Each unit's final state hash.
    pub hashes: Vec<u64>,
}

impl Rounds {
    /// Each unit's fastest round (s).
    pub fn best_secs(&self) -> Vec<f64> {
        self.secs.iter().map(|r| r.iter().copied().fold(f64::INFINITY, f64::min)).collect()
    }

    /// Simulated cycles per host second by the fastest-round estimator.
    pub fn cycles_per_s(&self, units: &[Unit]) -> f64 {
        total_cycles(units) / fastest_round_total(&self.secs)
    }

    /// Simulated cycles per host second of each whole round.
    pub fn round_rates(&self, units: &[Unit]) -> Vec<f64> {
        let rounds = self.secs.first().map_or(0, Vec::len);
        (0..rounds)
            .map(|r| total_cycles(units) / self.secs.iter().map(|s| s[r]).sum::<f64>())
            .collect()
    }
}

pub fn total_cycles(units: &[Unit]) -> f64 {
    units.iter().map(|u| u.cycles as f64).sum()
}

/// Runs every unit once per round, interleaved, for at least
/// `min_rounds` rounds and then while another round fits in `budget`.
/// Each unit run is one op: it must conserve packets and reproduce the
/// first round's digest, which must match `golden`.
pub fn measure(
    units: &[Unit],
    budget: Duration,
    min_rounds: usize,
    golden: Option<&Golden>,
    ops: &mut Ops,
) -> Rounds {
    let start = Instant::now();
    let mut secs = vec![Vec::new(); units.len()];
    let mut summaries = Vec::with_capacity(units.len());
    let mut digests = Vec::with_capacity(units.len());
    let mut hashes = Vec::with_capacity(units.len());
    for round in 0.. {
        let round_start = Instant::now();
        for (u, unit) in units.iter().enumerate() {
            let t = Instant::now();
            let mut net = Net::build(unit);
            let summary = net.run(unit.cycles);
            secs[u].push(t.elapsed().as_secs_f64());

            let hash = net.state_hash();
            let digest = summary.digest(hash);
            let mut problems = Vec::new();
            if !net.conserves_packets() {
                problems.push("packets not conserved".to_string());
            }
            if round == 0 {
                if let Some(expected) = golden.and_then(|g| g.get(&unit.key)) {
                    if digest != expected {
                        problems.push(format!("digest {digest:016x} != golden {expected:016x}"));
                    }
                }
                summaries.push(summary);
                digests.push(digest);
                hashes.push(hash);
            } else if digest != digests[u] {
                problems.push(format!("round {} digest differs from round 1", round + 1));
            }
            ops.record(&unit.key, &problems);
        }
        if round + 1 >= min_rounds && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    Rounds { secs, summaries, digests, hashes }
}

/// Runs every unit once more and checks that a checkpoint of its final
/// state survives the round trip through text. Kept out of the timed
/// rounds and after the memory reading: the parsed checkpoint costs more
/// memory than the simulation it checks.
fn check_codecs(units: &[Unit], ops: &mut Ops) {
    for unit in units {
        let mut net = Net::build(unit);
        net.run(unit.cycles);
        let problems: Vec<String> =
            layers::codec_round_trip(unit, &net).err().into_iter().collect();
        ops.record(&format!("{} checkpoint", unit.key), &problems);
    }
}

/// Records the three modelled end-to-end metrics: means over `summaries`.
pub fn model_metrics(outcome: &mut Outcome, summaries: &[Summary]) {
    let mean =
        |f: fn(&Summary) -> f64| summaries.iter().map(f).sum::<f64>() / summaries.len() as f64;
    outcome.metric("sim_flits_per_cycle", mean(Summary::flits_per_cycle));
    outcome.metric("sim_pj_per_bit", mean(Summary::pj_per_bit));
    outcome.metric("sim_power_w", mean(Summary::power_w));
}

/// Records the timing metrics of measured rounds.
pub fn rounds_metrics(outcome: &mut Outcome, units: &[Unit], rounds: &Rounds) {
    outcome.metric("sim_cycles_per_s", rounds.cycles_per_s(units));
    let rates = rounds.round_rates(units);
    let [q1, q2, q3] = quartiles(&rates);
    outcome.note(format!(
        "{} rounds of {} units; per-round cycles/s median {q2:.0}, quartiles {q1:.0}..{q3:.0} \
         (diagnostic; the metric uses each unit's fastest round)",
        rates.len(),
        units.len()
    ));
}

/// Runs one sweep workload.
pub fn run(workload: Workload, opts: &RunOpts) -> Outcome {
    let mut outcome = Outcome::default();
    let golden = opts.checks_golden().then(|| Golden::for_workload(workload.name()));
    if golden.as_ref().is_some_and(Golden::is_empty) {
        outcome.ops.fail(format!("no golden digests blessed for {}", workload.name()));
    }

    let repeats = if opts.trace { 1 } else { opts.plan.setup_repeats };
    let mut setup_secs = Vec::new();
    let mut ready: Option<Setup> = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let next = match setup(workload, opts) {
            Ok(s) => s,
            Err(e) => {
                outcome.ops.fail(e);
                return outcome;
            }
        };
        setup_secs.push(t.elapsed().as_secs_f64());
        if let (Some(a), Some(b)) = (ready.as_ref().and_then(|s| s.model.as_ref()), &next.model) {
            let fingerprint = |m: &TrainedModel| {
                (m.lambda.to_bits(), m.validation_nrmse.to_bits(), m.training_samples)
            };
            if fingerprint(a) != fingerprint(b) {
                outcome.ops.fail("ML training gave a different model on a repeated setup");
            }
        }
        ready = Some(next);
    }
    let Setup { units, model } = ready.expect("at least one setup");
    if let Some(m) = &model {
        outcome.note(format!(
            "ML RW{ML_WINDOW} model: lambda {} validation NRMSE {:.4} from {} samples",
            m.lambda, m.validation_nrmse, m.training_samples
        ));
    }

    if !opts.trace {
        let rounds = measure(&units, opts.seconds, 2, golden.as_ref(), &mut outcome.ops);
        record_peak_rss(&mut outcome);
        check_codecs(&units, &mut outcome.ops);
        rounds_metrics(&mut outcome, &units, &rounds);
        // A unit is one experiment point: the mean time to produce one.
        let best = rounds.best_secs();
        outcome.metric("latency_ms", best.iter().sum::<f64>() / best.len() as f64 * 1e3);
        outcome.metric("setup_s", median(&setup_secs));
        model_metrics(&mut outcome, &rounds.summaries);
        return outcome;
    }

    // Traced: half the budget untraced for the overhead baseline, half
    // driving every unit cycle by cycle.
    let half = opts.seconds / 2;
    let rounds = measure(&units, half, 2, golden.as_ref(), &mut outcome.ops);
    let untraced_rate = rounds.cycles_per_s(&units);
    layers::net_layers(&mut outcome, &units, &rounds.digests, half, untraced_rate);
    layers::traffic_layer(&mut outcome, &units);
    layers::ml_layer(&mut outcome, &opts.plan);
    serve::probe_layer(&mut outcome, opts);
    layers::sim_layer(&mut outcome, &rounds.summaries);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::tiny;

    #[test]
    fn unit_digests_repeat_across_runs_and_move_with_the_seed() {
        let opts = tiny(false);
        for workload in [Workload::PearlDyn, Workload::Cmesh] {
            let list = units(workload, &opts).unwrap();
            let digests = || {
                let mut ops = Ops::default();
                let rounds = measure(&list, Duration::ZERO, 2, None, &mut ops);
                check_codecs(&list, &mut ops);
                assert_eq!(ops.failed, 0, "{:?}", ops.failures);
                rounds.digests
            };
            assert_eq!(digests(), digests());
            let reseeded = RunOpts { seed: opts.seed + 1, ..opts };
            let mut ops = Ops::default();
            let other =
                measure(&units(workload, &reseeded).unwrap(), Duration::ZERO, 1, None, &mut ops);
            assert_ne!(digests()[0], other.digests[0]);
        }
    }

    #[test]
    fn a_golden_mismatch_fails_the_unit() {
        let units = units(Workload::PearlDyn, &tiny(false)).unwrap();
        let golden = crate::digest::Golden::for_workload("pearl_dyn");
        let mut ops = Ops::default();
        measure(&units, Duration::ZERO, 1, Some(&golden), &mut ops);
        // The tiny units share their keys with the blessed full-size
        // units but not their digests.
        assert_eq!(ops.failed, units.len() as u64, "{:?}", ops.failures);
    }
}
