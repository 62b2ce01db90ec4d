//! Proactive ML-based power scaling (§III-D, §IV-A of the paper).
//!
//! A ridge-regression model predicts the traffic each router will inject
//! during the next reservation window; Eq. 7 then selects the smallest
//! wavelength state whose channel capacity covers the prediction.
//!
//! The paper predicts the *number of packets* and multiplies by packet
//! size in Eq. 7. Our label is directly in flit units (packets × size
//! folded together), which makes Eq. 7 a one-sided capacity comparison
//! without needing a separate mean-packet-size estimate; the predicted
//! quantity is otherwise the same.
//!
//! [`MlTrainer`] reproduces the paper's offline pipeline end-to-end:
//! random-wavelength collection over the 36 training pairs, λ selection
//! on the 4 validation pairs, then a second collection pass driven by the
//! first model "to best mimic the testing environment" (§IV-A).
//!
//! Each pass simulates its 40 pairs as one batch on a [`JobPool`] of
//! [`MlTrainer::jobs`] workers. Every run's seed is fixed by its pair's
//! index and the datasets are joined in pair order, so the trained model
//! is the same at any width; `jobs: 1` runs the batch on the calling
//! thread. The λ search of each pass then runs on the calling thread,
//! from one Gram matrix for the whole λ grid ([`select_lambda`]).

use crate::features::{FeatureVector, FEATURE_COUNT};
use crate::network::NetworkBuilder;
use crate::policy::PearlPolicy;
use crate::pool::{available_jobs, JobPool};
use crate::power_scaling::ReactiveThresholds;
use pearl_ml::{
    select_lambda, Dataset, FitError, LambdaSelection, PolynomialExpansion, DEFAULT_LAMBDA_GRID,
};
use pearl_photonics::WavelengthState;
use pearl_workloads::BenchmarkPair;

/// The deployed per-router predictor: ridge model + Eq. 7 selection.
#[derive(Debug, Clone, PartialEq)]
pub struct MlPowerScaler {
    selection: LambdaSelection,
    /// Capacity guard factor: the chosen state must cover
    /// `guard × predicted` flits. >1 biases towards higher states.
    guard: f64,
    /// Optional degree-2 basis expansion applied before prediction (the
    /// paper's future-work "improve the prediction accuracy" lever).
    expansion: Option<PolynomialExpansion>,
}

impl MlPowerScaler {
    /// Wraps a trained λ-selection with the default guard factor (1.25,
    /// leaving 20 % headroom for prediction error within the window).
    pub fn new(selection: LambdaSelection) -> MlPowerScaler {
        MlPowerScaler { selection, guard: 1.25, expansion: None }
    }

    /// Attaches a polynomial basis expansion (the model must have been
    /// trained on correspondingly expanded features).
    pub fn with_expansion(mut self, expansion: PolynomialExpansion) -> MlPowerScaler {
        self.expansion = Some(expansion);
        self
    }

    /// Sets a custom guard factor.
    ///
    /// # Panics
    ///
    /// Panics unless `guard > 0`.
    pub fn with_guard(mut self, guard: f64) -> MlPowerScaler {
        assert!(guard > 0.0, "guard factor must be positive, got {guard}");
        self.guard = guard;
        self
    }

    /// The underlying λ selection (for NRMSE reporting).
    pub fn selection(&self) -> &LambdaSelection {
        &self.selection
    }

    /// Predicts next-window injected flits for one feature vector
    /// (clamped to ≥ 0 — a negative traffic prediction is meaningless).
    pub fn predict_flits(&self, features: &FeatureVector) -> f64 {
        let raw = match &self.expansion {
            Some(e) => self.selection.predict(&e.expand(features.values())),
            None => self.selection.predict(features.values()),
        };
        raw.max(0.0)
    }

    /// Eq. 7: the smallest wavelength state whose `window`-cycle capacity
    /// (over `channels` parallel channels) covers the guarded prediction.
    pub fn select_state(
        &self,
        predicted_flits: f64,
        window: u64,
        channels: u64,
        allow_8wl: bool,
    ) -> WavelengthState {
        select_state_eq7(predicted_flits, window, channels, allow_8wl, self.guard)
    }
}

/// Eq. 7 of the paper as a free function: the smallest wavelength state
/// whose `window`-cycle flit capacity (over `channels` parallel
/// channels) covers `guard × predicted_flits`.
///
/// The 8 λ state was re-introduced after training (§IV) and
/// mispredictions there are the most expensive (16-cycle serialization),
/// so it demands 1.35× extra headroom.
pub fn select_state_eq7(
    predicted_flits: f64,
    window: u64,
    channels: u64,
    allow_8wl: bool,
    guard: f64,
) -> WavelengthState {
    let need = predicted_flits * guard;
    let states: &[WavelengthState] =
        if allow_8wl { &WavelengthState::ALL } else { &WavelengthState::WITHOUT_W8 };
    for &state in states {
        let capacity = (state.flit_capacity(window) * channels) as f64;
        let required = if state == WavelengthState::W8 { need * 1.35 } else { need };
        if capacity >= required {
            return state;
        }
    }
    WavelengthState::W64
}

/// A fully trained model plus the diagnostics the paper reports.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The deployable predictor.
    pub scaler: MlPowerScaler,
    /// Reservation window the model was trained for.
    pub window: u64,
    /// Winning regularization coefficient.
    pub lambda: f64,
    /// NRMSE on the validation pairs (paper: 0.79 for both windows).
    pub validation_nrmse: f64,
    /// Number of training samples used in the final fit.
    pub training_samples: usize,
}

/// Offline training pipeline over benchmark pairs.
#[derive(Debug, Clone, Copy)]
pub struct MlTrainer {
    /// Reservation window (500, 1000 or 2000 cycles in the paper).
    pub window: u64,
    /// Simulated cycles per benchmark pair during collection.
    pub cycles_per_pair: u64,
    /// Master seed for all collection runs.
    pub seed: u64,
    /// Guard factor handed to the resulting [`MlPowerScaler`].
    pub guard: f64,
    /// Optional degree-2 basis expansion (future-work extension; the
    /// paper's model is linear).
    pub expansion: Option<PolynomialExpansion>,
    /// Worker threads for the collection runs (1 runs them one after
    /// another on the calling thread). The trained model does not
    /// depend on it.
    pub jobs: usize,
}

impl MlTrainer {
    /// A trainer with sensible defaults for the given window.
    ///
    /// The default guard factor encodes the paper's observed trade-off:
    /// short windows (RW500) are tuned to maximize power savings
    /// (aggressive down-scaling, accepting throughput loss), long windows
    /// (RW2000) to preserve throughput (§IV-C). Collection runs on as
    /// many workers as the machine has ([`available_jobs`]).
    pub fn new(window: u64) -> MlTrainer {
        let guard = if window >= 2000 { 1.25 } else { 0.8 };
        MlTrainer {
            window,
            cycles_per_pair: 30_000,
            seed: DEFAULT_TRAINER_SEED,
            guard,
            expansion: None,
            jobs: available_jobs(),
        }
    }

    /// Enables the degree-2 basis expansion for the trained model.
    pub fn with_expansion(mut self, expansion: PolynomialExpansion) -> MlTrainer {
        self.expansion = Some(expansion);
        self
    }

    /// Applies the configured basis expansion to a collected dataset,
    /// handing it back untouched when there is none.
    fn expand(&self, data: Dataset) -> Dataset {
        match &self.expansion {
            Some(e) => e.expand_dataset(&data),
            None => data,
        }
    }

    /// Builds a deployable scaler from a λ selection.
    fn scaler_from(&self, selection: LambdaSelection) -> MlPowerScaler {
        let scaler = MlPowerScaler::new(selection).with_guard(self.guard);
        match self.expansion {
            Some(e) => scaler.with_expansion(e),
            None => scaler,
        }
    }

    /// The samples of one collection run: `pair` simulated under
    /// `policy` for `cycles_per_pair` cycles, seeded `seed + index`.
    fn collect_one(&self, pair: BenchmarkPair, index: usize, policy: &PearlPolicy) -> Dataset {
        NetworkBuilder::new()
            .policy(policy.clone())
            .seed(self.seed.wrapping_add(index as u64))
            .build(pair)
            .run_collecting(self.cycles_per_pair)
    }

    /// Collects one dataset by simulating every pair under `policy`,
    /// pair `i` seeded `seed + i`. The runs fan out on [`Self::jobs`]
    /// workers and their samples are joined in pair order, so the
    /// dataset is the same at any width.
    pub fn collect(&self, pairs: &[BenchmarkPair], policy: &PearlPolicy) -> Dataset {
        concat(JobPool::new(self.jobs).map(pairs, |i, &pair| self.collect_one(pair, i, policy)))
    }

    /// One pass of §IV-A: the training and the validation pairs are
    /// collected under `policy` as one batch, then λ is chosen on the
    /// validation samples. Validation pair `i` is seeded `seed + i`,
    /// like training pair `i`. Returns the selection and the number of
    /// training samples.
    fn pass(&self, policy: &PearlPolicy) -> Result<(LambdaSelection, usize), FitError> {
        let training = BenchmarkPair::training_pairs();
        let runs: Vec<(usize, BenchmarkPair)> = training
            .iter()
            .copied()
            .enumerate()
            .chain(BenchmarkPair::validation_pairs().into_iter().enumerate())
            .collect();
        let mut collected =
            JobPool::new(self.jobs).map(&runs, |_, &(i, pair)| self.collect_one(pair, i, policy));
        let validation = concat(collected.split_off(training.len()));
        let training = concat(collected);
        let samples = training.len();
        let selection =
            select_lambda(&self.expand(training), &self.expand(validation), &DEFAULT_LAMBDA_GRID)?;
        Ok((selection, samples))
    }

    /// Runs the full two-pass pipeline of §IV-A.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if a ridge fit fails (cannot happen with a
    /// non-empty collection and λ > 0, but surfaced rather than hidden).
    pub fn train(&self) -> Result<TrainedModel, FitError> {
        // Pass 1: unbiased collection under random wavelength states.
        let (first, _) = self.pass(&PearlPolicy::random_walk(self.window))?;

        // Pass 2: re-collect with the wavelength states the first model
        // would choose, mimicking the deployment environment. The 8 λ
        // state is excluded during training (§IV-B).
        let driven = PearlPolicy::ml(self.window, self.scaler_from(first), false);
        let (last, training_samples) = self.pass(&driven)?;

        Ok(TrainedModel {
            lambda: last.lambda,
            validation_nrmse: last.validation_nrmse,
            training_samples,
            window: self.window,
            scaler: self.scaler_from(last),
        })
    }
}

/// Joins collection runs in order, moving their samples.
fn concat(runs: Vec<Dataset>) -> Dataset {
    let mut data = Dataset::new(FEATURE_COUNT);
    for run in runs {
        data.append(run).expect("feature dimension is fixed");
    }
    data
}

/// Default master seed for training-data collection runs.
const DEFAULT_TRAINER_SEED: u64 = 0x9E4A7;

/// Rungs of the graceful-degradation ladder, ordered from most to least
/// trusting of the ML predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScalingMode {
    /// ML-proactive prediction drives Eq. 7 (healthy predictor).
    MlProactive,
    /// Reactive occupancy thresholds (Algorithm 1 steps 6–8): the
    /// predictor's recent accuracy fell below the demotion threshold.
    Reactive,
    /// Static full power: accuracy is so poor the workload is assumed
    /// adversarial to any windowed estimate (last resort, never loses
    /// throughput to a misprediction).
    StaticFull,
}

impl ScalingMode {
    /// All modes in ladder order — the stable index space checkpoints
    /// serialize the mode through.
    pub const ALL: [ScalingMode; 3] =
        [ScalingMode::MlProactive, ScalingMode::Reactive, ScalingMode::StaticFull];
}

// `pearl-telemetry` sits below `pearl-core` in the dependency graph and
// mirrors this enum as `LadderMode`; the conversion lives here so trace
// emission never falls out of sync with the ladder.
impl From<ScalingMode> for pearl_telemetry::LadderMode {
    fn from(mode: ScalingMode) -> pearl_telemetry::LadderMode {
        match mode {
            ScalingMode::MlProactive => pearl_telemetry::LadderMode::MlProactive,
            ScalingMode::Reactive => pearl_telemetry::LadderMode::Reactive,
            ScalingMode::StaticFull => pearl_telemetry::LadderMode::StaticFull,
        }
    }
}

/// Configuration of the online accuracy monitor behind the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackConfig {
    /// Sliding-window length in (prediction, actual) samples. Each
    /// router contributes one sample per reservation window.
    pub samples: usize,
    /// Fit score (1 = perfect, negative = worse than predicting the
    /// mean) below which the ladder demotes to [`ScalingMode::Reactive`].
    pub demote_below: f64,
    /// Fit score below which the ladder drops all the way to
    /// [`ScalingMode::StaticFull`].
    pub severe_below: f64,
    /// Consecutive healthy evaluations required to climb one rung back.
    pub recovery_evals: u32,
    /// Thresholds used while demoted to reactive mode.
    pub thresholds: ReactiveThresholds,
}

impl FallbackConfig {
    /// Defaults: a 16-sample window (one reservation window of samples
    /// on the 17-endpoint PEARL topology fills it), demotion when the
    /// predictor scores worse than the mean-predictor baseline,
    /// full-power retreat below −1, and 8 healthy evaluations to climb.
    pub fn pearl() -> FallbackConfig {
        FallbackConfig {
            samples: 16,
            demote_below: 0.0,
            severe_below: -1.0,
            recovery_evals: 8,
            thresholds: ReactiveThresholds::pearl(),
        }
    }
}

impl Default for FallbackConfig {
    fn default() -> Self {
        FallbackConfig::pearl()
    }
}

/// Complete dynamic state of a [`DegradationLadder`], for checkpointing.
/// The [`FallbackConfig`] is static configuration and is rebuilt from the
/// policy, not snapshotted.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderState {
    /// Mode currently in force.
    pub mode: ScalingMode,
    /// Sliding accuracy window of (predicted, actual) pairs, oldest
    /// first.
    pub window: Vec<(f64, f64)>,
    /// Consecutive healthy evaluations towards the next recovery rung.
    pub healthy_streak: u32,
    /// Most recent fit score, if the window has filled at least once.
    pub last_score: Option<f64>,
    /// Every mode change so far.
    pub transitions: Vec<crate::timeline::ModeTransition>,
}

/// Online accuracy monitor and mode ladder for the deployed predictor.
///
/// Every reservation window each router reports the flits the predictor
/// forecast for the window and the flits actually offered. The ladder
/// keeps a sliding window of those pairs and scores it with the paper's
/// normalized-RMSE fit convention (§IV-C): demote when the score falls
/// below the threshold, recover one rung after a streak of healthy
/// evaluations. Predictions keep being scored while demoted (shadow
/// mode), which is what makes recovery observable.
#[derive(Debug, Clone)]
pub struct DegradationLadder {
    config: FallbackConfig,
    mode: ScalingMode,
    window: std::collections::VecDeque<(f64, f64)>,
    healthy_streak: u32,
    last_score: Option<f64>,
    transitions: Vec<crate::timeline::ModeTransition>,
}

impl DegradationLadder {
    /// A ladder starting in ML-proactive mode.
    pub fn new(config: FallbackConfig) -> DegradationLadder {
        assert!(config.samples >= 2, "accuracy window needs at least two samples");
        assert!(
            config.severe_below <= config.demote_below,
            "severe threshold must not exceed the demotion threshold"
        );
        DegradationLadder {
            config,
            mode: ScalingMode::MlProactive,
            window: std::collections::VecDeque::new(),
            healthy_streak: 0,
            last_score: None,
            transitions: Vec::new(),
        }
    }

    /// The mode currently in force.
    #[inline]
    pub fn mode(&self) -> ScalingMode {
        self.mode
    }

    /// Reactive thresholds used while demoted.
    #[inline]
    pub fn thresholds(&self) -> &ReactiveThresholds {
        &self.config.thresholds
    }

    /// The most recent sliding-window fit score, once enough samples
    /// have accumulated.
    #[inline]
    pub fn last_score(&self) -> Option<f64> {
        self.last_score
    }

    /// Every mode change so far, in order.
    #[inline]
    pub fn transitions(&self) -> &[crate::timeline::ModeTransition] {
        &self.transitions
    }

    /// Fit score of the sliding window, in the [`pearl_ml::nrmse_fit`]
    /// convention but with the normalizer floored: a constant-traffic
    /// window divides by max(label spread, 1 flit² per sample) instead
    /// of collapsing to −∞ on rounding error.
    fn fit_score(&self) -> f64 {
        let n = self.window.len() as f64;
        let mean = self.window.iter().map(|(_, a)| a).sum::<f64>() / n;
        let err: f64 = self.window.iter().map(|(p, a)| (a - p) * (a - p)).sum();
        let spread: f64 = self.window.iter().map(|(_, a)| (a - mean) * (a - mean)).sum();
        1.0 - (err / spread.max(n)).sqrt()
    }

    fn shift(&mut self, to: ScalingMode, now: u64) {
        if to == self.mode {
            return;
        }
        self.transitions.push(crate::timeline::ModeTransition { at: now, from: self.mode, to });
        self.mode = to;
        self.healthy_streak = 0;
    }

    /// Captures the complete dynamic state for a checkpoint.
    pub fn export_state(&self) -> LadderState {
        LadderState {
            mode: self.mode,
            window: self.window.iter().copied().collect(),
            healthy_streak: self.healthy_streak,
            last_score: self.last_score,
            transitions: self.transitions.clone(),
        }
    }

    /// Restores state captured by [`Self::export_state`], keeping this
    /// ladder's configuration.
    pub fn import_state(&mut self, state: &LadderState) {
        self.mode = state.mode;
        self.window = state.window.iter().copied().collect();
        self.healthy_streak = state.healthy_streak;
        self.last_score = state.last_score;
        self.transitions = state.transitions.clone();
    }

    /// Feeds one (predicted, actual) flit pair observed at cycle `now`
    /// and re-evaluates the ladder once the window is full.
    pub fn observe(&mut self, predicted: f64, actual: f64, now: u64) {
        self.window.push_back((predicted, actual));
        if self.window.len() > self.config.samples {
            self.window.pop_front();
        }
        if self.window.len() < self.config.samples {
            return;
        }
        let score = self.fit_score();
        self.last_score = Some(score);
        if score < self.config.demote_below {
            // Demotion is immediate — one bad window costs power or
            // latency, so the ladder reacts within the window.
            let target = if score < self.config.severe_below {
                ScalingMode::StaticFull
            } else {
                ScalingMode::Reactive
            };
            if target > self.mode {
                self.shift(target, now);
            } else {
                self.healthy_streak = 0;
            }
        } else {
            // Recovery is deliberate: one healthy rung per streak.
            self.healthy_streak += 1;
            if self.healthy_streak >= self.config.recovery_evals {
                let up = match self.mode {
                    ScalingMode::MlProactive => ScalingMode::MlProactive,
                    ScalingMode::Reactive => ScalingMode::MlProactive,
                    ScalingMode::StaticFull => ScalingMode::Reactive,
                };
                self.shift(up, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_ml::RidgeRegression;

    /// Builds a tiny scaler whose model predicts a constant.
    fn constant_scaler(value: f64) -> MlPowerScaler {
        let mut d = Dataset::new(FEATURE_COUNT);
        for i in 0..40 {
            let mut f = vec![0.0; FEATURE_COUNT];
            f[0] = (i % 2) as f64;
            d.push(f, value).unwrap();
        }
        let (train, val) = d.split_tail(0.25);
        let sel = select_lambda(&train, &val, &[1.0]).unwrap();
        MlPowerScaler::new(sel)
    }

    #[test]
    fn select_state_picks_smallest_adequate() {
        let s = constant_scaler(0.0).with_guard(1.0);
        // W8 capacity over 500 cycles = 31 flits.
        assert_eq!(s.select_state(10.0, 500, 1, true), WavelengthState::W8);
        // 40 flits needs W16 (capacity 62).
        assert_eq!(s.select_state(40.0, 500, 1, true), WavelengthState::W16);
        // 200 flits needs W48/W64: W32 capacity is 125, W48 is 125 too
        // (same serialization), so 200 needs W64 (250).
        assert_eq!(s.select_state(200.0, 500, 1, true), WavelengthState::W64);
    }

    #[test]
    fn select_state_respects_8wl_flag() {
        let s = constant_scaler(0.0).with_guard(1.0);
        assert_eq!(s.select_state(1.0, 500, 1, false), WavelengthState::W16);
    }

    #[test]
    fn overload_saturates_at_w64() {
        let s = constant_scaler(0.0).with_guard(1.0);
        assert_eq!(s.select_state(1e9, 500, 1, true), WavelengthState::W64);
    }

    #[test]
    fn channels_multiply_capacity() {
        let s = constant_scaler(0.0).with_guard(1.0);
        // 100 flits on one channel needs W32+; on 4 channels W16 suffices
        // (62×4 = 248 ≥ 100). W8 (31×4 = 124) would cover the raw need
        // but not its 1.35× low-state headroom (135).
        assert_eq!(s.select_state(100.0, 500, 4, true), WavelengthState::W16);
        // A clearly idle prediction still lands on W8.
        assert_eq!(s.select_state(50.0, 500, 4, true), WavelengthState::W8);
    }

    #[test]
    fn guard_biases_upwards() {
        let loose = constant_scaler(0.0).with_guard(1.0);
        let tight = constant_scaler(0.0).with_guard(3.0);
        assert!(tight.select_state(30.0, 500, 1, true) > loose.select_state(30.0, 500, 1, true));
    }

    #[test]
    fn negative_predictions_clamped() {
        use crate::features::WindowCounters;
        // A model trained on constant −50 labels predicts negative raw
        // values; the scaler must clamp to zero.
        let s = constant_scaler(-50.0);
        let mut c = WindowCounters::new();
        c.cycles = 1;
        let fv = FeatureVector::extract(true, &c, 64, 128, 128, WavelengthState::W8);
        assert_eq!(s.predict_flits(&fv), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_guard_rejected() {
        let _ = constant_scaler(0.0).with_guard(0.0);
    }

    #[test]
    fn ladder_starts_healthy_and_stays_healthy_on_good_predictions() {
        let mut ladder = DegradationLadder::new(FallbackConfig::pearl());
        for t in 0..100 {
            // Varying truth, near-perfect predictions.
            let actual = 100.0 + (t % 7) as f64 * 10.0;
            ladder.observe(actual + 1.0, actual, t);
        }
        assert_eq!(ladder.mode(), ScalingMode::MlProactive);
        assert!(ladder.transitions().is_empty());
        assert!(ladder.last_score().unwrap() > 0.9);
    }

    #[test]
    fn ladder_demotes_on_bad_predictions_and_recovers() {
        let cfg = FallbackConfig::pearl();
        let samples = cfg.samples as u64;
        let mut ladder = DegradationLadder::new(cfg);
        let truth = |t: u64| 100.0 + (t % 7) as f64 * 10.0;
        // Warm up healthy.
        for t in 0..samples {
            ladder.observe(truth(t), truth(t), t);
        }
        assert_eq!(ladder.mode(), ScalingMode::MlProactive);
        // Predictor goes wrong (but not absurdly): demotes to reactive.
        let mut t = samples;
        while ladder.mode() == ScalingMode::MlProactive {
            ladder.observe(truth(t) + 60.0, truth(t), t);
            t += 1;
            assert!(t < 10 * samples, "ladder never demoted");
        }
        assert_eq!(ladder.mode(), ScalingMode::Reactive);
        assert_eq!(ladder.transitions().len(), 1);
        // Accuracy returns: after the recovery streak, back to ML.
        while ladder.mode() == ScalingMode::Reactive {
            ladder.observe(truth(t), truth(t), t);
            t += 1;
            assert!(t < 100 * samples, "ladder never recovered");
        }
        assert_eq!(ladder.mode(), ScalingMode::MlProactive);
        let trans = ladder.transitions();
        assert_eq!(trans.len(), 2);
        assert_eq!((trans[1].from, trans[1].to), (ScalingMode::Reactive, ScalingMode::MlProactive));
        assert!(trans[0].at < trans[1].at);
    }

    #[test]
    fn ladder_collapses_to_static_full_under_severe_error() {
        let mut ladder = DegradationLadder::new(FallbackConfig::pearl());
        // Catastrophic mispredictions from the start.
        for t in 0..64 {
            ladder.observe(1e6, 100.0 + (t % 5) as f64, t);
        }
        assert_eq!(ladder.mode(), ScalingMode::StaticFull);
        // Recovery climbs one rung at a time: static → reactive → ML.
        let mut t = 64;
        while ladder.mode() != ScalingMode::MlProactive {
            ladder.observe(100.0 + (t % 5) as f64, 100.0 + (t % 5) as f64, t);
            t += 1;
            assert!(t < 10_000, "ladder never climbed back");
        }
        let rungs: Vec<_> = ladder.transitions().iter().map(|m| m.to).collect();
        assert!(rungs.contains(&ScalingMode::StaticFull));
        assert!(rungs.ends_with(&[ScalingMode::Reactive, ScalingMode::MlProactive]));
    }

    #[test]
    fn constant_traffic_does_not_false_alarm() {
        // Constant truth with tiny prediction error: the floored
        // normalizer keeps the score healthy instead of −∞.
        let mut ladder = DegradationLadder::new(FallbackConfig::pearl());
        for t in 0..100 {
            ladder.observe(50.1, 50.0, t);
        }
        assert_eq!(ladder.mode(), ScalingMode::MlProactive);
        assert!(ladder.transitions().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn degenerate_ladder_window_rejected() {
        let _ = DegradationLadder::new(FallbackConfig { samples: 1, ..FallbackConfig::pearl() });
    }

    #[test]
    fn collection_does_not_depend_on_the_pool_width() {
        let pairs: Vec<BenchmarkPair> =
            BenchmarkPair::training_pairs().into_iter().take(6).collect();
        // A 250-cycle window closes three times per router in 1,000
        // cycles, so every run labels samples.
        let trainer = |jobs| MlTrainer { cycles_per_pair: 1_000, jobs, ..MlTrainer::new(250) };
        let policy = PearlPolicy::random_walk(250);
        let sequential = trainer(1).collect(&pairs, &policy);
        assert!(sequential.len() > 10 * pairs.len(), "{} samples", sequential.len());
        assert_eq!(trainer(3).collect(&pairs, &policy), sequential);
    }

    #[test]
    fn ridge_constant_sanity() {
        // Guard against regressions in the tiny-fixture helper.
        let mut d = Dataset::new(1);
        for _ in 0..10 {
            d.push(vec![1.0], 5.0).unwrap();
        }
        let m = RidgeRegression::new(1e-3).fit(&d).unwrap();
        assert!((m.predict(&[1.0]) - 5.0).abs() < 0.1);
    }
}
