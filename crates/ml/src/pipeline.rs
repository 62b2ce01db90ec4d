//! Regularization-coefficient selection on a validation set.
//!
//! The paper tunes λ of Eq. 4 on a 4-pair validation split (§IV-A). The
//! search here sweeps a logarithmic λ grid, fits on the (standardized)
//! training set and keeps the λ with the best validation NRMSE.

use crate::dataset::Dataset;
use crate::metrics::nrmse_fit;
use crate::ridge::{FitError, FittedRidge, NormalEquations, RidgeRegression};
use crate::scaler::StandardScaler;

/// Outcome of a λ search: the winning model, its scaler and diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaSelection {
    /// Model fitted with the winning λ on the training set.
    pub model: FittedRidge,
    /// Scaler fitted on the training set; apply before predicting.
    pub scaler: StandardScaler,
    /// Winning regularization coefficient.
    pub lambda: f64,
    /// Validation NRMSE of the winning model (1 = perfect).
    pub validation_nrmse: f64,
    /// `(λ, validation NRMSE)` for every grid point tried.
    pub trace: Vec<(f64, f64)>,
}

impl LambdaSelection {
    /// Predicts the label of a raw (unstandardized) feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.model.predict(&self.scaler.transform(features))
    }

    /// Validation NRMSE recomputed on an arbitrary raw dataset — used for
    /// the paper's validation-vs-test NRMSE comparison (§IV-C).
    pub fn evaluate_nrmse(&self, data: &Dataset) -> f64 {
        let scaled = self.scaler.transform_dataset(data);
        let predicted = self.model.predict_all(&scaled);
        nrmse_fit(data.labels(), &predicted)
    }
}

/// Default λ grid: seven decades around 1.
pub const DEFAULT_LAMBDA_GRID: [f64; 7] = [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0];

/// Fits a ridge model for every λ in `grid`, evaluating each on
/// `validation`, and returns the best.
///
/// Features are standardized with statistics fitted on `training` only,
/// so no validation information leaks into the scaler. The Gram matrix
/// `ΦᵀΦ` and `Φᵀt` of the scaled training set are formed once; each λ
/// then only shifts a copy of the Gram matrix and solves it, which gives
/// every λ the bits [`RidgeRegression::fit`] gives it.
///
/// # Errors
///
/// Returns [`FitError`] if every grid point fails to fit (e.g. empty
/// training data).
///
/// # Panics
///
/// Panics if `grid` or `validation` is empty.
pub fn select_lambda(
    training: &Dataset,
    validation: &Dataset,
    grid: &[f64],
) -> Result<LambdaSelection, FitError> {
    assert!(!grid.is_empty(), "lambda grid must be non-empty");
    assert!(!validation.is_empty(), "validation set must be non-empty");

    if training.is_empty() {
        return Err(FitError::EmptyDataset);
    }
    let scaler = StandardScaler::fit(training);
    let equations = NormalEquations::new(&scaler.transform_dataset(training))?;
    let scaled_val = scaler.transform_dataset(validation);

    let mut best: Option<(FittedRidge, f64, f64)> = None;
    let mut trace = Vec::with_capacity(grid.len());
    let mut last_err = None;
    for &lambda in grid {
        match RidgeRegression::new(lambda).solve(&equations) {
            Ok(model) => {
                let predicted = model.predict_all(&scaled_val);
                let score = nrmse_fit(validation.labels(), &predicted);
                trace.push((lambda, score));
                let better = match &best {
                    None => true,
                    Some((_, _, best_score)) => score > *best_score,
                };
                if better {
                    best = Some((model, lambda, score));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some((model, lambda, validation_nrmse)) => {
            Ok(LambdaSelection { model, scaler, lambda, validation_nrmse, trace })
        }
        None => Err(last_err.expect("no fits and no errors is impossible")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// y = 3a − 2b + 5 + noise.
    fn noisy_linear(n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..10.0);
            let b: f64 = rng.gen_range(0.0..10.0);
            let noise: f64 = rng.gen_range(-0.5..0.5);
            d.push(vec![a, b], 3.0 * a - 2.0 * b + 5.0 + noise).unwrap();
        }
        d
    }

    #[test]
    fn selects_a_good_model_on_linear_data() {
        let train = noisy_linear(200, 1);
        let val = noisy_linear(50, 2);
        let sel = select_lambda(&train, &val, &DEFAULT_LAMBDA_GRID).unwrap();
        assert!(sel.validation_nrmse > 0.9, "nrmse {}", sel.validation_nrmse);
        // Near-noiseless linear data should prefer small λ.
        assert!(sel.lambda <= 1.0, "picked λ={}", sel.lambda);
        // Raw-space prediction works through the embedded scaler.
        let y = sel.predict(&[1.0, 1.0]);
        assert!((y - 6.0).abs() < 1.0, "got {y}");
    }

    #[test]
    fn trace_covers_whole_grid() {
        let train = noisy_linear(100, 3);
        let val = noisy_linear(30, 4);
        let sel = select_lambda(&train, &val, &DEFAULT_LAMBDA_GRID).unwrap();
        assert_eq!(sel.trace.len(), DEFAULT_LAMBDA_GRID.len());
        // Winning score is the max of the trace.
        let max = sel.trace.iter().map(|(_, s)| *s).fold(f64::NEG_INFINITY, f64::max);
        assert!((sel.validation_nrmse - max).abs() < 1e-12);
    }

    #[test]
    fn one_gram_per_grid_matches_a_fit_per_lambda_bit_for_bit() {
        let train = noisy_linear(300, 10);
        let val = noisy_linear(60, 11);
        let sel = select_lambda(&train, &val, &DEFAULT_LAMBDA_GRID).unwrap();
        let scaler = StandardScaler::fit(&train);
        let (scaled_train, scaled_val) =
            (scaler.transform_dataset(&train), scaler.transform_dataset(&val));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(sel.scaler, scaler);
        assert_eq!(sel.trace.len(), DEFAULT_LAMBDA_GRID.len());
        for (&lambda, &(traced, score)) in DEFAULT_LAMBDA_GRID.iter().zip(&sel.trace) {
            let model = RidgeRegression::new(lambda).fit(&scaled_train).unwrap();
            let expected = nrmse_fit(val.labels(), &model.predict_all(&scaled_val));
            assert_eq!((traced.to_bits(), score.to_bits()), (lambda.to_bits(), expected.to_bits()));
            if lambda == sel.lambda {
                assert_eq!(bits(sel.model.weights()), bits(model.weights()), "λ={lambda}");
            }
        }
    }

    #[test]
    fn evaluate_nrmse_on_fresh_data() {
        let train = noisy_linear(200, 5);
        let val = noisy_linear(50, 6);
        let test = noisy_linear(50, 7);
        let sel = select_lambda(&train, &val, &DEFAULT_LAMBDA_GRID).unwrap();
        assert!(sel.evaluate_nrmse(&test) > 0.85);
    }

    #[test]
    fn empty_training_is_error() {
        let val = noisy_linear(10, 8);
        assert!(matches!(
            select_lambda(&Dataset::new(2), &val, &DEFAULT_LAMBDA_GRID),
            Err(FitError::EmptyDataset)
        ));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_panics() {
        let d = noisy_linear(10, 9);
        let _ = select_lambda(&d, &d, &[]);
    }
}
