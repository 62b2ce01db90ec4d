//! Ridge regression in closed form (Eq. 4–6 of the paper).
//!
//! The model minimizes
//! `Ẽ(w) = ½ Σ (wᵀφ(xₙ) − tₙ)² + (λ/2)‖w‖²`
//! whose solution is `w = (λI + ΦᵀΦ)⁻¹ Φᵀ t`. The basis expansion
//! `φ(x)` used here is the identity plus a bias term, matching the
//! paper's linear-regression formulation over the 30 Table III features.

use crate::dataset::Dataset;
use crate::matrix::{Matrix, NotPositiveDefiniteError};
use std::error::Error;
use std::fmt;

/// Error returned by [`RidgeRegression::fit`].
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// The training set was empty.
    EmptyDataset,
    /// The normal equations were numerically singular even after the
    /// ridge shift (e.g. λ = 0 on degenerate data).
    Singular(NotPositiveDefiniteError),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::EmptyDataset => f.write_str("cannot fit on an empty dataset"),
            FitError::Singular(e) => write!(f, "normal equations are singular: {e}"),
        }
    }
}

impl Error for FitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FitError::EmptyDataset => None,
            FitError::Singular(e) => Some(e),
        }
    }
}

impl From<NotPositiveDefiniteError> for FitError {
    fn from(e: NotPositiveDefiniteError) -> Self {
        FitError::Singular(e)
    }
}

/// An unfitted ridge regression configured with a regularization
/// coefficient λ.
///
/// # Example
///
/// ```
/// use pearl_ml::{Dataset, RidgeRegression};
/// let mut d = Dataset::new(1);
/// for i in 0..10 { d.push(vec![i as f64], 3.0 * i as f64)?; }
/// let model = RidgeRegression::new(1e-9).fit(&d)?;
/// assert!((model.predict(&[4.0]) - 12.0).abs() < 1e-6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RidgeRegression {
    lambda: f64,
}

impl RidgeRegression {
    /// Creates a regression with regularization coefficient `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn new(lambda: f64) -> RidgeRegression {
        assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be non-negative, got {lambda}");
        RidgeRegression { lambda }
    }

    /// The regularization coefficient.
    #[inline]
    pub fn lambda(self) -> f64 {
        self.lambda
    }

    /// Fits the closed-form solution on a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::EmptyDataset`] for an empty dataset and
    /// [`FitError::Singular`] when the (ridge-shifted) normal equations
    /// cannot be solved.
    pub fn fit(self, data: &Dataset) -> Result<FittedRidge, FitError> {
        self.solve(&NormalEquations::new(data)?)
    }

    /// Solves `(λI + ΦᵀΦ) w = Φᵀ t` at this λ on a copy of the Gram
    /// matrix, so one [`NormalEquations`] serves a whole λ grid.
    pub(crate) fn solve(self, equations: &NormalEquations) -> Result<FittedRidge, FitError> {
        let mut gram = equations.gram.clone();
        gram.add_ridge(self.lambda);
        let weights = gram.solve_spd(&equations.rhs)?;
        Ok(FittedRidge { weights, lambda: self.lambda })
    }
}

/// The λ-independent part of the normal equations of one dataset:
/// `ΦᵀΦ` and `Φᵀt` for its design matrix `Φ` with a bias column.
pub(crate) struct NormalEquations {
    gram: Matrix,
    rhs: Vec<f64>,
}

impl NormalEquations {
    /// Builds `ΦᵀΦ` and `Φᵀt`; `Φ` is dropped once they are formed.
    pub(crate) fn new(data: &Dataset) -> Result<NormalEquations, FitError> {
        if data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        let phi = design_with_bias(data);
        Ok(NormalEquations { gram: phi.gram(), rhs: phi.transpose_matvec(data.labels()) })
    }
}

/// Appends a constant-1 bias column to the design matrix.
fn design_with_bias(data: &Dataset) -> Matrix {
    let n = data.len();
    let d = data.dimension();
    let mut phi = Matrix::zeros(n, d + 1);
    for (i, row) in data.features().iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            phi.set(i, j, v);
        }
        phi.set(i, d, 1.0);
    }
    phi
}

/// A trained ridge model: `ŷ = wᵀ[x, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedRidge {
    weights: Vec<f64>,
    lambda: f64,
}

impl FittedRidge {
    /// Weight vector including the trailing bias weight.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// λ the model was trained with.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Feature dimensionality expected by [`Self::predict`].
    #[inline]
    pub fn dimension(&self) -> usize {
        self.weights.len() - 1
    }

    /// Predicts the label of one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.dimension()`.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.dimension(),
            "feature vector length {} expected {}",
            features.len(),
            self.dimension()
        );
        let bias = self.weights[self.dimension()];
        features.iter().zip(&self.weights).map(|(x, w)| x * w).sum::<f64>() + bias
    }

    /// Predicts labels for every sample of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        data.features().iter().map(|f| self.predict(f)).collect()
    }

    /// Squared L2 norm of the weight vector, `‖w‖²` of Eq. 4.
    pub fn weight_norm_sq(&self) -> f64 {
        self.weights.iter().map(|w| w * w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize, slope: f64, intercept: f64) -> Dataset {
        let mut d = Dataset::new(1);
        for i in 0..n {
            let x = i as f64;
            d.push(vec![x], slope * x + intercept).unwrap();
        }
        d
    }

    #[test]
    fn recovers_exact_linear_relation() {
        let d = linear_data(50, 2.5, -1.0);
        let m = RidgeRegression::new(1e-9).fit(&d).unwrap();
        assert!((m.predict(&[100.0]) - 249.0).abs() < 1e-4);
        assert_eq!(m.dimension(), 1);
    }

    #[test]
    fn multivariate_fit() {
        // y = 1·a + 2·b + 3·c + 4
        let mut d = Dataset::new(3);
        for i in 0..60 {
            let (a, b, c) = ((i % 7) as f64, (i % 5) as f64, (i % 3) as f64);
            d.push(vec![a, b, c], a + 2.0 * b + 3.0 * c + 4.0).unwrap();
        }
        let m = RidgeRegression::new(1e-9).fit(&d).unwrap();
        assert!((m.predict(&[1.0, 1.0, 1.0]) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn larger_lambda_shrinks_weights() {
        let d = linear_data(50, 2.5, 0.0);
        let loose = RidgeRegression::new(1e-9).fit(&d).unwrap();
        let tight = RidgeRegression::new(1e4).fit(&d).unwrap();
        assert!(tight.weight_norm_sq() < loose.weight_norm_sq());
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let d = Dataset::new(2);
        assert_eq!(RidgeRegression::new(1.0).fit(&d), Err(FitError::EmptyDataset));
    }

    #[test]
    fn degenerate_data_without_ridge_is_singular() {
        // Four identical all-ones samples give an exactly singular Gram
        // matrix (every entry is 4, and √4 is exact in floating point);
        // λ=0 must fail, λ>0 succeed.
        let mut d = Dataset::new(2);
        for _ in 0..4 {
            d.push(vec![1.0, 1.0], 1.0).unwrap();
        }
        assert!(matches!(RidgeRegression::new(0.0).fit(&d), Err(FitError::Singular(_))));
        assert!(RidgeRegression::new(1e-6).fit(&d).is_ok());
    }

    #[test]
    fn predict_all_matches_pointwise() {
        let d = linear_data(10, 1.0, 0.0);
        let m = RidgeRegression::new(1e-9).fit(&d).unwrap();
        let all = m.predict_all(&d);
        for (i, y) in all.iter().enumerate() {
            assert!((y - m.predict(&[i as f64])).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_rejected() {
        let _ = RidgeRegression::new(-1.0);
    }

    #[test]
    fn fit_error_display() {
        assert!(FitError::EmptyDataset.to_string().contains("empty"));
    }
}
