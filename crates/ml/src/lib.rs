//! # pearl-ml — from-scratch ridge regression for laser power prediction
//!
//! PEARL's proactive power scaling predicts the number of packets each
//! router will inject during the next reservation window using ridge
//! regression over 30 router-local features (Table III of the paper).
//! This crate provides the complete offline pipeline:
//!
//! * [`matrix`] — dense row-major matrices with a Cholesky solver,
//! * [`ridge`] — the closed-form ridge solution
//!   `w = (λI + ΦᵀΦ)⁻¹ Φᵀ t` (Eq. 6 of the paper),
//! * [`scaler`] — feature standardization,
//! * [`dataset`] — labelled feature matrices with train/validation splits,
//! * [`metrics`] — NRMSE (the paper's fit metric where 1 is a perfect
//!   fit and −∞ the worst), MSE and R²,
//! * [`pipeline`] — regularization-coefficient (λ) selection on a
//!   validation set, as described in §IV-A.
//!
//! ## Example
//!
//! ```
//! use pearl_ml::{Dataset, RidgeRegression};
//!
//! // y = 2·x + 1, learnable exactly.
//! let mut data = Dataset::new(1);
//! for i in 0..20 {
//!     let x = i as f64;
//!     data.push(vec![x], 2.0 * x + 1.0).unwrap();
//! }
//! let model = RidgeRegression::new(1e-6).fit(&data).unwrap();
//! let y = model.predict(&[10.0]);
//! assert!((y - 21.0).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod matrix;
pub mod metrics;
pub mod pipeline;
pub mod poly;
pub mod ridge;
pub mod scaler;

pub use dataset::{Dataset, DimensionError};
pub use matrix::{Matrix, NotPositiveDefiniteError};
pub use metrics::{mse, nrmse_fit, r_squared, rmse};
pub use pipeline::{select_lambda, LambdaSelection, DEFAULT_LAMBDA_GRID};
pub use poly::PolynomialExpansion;
pub use ridge::{FitError, FittedRidge, RidgeRegression};
pub use scaler::StandardScaler;
