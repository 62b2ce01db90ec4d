//! Labelled datasets of feature vectors.

use crate::matrix::Matrix;
use std::error::Error;
use std::fmt;

/// Error returned when a pushed sample has the wrong feature count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionError {
    /// Expected feature count.
    pub expected: usize,
    /// Actual feature count of the rejected sample.
    pub actual: usize,
}

impl fmt::Display for DimensionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sample has {} features, dataset expects {}", self.actual, self.expected)
    }
}

impl Error for DimensionError {}

/// A set of `(feature vector, label)` pairs with a fixed dimensionality.
///
/// In the PEARL pipeline a sample is one (router, reservation-window)
/// observation: 30 features from Table III and the *next* window's
/// injected-packet count as the label (§IV-A).
///
/// # Example
///
/// ```
/// use pearl_ml::Dataset;
/// let mut d = Dataset::new(2);
/// d.push(vec![1.0, 2.0], 3.0)?;
/// assert_eq!(d.len(), 1);
/// # Ok::<(), pearl_ml::DimensionError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    dimension: usize,
    features: Vec<Vec<f64>>,
    labels: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset of the given feature dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `dimension` is zero.
    pub fn new(dimension: usize) -> Dataset {
        assert!(dimension > 0, "feature dimension must be non-zero");
        Dataset { dimension, features: Vec::new(), labels: Vec::new() }
    }

    /// Feature dimensionality.
    #[inline]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no samples are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Appends a sample.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] when `features.len() != dimension`.
    pub fn push(&mut self, features: Vec<f64>, label: f64) -> Result<(), DimensionError> {
        if features.len() != self.dimension {
            return Err(DimensionError { expected: self.dimension, actual: features.len() });
        }
        self.features.push(features);
        self.labels.push(label);
        Ok(())
    }

    /// Moves all samples of another dataset to the end of this one.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] when dimensionalities disagree.
    pub fn append(&mut self, other: Dataset) -> Result<(), DimensionError> {
        if other.dimension != self.dimension {
            return Err(DimensionError { expected: self.dimension, actual: other.dimension });
        }
        self.features.extend(other.features);
        self.labels.extend(other.labels);
        Ok(())
    }

    /// The feature vectors.
    #[inline]
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// The labels.
    #[inline]
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// The design matrix (`len × dimension`).
    ///
    /// # Panics
    ///
    /// Panics when the dataset is empty.
    pub fn design_matrix(&self) -> Matrix {
        assert!(!self.is_empty(), "cannot build a design matrix from an empty dataset");
        Matrix::from_rows(&self.features)
    }

    /// Splits off the last `fraction` of samples into a second dataset
    /// (chronological split — appropriate for windowed time series).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1`.
    pub fn split_tail(&self, fraction: f64) -> (Dataset, Dataset) {
        assert!(fraction > 0.0 && fraction < 1.0, "fraction must be in (0,1), got {fraction}");
        let tail_len = ((self.len() as f64) * fraction).round() as usize;
        let head_len = self.len() - tail_len;
        let mut head = Dataset::new(self.dimension);
        let mut tail = Dataset::new(self.dimension);
        for i in 0..self.len() {
            let target = if i < head_len { &mut head } else { &mut tail };
            target
                .push(self.features[i].clone(), self.labels[i])
                .expect("dimension preserved by construction");
        }
        (head, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set(n: usize) -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..n {
            d.push(vec![i as f64, (i * i) as f64], i as f64).unwrap();
        }
        d
    }

    #[test]
    fn push_and_len() {
        let d = sample_set(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d.dimension(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn wrong_dimension_rejected() {
        let mut d = Dataset::new(2);
        let err = d.push(vec![1.0], 0.0).unwrap_err();
        assert_eq!(err, DimensionError { expected: 2, actual: 1 });
        assert!(err.to_string().contains("expects 2"));
    }

    #[test]
    fn design_matrix_shape() {
        let d = sample_set(4);
        let m = d.design_matrix();
        assert_eq!((m.rows(), m.cols()), (4, 2));
        assert_eq!(m.get(3, 1), 9.0);
    }

    #[test]
    fn chronological_split_preserves_order() {
        let d = sample_set(10);
        let (head, tail) = d.split_tail(0.3);
        assert_eq!(head.len(), 7);
        assert_eq!(tail.len(), 3);
        assert_eq!(head.labels()[6], 6.0);
        assert_eq!(tail.labels()[0], 7.0);
    }

    #[test]
    fn append_concatenates() {
        let mut a = sample_set(3);
        a.append(sample_set(2)).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a.labels(), [0.0, 1.0, 2.0, 0.0, 1.0]);
        assert_eq!(a.features()[4], [1.0, 1.0]);
    }

    #[test]
    fn append_rejects_mismatch() {
        let mut a = sample_set(3);
        assert!(a.append(Dataset::new(5)).is_err());
        assert_eq!(a.len(), 3);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_design_matrix_panics() {
        let _ = Dataset::new(2).design_matrix();
    }
}
