//! Summary statistics over repeated runs.
//!
//! The paper collects at least 100 runs per configuration and either plots
//! the raw scatter (Figs. 3–4) or reports averages (Figs. 6–7, Table 4).
//! [`RunStats`] provides the summaries the reports need.

use serde::{Deserialize, Serialize};

/// Summary statistics of a set of measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two samples).
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median value.
    pub median: f64,
}

impl RunStats {
    /// Computes statistics over `samples`.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarise zero samples");
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            0.5 * (sorted[count / 2 - 1] + sorted[count / 2])
        };
        RunStats {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median,
        }
    }

    /// Coefficient of variation (std-dev / mean), the variability measure the
    /// paper discusses qualitatively for the stencil scatter plots.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }

    /// Values more than `k` standard deviations below/above the mean —
    /// the "outlier measurements" the paper notes on the MI300A stencil runs.
    pub fn outliers<'a>(&self, samples: &'a [f64], k: f64) -> Vec<&'a f64> {
        samples
            .iter()
            .filter(|&&x| (x - self.mean).abs() > k * self.std_dev && self.std_dev > 0.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = RunStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn even_count_median_interpolates() {
        let s = RunStats::from_samples(&[1.0, 2.0, 3.0, 10.0]);
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = RunStats::from_samples(&[7.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn outlier_detection() {
        let mut samples = vec![1.0; 99];
        samples.push(100.0);
        let s = RunStats::from_samples(&samples);
        let outliers = s.outliers(&samples, 3.0);
        assert_eq!(outliers.len(), 1);
        assert_eq!(*outliers[0], 100.0);
    }

    #[test]
    fn coefficient_of_variation_is_relative() {
        let tight = RunStats::from_samples(&[100.0, 101.0, 99.0]);
        let loose = RunStats::from_samples(&[100.0, 150.0, 50.0]);
        assert!(tight.coefficient_of_variation() < loose.coefficient_of_variation());
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_input_panics() {
        RunStats::from_samples(&[]);
    }
}
