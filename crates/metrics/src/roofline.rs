//! Roofline model helpers for reproducing the paper's Figure 2.
//!
//! Figure 2 places the four workloads on the H100's roofline: attainable
//! FLOP/s as a function of arithmetic intensity, bounded by the memory-
//! bandwidth slope on the left and the peak-FLOP ceiling on the right. The
//! simulator's profiler supplies measured `(intensity, FLOP/s)` points; this
//! module supplies the ceilings and the plot series.

use gpu_spec::{GpuSpec, Precision};
use serde::{Deserialize, Serialize};

/// One measured kernel placed on the roofline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Kernel label ("seven-point stencil", "BabelStream Triad", …).
    pub label: String,
    /// Arithmetic intensity in FLOP per byte of device-memory traffic.
    pub arithmetic_intensity: f64,
    /// Achieved performance in FLOP/s.
    pub achieved_flops: f64,
}

impl RooflinePoint {
    /// Creates a point.
    pub fn new(label: impl Into<String>, arithmetic_intensity: f64, achieved_flops: f64) -> Self {
        RooflinePoint {
            label: label.into(),
            arithmetic_intensity,
            achieved_flops,
        }
    }
}

/// The roofline of one device at one precision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    /// Device name.
    pub device: String,
    /// Precision of the compute ceiling.
    pub precision: Precision,
    /// Peak memory bandwidth in bytes/s (the slope of the left branch).
    pub peak_bandwidth: f64,
    /// Peak FLOP/s (the flat right branch).
    pub peak_flops: f64,
}

impl Roofline {
    /// Builds the roofline of `spec` at `precision`.
    pub fn of(spec: &GpuSpec, precision: Precision) -> Self {
        Roofline {
            device: spec.name.to_string(),
            precision,
            peak_bandwidth: spec.peak_bandwidth_bytes_per_s(),
            peak_flops: spec.peak_flops(precision),
        }
    }

    /// Attainable FLOP/s at a given arithmetic intensity.
    pub fn attainable(&self, intensity: f64) -> f64 {
        (intensity * self.peak_bandwidth).min(self.peak_flops)
    }

    /// The ridge-point intensity where the two branches meet.
    pub fn ridge_point(&self) -> f64 {
        self.peak_flops / self.peak_bandwidth
    }

    /// Whether a point sits in the memory-bound region.
    pub fn is_memory_bound(&self, point: &RooflinePoint) -> bool {
        point.arithmetic_intensity < self.ridge_point()
    }

    /// Samples the ceiling at logarithmically spaced intensities, for plotting.
    pub fn ceiling_series(
        &self,
        min_intensity: f64,
        max_intensity: f64,
        samples: usize,
    ) -> Vec<(f64, f64)> {
        assert!(samples >= 2, "need at least two samples");
        assert!(min_intensity > 0.0 && max_intensity > min_intensity);
        let log_min = min_intensity.ln();
        let log_max = max_intensity.ln();
        (0..samples)
            .map(|i| {
                let t = i as f64 / (samples - 1) as f64;
                let intensity = (log_min + t * (log_max - log_min)).exp();
                (intensity, self.attainable(intensity))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::presets;

    #[test]
    fn ridge_point_separates_the_papers_kernels() {
        // Fig. 2: stencil and BabelStream sit left of the ridge (memory
        // bound), miniBUDE and Hartree-Fock to the right (compute bound).
        let roof = Roofline::of(&presets::h100_nvl(), Precision::Fp32);
        let stencil = RooflinePoint::new("stencil", 0.2, 1.3e12);
        let bude = RooflinePoint::new("miniBUDE", 40.0, 2.0e13);
        assert!(roof.is_memory_bound(&stencil));
        assert!(!roof.is_memory_bound(&bude));
        assert!(roof.ridge_point() > 1.0 && roof.ridge_point() < 100.0);
    }

    #[test]
    fn attainable_is_min_of_the_two_branches() {
        let roof = Roofline::of(&presets::mi300a(), Precision::Fp64);
        let low = roof.attainable(0.01);
        assert!((low - 0.01 * roof.peak_bandwidth).abs() < 1.0);
        let high = roof.attainable(1e6);
        assert!((high - roof.peak_flops).abs() < 1.0);
    }

    #[test]
    fn ceiling_series_is_monotone_and_bounded() {
        let roof = Roofline::of(&presets::h100_nvl(), Precision::Fp32);
        let series = roof.ceiling_series(0.01, 1000.0, 64);
        assert_eq!(series.len(), 64);
        for pair in series.windows(2) {
            assert!(pair[1].0 > pair[0].0);
            assert!(pair[1].1 >= pair[0].1);
            assert!(pair[1].1 <= roof.peak_flops * 1.000001);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn series_needs_two_samples() {
        Roofline::of(&presets::h100_nvl(), Precision::Fp32).ceiling_series(0.1, 1.0, 1);
    }
}
