//! Shared host-driver machinery: run records, verification, and repeated-run
//! sampling.

use gpu_sim::timing::JitterModel;
use gpu_sim::{ExecutionProfile, KernelCost, LaunchTiming, PooledString};

/// Outcome of comparing a simulated kernel's output with the CPU reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Verification {
    /// Output matched the reference within tolerance.
    Passed {
        /// Largest absolute element-wise error observed.
        max_abs_error: f64,
    },
    /// Functional execution was skipped (problem too large to run on the
    /// host within the experiment budget); the cost model is still exact.
    Skipped {
        /// Why functional execution was skipped. Rendered into pooled
        /// storage, which returns to the pool when the run drops.
        reason: PooledString,
    },
}

impl Verification {
    /// Whether the run was actually verified against the reference.
    pub fn is_verified(&self) -> bool {
        matches!(self, Verification::Passed { .. })
    }
}

/// The complete record of one kernel execution on one platform: what ran,
/// what it cost, how long the model says it took, and whether the numerics
/// were checked.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Backend label ("Mojo", "CUDA", "CUDA fast-math", "HIP", …).
    pub backend: &'static str,
    /// Device name (e.g. "NVIDIA H100 NVL - 94 GB").
    pub device: &'static str,
    /// Kernel name.
    pub kernel: &'static str,
    /// Analytic launch cost.
    pub cost: KernelCost,
    /// Backend execution profile used for timing.
    pub profile: ExecutionProfile,
    /// Simulated kernel timing.
    pub timing: LaunchTiming,
    /// Verification outcome.
    pub verification: Verification,
}

impl WorkloadRun {
    /// Kernel duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.timing.seconds
    }

    /// Kernel duration in milliseconds.
    pub fn millis(&self) -> f64 {
        self.timing.millis()
    }
}

/// Draws `iterations` jittered per-run durations (seconds) around a
/// kernel's modelled `seconds`, discarding a warm-up iteration first, the
/// way the paper's methodology prescribes ("we discarded the first step in
/// our measurements"). The stream is seeded from `seed` and the backend and
/// kernel labels, so each (backend, kernel) pair draws its own samples.
pub fn jittered_durations(
    backend: &str,
    kernel: &str,
    seconds: f64,
    iterations: usize,
    sigma: f64,
    seed: u64,
) -> Vec<f64> {
    let mut jitter = JitterModel::new(sigma, seed ^ fxhash(backend, kernel));
    // Warm-up draw, discarded.
    let _ = jitter.sample();
    (0..iterations)
        .map(|_| jitter.jitter_seconds(seconds))
        .collect()
}

/// Small deterministic string hash so different backend/kernel combinations
/// get decorrelated jitter streams from the same user seed.
fn fxhash(a: &str, b: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for byte in a.bytes().chain(b.bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Compares two slices and returns the maximum absolute error, or an error
/// message naming the first element that exceeds `tolerance`.
pub fn compare_slices(actual: &[f64], expected: &[f64], tolerance: f64) -> Result<f64, String> {
    if actual.len() != expected.len() {
        return Err(format!(
            "length mismatch: {} vs {}",
            actual.len(),
            expected.len()
        ));
    }
    let mut max_err = 0.0f64;
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        let err = (a - e).abs();
        let scale = e.abs().max(1.0);
        if err / scale > tolerance {
            return Err(format!(
                "element {i} differs: got {a}, expected {e} (relative error {:.3e})",
                err / scale
            ));
        }
        max_err = max_err.max(err);
    }
    Ok(max_err)
}

/// Generic variant of [`compare_slices`]: compares a typed kernel output
/// against an `f64` reference, widening element-by-element instead of staging
/// a converted copy — the verification loop never touches the allocator.
pub fn compare_with_reference<T: crate::real::Real>(
    actual: &[T],
    expected: &[f64],
    tolerance: f64,
) -> Result<f64, String> {
    if actual.len() != expected.len() {
        return Err(format!(
            "length mismatch: {} vs {}",
            actual.len(),
            expected.len()
        ));
    }
    let mut max_err = 0.0f64;
    for (i, (&a, &e)) in actual.iter().zip(expected.iter()).enumerate() {
        let a = a.to_f64();
        let err = (a - e).abs();
        let scale = e.abs().max(1.0);
        if err / scale > tolerance {
            return Err(format!(
                "element {i} differs: got {a}, expected {e} (relative error {:.3e})",
                err / scale
            ));
        }
        max_err = max_err.max(err);
    }
    Ok(max_err)
}

/// Single-precision variant of [`compare_slices`]. Compares element-wise
/// without staging widened copies, so the steady-state hot path stays off the
/// allocator.
pub fn compare_slices_f32(actual: &[f32], expected: &[f32], tolerance: f32) -> Result<f64, String> {
    if actual.len() != expected.len() {
        return Err(format!(
            "length mismatch: {} vs {}",
            actual.len(),
            expected.len()
        ));
    }
    let tolerance = f64::from(tolerance);
    let mut max_err = 0.0f64;
    for (i, (&a, &e)) in actual.iter().zip(expected.iter()).enumerate() {
        let (a, e) = (f64::from(a), f64::from(e));
        let err = (a - e).abs();
        let scale = e.abs().max(1.0);
        if err / scale > tolerance {
            return Err(format!(
                "element {i} differs: got {a}, expected {e} (relative error {:.3e})",
                err / scale
            ));
        }
        max_err = max_err.max(err);
    }
    Ok(max_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::stats::AccessPattern;
    use gpu_sim::{LaunchConfig, TimingModel};
    use gpu_spec::{presets, Precision};

    fn dummy_run() -> WorkloadRun {
        let cost = KernelCost::builder(
            "copy",
            Precision::Fp64,
            LaunchConfig::cover_1d(1024, 256),
            AccessPattern::Stream,
        )
        .dram_traffic(8192, 8192)
        .build();
        let profile = ExecutionProfile::ideal("Mojo");
        let timing = TimingModel::new(presets::test_device()).estimate(&cost, &profile);
        WorkloadRun {
            backend: "Mojo",
            device: "test",
            kernel: "copy",
            cost,
            profile,
            timing,
            verification: Verification::Passed { max_abs_error: 0.0 },
        }
    }

    #[test]
    fn sampled_durations_are_deterministic_and_near_the_estimate() {
        let run = dummy_run();
        let sample = || jittered_durations(run.backend, run.kernel, run.seconds(), 50, 0.02, 7);
        let a = sample();
        assert_eq!(a, sample());
        for d in &a {
            assert!((d / run.seconds() - 1.0).abs() < 0.2);
        }
        let stats = hpc_metrics::RunStats::from_samples(&a);
        assert_eq!(stats.count, 50);
        assert!(stats.min > 0.0);
    }

    #[test]
    fn different_kernels_get_different_jitter_streams() {
        let run = dummy_run();
        assert_ne!(
            jittered_durations("Mojo", "copy", run.seconds(), 10, 0.02, 7),
            jittered_durations("Mojo", "add", run.seconds(), 10, 0.02, 7)
        );
    }

    #[test]
    fn compare_slices_accepts_within_tolerance() {
        let max = compare_slices(&[1.0, 2.0, 3.0], &[1.0, 2.0 + 1e-12, 3.0], 1e-9).unwrap();
        assert!(max <= 1e-11);
    }

    #[test]
    fn compare_slices_rejects_large_errors_and_length_mismatch() {
        assert!(compare_slices(&[1.0], &[2.0], 1e-6).is_err());
        assert!(compare_slices(&[1.0, 2.0], &[1.0], 1e-6).is_err());
        assert!(compare_slices_f32(&[1.0f32], &[1.5f32], 1e-3).is_err());
    }

    #[test]
    fn verification_helpers() {
        assert!(Verification::Passed { max_abs_error: 0.0 }.is_verified());
        assert!(!Verification::Skipped {
            reason: PooledString::from("too large")
        }
        .is_verified());
    }
}
