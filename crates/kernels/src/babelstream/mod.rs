//! BabelStream workload — paper Listing 3, Figure 4, Table 3, Figure 5.
//!
//! Five memory-bandwidth-bound array kernels: Copy, Mul, Add, Triad and Dot.
//! The first four are trivially parallel one-element-per-thread kernels; Dot
//! performs a block-level shared-memory tree reduction followed by a host-side
//! sum of the per-block partials, exactly as in the paper's Listing 3.
//! The figure of merit is the effective bandwidth of Eq. (2).

mod config;
mod cost;
mod portable;
mod reference;
pub mod workload;

pub use config::{BabelStreamConfig, INIT_A, INIT_B, INIT_C, PAPER_VECTOR_SIZE, SCALAR};
pub use cost::stream_cost;
/// One body runs on every backend; `run_portable` and `run_vendor` are
/// aliases of `run` for callers that name the backend.
pub use portable::{run, run as run_portable, run as run_vendor};
pub use reference::{expected_values, output_array};

use crate::common::WorkloadRun;
use gpu_sim::SimError;
use vendor_models::kernel_class::StreamOp;
use vendor_models::Platform;

/// Runs all five operations in presentation order.
pub fn run_all(
    platform: &Platform,
    config: &BabelStreamConfig,
) -> Result<Vec<WorkloadRun>, SimError> {
    StreamOp::ALL
        .iter()
        .map(|&op| run(platform, op, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::Precision;

    #[test]
    fn all_ops_verify_on_all_platforms() {
        let config = BabelStreamConfig::validation(1 << 14, Precision::Fp64);
        for platform in Platform::paper_platforms() {
            for run_result in run_all(&platform, &config).unwrap() {
                assert!(
                    run_result.verification.is_verified(),
                    "{} {} should verify",
                    platform.label(),
                    run_result.kernel
                );
            }
        }
    }

    #[test]
    fn mojo_beats_cuda_everywhere_except_dot() {
        // Fig. 4a / Table 3: Mojo is slightly faster than CUDA for Copy, Mul,
        // Add and Triad and clearly slower for Dot.
        let config = BabelStreamConfig::paper(Precision::Fp64);
        for op in StreamOp::ALL {
            let mojo = run(&Platform::portable_h100(), op, &config).unwrap();
            let cuda = run(&Platform::cuda_h100(false), op, &config).unwrap();
            let ratio = cuda.seconds() / mojo.seconds();
            if op == StreamOp::Dot {
                assert!(ratio < 0.85, "Dot: Mojo should lag CUDA, ratio {ratio}");
            } else {
                assert!(
                    ratio >= 0.999,
                    "{op}: Mojo should not lag CUDA, ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn mojo_matches_hip_on_mi300a() {
        let config = BabelStreamConfig::paper(Precision::Fp64);
        for op in StreamOp::ALL {
            let mojo = run(&Platform::portable_mi300a(), op, &config).unwrap();
            let hip = run(&Platform::hip_mi300a(false), op, &config).unwrap();
            let ratio = hip.seconds() / mojo.seconds();
            assert!(
                (ratio - 1.0).abs() < 0.02,
                "{op}: Mojo and HIP should match on MI300A, ratio {ratio}"
            );
        }
    }

    #[test]
    fn copy_duration_matches_table3() {
        // Table 3: Mojo Copy 0.202 ms, CUDA Copy 0.205 ms at n = 2^25 FP64.
        let config = BabelStreamConfig::paper(Precision::Fp64);
        let mojo = run(&Platform::portable_h100(), StreamOp::Copy, &config).unwrap();
        let cuda = run(&Platform::cuda_h100(false), StreamOp::Copy, &config).unwrap();
        assert!(
            (mojo.millis() - 0.202).abs() < 0.03,
            "Mojo copy {} ms",
            mojo.millis()
        );
        assert!(
            (cuda.millis() - 0.205).abs() < 0.03,
            "CUDA copy {} ms",
            cuda.millis()
        );
    }
}

/// The paper's CUDA/HIP baselines: the same body on the vendor platforms.
#[cfg(test)]
mod vendor {
    mod tests {
        use super::super::*;
        use gpu_spec::Precision;

        #[test]
        fn cuda_baseline_verifies_all_ops() {
            let config = BabelStreamConfig::validation(1 << 13, Precision::Fp64);
            for op in StreamOp::ALL {
                let run = run(&Platform::cuda_h100(false), op, &config).unwrap();
                assert!(run.verification.is_verified(), "{op}");
                assert_eq!(run.backend, "CUDA");
            }
        }

        #[test]
        fn hip_baseline_verifies_dot_with_vendor_grid() {
            let config = BabelStreamConfig::validation(1 << 14, Precision::Fp32);
            let run = run(&Platform::hip_mi300a(false), StreamOp::Dot, &config).unwrap();
            assert!(run.verification.is_verified());
            // The vendor heuristic sizes the grid from the CU count.
            let cus = gpu_spec::presets::mi300a().topology.num_compute_units;
            assert_eq!(run.cost.launch.num_blocks(), u64::from(cus * 4));
        }

        #[test]
        fn dot_duration_gap_matches_table3() {
            // Table 3: Dot takes 0.215 ms (Mojo) vs 0.168 ms (CUDA).
            let config = BabelStreamConfig::paper(Precision::Fp64);
            let cuda = run(&Platform::cuda_h100(false), StreamOp::Dot, &config).unwrap();
            let mojo = run(&Platform::portable_h100(), StreamOp::Dot, &config).unwrap();
            assert!(
                (cuda.millis() - 0.168).abs() < 0.03,
                "CUDA dot {}",
                cuda.millis()
            );
            assert!(
                (mojo.millis() - 0.215).abs() < 0.03,
                "Mojo dot {}",
                mojo.millis()
            );
        }
    }
}
