//! Iterative Jacobi solver workload — the multi-pass composite pattern of
//! DESIGN.md §15.
//!
//! The solver relaxes a cubic Laplace problem (Dirichlet boundary from the
//! seeded stencil field) by alternating a six-neighbour sweep with a
//! deterministic RMS iterate-difference reduction, stopping at a documented
//! residual reduction or a typed iteration cap. It composes the two primitive
//! patterns the paper benchmarks in isolation — the bandwidth-bound stencil
//! and the tree reduction — into one convergence-driven pipeline. The
//! reduction's value feeds back into control flow (how many sweeps run), so
//! a thread-count-dependent sum would change the *shape* of the run, not just
//! its last few bits.

mod config;
mod cost;
mod portable;
mod reference;
pub mod workload;

pub use config::{
    JacobiConfig, MAX_FUNCTIONAL_L_JACOBI, MAX_JACOBI_ITERS, RESIDUAL_REDUCTION, SIXTH,
};
pub use cost::jacobi_cost;
/// One body runs on every backend; `run_portable` and `run_vendor` are
/// aliases of `run` for callers that name the backend.
pub use portable::{run, run as run_portable, run as run_vendor};
pub use reference::{residual_rms, seed_config, solve_host, JacobiSolution};

use crate::cache;

/// How many sweeps a run of `config` will execute: the memoized reference
/// solve's convergence point when the solve runs functionally, the iteration
/// cap otherwise (the cost model has no residual to watch). Shared by the
/// cost model and the figure of merit so timing and bandwidth agree.
pub fn planned_iters(config: &JacobiConfig) -> usize {
    if config.should_execute() {
        cache::jacobi_reference(config).iters_run
    } else {
        config.iters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vendor_models::Platform;

    #[test]
    fn all_four_paper_platforms_run_and_verify() {
        let config = JacobiConfig::validation(12, 200);
        for platform in [
            Platform::portable_h100(),
            Platform::cuda_h100(false),
            Platform::portable_mi300a(),
            Platform::hip_mi300a(false),
        ] {
            let run = run(&platform, &config).unwrap();
            assert!(
                run.verification.is_verified(),
                "{} should verify",
                platform.label()
            );
            assert!(run.seconds() > 0.0);
        }
    }

    #[test]
    fn planned_iters_follows_convergence_when_functional_and_the_cap_otherwise() {
        let functional = JacobiConfig::validation(16, 400);
        let planned = planned_iters(&functional);
        assert!(planned < 400, "L = 16 converges before the cap");
        assert_eq!(planned, cache::jacobi_reference(&functional).iters_run);

        let modelled = JacobiConfig::paper(256, 750);
        assert_eq!(planned_iters(&modelled), 750);
    }

    #[test]
    fn solve_time_scales_with_the_planned_sweep_count() {
        let short = run(&Platform::portable_h100(), &JacobiConfig::paper(256, 100)).unwrap();
        let long = run(&Platform::portable_h100(), &JacobiConfig::paper(256, 1000)).unwrap();
        let ratio = long.seconds() / short.seconds();
        assert!(
            (ratio - 10.0).abs() < 0.5,
            "10× the sweeps should cost ≈10× the time, got {ratio}"
        );
    }
}

/// The paper's CUDA/HIP baselines: the same body on the vendor platforms.
#[cfg(test)]
mod vendor {
    mod tests {
        use super::super::*;
        use vendor_models::Platform;

        #[test]
        fn cuda_jacobi_matches_the_reference() {
            let config = JacobiConfig::validation(12, 200);
            let run = run(&Platform::cuda_h100(false), &config).unwrap();
            assert!(run.verification.is_verified());
            assert_eq!(run.backend, "CUDA");
        }

        #[test]
        fn hip_jacobi_matches_the_reference() {
            let config = JacobiConfig::validation(10, 150);
            let run = run(&Platform::hip_mi300a(false), &config).unwrap();
            assert!(run.verification.is_verified());
            assert_eq!(run.backend, "HIP");
        }

        #[test]
        fn portable_and_vendor_solves_are_numerically_identical() {
            // One body on all four paper platforms: the verification records,
            // error included, must be equal, not merely all passing.
            let config = JacobiConfig::validation(8, 100);
            let mojo = run(&Platform::portable_h100(), &config).unwrap();
            assert!(mojo.verification.is_verified());
            for platform in [
                Platform::cuda_h100(false),
                Platform::portable_mi300a(),
                Platform::hip_mi300a(false),
            ] {
                let other = run(&platform, &config).unwrap();
                assert_eq!(
                    other.verification,
                    mojo.verification,
                    "{}",
                    platform.label()
                );
            }
        }
    }
}
