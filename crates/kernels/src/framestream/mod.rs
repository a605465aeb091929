//! Streaming-dataset engine workload — the batch-streaming composite pattern
//! of DESIGN.md §15.
//!
//! A batch of synthetic data frames streams through a resident accumulator:
//! each frame is materialised into a single reused device buffer and folded
//! in element-wise as an exponential moving average. The batch is
//! deliberately sized past anything the memo cache could hold resident —
//! frames exist only while they are being folded — which exercises the
//! steady-state pool reuse path rather than the memoization path. The
//! element-wise fold has no reduction, so every thread count produces
//! bitwise-identical accumulators; the property tests pin that the
//! result is also invariant under any partitioning of the frame range.

mod config;
mod cost;
mod portable;
mod reference;
pub mod workload;

pub use config::{
    frame_value, FrameStreamConfig, ACC_INIT, ALPHA, BETA, FRAME_PERIOD, MAX_FUNCTIONAL_ELEMENTS,
};
pub use cost::framestream_cost;
/// One body runs on every backend; `run_portable` and `run_vendor` are
/// aliases of `run` for callers that name the backend.
pub use portable::{run, run as run_portable, run as run_vendor};
pub use reference::{accumulate_frames, expected_final};

#[cfg(test)]
mod tests {
    use super::*;
    use vendor_models::Platform;

    #[test]
    fn all_four_paper_platforms_run_and_verify() {
        let config = FrameStreamConfig::validation(4096, 24);
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
    fn batch_time_scales_with_the_frame_count() {
        let short = run(
            &Platform::portable_h100(),
            &FrameStreamConfig::paper(1 << 22, 16),
        )
        .unwrap();
        let long = run(
            &Platform::portable_h100(),
            &FrameStreamConfig::paper(1 << 22, 160),
        )
        .unwrap();
        let ratio = long.seconds() / short.seconds();
        assert!(
            (ratio - 10.0).abs() < 0.5,
            "10× the frames should cost ≈10× the time, got {ratio}"
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
        fn cuda_framestream_matches_the_closed_form() {
            let config = FrameStreamConfig::validation(2048, 32);
            let run = run(&Platform::cuda_h100(false), &config).unwrap();
            assert!(run.verification.is_verified());
            assert_eq!(run.backend, "CUDA");
        }

        #[test]
        fn hip_framestream_matches_the_closed_form() {
            let config = FrameStreamConfig::validation(3000, 19);
            let run = run(&Platform::hip_mi300a(false), &config).unwrap();
            assert!(run.verification.is_verified());
            assert_eq!(run.backend, "HIP");
        }
    }
}
