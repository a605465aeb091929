//! The `framestream` scenario: the streaming-dataset engine behind the
//! [`Workload`] interface.

use super::FrameStreamConfig;
use crate::workload::{
    check_int_range, run_family, ParamSpec, Params, Workload, WorkloadError, WorkloadOutput,
};

/// Decodes a validated parameter assignment into a stream configuration.
/// Functional validation is gated on the streamed-element budget inside
/// [`FrameStreamConfig::paper`].
pub fn config(params: &Params) -> Result<FrameStreamConfig, WorkloadError> {
    Ok(FrameStreamConfig::paper(
        params.int("n") as usize,
        params.int("frames") as usize,
    ))
}

/// The streaming-dataset workload (DESIGN.md §15).
pub struct FrameStreamWorkload;

impl Workload for FrameStreamWorkload {
    fn name(&self) -> &'static str {
        "framestream"
    }

    fn description(&self) -> &'static str {
        "streaming-dataset engine: EMA accumulation over multi-frame batches (§15)"
    }

    fn fom_label(&self) -> &'static str {
        "bandwidth_gbs"
    }

    fn size_param(&self) -> &'static str {
        "n"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::int("n", 16_384, "elements per frame"),
            ParamSpec::int("frames", 64, "frames in the batch"),
        ]
    }

    fn bench_sizes(&self) -> &'static [u64] {
        &[1 << 12, 1 << 14, 1 << 16]
    }

    fn validate(&self, params: &Params) -> Result<(), WorkloadError> {
        // 2 elements so the stream launch has something to cover; the
        // ceilings keep `n × frames × element size` far inside u64.
        check_int_range(params, "n", 2, 1 << 30)?;
        check_int_range(params, "frames", 1, 65_536)?;
        let _ = config(params)?;
        Ok(())
    }

    fn run(&self, params: &Params) -> Result<WorkloadOutput, WorkloadError> {
        run_family(self, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_execute_functionally_on_all_platforms() {
        let output = FrameStreamWorkload
            .run(&FrameStreamWorkload.default_params())
            .unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
            assert_eq!(m.kernel, "framestream");
            assert!(m.fom > 0.0);
        }
    }

    #[test]
    fn oversized_batches_fall_back_to_the_cost_model() {
        let mut params = FrameStreamWorkload.default_params();
        params.apply_encoding("n=1048576,frames=1024").unwrap();
        let output = FrameStreamWorkload.run(&params).unwrap();
        for m in &output.measurements {
            assert!(m.verification.starts_with("skipped("), "{}", m.verification);
        }
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        for bad in ["n=1", "frames=0", "frames=100000", "n=2000000000"] {
            let mut params = FrameStreamWorkload.default_params();
            params.apply_encoding(bad).unwrap();
            assert!(
                FrameStreamWorkload.validate(&params).is_err(),
                "{bad} should be rejected"
            );
        }
    }
}
