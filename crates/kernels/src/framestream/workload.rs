//! The `framestream` scenario: the streaming-dataset engine behind the
//! [`Workload`] interface.

use super::FrameStreamConfig;
use crate::workload::{run_family, ParamSpec, Params, Workload, WorkloadError};

/// Decodes a validated parameter assignment into a stream configuration.
/// Functional validation is gated on the streamed-element budget inside
/// [`FrameStreamConfig::paper`].
pub fn config(params: &Params) -> Result<FrameStreamConfig, WorkloadError> {
    Ok(FrameStreamConfig::paper(
        params.int("n") as usize,
        params.int("frames") as usize,
    ))
}

/// The streaming-dataset family (DESIGN.md §15).
pub struct FrameStreamWorkload;

/// The `framestream` workload. The `n` floor of 2 gives the stream launch
/// something to cover; the ceilings keep `n × frames × element size` far
/// inside `u64`.
pub static FRAMESTREAM: Workload = Workload {
    name: "framestream",
    description: "streaming-dataset engine: EMA accumulation over multi-frame batches (§15)",
    fom_label: "bandwidth_gbs",
    size_param: "n",
    params: &[
        ParamSpec::int("n", 16_384, 2, 1 << 30, "elements per frame"),
        ParamSpec::int("frames", 64, 1, 65_536, "frames in the batch"),
    ],
    bench_sizes: &[1 << 12, 1 << 14, 1 << 16],
    rules: |_| Ok(()),
    run_point: run_family::<FrameStreamWorkload>,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_execute_functionally_on_all_platforms() {
        let output = FRAMESTREAM.run(&FRAMESTREAM.default_params()).unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
            assert_eq!(m.kernel, "framestream");
            assert!(m.fom > 0.0);
        }
    }

    #[test]
    fn oversized_batches_fall_back_to_the_cost_model() {
        let mut params = FRAMESTREAM.default_params();
        params.apply_encoding("n=1048576,frames=1024").unwrap();
        let output = FRAMESTREAM.run(&params).unwrap();
        for m in &output.measurements {
            assert!(m.verification.starts_with("skipped("), "{}", m.verification);
        }
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        for bad in ["n=1", "frames=0", "frames=100000", "n=2000000000"] {
            let mut params = FRAMESTREAM.default_params();
            params.apply_encoding(bad).unwrap();
            assert!(
                FRAMESTREAM.validate(&params).is_err(),
                "{bad} should be rejected"
            );
        }
    }
}
