//! The `stencil` scenario: the seven-point Laplacian drivers behind the
//! [`Workload`] interface.

use super::{StencilConfig, MAX_FUNCTIONAL_L};
use crate::workload::{
    check_int_range, paper_platform_pairs, Measurement, ParamSpec, Params, Workload, WorkloadError,
    WorkloadOutput,
};
use gpu_sim::PooledVec;
use gpu_spec::Precision;
use hpc_metrics::stencil_bandwidth_gbs;

/// Parses a `fp32`/`fp64` keyword.
pub fn parse_precision(keyword: &str) -> Result<Precision, WorkloadError> {
    match keyword {
        "fp32" => Ok(Precision::Fp32),
        "fp64" => Ok(Precision::Fp64),
        other => Err(WorkloadError::new(format!(
            "unknown precision '{other}' (expected fp32 or fp64)"
        ))),
    }
}

/// Decodes a validated parameter assignment into a driver configuration.
///
/// `block=0` (the default) keeps the paper's heuristic of `min(l, 1024)`
/// threads per block; functional validation is enabled automatically below
/// the precision's functional limit, exactly as [`StencilConfig::paper`]
/// does.
pub fn config(params: &Params) -> Result<StencilConfig, WorkloadError> {
    let l = params.int("l") as usize;
    let mut config = StencilConfig::paper(l, parse_precision(params.text("precision"))?);
    let block = params.int("block");
    if block != 0 {
        config.block_x = block as u32;
    }
    Ok(config)
}

/// The seven-point stencil workload (paper Figure 3 / Table 2).
pub struct StencilWorkload;

impl Workload for StencilWorkload {
    fn name(&self) -> &'static str {
        "stencil"
    }

    fn description(&self) -> &'static str {
        "seven-point Laplacian on a cubic grid (memory-bandwidth bound, Eq. 1)"
    }

    fn fom_label(&self) -> &'static str {
        "bandwidth_gbs"
    }

    fn size_param(&self) -> &'static str {
        "l"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::int("l", MAX_FUNCTIONAL_L as u64, "cubic grid side length"),
            ParamSpec::text("precision", "fp64", "arithmetic precision (fp32|fp64)"),
            ParamSpec::int("block", 0, "threads per block in x (0 = min(l, 1024))"),
        ]
    }

    fn bench_sizes(&self) -> &'static [u64] {
        &[64, 96, 128]
    }

    fn validate(&self, params: &Params) -> Result<(), WorkloadError> {
        // 3 for interior cells; the ceiling keeps cells() = l³ (and every
        // derived byte count) far inside u64.
        check_int_range(params, "l", 3, 1 << 16)?;
        check_int_range(params, "block", 0, 1024)?;
        let _ = config(params)?;
        Ok(())
    }

    fn run(&self, params: &Params) -> Result<WorkloadOutput, WorkloadError> {
        self.validate(params)?;
        let config = config(params)?;
        let mut measurements = PooledVec::new();
        for platform in paper_platform_pairs() {
            let run = super::run(platform, &config)?;
            let fom = stencil_bandwidth_gbs(config.l as u64, config.precision, run.seconds());
            measurements.push(Measurement::from_run(&run, fom));
        }
        Ok(WorkloadOutput {
            params: params.clone(),
            measurements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_paper_configs_from_encodings() {
        let mut params = StencilWorkload.default_params();
        params.apply_encoding("l=512,precision=fp32").unwrap();
        let decoded = config(&params).unwrap();
        assert_eq!(decoded, StencilConfig::paper(512, Precision::Fp32));
        params.apply_encoding("block=256").unwrap();
        assert_eq!(config(&params).unwrap().block_x, 256);
    }

    #[test]
    fn validation_rejects_degenerate_grids_and_oversized_blocks() {
        let mut params = StencilWorkload.default_params();
        params.apply_encoding("l=2").unwrap();
        assert!(StencilWorkload.validate(&params).is_err());
        let mut params = StencilWorkload.default_params();
        params.apply_encoding("block=2048").unwrap();
        assert!(StencilWorkload.validate(&params).is_err());
        assert!(StencilWorkload
            .validate(&StencilWorkload.default_params())
            .is_ok());
    }

    #[test]
    fn sizes_that_would_overflow_the_cost_model_are_rejected_not_run() {
        // l = 10^10 would overflow cells() = l³; validate() and run() both
        // refuse it instead of wrapping.
        let mut params = StencilWorkload.default_params();
        params.apply_encoding("l=10000000000").unwrap();
        assert!(StencilWorkload.validate(&params).is_err());
        assert!(StencilWorkload.run(&params).is_err());
    }

    #[test]
    fn runs_every_paper_platform_and_verifies_at_small_sizes() {
        let mut params = StencilWorkload.default_params();
        params.apply_encoding("l=24").unwrap();
        let output = StencilWorkload.run(&params).unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert!(m.fom > 0.0, "{} bandwidth should be positive", m.backend);
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
        }
        // H100 Mojo/CUDA pair first, MI300A pair second.
        assert_eq!(output.measurements[0].backend, "Mojo");
        assert_eq!(output.measurements[1].backend, "CUDA");
    }
}
