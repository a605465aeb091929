//! The `stencil` scenario: the seven-point Laplacian drivers behind the
//! [`Workload`] interface.

use super::{StencilConfig, MAX_FUNCTIONAL_L};
use crate::workload::{run_family, ParamSpec, Params, Workload, WorkloadError};
use gpu_spec::Precision;

/// The `precision` parameter every precision-tunable workload declares.
pub const PRECISION: ParamSpec = ParamSpec::text(
    "precision",
    "fp64",
    &["fp32", "fp64"],
    "arithmetic precision",
);

/// Parses a `precision` keyword: one of [`PRECISION`]'s words.
pub fn parse_precision(keyword: &str) -> Result<Precision, WorkloadError> {
    /// In [`PRECISION`]'s word order.
    const PRECISIONS: [Precision; 2] = [Precision::Fp32, Precision::Fp64];
    PRECISION.keyword_index(keyword).map(|i| PRECISIONS[i])
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

/// The seven-point stencil family (paper Figure 3 / Table 2).
pub struct StencilWorkload;

/// The `stencil` workload. The `l` floor of 3 leaves an interior cell; its
/// ceiling keeps `cells() = l³` and every derived byte count far inside
/// `u64`.
pub static STENCIL: Workload = Workload {
    name: "stencil",
    description: "seven-point Laplacian on a cubic grid (memory-bandwidth bound, Eq. 1)",
    fom_label: "bandwidth_gbs",
    size_param: "l",
    params: &[
        ParamSpec::int(
            "l",
            MAX_FUNCTIONAL_L as u64,
            3,
            1 << 16,
            "cubic grid side length",
        ),
        PRECISION,
        ParamSpec::int(
            "block",
            0,
            0,
            1024,
            "threads per block in x (0 = min(l, 1024))",
        ),
    ],
    bench_sizes: &[64, 96, 128],
    rules: |_| Ok(()),
    run_point: run_family::<StencilWorkload>,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_paper_configs_from_encodings() {
        let mut params = STENCIL.default_params();
        params.apply_encoding("l=512,precision=fp32").unwrap();
        let decoded = config(&params).unwrap();
        assert_eq!(decoded, StencilConfig::paper(512, Precision::Fp32));
        params.apply_encoding("block=256").unwrap();
        assert_eq!(config(&params).unwrap().block_x, 256);
    }

    #[test]
    fn validation_rejects_degenerate_grids_and_oversized_blocks() {
        let mut params = STENCIL.default_params();
        params.apply_encoding("l=2").unwrap();
        assert!(STENCIL.validate(&params).is_err());
        let mut params = STENCIL.default_params();
        params.apply_encoding("block=2048").unwrap();
        assert!(STENCIL.validate(&params).is_err());
        assert!(STENCIL.validate(&STENCIL.default_params()).is_ok());
    }

    #[test]
    fn sizes_that_would_overflow_the_cost_model_are_rejected_not_run() {
        // l = 10^10 would overflow cells() = l³; validate() and run() both
        // refuse it instead of wrapping.
        let mut params = STENCIL.default_params();
        params.apply_encoding("l=10000000000").unwrap();
        assert!(STENCIL.validate(&params).is_err());
        assert!(STENCIL.run(&params).is_err());
    }

    #[test]
    fn runs_every_paper_platform_and_verifies_at_small_sizes() {
        let mut params = STENCIL.default_params();
        params.apply_encoding("l=24").unwrap();
        let output = STENCIL.run(&params).unwrap();
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
