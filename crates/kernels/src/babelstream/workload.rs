//! The `babelstream` scenario: the five stream drivers behind the
//! [`Workload`] interface.

use super::{BabelStreamConfig, PAPER_VECTOR_SIZE};
use crate::stencil7::workload::{parse_precision, PRECISION};
use crate::workload::{run_family, ParamSpec, Params, Workload, WorkloadError};
use vendor_models::kernel_class::StreamOp;

/// Largest vector size the driver executes functionally: the operations are
/// linear-time, so small sweeps validate for free, while the paper's 2^25
/// vectors rely on the (exact) cost model alone.
pub const MAX_FUNCTIONAL_N: usize = 1 << 20;

/// The `op` parameter: one operation, or `all` five in order.
const OP: ParamSpec = ParamSpec::text(
    "op",
    "all",
    &["all", "copy", "mul", "add", "triad", "dot"],
    "operation, or all five in order",
);

/// Parses the `op` keyword: one of the words the `op` parameter declares
/// (`all`, or one operation by name). Returns a borrowed
/// static slice — op selection is a lookup, not a per-run allocation.
pub fn parse_ops(keyword: &str) -> Result<&'static [StreamOp], WorkloadError> {
    /// In the `op` parameter's word order.
    const SELECTIONS: [&[StreamOp]; 6] = [
        &StreamOp::ALL,
        &[StreamOp::Copy],
        &[StreamOp::Mul],
        &[StreamOp::Add],
        &[StreamOp::Triad],
        &[StreamOp::Dot],
    ];
    OP.keyword_index(keyword).map(|i| SELECTIONS[i])
}

/// Decodes a validated parameter assignment into a driver configuration.
/// Functional validation is enabled automatically up to
/// [`MAX_FUNCTIONAL_N`] elements.
pub fn config(params: &Params) -> Result<BabelStreamConfig, WorkloadError> {
    let n = params.int("n") as usize;
    Ok(BabelStreamConfig {
        n,
        precision: parse_precision(params.text("precision"))?,
        validate: n <= MAX_FUNCTIONAL_N,
    })
}

/// The BabelStream family (paper Figure 4 / Table 3 / Figure 5).
pub struct BabelStreamWorkload;

/// The `babelstream` workload. The `n` floor of 2 gives Dot something to
/// reduce; its ceiling keeps the byte counts (n × element size × arrays)
/// far inside `u64`.
pub static BABELSTREAM: Workload = Workload {
    name: "babelstream",
    description: "BabelStream Copy/Mul/Add/Triad/Dot vector kernels (Eq. 2)",
    fom_label: "bandwidth_gbs",
    size_param: "n",
    params: &[
        ParamSpec::int(
            "n",
            PAPER_VECTOR_SIZE as u64,
            2,
            1 << 40,
            "vector length in elements",
        ),
        PRECISION,
        OP,
    ],
    bench_sizes: &[1 << 20],
    rules: |_| Ok(()),
    run_point: run_family::<BabelStreamWorkload>,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_keyword_selects_one_or_all_operations() {
        assert_eq!(parse_ops("all").unwrap().len(), 5);
        assert_eq!(parse_ops("triad").unwrap(), vec![StreamOp::Triad]);
        // A miss reads as validation's refusal of the same word.
        let mut params = BABELSTREAM.default_params();
        params.apply_encoding("op=frobnicate").unwrap();
        assert_eq!(
            parse_ops("frobnicate").unwrap_err(),
            BABELSTREAM.validate(&params).unwrap_err()
        );
    }

    #[test]
    fn small_sizes_validate_functionally_and_large_ones_skip() {
        let mut params = BABELSTREAM.default_params();
        params.apply_encoding("n=4096,op=dot").unwrap();
        let output = BABELSTREAM.run(&params).unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
            assert_eq!(m.kernel, "Dot");
        }
        assert!(config(&BABELSTREAM.default_params()).unwrap().n > MAX_FUNCTIONAL_N);
        assert!(!config(&BABELSTREAM.default_params()).unwrap().validate);
    }

    #[test]
    fn validation_rejects_degenerate_vectors() {
        let mut params = BABELSTREAM.default_params();
        params.apply_encoding("n=1").unwrap();
        assert!(BABELSTREAM.validate(&params).is_err());
        let mut params = BABELSTREAM.default_params();
        params.apply_encoding("op=frobnicate").unwrap();
        assert!(BABELSTREAM.validate(&params).is_err());
        // Sizes beyond the ceiling would overflow the byte products.
        let mut params = BABELSTREAM.default_params();
        params.apply_encoding("n=18446744073709551615").unwrap();
        assert!(BABELSTREAM.validate(&params).is_err());
        assert!(BABELSTREAM.run(&params).is_err());
    }
}
