//! The `babelstream` scenario: the five stream drivers behind the
//! [`Workload`] interface.

use super::{BabelStreamConfig, PAPER_VECTOR_SIZE};
use crate::stencil7::workload::parse_precision;
use crate::workload::{
    check_int_range, paper_platform_pairs, Measurement, ParamSpec, Params, Workload, WorkloadError,
    WorkloadOutput,
};
use gpu_sim::PooledVec;
use hpc_metrics::{babelstream_bandwidth_gbs, BabelStreamOp};
use vendor_models::kernel_class::StreamOp;

/// Largest vector size the driver executes functionally: the operations are
/// linear-time, so small sweeps validate for free, while the paper's 2^25
/// vectors rely on the (exact) cost model alone.
pub const MAX_FUNCTIONAL_N: usize = 1 << 20;

/// Maps the kernel-side operation enum onto the metric-side one (Eq. 2 needs
/// the operation to count the arrays it moves).
pub fn metric_op(op: StreamOp) -> BabelStreamOp {
    match op {
        StreamOp::Copy => BabelStreamOp::Copy,
        StreamOp::Mul => BabelStreamOp::Mul,
        StreamOp::Add => BabelStreamOp::Add,
        StreamOp::Triad => BabelStreamOp::Triad,
        StreamOp::Dot => BabelStreamOp::Dot,
    }
}

/// Parses the `op` keyword: one operation name, or `all` for the paper's
/// five-operation presentation order. Returns a borrowed static slice — op
/// selection is a lookup, not a per-run allocation.
pub fn parse_ops(keyword: &str) -> Result<&'static [StreamOp], WorkloadError> {
    /// Singleton slices for each operation, in [`StreamOp::ALL`] order.
    const SINGLES: [[StreamOp; 1]; 5] = [
        [StreamOp::ALL[0]],
        [StreamOp::ALL[1]],
        [StreamOp::ALL[2]],
        [StreamOp::ALL[3]],
        [StreamOp::ALL[4]],
    ];
    match keyword {
        "all" => Ok(&StreamOp::ALL),
        single => StreamOp::ALL
            .iter()
            .position(|op| op.label().eq_ignore_ascii_case(single))
            .map(|i| &SINGLES[i][..])
            .ok_or_else(|| {
                WorkloadError::new(format!(
                    "unknown op '{single}' (expected all, copy, mul, add, triad or dot)"
                ))
            }),
    }
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

/// The BabelStream workload (paper Figure 4 / Table 3 / Figure 5).
pub struct BabelStreamWorkload;

impl Workload for BabelStreamWorkload {
    fn name(&self) -> &'static str {
        "babelstream"
    }

    fn description(&self) -> &'static str {
        "BabelStream Copy/Mul/Add/Triad/Dot vector kernels (Eq. 2)"
    }

    fn fom_label(&self) -> &'static str {
        "bandwidth_gbs"
    }

    fn size_param(&self) -> &'static str {
        "n"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::int("n", PAPER_VECTOR_SIZE as u64, "vector length in elements"),
            ParamSpec::text("precision", "fp64", "arithmetic precision (fp32|fp64)"),
            ParamSpec::text("op", "all", "operation (all|copy|mul|add|triad|dot)"),
        ]
    }

    fn bench_sizes(&self) -> &'static [u64] {
        &[1 << 20]
    }

    fn validate(&self, params: &Params) -> Result<(), WorkloadError> {
        // 2 elements so Dot has something to reduce; the ceiling keeps the
        // byte counts (n × element size × arrays) far inside u64.
        check_int_range(params, "n", 2, 1 << 40)?;
        parse_ops(params.text("op"))?;
        let _ = config(params)?;
        Ok(())
    }

    fn run(&self, params: &Params) -> Result<WorkloadOutput, WorkloadError> {
        self.validate(params)?;
        let config = config(params)?;
        let ops = parse_ops(params.text("op"))?;
        let mut measurements = PooledVec::new();
        for platform in paper_platform_pairs() {
            for &op in ops {
                let run = super::run(platform, op, &config)?;
                let fom = babelstream_bandwidth_gbs(
                    metric_op(op),
                    config.n as u64,
                    config.precision,
                    run.seconds(),
                );
                measurements.push(Measurement::from_run(&run, fom));
            }
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
    fn op_keyword_selects_one_or_all_operations() {
        assert_eq!(parse_ops("all").unwrap().len(), 5);
        assert_eq!(parse_ops("triad").unwrap(), vec![StreamOp::Triad]);
        assert!(parse_ops("frobnicate").is_err());
    }

    #[test]
    fn small_sizes_validate_functionally_and_large_ones_skip() {
        let mut params = BabelStreamWorkload.default_params();
        params.apply_encoding("n=4096,op=dot").unwrap();
        let output = BabelStreamWorkload.run(&params).unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
            assert_eq!(m.kernel, "Dot");
        }
        assert!(config(&BabelStreamWorkload.default_params()).unwrap().n > MAX_FUNCTIONAL_N);
        assert!(
            !config(&BabelStreamWorkload.default_params())
                .unwrap()
                .validate
        );
    }

    #[test]
    fn validation_rejects_degenerate_vectors() {
        let mut params = BabelStreamWorkload.default_params();
        params.apply_encoding("n=1").unwrap();
        assert!(BabelStreamWorkload.validate(&params).is_err());
        let mut params = BabelStreamWorkload.default_params();
        params.apply_encoding("op=frobnicate").unwrap();
        assert!(BabelStreamWorkload.validate(&params).is_err());
        // Sizes beyond the ceiling would overflow the byte products.
        let mut params = BabelStreamWorkload.default_params();
        params.apply_encoding("n=18446744073709551615").unwrap();
        assert!(BabelStreamWorkload.validate(&params).is_err());
        assert!(BabelStreamWorkload.run(&params).is_err());
    }
}
