//! The `jacobi` scenario: the iterative solver behind the [`Workload`]
//! interface.

use super::{JacobiConfig, MAX_JACOBI_ITERS};
use crate::workload::{run_family, ParamSpec, Params, Workload, WorkloadError};

/// Decodes a validated parameter assignment into a solver configuration.
/// Functional validation is gated on [`super::MAX_FUNCTIONAL_L_JACOBI`]
/// inside [`JacobiConfig::paper`].
pub fn config(params: &Params) -> Result<JacobiConfig, WorkloadError> {
    Ok(JacobiConfig::paper(
        params.int("l") as usize,
        params.int("iters") as usize,
    ))
}

/// The iterative Jacobi-solver family (DESIGN.md §15).
pub struct JacobiWorkload;

/// The `jacobi` workload. 3 is the smallest grid with an interior cell; the
/// `l` ceiling keeps the per-sweep byte counts far inside `u64` even at the
/// iteration cap.
pub static JACOBI: Workload = Workload {
    name: "jacobi",
    description: "iterative Jacobi solver: stencil sweep + convergence norm per iteration (§15)",
    fom_label: "bandwidth_gbs",
    size_param: "l",
    params: &[
        ParamSpec::int("l", 16, 3, 4096, "cubic grid side length"),
        ParamSpec::int(
            "iters",
            400,
            1,
            MAX_JACOBI_ITERS as u64,
            "iteration cap (solve may converge earlier)",
        ),
    ],
    bench_sizes: &[8, 12, 16],
    rules: |_| Ok(()),
    run_point: run_family::<JacobiWorkload>,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_execute_functionally_on_all_platforms() {
        let output = JACOBI.run(&JACOBI.default_params()).unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
            assert_eq!(m.kernel, "jacobi");
            assert!(m.fom > 0.0);
        }
    }

    #[test]
    fn large_grids_fall_back_to_the_cost_model() {
        let mut params = JACOBI.default_params();
        params.apply_encoding("l=192,iters=50").unwrap();
        let output = JACOBI.run(&params).unwrap();
        for m in &output.measurements {
            assert!(m.verification.starts_with("skipped("), "{}", m.verification);
        }
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        for bad in ["l=2", "l=5000", "iters=0", "iters=1000000"] {
            let mut params = JACOBI.default_params();
            params.apply_encoding(bad).unwrap();
            assert!(
                JACOBI.validate(&params).is_err(),
                "{bad} should be rejected"
            );
        }
    }
}
