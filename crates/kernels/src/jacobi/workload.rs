//! The `jacobi` scenario: the iterative solver behind the [`Workload`]
//! interface.

use super::{planned_iters, JacobiConfig, MAX_JACOBI_ITERS};
use crate::workload::{
    check_int_range, paper_platform_pairs, Measurement, ParamSpec, Params, Workload, WorkloadError,
    WorkloadOutput,
};
use gpu_sim::PooledVec;
use hpc_metrics::jacobi_bandwidth_gbs;

/// Decodes a validated parameter assignment into a solver configuration.
/// Functional validation is gated on [`super::MAX_FUNCTIONAL_L_JACOBI`]
/// inside [`JacobiConfig::paper`].
pub fn config(params: &Params) -> Result<JacobiConfig, WorkloadError> {
    Ok(JacobiConfig::paper(
        params.int("l") as usize,
        params.int("iters") as usize,
    ))
}

/// The iterative Jacobi-solver workload (DESIGN.md §15).
pub struct JacobiWorkload;

impl Workload for JacobiWorkload {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn description(&self) -> &'static str {
        "iterative Jacobi solver: stencil sweep + convergence norm per iteration (§15)"
    }

    fn fom_label(&self) -> &'static str {
        "bandwidth_gbs"
    }

    fn size_param(&self) -> &'static str {
        "l"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::int("l", 16, "cubic grid side length"),
            ParamSpec::int("iters", 400, "iteration cap (solve may converge earlier)"),
        ]
    }

    fn bench_sizes(&self) -> &'static [u64] {
        &[8, 12, 16]
    }

    fn validate(&self, params: &Params) -> Result<(), WorkloadError> {
        // 3 is the smallest grid with an interior cell; the ceiling keeps the
        // per-sweep byte counts far inside u64 even at the iteration cap.
        check_int_range(params, "l", 3, 4096)?;
        check_int_range(params, "iters", 1, MAX_JACOBI_ITERS as u64)?;
        let _ = config(params)?;
        Ok(())
    }

    fn run(&self, params: &Params) -> Result<WorkloadOutput, WorkloadError> {
        self.validate(params)?;
        let config = config(params)?;
        let iters = planned_iters(&config);
        let mut measurements = PooledVec::new();
        for platform in paper_platform_pairs() {
            let run = super::run(platform, &config)?;
            let fom = jacobi_bandwidth_gbs(config.l as u64, iters as u64, run.seconds());
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
    fn default_params_execute_functionally_on_all_platforms() {
        let output = JacobiWorkload
            .run(&JacobiWorkload.default_params())
            .unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
            assert_eq!(m.kernel, "jacobi");
            assert!(m.fom > 0.0);
        }
    }

    #[test]
    fn large_grids_fall_back_to_the_cost_model() {
        let mut params = JacobiWorkload.default_params();
        params.apply_encoding("l=192,iters=50").unwrap();
        let output = JacobiWorkload.run(&params).unwrap();
        for m in &output.measurements {
            assert!(m.verification.starts_with("skipped("), "{}", m.verification);
        }
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        for bad in ["l=2", "l=5000", "iters=0", "iters=1000000"] {
            let mut params = JacobiWorkload.default_params();
            params.apply_encoding(bad).unwrap();
            assert!(
                JacobiWorkload.validate(&params).is_err(),
                "{bad} should be rejected"
            );
        }
    }
}
