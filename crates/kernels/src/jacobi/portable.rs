//! The Jacobi solver body, written against the portable model.
//!
//! The multi-pass composite pattern of DESIGN.md §15: the device relaxes the
//! grid sweep by sweep through ping-ponged `LayoutTensor`s — one launch per
//! iteration, exactly as a real single-source port would — and the host runs
//! the convergence-norm reduction between launches. The number of sweeps is
//! fixed by the memoized reference solve, so every thread count and every
//! backend executes the same launch sequence.

use super::config::{JacobiConfig, SIXTH};
use super::cost::jacobi_cost;
use super::planned_iters;
use super::reference::residual_rms;
use super::workload::JacobiWorkload;
use crate::cache;
use crate::common::{compare_with_reference, Verification, WorkloadRun};
use crate::workload::{run_on, Analytic, Family, Params, WorkloadError};
use gpu_sim::error::SimResult;
use gpu_sim::{PooledString, SimError};
use hpc_metrics::jacobi_bandwidth_gbs;
use portable_kernel::prelude::*;
use vendor_models::{heuristics, KernelClass, Platform};

/// The portable Jacobi sweep body: replaces one interior cell with the
/// average of its six face neighbours (the same expression, in the same
/// association, as the CPU reference).
#[inline]
fn jacobi_kernel(
    t: ThreadCtx,
    f: &LayoutTensor<f64>,
    u: &LayoutTensor<f64>,
    nx: usize,
    ny: usize,
    nz: usize,
) {
    let k = t.global_x() as usize;
    let j = t.global_y() as usize;
    let i = t.global_z() as usize;
    if i > 0 && i < nx - 1 && j > 0 && j < ny - 1 && k > 0 && k < nz - 1 {
        let value = (((u.get3(i - 1, j, k) + u.get3(i + 1, j, k))
            + (u.get3(i, j - 1, k) + u.get3(i, j + 1, k)))
            + (u.get3(i, j, k - 1) + u.get3(i, j, k + 1)))
            * SIXTH;
        f.set3(i, j, k, value);
    }
}

/// Runs the Jacobi solve on `platform`.
pub fn run(platform: &Platform, config: &JacobiConfig) -> Result<WorkloadRun, SimError> {
    run_on::<JacobiWorkload>(platform, config, ())
}

impl Family for JacobiWorkload {
    type Config = JacobiConfig;
    type Kernel = ();

    fn config(params: &Params) -> Result<JacobiConfig, WorkloadError> {
        super::workload::config(params)
    }

    fn kernels(_: &Params) -> Result<&'static [()], WorkloadError> {
        Ok(&[()])
    }

    fn launch(_: &Platform, config: &JacobiConfig, _: ()) -> LaunchConfig {
        heuristics::stencil_launch(config.l as u32, config.block_x)
    }

    fn execute(platform: &Platform, config: &JacobiConfig, _: ()) -> SimResult<Verification> {
        if !config.should_execute() {
            return Ok(Verification::Skipped {
                reason: PooledString::from_fmt(format_args!(
                    "L = {} exceeds the functional-execution limit; cost model only",
                    config.l
                )),
            });
        }
        execute(platform, config)
    }

    fn time(_: &Platform, config: &JacobiConfig, _: ()) -> Analytic {
        let class = KernelClass::Stencil7 {
            precision: gpu_spec::Precision::Fp64,
        };
        (jacobi_cost(config, planned_iters(config)), class, "jacobi")
    }

    fn fom(config: &JacobiConfig, _: (), seconds: f64) -> f64 {
        jacobi_bandwidth_gbs(config.l as u64, planned_iters(config) as u64, seconds)
    }
}

fn execute(platform: &Platform, config: &JacobiConfig) -> Result<Verification, SimError> {
    let l = config.l;
    let layout = Layout::row_major_3d(l, l, l);
    let seed = cache::stencil_grid(&super::reference::seed_config(config));
    let reference = cache::jacobi_reference(config);

    let ctx = DeviceContext::from_device(cache::device(platform));
    // Both ping-pong buffers start from the seed so the untouched boundary
    // carries the Dirichlet data in either of them.
    let d_u = ctx.enqueue_create_buffer_from(&seed)?;
    let d_f = ctx.enqueue_create_buffer_from(&seed)?;
    let mut u_tensor = LayoutTensor::new(d_u, layout)?;
    let mut f_tensor = LayoutTensor::new(d_f, layout)?;

    let launch = JacobiWorkload::launch(platform, config, ());
    for _ in 0..reference.iters_run {
        let (f_k, u_k) = (f_tensor.clone(), u_tensor.clone());
        ctx.enqueue_function(launch, move |t| {
            jacobi_kernel(t, &f_k, &u_k, l, l, l);
        })?;
        ctx.synchronize();
        std::mem::swap(&mut u_tensor, &mut f_tensor);
    }

    // After the final swap `u_tensor` holds the last iterate and `f_tensor`
    // the one before it; the final residual recomputes from the pair.
    let mut actual: PooledVec<f64> = PooledVec::new();
    u_tensor.to_host_into(&mut actual);
    let mut previous: PooledVec<f64> = PooledVec::new();
    f_tensor.to_host_into(&mut previous);

    // Device and reference run the same f64 expression in the same order, so
    // the grids agree bitwise; the f64 driver tolerance guards the compare.
    let tolerance = <f64 as crate::real::Real>::tolerance();
    let max_abs_error = compare_with_reference(&actual, &reference.grid, tolerance)
        .map_err(|msg| SimError::InvalidParameter(format!("jacobi verification failed: {msg}")))?;

    let residual = residual_rms(&actual, &previous, config.interior_cells() as f64);
    let golden = reference.residuals[reference.iters_run - 1];
    let rel = (residual - golden).abs() / golden.abs().max(1e-300);
    if rel > 1e-12 {
        return Err(SimError::InvalidParameter(format!(
            "jacobi residual mismatch: device-path norm {residual:.17e} vs reference \
             {golden:.17e} (relative {rel:.3e})"
        )));
    }

    Ok(Verification::Passed { max_abs_error })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_jacobi_matches_the_reference_bitwise() {
        let config = JacobiConfig::validation(12, 200);
        let run = run(&Platform::portable_h100(), &config).unwrap();
        match run.verification {
            Verification::Passed { max_abs_error } => assert_eq!(max_abs_error, 0.0),
            other => panic!("expected verification, got {other:?}"),
        }
    }

    #[test]
    fn large_problems_skip_functional_execution_but_still_time() {
        let config = JacobiConfig::paper(128, 500);
        let run = run(&Platform::portable_h100(), &config).unwrap();
        assert!(!run.verification.is_verified());
        assert!(run.seconds() > 0.0);
    }
}
