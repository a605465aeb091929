//! The seven-point stencil body, written against the portable model.
//!
//! A direct transcription of the paper's Listing 2: the kernel receives two
//! `LayoutTensor`s (`f` mutable, `u` read-only) and the inverse-square
//! coefficients, computes its `(i, j, k)` cell from the thread/block indices
//! and updates interior cells only. The same source runs on every simulated
//! device and backend — that single-source property is exactly what the
//! paper evaluates; the backends differ only in their execution profile.

use super::config::StencilConfig;
use super::cost::stencil_cost;
use super::workload::StencilWorkload;
use crate::cache;
use crate::common::{compare_with_reference, Verification, WorkloadRun};
use crate::real::Real;
use crate::workload::{run_on, Analytic, Family, Params, WorkloadError};
use gpu_sim::error::SimResult;
use gpu_sim::{PooledString, SimError};
use gpu_spec::Precision;
use hpc_metrics::stencil_bandwidth_gbs;
use portable_kernel::prelude::*;
use vendor_models::{heuristics, KernelClass, Platform};

/// The portable stencil kernel body (paper Listing 2): updates one cell of
/// `f` from `u` if the cell is interior.
#[allow(clippy::too_many_arguments)]
#[inline]
fn laplacian_kernel<T: Real>(
    t: ThreadCtx,
    f: &LayoutTensor<T>,
    u: &LayoutTensor<T>,
    nx: usize,
    ny: usize,
    nz: usize,
    invhx2: T,
    invhy2: T,
    invhz2: T,
    invhxyz2: T,
) {
    let k = t.global_x() as usize;
    let j = t.global_y() as usize;
    let i = t.global_z() as usize;
    if i > 0 && i < nx - 1 && j > 0 && j < ny - 1 && k > 0 && k < nz - 1 {
        let value = u.get3(i, j, k) * invhxyz2
            + (u.get3(i - 1, j, k) + u.get3(i + 1, j, k)) * invhx2
            + (u.get3(i, j - 1, k) + u.get3(i, j + 1, k)) * invhy2
            + (u.get3(i, j, k - 1) + u.get3(i, j, k + 1)) * invhz2;
        f.set3(i, j, k, value);
    }
}

/// Runs the stencil on `platform`, returning the full run record.
pub fn run(platform: &Platform, config: &StencilConfig) -> Result<WorkloadRun, SimError> {
    run_on::<StencilWorkload>(platform, config, ())
}

impl Family for StencilWorkload {
    type Config = StencilConfig;
    type Kernel = ();

    fn config(params: &Params) -> Result<StencilConfig, WorkloadError> {
        super::workload::config(params)
    }

    fn kernels(_: &Params) -> Result<&'static [()], WorkloadError> {
        Ok(&[()])
    }

    fn launch(_: &Platform, config: &StencilConfig, _: ()) -> LaunchConfig {
        heuristics::stencil_launch(config.l as u32, config.block_x)
    }

    fn execute(platform: &Platform, config: &StencilConfig, _: ()) -> SimResult<Verification> {
        if !config.should_execute() {
            return Ok(Verification::Skipped {
                reason: PooledString::from_fmt(format_args!(
                    "L = {} exceeds the functional-execution limit; cost model only",
                    config.l
                )),
            });
        }
        match config.precision {
            Precision::Fp32 => execute::<f32>(platform, config),
            Precision::Fp64 => execute::<f64>(platform, config),
        }
    }

    fn time(_: &Platform, config: &StencilConfig, _: ()) -> Analytic {
        let class = KernelClass::Stencil7 {
            precision: config.precision,
        };
        (stencil_cost(config), class, "laplacian")
    }

    fn fom(config: &StencilConfig, _: (), seconds: f64) -> f64 {
        stencil_bandwidth_gbs(config.l as u64, config.precision, seconds)
    }
}

fn execute<T: Real + cache::StencilGridCache>(
    platform: &Platform,
    config: &StencilConfig,
) -> Result<Verification, SimError> {
    let l = config.l;
    let layout = Layout::row_major_3d(l, l, l);
    let (invhx2, invhy2, invhz2, invhxyz2) = config.coefficients();

    let u_host = T::cached_stencil_grid(config);

    let ctx = DeviceContext::from_device(cache::device(platform));
    let d_u = ctx.enqueue_create_buffer_from(&u_host)?;
    let d_f = ctx.enqueue_create_buffer::<T>(l * l * l)?;
    let u_tensor = LayoutTensor::new(d_u, layout)?;
    let f_tensor = LayoutTensor::new(d_f, layout)?;

    let launch = StencilWorkload::launch(platform, config, ());
    let (f_k, u_k) = (f_tensor.clone(), u_tensor.clone());
    let (cx, cy, cz, cc) = (
        T::from_f64(invhx2),
        T::from_f64(invhy2),
        T::from_f64(invhz2),
        T::from_f64(invhxyz2),
    );
    ctx.enqueue_function(launch, move |t| {
        laplacian_kernel(t, &f_k, &u_k, l, l, l, cx, cy, cz, cc);
    })?;
    ctx.synchronize();

    // The reference is computed from the full-precision grid in f64
    // arithmetic; the tolerance accounts for the difference.
    let expected = cache::stencil_reference(config);
    let mut actual: PooledVec<T> = PooledVec::new();
    f_tensor.to_host_into(&mut actual);
    match compare_with_reference(&actual, &expected, T::tolerance()) {
        Ok(max_abs_error) => Ok(Verification::Passed { max_abs_error }),
        Err(msg) => Err(SimError::InvalidParameter(format!(
            "stencil verification failed: {msg}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::Precision;

    #[test]
    fn portable_stencil_matches_reference_fp64() {
        let config = StencilConfig::validation(32, Precision::Fp64);
        let run = run(&Platform::portable_h100(), &config).unwrap();
        match run.verification {
            Verification::Passed { max_abs_error } => assert!(max_abs_error < 1e-6),
            other => panic!("expected verification, got {other:?}"),
        }
    }

    #[test]
    fn portable_stencil_matches_reference_fp32() {
        let config = StencilConfig::validation(24, Precision::Fp32);
        let run = run(&Platform::portable_mi300a(), &config).unwrap();
        assert!(run.verification.is_verified());
    }

    #[test]
    fn large_problems_skip_functional_execution() {
        let config = StencilConfig::paper(512, Precision::Fp64);
        let run = run(&Platform::portable_h100(), &config).unwrap();
        assert!(!run.verification.is_verified());
        assert!(run.millis() > 0.1, "512³ stencil should take ~1 ms");
    }

    #[test]
    fn duration_is_close_to_table2_for_fp64_l512() {
        // Table 2: Mojo FP64 L=512 duration 1.10 ms on the H100.
        let config = StencilConfig::paper(512, Precision::Fp64);
        let run = run(&Platform::portable_h100(), &config).unwrap();
        assert!(
            (run.millis() - 1.10).abs() < 0.2,
            "expected ≈1.10 ms, got {:.3} ms",
            run.millis()
        );
    }
}
