//! The BabelStream body, written against the portable model — paper
//! Listing 3.
//!
//! Copy, Mul, Add and Triad are one-line flat kernels over `LayoutTensor`s;
//! Dot accumulates grid-strided partial products into block shared memory and
//! tree-reduces them with barriers (expressed through the bulk-synchronous
//! [`CoopKernel`] phases), then the host sums the per-block partials. The
//! same body runs on every backend; only the Dot grid differs, because
//! [`heuristics::dot_launch`] sizes it per backend (the vendor codes launch
//! four blocks per SM/CU, the portable port a grid-stride loop over a capped
//! grid).

use super::config::{BabelStreamConfig, INIT_A, INIT_B, INIT_C, SCALAR};
use super::cost::stream_cost;
use super::reference::expected_values;
use super::workload::{parse_ops, BabelStreamWorkload};
use crate::cache;
use crate::common::{Verification, WorkloadRun};
use crate::real::Real;
use crate::workload::{run_on, Analytic, Family, Params, WorkloadError};
use gpu_sim::error::SimResult;
use gpu_sim::{Dim3, PooledString, SimError};
use gpu_spec::Precision;
use hpc_metrics::babelstream_bandwidth_gbs;
use portable_kernel::prelude::*;
use rayon::prelude::*;
use vendor_models::kernel_class::StreamOp;
use vendor_models::{heuristics, KernelClass, Platform};

/// Runs one BabelStream operation on `platform`.
pub fn run(
    platform: &Platform,
    op: StreamOp,
    config: &BabelStreamConfig,
) -> Result<WorkloadRun, SimError> {
    run_on::<BabelStreamWorkload>(platform, config, op)
}

impl Family for BabelStreamWorkload {
    type Config = BabelStreamConfig;
    type Kernel = StreamOp;

    fn config(params: &Params) -> Result<BabelStreamConfig, WorkloadError> {
        super::workload::config(params)
    }

    fn kernels(params: &Params) -> Result<&'static [StreamOp], WorkloadError> {
        parse_ops(params.text("op"))
    }

    fn launch(platform: &Platform, config: &BabelStreamConfig, op: StreamOp) -> LaunchConfig {
        let n = config.n as u64;
        match op {
            StreamOp::Dot => heuristics::dot_launch(platform.backend, &platform.spec, n),
            _ => heuristics::stream_launch(n),
        }
    }

    fn execute(
        platform: &Platform,
        config: &BabelStreamConfig,
        op: StreamOp,
    ) -> SimResult<Verification> {
        if !config.validate {
            return Ok(Verification::Skipped {
                reason: PooledString::from("functional execution disabled for this configuration"),
            });
        }
        match config.precision {
            Precision::Fp32 => execute::<f32>(platform, op, config),
            Precision::Fp64 => execute::<f64>(platform, op, config),
        }
    }

    fn time(platform: &Platform, config: &BabelStreamConfig, op: StreamOp) -> Analytic {
        let class = KernelClass::Stream {
            op,
            precision: config.precision,
        };
        (stream_cost(platform, op, config), class, op.label())
    }

    fn fom(config: &BabelStreamConfig, op: StreamOp, seconds: f64) -> f64 {
        babelstream_bandwidth_gbs(op, config.n as u64, config.precision, seconds)
    }
}

/// The Dot kernel expressed as bulk-synchronous phases (each phase boundary is
/// a `barrier()` in the paper's Listing 3).
struct DotKernel<T: Real> {
    a: LayoutTensor<T>,
    b: LayoutTensor<T>,
    sums: LayoutTensor<T>,
    n: usize,
}

impl<T: Real> CoopKernel for DotKernel<T> {
    type Shared = T;
    type ThreadState = ();

    fn shared_len(&self, block_dim: Dim3) -> usize {
        block_dim.total() as usize
    }

    // The scheduler calls this once per thread per phase; without the hint,
    // whether it inlines into that loop depends on codegen-unit placement,
    // and the Dot launch runs about 3x slower when it does not.
    #[inline]
    fn phase(
        &self,
        phase: usize,
        ctx: ThreadCtx,
        _state: &mut (),
        shared: &mut [T],
    ) -> PhaseOutcome {
        let tid = ctx.thread_idx.x as usize;
        let block_size = ctx.block_dim.x as usize;
        if phase == 0 {
            // Grid-stride accumulation into the shared tile.
            let mut acc = T::from_f64(0.0);
            let mut i = ctx.global_x() as usize;
            let stride = ctx.threads_in_grid_x() as usize;
            while i < self.n {
                acc += self.a.get(i) * self.b.get(i);
                i += stride;
            }
            shared[tid] = acc;
            return PhaseOutcome::Continue;
        }
        // Tree reduction: offset halves every phase (barrier between steps).
        let offset = block_size >> phase;
        if offset == 0 {
            if tid == 0 {
                self.sums.set(ctx.block_idx.x as usize, shared[0]);
            }
            return PhaseOutcome::Done;
        }
        if tid < offset {
            let other = shared[tid + offset];
            shared[tid] += other;
        }
        PhaseOutcome::Continue
    }
}

fn execute<T: Real>(
    platform: &Platform,
    op: StreamOp,
    config: &BabelStreamConfig,
) -> Result<Verification, SimError> {
    let n = config.n;
    let ctx = DeviceContext::from_device(cache::device(platform));
    let layout = Layout::row_major_1d(n);
    let a = LayoutTensor::new(ctx.enqueue_create_buffer::<T>(n)?, layout)?;
    let b = LayoutTensor::new(ctx.enqueue_create_buffer::<T>(n)?, layout)?;
    let c = LayoutTensor::new(ctx.enqueue_create_buffer::<T>(n)?, layout)?;
    a.fill(T::from_f64(INIT_A));
    b.fill(T::from_f64(INIT_B));
    c.fill(T::from_f64(INIT_C));
    let scalar = T::from_f64(SCALAR);

    let launch = BabelStreamWorkload::launch(platform, config, op);
    let expected = expected_values(op, config);

    let observed: f64 = match op {
        StreamOp::Copy => {
            let (ak, ck) = (a.clone(), c.clone());
            ctx.enqueue_function(launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    ck.set(i, ak.get(i));
                }
            })?;
            verify_constant(&c, expected, n)?
        }
        StreamOp::Mul => {
            let (bk, ck) = (b.clone(), c.clone());
            ctx.enqueue_function(launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    bk.set(i, scalar * ck.get(i));
                }
            })?;
            verify_constant(&b, expected, n)?
        }
        StreamOp::Add => {
            let (ak, bk, ck) = (a.clone(), b.clone(), c.clone());
            ctx.enqueue_function(launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    ck.set(i, ak.get(i) + bk.get(i));
                }
            })?;
            verify_constant(&c, expected, n)?
        }
        StreamOp::Triad => {
            let (ak, bk, ck) = (a.clone(), b.clone(), c.clone());
            ctx.enqueue_function(launch, move |t| {
                let i = t.global_x() as usize;
                if i < n {
                    ak.set(i, bk.get(i) + scalar * ck.get(i));
                }
            })?;
            verify_constant(&a, expected, n)?
        }
        StreamOp::Dot => {
            let num_blocks = launch.num_blocks() as usize;
            let sums = LayoutTensor::new(
                ctx.enqueue_create_buffer::<T>(num_blocks)?,
                Layout::row_major_1d(num_blocks),
            )?;
            let kernel = DotKernel {
                a: a.clone(),
                b: b.clone(),
                sums: sums.clone(),
                n,
            };
            ctx.enqueue_cooperative(launch, &kernel)?;
            // Host-side reduction of the per-block partials, reading straight
            // from the device buffer; the fixed-chunk pairwise tree keeps the
            // sum bitwise-stable across thread counts.
            let total: f64 = (0..num_blocks)
                .into_par_iter()
                .map(|i| sums.get(i).to_f64())
                .sum();
            (total - expected).abs() / expected.abs().max(1.0)
        }
    };

    ctx.synchronize();
    if observed <= T::tolerance() {
        Ok(Verification::Passed {
            max_abs_error: observed,
        })
    } else {
        Err(SimError::InvalidParameter(format!(
            "BabelStream {op} verification failed: relative error {observed:.3e}"
        )))
    }
}

/// Checks that every element of `tensor` equals `expected`; returns the
/// maximum relative error. The scan runs on the pool; `max` is
/// order-independent, so the result is identical at any thread count.
fn verify_constant<T: Real>(
    tensor: &LayoutTensor<T>,
    expected: f64,
    n: usize,
) -> Result<f64, SimError> {
    let max_rel = (0..n)
        .into_par_iter()
        .map(|i| {
            let v = tensor.get(i).to_f64();
            (v - expected).abs() / expected.abs().max(1.0)
        })
        .reduce(|| 0.0f64, f64::max);
    Ok(max_rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::Precision;

    #[test]
    fn every_op_verifies_in_both_precisions() {
        for precision in [Precision::Fp32, Precision::Fp64] {
            let config = BabelStreamConfig::validation(1 << 13, precision);
            for op in StreamOp::ALL {
                let run = run(&Platform::portable_h100(), op, &config).unwrap();
                assert!(run.verification.is_verified(), "{op} {precision}");
            }
        }
    }

    #[test]
    fn dot_reduction_is_numerically_exact_for_uniform_data() {
        let config = BabelStreamConfig::validation(10_000, Precision::Fp64);
        let run = run(&Platform::portable_mi300a(), StreamOp::Dot, &config).unwrap();
        match run.verification {
            Verification::Passed { max_abs_error } => assert!(max_abs_error < 1e-10),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn skipping_validation_still_times_the_kernel() {
        let config = BabelStreamConfig::paper(Precision::Fp64);
        let run = run(&Platform::portable_h100(), StreamOp::Triad, &config).unwrap();
        assert!(!run.verification.is_verified());
        assert!(run.millis() > 0.1 && run.millis() < 1.0);
    }
}
