//! The streaming-dataset engine body, written against the portable model.
//!
//! The accumulator tensor stays resident on the device while a single frame
//! buffer is refilled by a device launch with each arriving frame's data and
//! folded in by a second launch — the frames are streamed, never resident,
//! which is what makes the batch deliberately larger than any cache could
//! memoize. Both buffers come from the §11 pool, so a steady-state run
//! allocates nothing. The same body runs on every backend.

use super::config::{frame_value, FrameStreamConfig, ACC_INIT, ALPHA, BETA};
use super::cost::framestream_cost;
use super::reference::expected_final;
use super::workload::FrameStreamWorkload;
use crate::cache;
use crate::common::{Verification, WorkloadRun};
use crate::workload::{run_on, Analytic, Family, Params, WorkloadError};
use gpu_sim::error::SimResult;
use gpu_sim::{PooledString, SimError};
use hpc_metrics::framestream_bandwidth_gbs;
use portable_kernel::prelude::*;
use rayon::prelude::*;
use vendor_models::{heuristics, KernelClass, Platform};

/// Runs the frame stream on `platform`.
pub fn run(platform: &Platform, config: &FrameStreamConfig) -> Result<WorkloadRun, SimError> {
    run_on::<FrameStreamWorkload>(platform, config, ())
}

impl Family for FrameStreamWorkload {
    type Config = FrameStreamConfig;
    type Kernel = ();

    fn config(params: &Params) -> Result<FrameStreamConfig, WorkloadError> {
        super::workload::config(params)
    }

    fn kernels(_: &Params) -> Result<&'static [()], WorkloadError> {
        Ok(&[()])
    }

    fn launch(_: &Platform, config: &FrameStreamConfig, _: ()) -> LaunchConfig {
        heuristics::stream_launch(config.n as u64)
    }

    fn execute(platform: &Platform, config: &FrameStreamConfig, _: ()) -> SimResult<Verification> {
        if !config.should_execute() {
            return Ok(Verification::Skipped {
                reason: PooledString::from_fmt(format_args!(
                    "{} streamed elements exceed the functional-execution budget; cost model only",
                    config.streamed_elements()
                )),
            });
        }
        execute(platform, config)
    }

    fn time(_: &Platform, config: &FrameStreamConfig, _: ()) -> Analytic {
        let class = KernelClass::Stream {
            op: vendor_models::kernel_class::StreamOp::Triad,
            precision: gpu_spec::Precision::Fp64,
        };
        (framestream_cost(config), class, "framestream")
    }

    fn fom(config: &FrameStreamConfig, _: (), seconds: f64) -> f64 {
        framestream_bandwidth_gbs(config.n as u64, config.frames as u64, seconds)
    }
}

fn execute(platform: &Platform, config: &FrameStreamConfig) -> Result<Verification, SimError> {
    let n = config.n;
    let ctx = DeviceContext::from_device(cache::device(platform));
    let layout = Layout::row_major_1d(n);
    let acc = LayoutTensor::new(ctx.enqueue_create_buffer::<f64>(n)?, layout)?;
    let frame = LayoutTensor::new(ctx.enqueue_create_buffer::<f64>(n)?, layout)?;

    let launch = FrameStreamWorkload::launch(platform, config, ());
    let fill = |tensor: &LayoutTensor<f64>, value: f64| {
        let tensor = tensor.clone();
        ctx.enqueue_function(launch, move |t| {
            let i = t.global_x() as usize;
            if i < n {
                tensor.set(i, value);
            }
        })
    };
    fill(&acc, ACC_INIT)?;
    for f in 0..config.frames {
        // The frame buffer is REUSED: the device-side refill stands in for
        // the next frame of a dataset arriving from storage.
        fill(&frame, frame_value(f as u64))?;
        let (acc_k, frame_k) = (acc.clone(), frame.clone());
        ctx.enqueue_function(launch, move |t| {
            let i = t.global_x() as usize;
            if i < n {
                // The same expression, in the same association, as the host
                // fold: acc·BETA + ALPHA·value.
                acc_k.set(i, acc_k.get(i) * BETA + ALPHA * frame_k.get(i));
            }
        })?;
    }
    ctx.synchronize();

    // Every element saw the identical frame sequence, so the whole
    // accumulator must equal the closed-form serial fold exactly.
    let expected = expected_final(config.frames);
    let max_rel = (0..n)
        .into_par_iter()
        .map(|i| {
            let v = acc.get(i);
            (v - expected).abs() / expected.abs().max(1.0)
        })
        .reduce(|| 0.0f64, f64::max);

    if max_rel == 0.0 {
        Ok(Verification::Passed { max_abs_error: 0.0 })
    } else {
        Err(SimError::InvalidParameter(format!(
            "framestream verification failed: accumulator diverged from the closed form by \
             relative {max_rel:.3e}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_stream_matches_the_closed_form_bitwise() {
        let config = FrameStreamConfig::validation(4096, 48);
        let run = run(&Platform::portable_h100(), &config).unwrap();
        match run.verification {
            Verification::Passed { max_abs_error } => assert_eq!(max_abs_error, 0.0),
            other => panic!("expected verification, got {other:?}"),
        }
    }

    #[test]
    fn oversized_batches_skip_functional_execution_but_still_time() {
        let config = FrameStreamConfig::paper(1 << 22, 1 << 10);
        let run = run(&Platform::portable_h100(), &config).unwrap();
        assert!(!run.verification.is_verified());
        assert!(run.seconds() > 0.0);
    }
}
