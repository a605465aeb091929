//! The fasten body, written against the portable model — paper Listing 4.
//!
//! Poses-per-work-item (PPWI) is a compile-time parameter in the Mojo port
//! (`fn fasten_kernel[PPWI: Int](…)`); the Rust analogue is a const-generic
//! kernel dispatched over the paper's PPWI sweep values. Per-pose energies
//! accumulate in a [`Simd`] register vector, mirroring `SIMD[dtype, PPWI]`,
//! and the ligand/protein molecules are read from flattened 4-float-per-atom
//! buffers — the exact workaround the paper describes for Mojo's missing
//! plain-old-data GPU allocations. The same body runs on every backend; the
//! fast-math and register differences live in the execution profiles.

use super::config::MiniBudeConfig;
use super::cost::fasten_cost;
use super::reference::{pair_energy, transform_point, HALF};
use super::workload::MiniBudeWorkload;
use crate::cache;
use crate::common::{compare_slices_f32, Verification, WorkloadRun};
use crate::workload::{run_on, Analytic, Family, Params, WorkloadError};
use gpu_sim::error::SimResult;
use gpu_sim::{PooledString, SimError};
use hpc_metrics::{minibude_gflops, MiniBudeSizes};
use portable_kernel::prelude::*;
use vendor_models::{heuristics, KernelClass, Platform};

/// Runs the fasten kernel on `platform`.
pub fn run(platform: &Platform, config: &MiniBudeConfig) -> Result<WorkloadRun, SimError> {
    run_on::<MiniBudeWorkload>(platform, config, ())
}

impl Family for MiniBudeWorkload {
    type Config = MiniBudeConfig;
    type Kernel = ();

    fn config(params: &Params) -> Result<MiniBudeConfig, WorkloadError> {
        super::workload::config(params)
    }

    fn kernels(_: &Params) -> Result<&'static [()], WorkloadError> {
        Ok(&[()])
    }

    fn launch(_: &Platform, config: &MiniBudeConfig, _: ()) -> LaunchConfig {
        heuristics::bude_launch(config.executed_poses as u64, config.ppwi, config.wg)
    }

    fn execute(platform: &Platform, config: &MiniBudeConfig, _: ()) -> SimResult<Verification> {
        if !config.should_execute() {
            return Ok(Verification::Skipped {
                reason: PooledString::from("functional execution disabled (executed_poses = 0)"),
            });
        }
        execute(platform, config)
    }

    fn time(_: &Platform, config: &MiniBudeConfig, _: ()) -> Analytic {
        let class = KernelClass::BudeFasten {
            ppwi: config.ppwi,
            wg: config.wg,
        };
        (fasten_cost(config), class, "fasten")
    }

    fn fom(config: &MiniBudeConfig, _: (), seconds: f64) -> f64 {
        let sizes = MiniBudeSizes {
            nligands: config.natlig as u64,
            nproteins: config.natpro as u64,
            poses: config.nposes as u64,
            ppwi: config.ppwi as u64,
        };
        minibude_gflops(&sizes, seconds)
    }
}

/// Device-side views shared by every PPWI instantiation.
struct FastenArgs {
    protein: LayoutTensor<f32>,
    ligand: LayoutTensor<f32>,
    forcefield: LayoutTensor<f32>,
    transforms: [LayoutTensor<f32>; 6],
    etotals: LayoutTensor<f32>,
    natlig: usize,
    natpro: usize,
    num_transforms: usize,
}

/// The const-generic kernel body: one thread handles `PPWI` poses.
fn fasten_kernel<const PPWI: usize>(t: ThreadCtx, args: &FastenArgs) {
    let lsz = t.block_dim.x as usize;
    let mut ix = (t.block_idx.x as usize) * lsz * PPWI + t.thread_idx.x as usize;
    if ix >= args.num_transforms {
        ix = args.num_transforms - PPWI;
    }

    let mut etot = Simd::<PPWI>::zero();

    // Transform every ligand atom into every lane's pose frame, then loop over
    // protein atoms accumulating the interaction energy.
    for lane in 0..PPWI {
        let pose_index = ix + lane * lsz;
        if pose_index >= args.num_transforms {
            continue;
        }
        let pose = [
            args.transforms[0].get(pose_index),
            args.transforms[1].get(pose_index),
            args.transforms[2].get(pose_index),
            args.transforms[3].get(pose_index),
            args.transforms[4].get(pose_index),
            args.transforms[5].get(pose_index),
        ];
        let mut lane_energy = 0.0f32;
        for l in 0..args.natlig {
            let lx = args.ligand.get(l * 4);
            let ly = args.ligand.get(l * 4 + 1);
            let lz = args.ligand.get(l * 4 + 2);
            let ltype = args.ligand.get(l * 4 + 3) as usize;
            let l_ff = (
                args.forcefield.get(ltype * 3),
                args.forcefield.get(ltype * 3 + 1),
                args.forcefield.get(ltype * 3 + 2),
            );
            let (tx, ty, tz) = transform_point(pose, lx, ly, lz);
            for p in 0..args.natpro {
                let px = args.protein.get(p * 4);
                let py = args.protein.get(p * 4 + 1);
                let pz = args.protein.get(p * 4 + 2);
                let ptype = args.protein.get(p * 4 + 3) as usize;
                let p_ff = (
                    args.forcefield.get(ptype * 3),
                    args.forcefield.get(ptype * 3 + 1),
                    args.forcefield.get(ptype * 3 + 2),
                );
                lane_energy += pair_energy(tx, ty, tz, l_ff, px, py, pz, p_ff);
            }
        }
        etot[lane] = lane_energy;
    }

    // Write energy results (Listing 4's trailing loop).
    let td_base = (t.block_idx.x as usize) * lsz * PPWI + t.thread_idx.x as usize;
    if td_base < args.num_transforms {
        for lane in 0..PPWI {
            let out = td_base + lane * lsz;
            if out < args.num_transforms {
                args.etotals.set(out, etot[lane] * HALF);
            }
        }
    }
}

fn execute(platform: &Platform, config: &MiniBudeConfig) -> Result<Verification, SimError> {
    let deck = cache::minibude_deck(config);
    let flats = cache::minibude_flats(config);
    let nposes = config.executed_poses;
    let ctx = DeviceContext::from_device(cache::device(platform));

    let make_tensor = |data: &[f32]| -> Result<LayoutTensor<f32>, SimError> {
        LayoutTensor::new(
            ctx.enqueue_create_buffer_from(data)?,
            Layout::row_major_1d(data.len()),
        )
    };

    let args = FastenArgs {
        protein: make_tensor(&flats.protein)?,
        ligand: make_tensor(&flats.ligand)?,
        forcefield: make_tensor(&flats.forcefield)?,
        transforms: [
            make_tensor(&deck.transforms[0][..nposes])?,
            make_tensor(&deck.transforms[1][..nposes])?,
            make_tensor(&deck.transforms[2][..nposes])?,
            make_tensor(&deck.transforms[3][..nposes])?,
            make_tensor(&deck.transforms[4][..nposes])?,
            make_tensor(&deck.transforms[5][..nposes])?,
        ],
        etotals: LayoutTensor::new(
            ctx.enqueue_create_buffer::<f32>(nposes)?,
            Layout::row_major_1d(nposes),
        )?,
        natlig: config.natlig,
        natpro: config.natpro,
        num_transforms: nposes,
    };

    let launch = MiniBudeWorkload::launch(platform, config, ());
    dispatch_ppwi(&ctx, launch, config.ppwi, &args)?;
    ctx.synchronize();

    let expected = cache::minibude_reference(config);
    let mut actual: PooledVec<f32> = PooledVec::new();
    args.etotals.to_host_into(&mut actual);
    // The kernel computes the same f32 expression sequence as the reference,
    // but the summation order over ligand atoms can differ in optimised
    // builds, so allow a small relative tolerance.
    match compare_slices_f32(&actual, &expected, 2e-3) {
        Ok(max_abs_error) => Ok(Verification::Passed { max_abs_error }),
        Err(msg) => Err(SimError::InvalidParameter(format!(
            "fasten verification failed: {msg}"
        ))),
    }
}

/// Dispatches the const-generic kernel over the paper's PPWI sweep values.
fn dispatch_ppwi(
    ctx: &DeviceContext,
    launch: LaunchConfig,
    ppwi: u32,
    args: &FastenArgs,
) -> Result<(), SimError> {
    macro_rules! launch_for {
        ($n:literal) => {{
            ctx.enqueue_function(launch, move |t| fasten_kernel::<$n>(t, args))
        }};
    }
    match ppwi {
        1 => launch_for!(1),
        2 => launch_for!(2),
        4 => launch_for!(4),
        8 => launch_for!(8),
        16 => launch_for!(16),
        32 => launch_for!(32),
        64 => launch_for!(64),
        128 => launch_for!(128),
        other => Err(SimError::InvalidParameter(format!(
            "PPWI {other} is not in the paper's sweep (1..128 powers of two)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_fasten_matches_the_reference() {
        let config = MiniBudeConfig::validation(4, 8);
        let run = run(&Platform::portable_h100(), &config).unwrap();
        match run.verification {
            Verification::Passed { max_abs_error } => {
                assert!(max_abs_error < 1e-2, "max error {max_abs_error}")
            }
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn all_swept_ppwi_values_dispatch() {
        for ppwi in MiniBudeConfig::paper_ppwi_sweep() {
            let mut config = MiniBudeConfig::validation(ppwi, 8);
            config.executed_poses = 128;
            let config = config.normalised();
            let run = run(&Platform::portable_mi300a(), &config).unwrap();
            assert!(run.verification.is_verified(), "ppwi {ppwi}");
        }
    }

    #[test]
    fn unsupported_ppwi_is_rejected() {
        let config = MiniBudeConfig::validation(3, 8);
        assert!(run(&Platform::portable_h100(), &config).is_err());
    }
}
