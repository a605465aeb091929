//! The Hartree–Fock body, written against the portable model — paper
//! Listing 5.
//!
//! One thread per integral quartet: decode the quartet index, apply Schwarz
//! screening, evaluate the ERI through the four nested Gaussian loops, and
//! scatter six `Atomic.fetch_add` updates into the Fock `LayoutTensor`. The
//! same body runs on every backend; the portable backend's atomic-throughput
//! collapse lives in its execution profile, not here.

use super::config::HartreeFockConfig;
use super::cost::hartree_fock_cost;
use super::geometry::HeliumSystem;
use super::reference::quartet_eri;
use super::triangular::pair_decode;
use crate::cache;
use crate::common::{compare_slices, Verification, WorkloadRun};
use gpu_sim::{istr, istr_fmt, SimError};
use portable_kernel::prelude::*;
use vendor_models::{heuristics, KernelClass, Platform};

/// Runs the Hartree–Fock kernel on `platform`.
pub fn run(platform: &Platform, config: &HartreeFockConfig) -> Result<WorkloadRun, SimError> {
    let system = cache::helium_system(config);
    let cost = hartree_fock_cost(config, &system);
    let class = KernelClass::HartreeFock {
        natoms: config.natoms,
        ngauss: config.ngauss,
    };
    let profile = platform.execution_profile(&class);
    let timing = cache::timing_model(platform).estimate(&cost, &profile);

    let verification = if config.should_execute() {
        execute(platform, config, &system)?
    } else {
        Verification::Skipped {
            reason: istr_fmt(format_args!(
                "natoms = {} exceeds the functional-execution limit; cost model only",
                config.natoms
            )),
        }
    };

    Ok(WorkloadRun {
        backend: profile.backend.clone(),
        device: istr(&platform.spec.name),
        kernel: istr("hartree_fock"),
        cost,
        profile,
        timing,
        verification,
    })
}

fn execute(
    platform: &Platform,
    config: &HartreeFockConfig,
    system: &HeliumSystem,
) -> Result<Verification, SimError> {
    let natoms = system.natoms;
    let ctx = DeviceContext::from_device(cache::device(platform));

    let dens = LayoutTensor::new(
        ctx.enqueue_create_buffer_from(&system.dens)?,
        Layout::row_major_2d(natoms, natoms),
    )?;
    let fock = LayoutTensor::new(
        ctx.enqueue_create_buffer::<f64>(natoms * natoms)?,
        Layout::row_major_2d(natoms, natoms),
    )?;
    let schwarz = LayoutTensor::new(
        ctx.enqueue_create_buffer_from(&system.schwarz)?,
        Layout::row_major_1d(system.schwarz.len()),
    )?;

    let nquartets = config.nquartets();
    let launch = heuristics::hartree_fock_launch(nquartets);
    let tol = config.screening_tol;

    let (fock_k, dens_k, schwarz_k) = (fock.clone(), dens.clone(), schwarz.clone());
    ctx.enqueue_function(launch, move |t| {
        let ijkl = t.global_x();
        if ijkl >= nquartets {
            return;
        }
        let (ij, kl) = pair_decode(ijkl);
        if schwarz_k.get(ij as usize) * schwarz_k.get(kl as usize) <= tol {
            return;
        }
        let eri = quartet_eri(system, ij, kl);
        // Six atomic Fock-matrix updates (Listing 5), reading the density
        // tensor from device memory and scattering through the portable
        // Atomic namespace on the flattened Fock tensor.
        let (i, j) = pair_decode(ij);
        let (k, l) = pair_decode(kl);
        let (i, j, k, l) = (i as usize, j as usize, k as usize, l as usize);
        Atomic::fetch_add_f64(&fock_k, i * natoms + j, dens_k.get2(k, l) * eri * 4.0);
        Atomic::fetch_add_f64(&fock_k, k * natoms + l, dens_k.get2(i, j) * eri * 4.0);
        Atomic::fetch_add_f64(&fock_k, i * natoms + k, dens_k.get2(j, l) * -eri);
        Atomic::fetch_add_f64(&fock_k, i * natoms + l, dens_k.get2(j, k) * -eri);
        Atomic::fetch_add_f64(&fock_k, j * natoms + k, dens_k.get2(i, l) * -eri);
        Atomic::fetch_add_f64(&fock_k, j * natoms + l, dens_k.get2(i, k) * -eri);
    })?;
    ctx.synchronize();

    let expected = cache::hartree_fock_reference(config);
    let mut actual: PooledVec<f64> = PooledVec::new();
    fock.to_host_into(&mut actual);
    match compare_slices(&actual, &expected, 1e-9) {
        Ok(max_abs_error) => Ok(Verification::Passed { max_abs_error }),
        Err(msg) => Err(SimError::InvalidParameter(format!(
            "Hartree-Fock verification failed: {msg}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_fock_matches_the_reference() {
        let config = HartreeFockConfig::validation(10);
        let run = run(&Platform::portable_h100(), &config).unwrap();
        match run.verification {
            Verification::Passed { max_abs_error } => assert!(max_abs_error < 1e-6),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn screening_threshold_is_respected_on_device() {
        // With an enormous threshold nothing survives, so the Fock matrix is zero.
        let mut config = HartreeFockConfig::validation(8);
        config.screening_tol = 1e12;
        let run = run(&Platform::portable_mi300a(), &config).unwrap();
        assert!(run.verification.is_verified());
        assert_eq!(run.cost.atomics_fp64, 0);
    }

    #[test]
    fn large_systems_skip_execution_but_still_cost_atomics() {
        let config = HartreeFockConfig::paper(256, 3);
        let run = run(&Platform::portable_h100(), &config).unwrap();
        assert!(!run.verification.is_verified());
        assert!(run.cost.atomics_fp64 > 1_000_000);
        assert!(run.seconds() > 0.01);
    }
}
