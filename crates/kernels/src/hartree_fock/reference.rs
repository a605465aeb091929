//! CPU golden reference for the Hartree–Fock Fock-matrix build, plus the
//! shared ERI (electron-repulsion integral) arithmetic.

use super::geometry::HeliumSystem;
use super::triangular::{pair_count, pair_decode};
use rayon::prelude::*;

/// Evaluates the (simplified) electron-repulsion integral of the quartet
/// `(ij, kl)`: four nested loops over the Gaussian primitives, exactly the
/// structure of Listing 5. Every implementation (reference, portable kernel,
/// vendor kernel) calls this same function so the arithmetic is identical.
pub fn quartet_eri(system: &HeliumSystem, ij: u64, kl: u64) -> f64 {
    let (i, j) = pair_decode(ij);
    let (k, l) = pair_decode(kl);
    let r2_ij = system.distance2(i as usize, j as usize);
    let r2_kl = system.distance2(k as usize, l as usize);
    let rpq2 = system.pair_distance2(ij, kl);

    let ngauss = system.ngauss;
    let mut eri = 0.0f64;
    for ib in 0..ngauss {
        for jb in 0..ngauss {
            let aij = system.xpnt[ib] + system.xpnt[jb];
            let dij = system.coef[ib]
                * system.coef[jb]
                * (-system.xpnt[ib] * system.xpnt[jb] / aij * r2_ij).exp();
            for kb in 0..ngauss {
                for lb in 0..ngauss {
                    let akl = system.xpnt[kb] + system.xpnt[lb];
                    let dkl = system.coef[kb]
                        * system.coef[lb]
                        * (-system.xpnt[kb] * system.xpnt[lb] / akl * r2_kl).exp();
                    let aijkl = aij * akl / (aij + akl);
                    // Boys-function surrogate: smooth, 1 at t = 0, ~t^(-1/2) tail.
                    let t = aijkl * rpq2;
                    let f0t = 1.0 / (1.0 + t).sqrt();
                    eri += dij * dkl * f0t * aijkl.powf(0.5);
                }
            }
        }
    }
    eri
}

/// Applies the six Fock-matrix updates of Listing 5 for one quartet through a
/// caller-supplied accumulator (an atomic add on the GPU, a plain add here).
pub fn scatter_fock(
    natoms: usize,
    dens: &[f64],
    eri: f64,
    ij: u64,
    kl: u64,
    mut add: impl FnMut(usize, f64),
) {
    let (i, j) = pair_decode(ij);
    let (k, l) = pair_decode(kl);
    let (i, j, k, l) = (i as usize, j as usize, k as usize, l as usize);
    let at = |a: usize, b: usize| a * natoms + b;
    // Coulomb contributions.
    add(at(i, j), dens[at(k, l)] * eri * 4.0);
    add(at(k, l), dens[at(i, j)] * eri * 4.0);
    // Exchange contributions.
    add(at(i, k), dens[at(j, l)] * -eri);
    add(at(i, l), dens[at(j, k)] * -eri);
    add(at(j, k), dens[at(i, l)] * -eri);
    add(at(j, l), dens[at(i, k)] * -eri);
}

/// Quartets folded per task when the reference build runs on the pool. The
/// width is fixed (independent of the thread count), so each Fock entry
/// accumulates its contributions in the same order at every
/// `RAYON_NUM_THREADS` and the `f64` result is bitwise-stable.
const REFERENCE_CHUNK: u64 = 8192;

/// Builds the Fock matrix over every unscreened quartet.
///
/// The quartet range is split into `REFERENCE_CHUNK`-wide chunks, each
/// chunk scatters into its own partial Fock matrix on the pool, and the
/// partials are summed element-wise through the fixed-chunk reduction tree —
/// parallel, without atomics, and bitwise-identical to a serial run.
pub fn reference_fock(system: &HeliumSystem, screening_tol: f64) -> Vec<f64> {
    let natoms = system.natoms;
    let npairs = pair_count(natoms as u64);
    let nquartets = pair_count(npairs);
    let nchunks = nquartets.div_ceil(REFERENCE_CHUNK);
    (0..nchunks)
        .into_par_iter()
        .map(|chunk| {
            let start = chunk * REFERENCE_CHUNK;
            let end = (start + REFERENCE_CHUNK).min(nquartets);
            let mut partial = vec![0.0f64; natoms * natoms];
            for q in start..end {
                let (ij, kl) = pair_decode(q);
                if system.schwarz[ij as usize] * system.schwarz[kl as usize] <= screening_tol {
                    continue;
                }
                let eri = quartet_eri(system, ij, kl);
                scatter_fock(natoms, &system.dens, eri, ij, kl, |index, value| {
                    partial[index] += value;
                });
            }
            partial
        })
        .reduce(
            || vec![0.0f64; natoms * natoms],
            |mut acc, partial| {
                for (a, p) in acc.iter_mut().zip(&partial) {
                    *a += p;
                }
                acc
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hartree_fock::config::HartreeFockConfig;

    fn system(natoms: u32) -> HeliumSystem {
        HeliumSystem::generate(&HartreeFockConfig::validation(natoms))
    }

    #[test]
    fn eri_is_positive_and_decays_with_pair_separation() {
        let sys = system(27);
        let close = quartet_eri(&sys, 0, 0);
        // A quartet whose two pairs sit far apart has a much smaller integral.
        let far_pair = super::super::triangular::pair_encode(0, 26);
        let far = quartet_eri(&sys, 0, far_pair);
        assert!(close > 0.0);
        assert!(far < close);
    }

    #[test]
    fn scatter_touches_exactly_six_entries() {
        let sys = system(6);
        let mut touched = Vec::new();
        scatter_fock(6, &sys.dens, 1.0, 1, 3, |index, _| touched.push(index));
        assert_eq!(touched.len(), 6);
    }

    #[test]
    fn fock_build_is_deterministic() {
        let sys = system(8);
        let a = reference_fock(&sys, 1e-9);
        let b = reference_fock(&sys, 1e-9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.iter().any(|&v| v != 0.0));
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tighter_screening_changes_the_result_only_slightly() {
        // Screening removes only quartets whose contribution is negligible,
        // so the Fock matrix barely moves when the threshold is tightened.
        let sys = system(16);
        let loose = reference_fock(&sys, 1e-7);
        let none = reference_fock(&sys, 0.0);
        let max_diff = loose
            .iter()
            .zip(none.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let max_val = none.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max_diff < 1e-4 * max_val.max(1.0));
    }

    #[test]
    fn diagonal_dominates_the_fock_matrix() {
        // Same-atom pairs have the largest integrals, so diagonal Fock entries
        // dominate — a physical sanity check on the surrogate integral.
        let sys = system(8);
        let fock = reference_fock(&sys, 1e-9);
        let natoms = 8;
        let mean_diag: f64 =
            (0..natoms).map(|i| fock[i * natoms + i].abs()).sum::<f64>() / natoms as f64;
        let mean_off: f64 = (0..natoms)
            .flat_map(|i| (0..natoms).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| fock[i * natoms + j].abs())
            .sum::<f64>()
            / (natoms * (natoms - 1)) as f64;
        assert!(mean_diag > mean_off);
    }
}
