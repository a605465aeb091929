//! Helium system generation: geometry, Gaussian basis, density matrix and
//! Schwarz screening factors.
//!
//! The proxy app ships helium test decks (`he64`, `he128`, `he256`, `he1024`)
//! that place helium atoms on a regular lattice and attach an s-type Gaussian
//! basis to each. This module regenerates those systems: atoms on a cubic
//! lattice with the configured spacing, STO-3G-like exponents/coefficients for
//! `ngauss = 3` and an extended even-tempered set for `ngauss = 6`.

use super::config::HartreeFockConfig;
use super::cost::SchwarzLevels;
use super::triangular::{pair_count, pair_decode};
use std::collections::HashMap;

/// STO-3G exponents for helium.
const HE_STO3G_EXPONENTS: [f64; 3] = [6.362_421_39, 1.158_923_0, 0.313_649_79];
/// STO-3G contraction coefficients for helium.
const HE_STO3G_COEFS: [f64; 3] = [0.154_328_97, 0.535_328_14, 0.444_634_54];

/// A generated helium system: geometry, basis, density matrix and Schwarz
/// factors, i.e. everything Listing 5's kernel reads.
#[derive(Debug, Clone)]
pub struct HeliumSystem {
    /// Number of atoms.
    pub natoms: usize,
    /// Gaussian primitives per atom.
    pub ngauss: usize,
    /// Atom positions, flattened `[x0, y0, z0, x1, …]` (Bohr).
    pub geometry: Vec<f64>,
    /// Gaussian exponents (length `ngauss`).
    pub xpnt: Vec<f64>,
    /// Gaussian contraction coefficients (length `ngauss`).
    pub coef: Vec<f64>,
    /// Density matrix, row-major `natoms × natoms`.
    pub dens: Vec<f64>,
    /// Schwarz screening factors per unique atom pair (length `npairs`).
    pub schwarz: Vec<f64>,
    /// The distinct values of `schwarz` with their multiplicities, from
    /// which the screening survivor count is taken.
    pub schwarz_levels: SchwarzLevels,
}

impl HeliumSystem {
    /// Generates the system for a configuration.
    pub fn generate(config: &HartreeFockConfig) -> Self {
        let natoms = config.natoms as usize;
        let ngauss = config.ngauss as usize;

        // Cubic lattice with the configured spacing.
        let side = (natoms as f64).cbrt().ceil() as usize;
        let mut geometry = Vec::with_capacity(natoms * 3);
        'fill: for ix in 0..side {
            for iy in 0..side {
                for iz in 0..side {
                    if geometry.len() / 3 >= natoms {
                        break 'fill;
                    }
                    geometry.push(ix as f64 * config.spacing);
                    geometry.push(iy as f64 * config.spacing);
                    geometry.push(iz as f64 * config.spacing);
                }
            }
        }

        let (xpnt, coef) = basis(ngauss);

        // A plausible closed-shell density: strong on the diagonal, decaying
        // off-diagonal (deterministic, so every implementation agrees). An
        // entry depends only on |i - j|, so each distinct value is divided
        // out once.
        let decay: Vec<f64> = (0..natoms).map(|k| 1.0 / (1.0 + k as f64)).collect();
        let mut dens = Vec::with_capacity(natoms * natoms);
        for i in 0..natoms {
            dens.extend((0..natoms).map(|j| decay[i.abs_diff(j)]));
        }

        let mut system = HeliumSystem {
            natoms,
            ngauss,
            geometry,
            xpnt,
            coef,
            dens,
            schwarz: Vec::new(),
            schwarz_levels: SchwarzLevels::default(),
        };
        (system.schwarz, system.schwarz_levels) = system.compute_schwarz();
        system
    }

    /// Squared distance between atoms `i` and `j`.
    pub fn distance2(&self, i: usize, j: usize) -> f64 {
        let (xi, yi, zi) = (
            self.geometry[i * 3],
            self.geometry[i * 3 + 1],
            self.geometry[i * 3 + 2],
        );
        let (xj, yj, zj) = (
            self.geometry[j * 3],
            self.geometry[j * 3 + 1],
            self.geometry[j * 3 + 2],
        );
        (xi - xj).powi(2) + (yi - yj).powi(2) + (zi - zj).powi(2)
    }

    /// Squared distance between the charge centres of pairs `ij` and `kl`
    /// (approximated by the atom-pair midpoints, as the proxy kernel does for
    /// s-functions of equal exponents).
    pub fn pair_distance2(&self, ij: u64, kl: u64) -> f64 {
        let (i, j) = pair_decode(ij);
        let (k, l) = pair_decode(kl);
        let mid = |a: usize, b: usize, axis: usize| {
            0.5 * (self.geometry[a * 3 + axis] + self.geometry[b * 3 + axis])
        };
        let mut d2 = 0.0;
        for axis in 0..3 {
            let p = mid(i as usize, j as usize, axis);
            let q = mid(k as usize, l as usize, axis);
            d2 += (p - q) * (p - q);
        }
        d2
    }

    /// Schwarz factor of one atom pair: an upper bound on the magnitude any
    /// integral involving that pair can reach, decaying with the pair's
    /// separation.
    pub fn schwarz_factor(&self, i: usize, j: usize) -> f64 {
        self.schwarz_at(self.distance2(i, j))
    }

    /// Schwarz factor of a pair at squared distance `r2`.
    fn schwarz_at(&self, r2: f64) -> f64 {
        let mut s = 0.0;
        for a in 0..self.ngauss {
            for b in 0..self.ngauss {
                let aij = self.xpnt[a] + self.xpnt[b];
                s += self.coef[a] * self.coef[b] * (-self.xpnt[a] * self.xpnt[b] / aij * r2).exp()
                    / aij;
            }
        }
        s.sqrt()
    }

    /// Fills the Schwarz factor of every pair in `pair_encode` order and
    /// collects the distinct values. A factor depends on its pair only
    /// through the squared distance, and a lattice has few distinct
    /// distances, so the factor is evaluated once per distinct `r2` bit
    /// pattern and copied to every other pair at that distance: the same
    /// function of the same bits, hence bitwise the per-pair result.
    fn compute_schwarz(&self) -> (Vec<f64>, SchwarzLevels) {
        let mut schwarz = Vec::with_capacity(pair_count(self.natoms as u64) as usize);
        // r2 bits -> (factor, pairs at that distance).
        let mut by_distance: HashMap<u64, (f64, u64)> = HashMap::new();
        for j in 0..self.natoms {
            for i in 0..=j {
                let r2 = self.distance2(i, j);
                let (factor, pairs) = by_distance
                    .entry(r2.to_bits())
                    .or_insert_with(|| (self.schwarz_at(r2), 0));
                *pairs += 1;
                schwarz.push(*factor);
            }
        }
        (
            schwarz,
            SchwarzLevels::from_weighted(by_distance.into_values()),
        )
    }
}

/// Exponents and coefficients for the helium basis with `ngauss` primitives.
pub fn basis(ngauss: usize) -> (Vec<f64>, Vec<f64>) {
    match ngauss {
        3 => (HE_STO3G_EXPONENTS.to_vec(), HE_STO3G_COEFS.to_vec()),
        6 => {
            // Even-tempered extension of the STO-3G set (the he1024 deck uses
            // a 6-primitive contraction).
            let xpnt = vec![38.36, 5.77, 1.24, 0.2976, 0.07255, 0.01789];
            let coef = vec![0.0238, 0.1549, 0.4699, 0.513, 0.1628, 0.0181];
            (xpnt, coef)
        }
        other => {
            // Geometric progression covering the same range for unusual counts.
            let xpnt: Vec<f64> = (0..other)
                .map(|g| 6.36 * (0.35f64).powi(g as i32))
                .collect();
            let coef = vec![1.0 / other as f64; other];
            (xpnt, coef)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_has_the_right_number_of_atoms_and_spacing() {
        let config = HartreeFockConfig::paper(64, 3);
        let sys = HeliumSystem::generate(&config);
        assert_eq!(sys.geometry.len(), 64 * 3);
        // Nearest-neighbour distance equals the configured spacing.
        let d2 = sys.distance2(0, 1);
        assert!((d2.sqrt() - config.spacing).abs() < 1e-12);
    }

    #[test]
    fn sto3g_basis_is_used_for_ngauss3() {
        let sys = HeliumSystem::generate(&HartreeFockConfig::paper(8, 3));
        assert_eq!(sys.xpnt.len(), 3);
        assert!((sys.xpnt[0] - 6.362_421_39).abs() < 1e-9);
        assert!((sys.coef[2] - 0.444_634_54).abs() < 1e-9);
        let (x6, c6) = basis(6);
        assert_eq!(x6.len(), 6);
        assert_eq!(c6.len(), 6);
        let (x2, _) = basis(2);
        assert_eq!(x2.len(), 2);
    }

    #[test]
    fn schwarz_decays_with_distance() {
        let sys = HeliumSystem::generate(&HartreeFockConfig::paper(27, 3));
        let near = sys.schwarz_factor(0, 0);
        let mid = sys.schwarz_factor(0, 1);
        let far = sys.schwarz_factor(0, 26);
        assert!(near > mid);
        assert!(mid > far);
        assert!(far >= 0.0);
    }

    #[test]
    fn schwarz_vector_covers_every_pair() {
        let config = HartreeFockConfig::validation(10);
        let sys = HeliumSystem::generate(&config);
        assert_eq!(sys.schwarz.len(), 55);
        assert!(sys.schwarz.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn density_matrix_is_symmetric_and_diagonal_dominant() {
        let sys = HeliumSystem::generate(&HartreeFockConfig::validation(6));
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(sys.dens[i * 6 + j], sys.dens[j * 6 + i]);
                assert!(sys.dens[i * 6 + i] >= sys.dens[i * 6 + j]);
            }
        }
    }

    #[test]
    fn pair_distance_is_zero_for_identical_pairs() {
        let sys = HeliumSystem::generate(&HartreeFockConfig::validation(8));
        assert_eq!(sys.pair_distance2(3, 3), 0.0);
        assert!(sys.pair_distance2(0, 5) > 0.0);
    }
}
