//! Host Jacobi solver and CPU golden reference.
//!
//! The solver alternates a six-neighbour relaxation sweep with an RMS
//! iterate-difference norm — the composite multi-pass stencil+reduction
//! pattern of DESIGN.md §15. The sweep is element-wise and the norm is a
//! fixed-chunk pairwise tree, so the solve is bitwise-identical at every
//! thread count.

use super::config::{JacobiConfig, RESIDUAL_REDUCTION, SIXTH};
use crate::cache;
use crate::stencil7::StencilConfig;
use gpu_sim::PooledVec;
use gpu_spec::Precision;
use rayon::prelude::*;

/// The result of a host Jacobi solve: the final iterate, the per-iteration
/// residual history, and how the solve stopped.
#[derive(Debug, Clone)]
pub struct JacobiSolution {
    /// The final iterate (boundary cells carry the initial field).
    pub grid: PooledVec<f64>,
    /// RMS iterate-difference norm after each sweep, in iteration order.
    pub residuals: PooledVec<f64>,
    /// Number of sweeps actually run (`residuals.len()`).
    pub iters_run: usize,
    /// Whether the [`RESIDUAL_REDUCTION`] target was reached before the
    /// iteration cap.
    pub converged: bool,
}

/// The stencil-grid configuration whose cached initial field seeds the solve
/// (the grid memo is keyed by `l` alone).
pub fn seed_config(config: &JacobiConfig) -> StencilConfig {
    StencilConfig::validation(config.l, Precision::Fp64)
}

/// RMS iterate-difference norm `sqrt(Σ (new−old)² / interior)`. Boundary
/// cells never change, so the sum may safely span the whole grid. The sum is
/// the fixed-chunk pairwise tree the goldens pin.
pub fn residual_rms(new: &[f64], old: &[f64], interior_cells: f64) -> f64 {
    let n = new.len().min(old.len());
    let sum: f64 = (0..n)
        .into_par_iter()
        .map(|i| {
            let d = new[i] - old[i];
            d * d
        })
        .sum();
    (sum / interior_cells).sqrt()
}

/// The six-neighbour average at flat index `idx` of an `l³` grid, in the same
/// association as the device kernels.
#[inline]
fn jacobi_point(u: &[f64], idx: usize, l: usize) -> f64 {
    (((u[idx - l * l] + u[idx + l * l]) + (u[idx - l] + u[idx + l])) + (u[idx - 1] + u[idx + 1]))
        * SIXTH
}

/// Applies one Jacobi sweep to every interior cell of `u`, writing `out`.
fn jacobi_sweep(out: &mut [f64], u: &[f64], l: usize) {
    for i in 1..l - 1 {
        for j in 1..l - 1 {
            let row = (i * l + j) * l;
            for k in 1..l - 1 {
                out[row + k] = jacobi_point(u, row + k, l);
            }
        }
    }
}

/// The CPU golden reference: runs the Jacobi solve on the host. Stops at the
/// documented residual target ([`RESIDUAL_REDUCTION`] × the first residual)
/// or at the configured iteration cap, whichever comes first.
pub fn solve_host(config: &JacobiConfig) -> JacobiSolution {
    let l = config.l;
    let seed = cache::stencil_grid(&seed_config(config));
    let mut u: PooledVec<f64> = PooledVec::with_capacity(seed.len());
    u.extend_from_slice(&seed);
    let mut next: PooledVec<f64> = PooledVec::with_capacity(seed.len());
    next.extend_from_slice(&seed); // carries the Dirichlet boundary
    let mut residuals: PooledVec<f64> = PooledVec::with_capacity(config.iters);
    let interior = config.interior_cells() as f64;
    let mut converged = false;
    let mut target = f64::INFINITY;
    for _ in 0..config.iters {
        jacobi_sweep(next.as_mut_slice(), &u, l);
        let r = residual_rms(&next, &u, interior);
        std::mem::swap(&mut u, &mut next);
        residuals.push(r);
        if residuals.len() == 1 {
            target = r * RESIDUAL_REDUCTION;
        }
        if r <= target {
            converged = true;
            break;
        }
    }
    let iters_run = residuals.len();
    JacobiSolution {
        grid: u,
        residuals,
        iters_run,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sized_solve_converges_before_the_cap() {
        let solution = solve_host(&JacobiConfig::validation(16, 400));
        assert!(solution.converged);
        assert!(solution.iters_run < 400);
        let first = solution.residuals[0];
        let last = solution.residuals[solution.iters_run - 1];
        assert!(last <= first * RESIDUAL_REDUCTION);
    }

    #[test]
    fn residuals_are_monotonically_non_increasing() {
        // The Jacobi iteration matrix for the constant-diagonal Laplacian is
        // symmetric, so the iterate-difference 2-norm contracts every sweep.
        let solution = solve_host(&JacobiConfig::validation(12, 200));
        for pair in solution.residuals.as_slice().windows(2) {
            assert!(
                pair[1] <= pair[0],
                "residual rose: {} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn a_tight_cap_stops_the_solve_unconverged() {
        let solution = solve_host(&JacobiConfig::validation(16, 5));
        assert!(!solution.converged);
        assert_eq!(solution.iters_run, 5);
    }

    #[test]
    fn boundary_cells_carry_the_seed_field() {
        let config = JacobiConfig::validation(8, 50);
        let seed = cache::stencil_grid(&seed_config(&config));
        let solution = solve_host(&config);
        let l = config.l;
        assert_eq!(solution.grid[0], seed[0]);
        assert_eq!(solution.grid[l * l * l - 1], seed[l * l * l - 1]);
        // Interior cells relaxed away from the seed.
        let mid = (l / 2 * l + l / 2) * l + l / 2;
        assert_ne!(solution.grid[mid], seed[mid]);
    }

    #[test]
    fn solve_is_bitwise_identical_at_one_thread() {
        let config = JacobiConfig::validation(10, 80);
        let pooled = solve_host(&config);
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| solve_host(&config));
        assert_eq!(pooled.iters_run, serial.iters_run);
        assert_eq!(pooled.grid.as_slice(), serial.grid.as_slice());
        assert_eq!(pooled.residuals.as_slice(), serial.residuals.as_slice());
    }
}
