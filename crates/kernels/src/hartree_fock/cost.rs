//! Analytic launch cost of the Hartree–Fock kernel, including an exact count
//! of the quartets that survive Schwarz screening.

use super::config::HartreeFockConfig;
use super::geometry::HeliumSystem;
use gpu_sim::stats::{AccessPattern, FlopCounts};
use gpu_sim::KernelCost;
use gpu_spec::Precision;
use vendor_models::heuristics;

/// One distinct Schwarz factor and the pairs that carry it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchwarzLevel {
    /// The factor value.
    pub value: f64,
    /// Pairs whose factor equals `value`.
    pub count: u64,
    /// Pairs whose factor is `value` or larger.
    pub at_or_above: u64,
}

/// The distinct Schwarz factors of a pair set in strictly ascending order,
/// each with its multiplicity. A lattice system has a few hundred distinct
/// factors across its hundreds of thousands of pairs, so the screening count
/// runs over the levels instead of the pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchwarzLevels(Vec<SchwarzLevel>);

impl SchwarzLevels {
    /// Builds the levels from `(factor, pairs)` entries in any order; equal
    /// factors merge into one level.
    pub fn from_weighted(factors: impl IntoIterator<Item = (f64, u64)>) -> Self {
        let mut factors: Vec<(f64, u64)> = factors.into_iter().collect();
        factors.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("schwarz factors must not be NaN")
        });
        let mut levels: Vec<SchwarzLevel> = Vec::with_capacity(factors.len());
        for (value, count) in factors {
            match levels.last_mut() {
                Some(last) if last.value == value => last.count += count,
                _ => levels.push(SchwarzLevel {
                    value,
                    count,
                    at_or_above: 0,
                }),
            }
        }
        let mut at_or_above = 0;
        for level in levels.iter_mut().rev() {
            at_or_above += level.count;
            level.at_or_above = at_or_above;
        }
        SchwarzLevels(levels)
    }

    /// The levels, lowest factor first.
    pub fn as_slice(&self) -> &[SchwarzLevel] {
        &self.0
    }

    /// Counts the quartets `(ij ≤ kl)` with `schwarz[ij] · schwarz[kl] > tol`
    /// without enumerating the `O(npairs²)` combinations. For non-negative
    /// factors the product test is monotone in either factor, so one pointer
    /// sweeping down the levels finds, for every level `d`, the lowest level
    /// that still passes with it. Two different levels contribute
    /// `count_d · count_e` quartets and a level with itself
    /// `count_d · (count_d + 1) / 2`. Every comparison is the same f64
    /// product a per-quartet test makes, so the count is exact. Runs in
    /// `O(levels)` and does not allocate.
    pub fn survivors(&self, tol: f64) -> u64 {
        let levels = &self.0;
        let at_or_above = |e: usize| levels.get(e).map_or(0, |level| level.at_or_above);
        let mut survivors = 0;
        // levels[hi..] pass the product test with the current level.
        let mut hi = levels.len();
        for (d, level) in levels.iter().enumerate() {
            while hi > 0 && levels[hi - 1].value * level.value > tol {
                hi -= 1;
            }
            survivors += level.count * at_or_above(hi.max(d + 1));
            if level.value * level.value > tol {
                survivors += level.count * (level.count + 1) / 2;
            }
        }
        survivors
    }
}

/// Counts the quartets `(ij ≤ kl)` with `schwarz[ij] · schwarz[kl] > tol`
/// over an arbitrary slice of non-negative factors: the slice is reduced to
/// its [`SchwarzLevels`] and counted there.
pub fn surviving_quartets(schwarz: &[f64], tol: f64) -> u64 {
    SchwarzLevels::from_weighted(schwarz.iter().map(|&s| (s, 1))).survivors(tol)
}

/// FLOPs of one innermost Gaussian-quartet iteration of Listing 5.
pub fn gauss_iteration_flops() -> FlopCounts {
    FlopCounts {
        adds: 4,
        muls: 10,
        fmas: 1,
        divs: 3,
        sqrts: 2,
        transcendentals: 2, // the two exponentials
    }
}

/// Builds the launch cost of one Fock-build kernel launch under `config`,
/// using `system` for the exact screening survivor count.
pub fn hartree_fock_cost(config: &HartreeFockConfig, system: &HeliumSystem) -> KernelCost {
    let nquartets = config.nquartets();
    let survivors = system.schwarz_levels.survivors(config.screening_tol);
    let gauss_iters = survivors * u64::from(config.ngauss).pow(4);

    let launch = heuristics::hartree_fock_launch(nquartets);

    // Screened-out quartets still cost the screening test itself.
    let screening_flops = FlopCounts {
        muls: nquartets,
        ..Default::default()
    };
    let flops = gauss_iteration_flops()
        .scale(gauss_iters)
        .combine(&screening_flops);

    // Traffic: schwarz/density reads and Fock updates. The matrices are small
    // (natoms² doubles) and cache-resident; traffic is dominated by the atomic
    // read-modify-write of 6 Fock entries and 6 density reads per survivor.
    let bytes_read = survivors * (6 + 6) * 8 + nquartets * 16;
    let bytes_written = survivors * 6 * 8;

    KernelCost::builder(
        "hartree_fock",
        Precision::Fp64,
        launch,
        AccessPattern::AtomicScatter,
    )
    .dram_traffic(bytes_read, bytes_written)
    .flops(flops)
    .atomics(survivors * 6, 1.0)
    .loads_stores_per_thread(14.0, 6.0)
    .build()
}

#[cfg(test)]
mod tests {
    use super::super::config::DEFAULT_SCREENING_TOL;
    use super::super::triangular::pair_count;
    use super::*;

    /// Brute-force survivor count used to validate the level count.
    fn brute_force(schwarz: &[f64], tol: f64) -> u64 {
        let mut count = 0;
        for ij in 0..schwarz.len() {
            for kl in ij..schwarz.len() {
                if schwarz[ij] * schwarz[kl] > tol {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn survivor_count_matches_brute_force() {
        for natoms in [4u32, 8, 12, 20] {
            let config = HartreeFockConfig::validation(natoms);
            let system = HeliumSystem::generate(&config);
            for tol in [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1] {
                let expected = brute_force(&system.schwarz, tol);
                assert_eq!(
                    surviving_quartets(&system.schwarz, tol),
                    expected,
                    "natoms {natoms}, tol {tol}"
                );
                assert_eq!(
                    system.schwarz_levels.survivors(tol),
                    expected,
                    "natoms {natoms}, tol {tol}"
                );
            }
        }
    }

    #[test]
    fn level_count_matches_slice_count_on_paper_systems() {
        for natoms in [64u32, 128, 256] {
            let config = HartreeFockConfig::paper(natoms, 3);
            let system = HeliumSystem::generate(&config);
            assert_eq!(
                system.schwarz_levels.survivors(DEFAULT_SCREENING_TOL),
                surviving_quartets(&system.schwarz, DEFAULT_SCREENING_TOL),
                "natoms {natoms}"
            );
        }
    }

    #[test]
    fn levels_merge_equal_factors_and_count_from_the_top() {
        let levels = SchwarzLevels::from_weighted([(0.5, 2), (0.0, 1), (0.5, 1), (1.0, 4)]);
        let values: Vec<(f64, u64, u64)> = levels
            .as_slice()
            .iter()
            .map(|l| (l.value, l.count, l.at_or_above))
            .collect();
        assert_eq!(values, [(0.0, 1, 8), (0.5, 3, 7), (1.0, 4, 4)]);
    }

    #[test]
    fn zero_threshold_keeps_every_quartet() {
        let config = HartreeFockConfig::validation(16);
        let system = HeliumSystem::generate(&config);
        assert_eq!(
            surviving_quartets(&system.schwarz, 0.0),
            pair_count(pair_count(16))
        );
    }

    #[test]
    fn huge_threshold_screens_everything() {
        let config = HartreeFockConfig::validation(16);
        let system = HeliumSystem::generate(&config);
        assert_eq!(surviving_quartets(&system.schwarz, 1e12), 0);
        assert_eq!(surviving_quartets(&[], 1.0), 0);
    }

    #[test]
    fn screening_bites_harder_as_the_system_grows() {
        // Larger lattices have more well-separated pairs, so the surviving
        // fraction shrinks — the effect that keeps the 1024-atom case feasible.
        let frac = |natoms: u32| {
            let config = HartreeFockConfig::paper(natoms, 3);
            let system = HeliumSystem::generate(&config);
            surviving_quartets(&system.schwarz, config.screening_tol) as f64
                / config.nquartets() as f64
        };
        let f64_atoms = frac(64);
        let f256_atoms = frac(256);
        assert!(f256_atoms < f64_atoms);
        assert!(f256_atoms > 0.0);
    }

    #[test]
    fn cost_counts_six_atomics_per_surviving_quartet() {
        let config = HartreeFockConfig::validation(12);
        let system = HeliumSystem::generate(&config);
        let cost = hartree_fock_cost(&config, &system);
        let survivors = surviving_quartets(&system.schwarz, config.screening_tol);
        assert_eq!(cost.atomics_fp64, survivors * 6);
        assert!(cost.flops.transcendentals >= survivors * 81 * 2);
        assert_eq!(cost.launch.threads_per_block(), 256);
    }
}
