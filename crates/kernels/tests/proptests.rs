//! Property-based tests on the kernels' index math, screening counts and
//! physical invariants.

use gpu_spec::Precision;
use proptest::prelude::*;
use science_kernels::framestream::{accumulate_frames, ACC_INIT};
use science_kernels::hartree_fock::{pair_count, pair_decode, pair_encode, surviving_quartets};
use science_kernels::jacobi::{solve_host, JacobiConfig};
use science_kernels::minibude::{Atom, Deck, ForceFieldParam, MiniBudeConfig};
use science_kernels::stencil7::{reference_laplacian, StencilConfig};

/// Brute-force counterpart of the two-pointer screening count.
fn brute_force_survivors(schwarz: &[f64], tol: f64) -> u64 {
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

proptest! {
    // Cap the per-property case count so the tier-1 suite stays fast and
    // deterministic; override with PROPTEST_CASES for deeper soak runs.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Triangular pair encoding is a bijection for arbitrary (i <= j).
    fn pair_encoding_round_trips(j in 0u64..2000, offset in 0u64..2000) {
        let i = offset.min(j);
        let index = pair_encode(i, j);
        prop_assert!(index < pair_count(j + 1));
        prop_assert_eq!(pair_decode(index), (i, j));
    }

    /// The O(n log n) Schwarz survivor count equals the brute-force count for
    /// arbitrary non-negative factor sets and thresholds.
    fn screening_count_matches_brute_force(
        factors in proptest::collection::vec(0.0f64..2.0, 1..80),
        tol in 0.0f64..2.0,
    ) {
        prop_assert_eq!(
            surviving_quartets(&factors, tol),
            brute_force_survivors(&factors, tol)
        );
    }

    /// The seven-point Laplacian of any affine field is zero on interior cells
    /// (an exact discrete identity, independent of grid size or coefficients).
    fn laplacian_annihilates_affine_fields(
        l in 4usize..16,
        a in -5.0f64..5.0, b in -5.0f64..5.0, c in -5.0f64..5.0, d in -5.0f64..5.0,
    ) {
        let config = StencilConfig::validation(l, Precision::Fp64);
        let mut u = vec![0.0; l * l * l];
        for i in 0..l {
            for j in 0..l {
                for k in 0..l {
                    u[(i * l + j) * l + k] = a * i as f64 + b * j as f64 + c * k as f64 + d;
                }
            }
        }
        let f = reference_laplacian(&config, &u);
        let scale = (a.abs() + b.abs() + c.abs() + d.abs() + 1.0) / config.spacing.powi(2);
        for v in f {
            prop_assert!(v.abs() <= 1e-9 * scale);
        }
    }

    /// Pair interaction energy is symmetric under exchanging the two atoms'
    /// roles when their force-field parameters are identical.
    fn pair_energy_is_symmetric_for_identical_types(
        x in -10.0f32..10.0, y in -10.0f32..10.0, z in -10.0f32..10.0,
        radius in 0.5f32..2.5, hphb in -1.0f32..1.0, charge in -0.5f32..0.5,
    ) {
        use science_kernels::minibude::pair_energy;
        let ff = (radius, hphb, charge);
        let forward = pair_energy(0.0, 0.0, 0.0, ff, x, y, z, ff);
        let backward = pair_energy(x, y, z, ff, 0.0, 0.0, 0.0, ff);
        prop_assert!((forward - backward).abs() <= 1e-4 * forward.abs().max(1.0));
    }

    /// The Jacobi residual is monotonically non-increasing for arbitrary grid
    /// sides and iteration caps: the iteration matrix of the
    /// constant-diagonal Laplacian is symmetric, so the iterate-difference
    /// norm contracts every sweep. The solve runs on the shim's worker pool,
    /// whose fixed-chunk reductions are bitwise-stable at any thread count.
    fn jacobi_residual_is_monotone_non_increasing(
        l in 4usize..13,
        iters in 1usize..50,
    ) {
        let solution = solve_host(&JacobiConfig::validation(l, iters));
        prop_assert_eq!(solution.iters_run, solution.residuals.len());
        for pair in solution.residuals.as_slice().windows(2) {
            prop_assert!(
                pair[1] <= pair[0],
                "residual rose: {} -> {}", pair[0], pair[1]
            );
        }
    }

    /// Frame-stream accumulation is bitwise-identical between one big batch
    /// and any partition of the frame range into sub-batches: the per-element
    /// EMA chain is strictly sequential in the frame index, so batch
    /// boundaries cannot reassociate anything.
    fn framestream_accumulation_is_partition_invariant(
        n in 1usize..3000,
        frames in 1usize..48,
        cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
    ) {
        let mut whole = vec![ACC_INIT; n];
        accumulate_frames(&mut whole, 0..frames);

        let mut bounds: Vec<usize> = cuts.iter().map(|c| (c * frames as f64) as usize).collect();
        bounds.push(0);
        bounds.push(frames);
        bounds.sort_unstable();
        let mut split = vec![ACC_INIT; n];
        for pair in bounds.windows(2) {
            accumulate_frames(&mut split, pair[0]..pair[1]);
        }
        prop_assert_eq!(&whole, &split);
    }

    /// Deck generation honours arbitrary (sane) configuration sizes.
    fn deck_generation_matches_config(natlig in 1usize..32, natpro in 1usize..128, nposes in 1usize..512, seed in 0u64..1000) {
        let config = MiniBudeConfig {
            ppwi: 1,
            wg: 8,
            natlig,
            natpro,
            nposes,
            executed_poses: nposes,
            seed,
        }.normalised();
        let deck = Deck::generate(&config);
        prop_assert_eq!(deck.ligand.len(), natlig);
        prop_assert_eq!(deck.protein.len(), natpro);
        prop_assert!(deck.transforms.iter().all(|t| t.len() == nposes));
        let check = |a: &Atom| a.type_index as usize <= deck.forcefield.len();
        prop_assert!(deck.ligand.iter().all(check));
        let in_range = |p: &ForceFieldParam| p.radius > 0.0;
        prop_assert!(deck.forcefield.iter().all(in_range));
    }
}
