//! miniBUDE `fasten` workload — paper Listing 4, Figures 6–7.
//!
//! miniBUDE is the proxy for the Bristol University Docking Engine: for each
//! of tens of thousands of candidate poses of a ligand molecule, the `fasten`
//! kernel rotates and translates the ligand, then accumulates an interaction
//! energy over every (ligand atom, protein atom) pair. It is compute bound
//! and highly sensitive to fast-math, which is exactly the gap the paper
//! observes for the portable backend. The figure of merit is GFLOP/s, Eq. (3).
//!
//! The paper uses the `bm1` benchmark deck (26 ligand atoms, 938 protein
//! atoms, 65,536 poses). The original deck ships as binary data files with the
//! miniBUDE distribution; this reproduction generates a synthetic deck with
//! identical dimensions and physically plausible parameter ranges (see
//! [`Deck`]), which preserves the arithmetic characteristics the paper
//! measures — the operation mix does not depend on the particular molecule.

mod config;
mod cost;
mod deck;
mod portable;
mod reference;
pub mod workload;

pub use config::MiniBudeConfig;
pub use cost::fasten_cost;
pub use deck::{Atom, Deck, ForceFieldParam};
/// One body runs on every backend; `run_portable` and `run_vendor` are
/// aliases of `run` for callers that name the backend.
pub use portable::{run, run as run_portable, run as run_vendor};
pub use reference::{pair_energy, pose_energy, reference_energies, transform_point, HALF};

#[cfg(test)]
mod tests {
    use super::*;
    use vendor_models::Platform;

    #[test]
    fn portable_and_vendor_verify_against_the_reference() {
        let config = MiniBudeConfig::validation(4, 8);
        for platform in [
            Platform::portable_h100(),
            Platform::cuda_h100(true),
            Platform::portable_mi300a(),
            Platform::hip_mi300a(false),
        ] {
            let run = run(&platform, &config).unwrap();
            assert!(
                run.verification.is_verified(),
                "{} should verify",
                platform.label()
            );
        }
    }

    #[test]
    fn mojo_sits_between_cuda_with_and_without_fast_math_on_h100() {
        // Fig. 6: the portable backend lands between the CUDA fast-math and
        // non-fast-math baselines for most configurations.
        let config = MiniBudeConfig::paper(4, 64);
        let mojo = run(&Platform::portable_h100(), &config).unwrap();
        let cuda_ff = run(&Platform::cuda_h100(true), &config).unwrap();
        let cuda = run(&Platform::cuda_h100(false), &config).unwrap();
        assert!(
            cuda_ff.seconds() < mojo.seconds(),
            "fast-math CUDA must beat Mojo"
        );
        assert!(
            mojo.seconds() < cuda.seconds(),
            "Mojo must beat CUDA without fast-math"
        );
    }

    #[test]
    fn mojo_trails_both_hip_variants_on_mi300a() {
        // Fig. 7: Mojo underperforms both HIP variants on the MI300A.
        let config = MiniBudeConfig::paper(8, 64);
        let mojo = run(&Platform::portable_mi300a(), &config).unwrap();
        let hip_ff = run(&Platform::hip_mi300a(true), &config).unwrap();
        let hip = run(&Platform::hip_mi300a(false), &config).unwrap();
        assert!(hip_ff.seconds() < mojo.seconds());
        assert!(hip.seconds() < mojo.seconds());
    }

    #[test]
    fn mojo_overtakes_cuda_fast_math_gap_narrows_at_small_wg() {
        // Fig. 6a: for wg = 8 the CUDA baseline loses ground and Mojo's
        // relative efficiency rises to ~0.82 (Table 5).
        let small = MiniBudeConfig::paper(8, 8);
        let large = MiniBudeConfig::paper(8, 64);
        let eff_small = run(&Platform::cuda_h100(true), &small).unwrap().seconds()
            / run(&Platform::portable_h100(), &small).unwrap().seconds();
        let eff_large = run(&Platform::cuda_h100(true), &large).unwrap().seconds()
            / run(&Platform::portable_h100(), &large).unwrap().seconds();
        assert!(
            eff_small > eff_large,
            "portable efficiency should be higher at wg=8 ({eff_small:.2} vs {eff_large:.2})"
        );
    }
}

/// The paper's CUDA/HIP baselines: the same body on the vendor platforms.
#[cfg(test)]
mod vendor {
    mod tests {
        use super::super::*;
        use vendor_models::Platform;

        #[test]
        fn cuda_fasten_matches_the_reference() {
            let config = MiniBudeConfig::validation(4, 8);
            let run = run(&Platform::cuda_h100(true), &config).unwrap();
            assert!(run.verification.is_verified());
            assert_eq!(run.backend, "CUDA fast-math");
        }

        #[test]
        fn hip_fasten_matches_the_reference_at_wg64() {
            let config = MiniBudeConfig::validation(8, 64);
            let run = run(&Platform::hip_mi300a(false), &config).unwrap();
            assert!(run.verification.is_verified());
            assert_eq!(run.backend, "HIP");
        }

        #[test]
        fn fast_math_changes_speed_but_not_results() {
            let config = MiniBudeConfig::validation(4, 8);
            let plain = run(&Platform::cuda_h100(false), &config).unwrap();
            let ff = run(&Platform::cuda_h100(true), &config).unwrap();
            assert!(plain.verification.is_verified());
            assert_eq!(ff.verification, plain.verification);
            assert!(ff.seconds() < plain.seconds());
        }

        #[test]
        fn portable_and_vendor_agree_bitwise_on_the_same_deck() {
            // One body on all four paper platforms: the verification records,
            // error included, must be equal, not merely all passing.
            let config = MiniBudeConfig::validation(2, 8);
            let mojo = run(&Platform::portable_h100(), &config).unwrap();
            assert!(mojo.verification.is_verified());
            for platform in [
                Platform::cuda_h100(false),
                Platform::portable_mi300a(),
                Platform::hip_mi300a(false),
            ] {
                let other = run(&platform, &config).unwrap();
                assert_eq!(
                    other.verification,
                    mojo.verification,
                    "{}",
                    platform.label()
                );
            }
        }
    }
}
