//! Hartree–Fock electron-repulsion workload — paper Listing 5, Table 4.
//!
//! The kernel evaluates two-electron repulsion integrals (ERIs) over pairs of
//! atom pairs of a helium system and scatters each integral into the Fock
//! matrix with six FP64 `Atomic.fetch_add` updates. The quartet loop is
//! embarrassingly parallel, but the atomic updates serialise heavily — which
//! is exactly the behaviour the paper measures (Table 4 reports raw kernel
//! wall-clock times as the figure of merit).
//!
//! The original proxy app reads helium test decks (`he64` … `he1024`); this
//! reproduction generates the same systems synthetically (a helium lattice
//! with STO-3G-like Gaussian parameters, see [`HeliumSystem`]) and keeps the
//! Schwarz screening, the four nested Gaussian loops and the six atomic
//! updates of Listing 5.

mod config;
mod cost;
mod geometry;
mod portable;
mod reference;
mod sampled;
mod triangular;
pub mod workload;

pub use config::{HartreeFockConfig, DEFAULT_SCREENING_TOL, MAX_FUNCTIONAL_NATOMS};
pub use cost::{hartree_fock_cost, surviving_quartets};
pub use geometry::HeliumSystem;
/// One body runs on every backend; `run_portable` and `run_vendor` are
/// aliases of `run` for callers that name the backend.
pub use portable::{run, run as run_portable, run as run_vendor};
pub use reference::{quartet_eri, reference_fock};
pub use sampled::{
    run_sampled, run_sampled_weighted, shard_ranges, SampleWeighting, SampledPlan,
    SampledValidation, ShardStats, DEFAULT_SAMPLES, DEFAULT_SHARDS,
};
pub use triangular::{pair_count, pair_decode, pair_encode, quartet_decode};

#[cfg(test)]
mod tests {
    use super::*;
    use vendor_models::Platform;

    #[test]
    fn portable_and_vendor_verify_against_the_reference() {
        let config = HartreeFockConfig::validation(12);
        for platform in Platform::paper_platforms() {
            let run = run(&platform, &config).unwrap();
            assert!(
                run.verification.is_verified(),
                "{} should verify",
                platform.label()
            );
        }
    }

    #[test]
    fn mojo_beats_cuda_at_256_atoms_and_collapses_at_1024() {
        // Table 4 (H100): Mojo 187 ms vs CUDA 472 ms at 256 atoms (≈2.5×
        // faster), but 147 s vs 2.7 s at 1024 atoms (dramatic collapse).
        let small = HartreeFockConfig::paper(256, 3);
        let mojo = run(&Platform::portable_h100(), &small).unwrap();
        let cuda = run(&Platform::cuda_h100(false), &small).unwrap();
        let speedup = cuda.seconds() / mojo.seconds();
        assert!(
            speedup > 1.8 && speedup < 3.2,
            "Mojo should be ≈2.5× faster than CUDA at 256 atoms, got {speedup:.2}×"
        );

        let large = HartreeFockConfig::paper(1024, 6);
        let mojo_large = run(&Platform::portable_h100(), &large).unwrap();
        let cuda_large = run(&Platform::cuda_h100(false), &large).unwrap();
        assert!(
            mojo_large.seconds() > 20.0 * cuda_large.seconds(),
            "Mojo should collapse at 1024 atoms (got {:.1}× slower)",
            mojo_large.seconds() / cuda_large.seconds()
        );
    }

    #[test]
    fn mojo_badly_trails_hip_on_mi300a() {
        // Table 4 (MI300A): Mojo 25,266 ms vs HIP 178 ms at 256 atoms.
        let config = HartreeFockConfig::paper(256, 3);
        let mojo = run(&Platform::portable_mi300a(), &config).unwrap();
        let hip = run(&Platform::hip_mi300a(false), &config).unwrap();
        let slowdown = mojo.seconds() / hip.seconds();
        assert!(
            slowdown > 50.0,
            "Mojo should be orders of magnitude slower than HIP, got {slowdown:.0}×"
        );
    }

    #[test]
    fn hip_beats_cuda_at_every_size() {
        // Table 4: the HIP column is faster than the CUDA column at every size.
        for natoms in [64, 128, 256] {
            let config = HartreeFockConfig::paper(natoms, 3);
            let cuda = run(&Platform::cuda_h100(false), &config).unwrap();
            let hip = run(&Platform::hip_mi300a(false), &config).unwrap();
            assert!(hip.seconds() < cuda.seconds(), "natoms = {natoms}");
        }
    }
}

/// The paper's CUDA/HIP baselines: the same body on the vendor platforms.
#[cfg(test)]
mod vendor {
    mod tests {
        use super::super::*;
        use vendor_models::Platform;

        #[test]
        fn cuda_fock_matches_the_reference() {
            let config = HartreeFockConfig::validation(10);
            let run = run(&Platform::cuda_h100(false), &config).unwrap();
            assert!(run.verification.is_verified());
            assert_eq!(run.backend, "CUDA");
        }

        #[test]
        fn hip_fock_matches_the_reference() {
            let config = HartreeFockConfig::validation(12);
            let run = run(&Platform::hip_mi300a(false), &config).unwrap();
            assert!(run.verification.is_verified());
            assert_eq!(run.backend, "HIP");
        }

        #[test]
        fn cuda_duration_is_in_the_table4_ballpark_at_256_atoms() {
            // Table 4: CUDA takes 472 ms for the 256-atom, ngauss = 3 system.
            // Our survivor count depends on the synthetic lattice geometry, so
            // only the order of magnitude is asserted here; the exact paper-vs-
            // measured comparison lives in EXPERIMENTS.md.
            let config = HartreeFockConfig::paper(256, 3);
            let run = run(&Platform::cuda_h100(false), &config).unwrap();
            assert!(
                run.millis() > 40.0 && run.millis() < 5_000.0,
                "CUDA 256-atom duration {:.1} ms out of expected range",
                run.millis()
            );
        }

        #[test]
        fn portable_collapse_does_not_affect_the_vendor_baseline() {
            let config = HartreeFockConfig::paper(1024, 6);
            let run = run(&Platform::cuda_h100(false), &config).unwrap();
            assert!((run.profile.atomic_throughput_factor - 1.0).abs() < 1e-12);
        }
    }
}
