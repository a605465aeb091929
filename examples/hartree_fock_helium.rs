//! Hartree–Fock on helium systems: the Table 4 size sweep plus a validated
//! small-system Fock-matrix build.
//!
//! Run with `cargo run --release --example hartree_fock_helium`.

use mojo_hpc::kernels::hartree_fock::{self, HartreeFockConfig, HeliumSystem};
use mojo_hpc::vendor::Platform;

fn main() {
    println!("Hartree-Fock kernel wall-clock (ms), helium lattices (Table 4 sweep):\n");
    println!(
        "{:<20} {:>14} {:>14} {:>14} {:>14}",
        "case", "H100 Mojo", "H100 CUDA", "MI300A Mojo", "MI300A HIP"
    );
    for (natoms, ngauss) in HartreeFockConfig::paper_cases() {
        let config = HartreeFockConfig::paper(natoms, ngauss);
        let time = |platform: &Platform| {
            hartree_fock::run(platform, &config)
                .expect("hartree-fock run")
                .millis()
        };
        println!(
            "{:<20} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
            format!("a={natoms} ngauss={ngauss}"),
            time(&Platform::portable_h100()),
            time(&Platform::cuda_h100(false)),
            time(&Platform::portable_mi300a()),
            time(&Platform::hip_mi300a(false)),
        );
    }

    // Screening statistics: how much work the Schwarz test removes.
    println!("\nSchwarz screening statistics:");
    for (natoms, ngauss) in HartreeFockConfig::paper_cases() {
        let config = HartreeFockConfig::paper(natoms, ngauss);
        let system = HeliumSystem::generate(&config);
        let survivors = system.schwarz_levels.survivors(config.screening_tol);
        println!(
            "  a={natoms:>5}: {survivors:>16} of {:>16} quartets survive ({:.1}%)",
            config.nquartets(),
            100.0 * survivors as f64 / config.nquartets() as f64
        );
    }

    // A validated run: build the Fock matrix for 24 atoms on the simulator and
    // check it against the sequential CPU reference.
    println!("\nValidated Fock build (24 atoms, portable backend on the H100):");
    let run = hartree_fock::run(
        &Platform::portable_h100(),
        &HartreeFockConfig::validation(24),
    )
    .expect("validated run");
    println!("  verification: {:?}", run.verification);
    println!("  atomic updates issued: {}", run.cost.atomics_fp64);
}
