//! Thread-count parity of the single host lane.
//!
//! Every host path runs the deterministic fixed-chunk code (DESIGN.md §14),
//! so the real binary must emit byte-identical stdout whether the pool has
//! one thread or is over-subscribed. `tests/golden_report.rs` pins the same
//! contract against the committed goldens; these checks compare one
//! reduction-heavy experiment pair and the composite sweeps directly between
//! thread counts.

use std::process::{Command, Output};

fn mojo_hpc(args: &[&str], threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mojo-hpc"))
        .args(args)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("run mojo-hpc")
}

#[test]
fn composite_cli_sweeps_are_byte_identical_across_thread_counts() {
    for (workload, sizes) in [("jacobi", "8,12"), ("framestream", "4096,16384")] {
        let base = mojo_hpc(&["sweep", workload, "--sizes", sizes], "1");
        assert_eq!(base.status.code(), Some(0), "sweep {workload} failed");
        let wide = mojo_hpc(&["sweep", workload, "--sizes", sizes], "4");
        assert_eq!(
            wide.status.code(),
            Some(0),
            "sweep {workload} failed at 4 threads: {}",
            String::from_utf8_lossy(&wide.stderr)
        );
        assert_eq!(
            base.stdout, wide.stdout,
            "{workload}: sweep at 4 threads moved bytes relative to 1 thread"
        );
    }
}

#[test]
fn cli_lane_deterministic_is_byte_identical_across_thread_counts() {
    // One bandwidth experiment (fig4: BabelStream, includes the Dot
    // reduction) and one reduction-heavy experiment (table4: Hartree–Fock).
    for experiment in ["fig4", "table4"] {
        let base = mojo_hpc(&["run", experiment], "1");
        assert_eq!(base.status.code(), Some(0), "run {experiment} failed");
        let wide = mojo_hpc(&["run", experiment], "4");
        assert_eq!(
            wide.status.code(),
            Some(0),
            "run {experiment} failed at 4 threads"
        );
        assert_eq!(
            base.stdout, wide.stdout,
            "{experiment}: run at 4 threads moved bytes relative to 1 thread"
        );
    }
}
