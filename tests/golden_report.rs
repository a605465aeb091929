//! Golden-file regression suite: the CLI columns of the byte-identity
//! matrix (`tests/common/mod.rs`) at the default pool width, at
//! `RAYON_NUM_THREADS=1`, and at `=4` for the sweeps that
//! `tests/lane_parity.rs` does not take; plus the `diff` subcommand over
//! the goldens.
//!
//! `tests/golden/` commits the CSV output of `mojo-hpc run --all`,
//! `tests/golden/json/` the JSON documents of `run --all --format json`,
//! and `tests/golden/sweep/` the sweep fixtures of `SWEEP_GOLDENS`. Any
//! change to the timing model, the kernels, the executor or the rendering
//! that moves a single byte fails loudly. Regenerate the goldens with
//! `mojo-hpc run --all --out tests/golden` (CSV),
//! `mojo-hpc run --all --format json --out tests/golden/json` and the
//! invocations in `SWEEP_GOLDENS` when a change is intended.

mod common;

use common::{
    default_cell, golden_dir, mojo_hpc, row, rows, scratch, threads_cell, Row, COMPOSITES, REPORT,
};
use mojo_hpc::report::ExperimentId;

fn sweep_rows() -> impl Iterator<Item = Row> {
    rows().into_iter().filter(|row| row.fixture != REPORT)
}

#[test]
fn run_all_matches_the_committed_goldens_at_default_threads() {
    let stdout = String::from_utf8_lossy(default_cell(&row(REPORT, "csv"))).into_owned();
    // Every experiment renders under its registry caption — this pins
    // `ExperimentId::title()` to the titles the builders actually set.
    for id in ExperimentId::ALL {
        let banner = format!("=== {} — {} ===", id.as_str(), id.title());
        assert!(stdout.contains(&banner), "stdout missing banner: {banner}");
    }
}

#[test]
fn run_all_is_byte_identical_at_one_thread() {
    threads_cell(&row(REPORT, "csv"), "1");
}

#[test]
fn run_all_json_is_byte_identical_across_thread_counts_and_matches_goldens() {
    let row = row(REPORT, "json");
    assert_eq!(
        row.fixture_count(),
        ExperimentId::ALL.len(),
        "one committed JSON golden per experiment"
    );
    let stdout = String::from_utf8_lossy(default_cell(&row)).into_owned();
    // The stdout payload is one JSON array covering every experiment.
    assert!(stdout.starts_with('['), "json stdout should be an array");
    for id in ExperimentId::ALL {
        assert!(
            stdout.contains(&format!("\"id\": \"{}\"", id.as_str())),
            "stdout missing {id}"
        );
    }
    threads_cell(&row, "1");
}

#[test]
fn composite_sweeps_match_the_committed_goldens_at_default_threads() {
    for row in sweep_rows() {
        default_cell(&row);
    }
}

#[test]
fn composite_sweeps_are_byte_identical_at_one_thread() {
    for row in sweep_rows() {
        threads_cell(&row, "1");
        if !COMPOSITES.contains(&row.fixture) {
            threads_cell(&row, "4");
        }
    }
}

#[test]
fn the_binary_diff_subcommand_agrees_the_goldens_match() {
    let out = scratch("diff");
    let out_dir = out.to_str().unwrap();
    let run = mojo_hpc(&["run", "--all", "--out", out_dir]);
    assert_eq!(run.status.code(), Some(0));
    let diff = mojo_hpc(&["diff", golden_dir().to_str().unwrap(), out_dir]);
    assert_eq!(diff.status.code(), Some(0));
    std::fs::remove_dir_all(&out).ok();
}
