//! Thread-count parity of the single host lane: the byte-identity matrix's
//! CLI cells at an over-subscribed `RAYON_NUM_THREADS=4` for the full
//! report and the §15 composite sweeps (`tests/common/mod.rs`;
//! `tests/golden_report.rs` takes the other sweeps at 4 threads).
//!
//! Every host path runs the deterministic fixed-chunk code (DESIGN.md §14),
//! so each cell must write the committed fixture bytes and print the
//! default-width stdout.

mod common;

use common::{rows, threads_cell, COMPOSITES, REPORT};

#[test]
fn composite_cli_sweeps_are_byte_identical_across_thread_counts() {
    for row in rows()
        .iter()
        .filter(|row| COMPOSITES.contains(&row.fixture))
    {
        threads_cell(row, "4");
    }
}

#[test]
fn cli_lane_deterministic_is_byte_identical_across_thread_counts() {
    for row in rows().iter().filter(|row| row.fixture == REPORT) {
        threads_cell(row, "4");
    }
}
