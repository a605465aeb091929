//! Table 4 — Hartree–Fock kernel wall-clock times, Mojo vs CUDA (H100) and
//! Mojo vs HIP (MI300A).

use super::support::columns;
use crate::registry::ExperimentId;
use crate::render::AsciiTable;
use crate::report::ExperimentReport;
use hpc_metrics::output::CsvTable;
use science_kernels::hartree_fock::workload::HartreeFockWorkload;
use science_kernels::workload::paper_platform_pairs;

/// One row of Table 4: durations in milliseconds per platform.
#[derive(Debug, Clone)]
pub struct HartreeFockRow {
    /// Number of atoms.
    pub natoms: u32,
    /// Gaussians per atom.
    pub ngauss: u32,
    /// Mojo on the H100.
    pub mojo_h100_ms: f64,
    /// CUDA on the H100.
    pub cuda_ms: f64,
    /// Mojo on the MI300A.
    pub mojo_mi300a_ms: f64,
    /// HIP on the MI300A.
    pub hip_ms: f64,
}

/// Computes every row of Table 4: the registry presets timed on each paper
/// platform, in preset order.
pub fn rows() -> Vec<HartreeFockRow> {
    let columns = columns::<HartreeFockWorkload>(ExperimentId::Table4, paper_platform_pairs());
    // Each column is one platform: Mojo and CUDA on the H100, Mojo and HIP
    // on the MI300A. The figure of merit is the duration in milliseconds.
    let ms = |platform: usize, case: usize| columns[platform][case].fom;
    columns[0]
        .iter()
        .enumerate()
        .map(|(case, row)| HartreeFockRow {
            natoms: row.config.natoms,
            ngauss: row.config.ngauss,
            mojo_h100_ms: ms(0, case),
            cuda_ms: ms(1, case),
            mojo_mi300a_ms: ms(2, case),
            hip_ms: ms(3, case),
        })
        .collect()
}

/// Regenerates Table 4.
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table4",
        "Hartree-Fock kernel execution duration (ms), Mojo vs CUDA and HIP",
    );
    report.push_line("[profile constants: EXPERIMENTS.md \u{00a7} Hartree-Fock]");
    let mut table = AsciiTable::new([
        "case",
        "H100 Mojo",
        "H100 CUDA",
        "MI300A Mojo",
        "MI300A HIP",
    ]);
    let mut csv = CsvTable::new([
        "natoms",
        "ngauss",
        "mojo_h100_ms",
        "cuda_ms",
        "mojo_mi300a_ms",
        "hip_ms",
    ]);
    // Present rows largest-first like the paper.
    let mut all = rows();
    all.sort_by_key(|row| std::cmp::Reverse(row.natoms));
    for row in &all {
        table.push_row([
            format!("a={} ngauss={}", row.natoms, row.ngauss),
            format!("{:.0}", row.mojo_h100_ms),
            format!("{:.0}", row.cuda_ms),
            format!("{:.0}", row.mojo_mi300a_ms),
            format!("{:.0}", row.hip_ms),
        ]);
        csv.push_row([
            format!("{}", row.natoms),
            format!("{}", row.ngauss),
            format!("{}", row.mojo_h100_ms),
            format!("{}", row.cuda_ms),
            format!("{}", row.mojo_mi300a_ms),
            format!("{}", row.hip_ms),
        ]);
    }
    report.push_line(table.render());
    report.push_line(
        "Note: absolute times differ from the paper (synthetic helium lattice vs the original \
         decks); the comparisons the paper draws — Mojo ≈2.5x faster than CUDA up to 256 atoms, \
         collapse at 1024, and orders-of-magnitude slower than HIP — are reproduced. See \
         EXPERIMENTS.md.",
    );
    report.push_table("wallclock", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_reproduces_the_papers_relative_ordering() {
        let rows = rows();
        for row in &rows {
            if row.natoms <= 256 {
                let speedup = row.cuda_ms / row.mojo_h100_ms;
                assert!(
                    (1.8..=3.2).contains(&speedup),
                    "a={}: Mojo should be ≈2.5x faster than CUDA, got {speedup:.2}",
                    row.natoms
                );
            } else {
                assert!(
                    row.mojo_h100_ms > 20.0 * row.cuda_ms,
                    "a={}: Mojo should collapse vs CUDA",
                    row.natoms
                );
            }
            if row.natoms <= 256 {
                // The paper's MI300A column has no 1024-atom Mojo entry ("-"),
                // so the orders-of-magnitude gap is only asserted up to 256.
                assert!(
                    row.mojo_mi300a_ms > 50.0 * row.hip_ms,
                    "a={}: Mojo should badly trail HIP",
                    row.natoms
                );
            }
            assert!(row.hip_ms < row.cuda_ms, "HIP beats CUDA at every size");
        }
    }

    #[test]
    fn table4_report_has_all_four_cases() {
        let report = run();
        for case in [
            "a=1024 ngauss=6",
            "a=256 ngauss=3",
            "a=128 ngauss=3",
            "a=64 ngauss=3",
        ] {
            assert!(report.text.contains(case), "missing {case}");
        }
        assert_eq!(report.tables[0].rows.len(), 4);
    }
}
