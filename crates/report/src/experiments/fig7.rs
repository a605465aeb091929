//! Figure 7 — miniBUDE GFLOP/s vs PPWI on the AMD MI300A:
//! Mojo vs HIP with and without fast-math, for work-group sizes 8 and 64.

use super::fig6::render;
use super::support::{columns, Row};
use crate::registry::ExperimentId;
use crate::report::ExperimentReport;
use science_kernels::minibude::workload::MiniBudeWorkload;
use vendor_models::Platform;

/// Backends compared on the MI300A in Figure 7.
pub fn mi300a_backends() -> Vec<Platform> {
    vec![
        Platform::portable_mi300a(),
        Platform::hip_mi300a(true),
        Platform::hip_mi300a(false),
    ]
}

/// The figure's rows: the registry's PPWI presets at both work-group sizes
/// timed on each MI300A backend, one column per backend.
pub fn rows() -> Vec<Vec<Row<MiniBudeWorkload>>> {
    columns(ExperimentId::Fig7, &mi300a_backends())
}

/// Regenerates Figure 7 (both work-group sizes).
pub fn run() -> ExperimentReport {
    render(ExperimentId::Fig7, "Figure 7", &rows())
}

#[cfg(test)]
mod tests {
    use super::super::support::ratio;
    use super::*;

    #[test]
    fn fig7_mojo_underperforms_both_hip_variants() {
        let rows = rows();
        // rows[0] = Mojo, [1] = HIP fast-math, [2] = HIP.
        for (i, mojo) in rows[0].iter().enumerate() {
            let wg = mojo.config.wg;
            assert!(
                rows[1][i].fom > mojo.fom,
                "HIP-ff should beat Mojo (wg {wg})"
            );
            assert!(rows[2][i].fom > mojo.fom, "HIP should beat Mojo (wg {wg})");
        }
        assert_eq!(rows[0].len(), 16);
    }

    #[test]
    fn fig7_efficiency_matches_table5_band() {
        // Table 5: miniBUDE efficiency on the MI300A is 0.38 for both listed
        // configurations; allow a generous band around it.
        let rows = rows();
        let eff = ratio(&rows[0], &rows[1], |row| {
            row.config.ppwi == 4 && row.config.wg == 64
        });
        assert!((0.25..=0.5).contains(&eff), "MI300A efficiency {eff}");
    }

    #[test]
    fn fig7_report_structure() {
        let report = run();
        assert!(report.text.contains("Figure 7 (wg = 8)"));
        assert!(report.text.contains("Figure 7 (wg = 64)"));
        assert!(report.text.contains("HIP fast-math"));
        assert_eq!(report.tables[0].rows.len(), 48);
    }
}
