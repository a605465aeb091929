//! Figure 6 — miniBUDE GFLOP/s vs PPWI on the NVIDIA H100:
//! Mojo vs CUDA with and without fast-math, for work-group sizes 8 and 64.

use super::support::{columns, Row};
use crate::registry::ExperimentId;
use crate::render::Series;
use crate::report::ExperimentReport;
use hpc_metrics::output::CsvTable;
use science_kernels::minibude::workload::MiniBudeWorkload;
use vendor_models::Platform;

/// Backends compared on the H100 in Figure 6.
pub fn h100_backends() -> Vec<Platform> {
    vec![
        Platform::portable_h100(),
        Platform::cuda_h100(true),
        Platform::cuda_h100(false),
    ]
}

/// The figure's rows: the registry's PPWI presets at both work-group sizes
/// timed on each H100 backend, one column per backend.
pub fn rows() -> Vec<Vec<Row<MiniBudeWorkload>>> {
    columns(ExperimentId::Fig6, &h100_backends())
}

/// Renders a miniBUDE figure from its columns: one section per work-group
/// size, in preset order, with one series per backend. Figure 7 shares it.
pub fn render(
    id: ExperimentId,
    figure: &str,
    columns: &[Vec<Row<MiniBudeWorkload>>],
) -> ExperimentReport {
    let mut report = ExperimentReport::new(id.as_str(), id.title());
    let mut csv = CsvTable::new(["device", "backend", "wg", "ppwi", "gflops"]);
    let mut wgs: Vec<u32> = columns[0].iter().map(|row| row.config.wg).collect();
    wgs.dedup();
    for wg in wgs {
        report.push_line(format!("{figure} (wg = {wg})"));
        let mut series = Vec::new();
        for column in columns {
            let mut s = Series::new(column[0].backend());
            for row in column.iter().filter(|row| row.config.wg == wg) {
                let ppwi = row.config.ppwi;
                s.push(format!("PPWI={ppwi}"), row.fom);
                csv.push_row([
                    row.device.to_string(),
                    row.backend().to_string(),
                    format!("{wg}"),
                    format!("{ppwi}"),
                    format!("{}", row.fom),
                ]);
            }
            series.push(s);
        }
        report.push_line(Series::render_group(&series, "GF/s", 40));
    }
    report.push_table("gflops", csv);
    report
}

/// Regenerates Figure 6 (both work-group sizes).
pub fn run() -> ExperimentReport {
    render(ExperimentId::Fig6, "Figure 6", &rows())
}

#[cfg(test)]
mod tests {
    use super::super::support::ratio;
    use super::*;

    /// The figures of merit of one column at work-group size `wg`, in PPWI
    /// order.
    fn gflops(column: &[Row<MiniBudeWorkload>], wg: u32) -> Vec<(u32, f64)> {
        column
            .iter()
            .filter(|row| row.config.wg == wg)
            .map(|row| (row.config.ppwi, row.fom))
            .collect()
    }

    #[test]
    fn fig6_orders_backends_like_the_paper_at_wg64() {
        let rows = rows();
        // rows[0] = Mojo, [1] = CUDA fast-math, [2] = CUDA.
        let (mojo, cuda_ff, cuda) = (
            gflops(&rows[0], 64),
            gflops(&rows[1], 64),
            gflops(&rows[2], 64),
        );
        assert_eq!(mojo.len(), 8);
        for i in 0..mojo.len() {
            let (ppwi, mojo) = mojo[i];
            let (cuda_ff, cuda) = (cuda_ff[i].1, cuda[i].1);
            assert!(
                cuda_ff > mojo && mojo > cuda,
                "at PPWI={ppwi}: expected CUDA-ff > Mojo > CUDA, got {cuda_ff:.0} / {mojo:.0} / {cuda:.0}"
            );
        }
    }

    #[test]
    fn fig6_mojo_efficiency_rises_at_wg8() {
        let rows = rows();
        // Mojo/CUDA-ff efficiency: Table 5 gives 0.82 at PPWI=8, wg=8 versus
        // 0.59 at PPWI=4, wg=64.
        let at = |ppwi: u32, wg: u32| {
            ratio(&rows[0], &rows[1], |row| {
                row.config.ppwi == ppwi && row.config.wg == wg
            })
        };
        let (eff8, eff64) = (at(8, 8), at(4, 64));
        assert!((eff8 - 0.82).abs() < 0.1, "wg8 PPWI=8 efficiency {eff8}");
        assert!((eff64 - 0.59).abs() < 0.1, "wg64 PPWI=4 efficiency {eff64}");
    }

    #[test]
    fn fig6_report_contains_both_workgroup_sections() {
        let report = run();
        assert!(report.text.contains("Figure 6 (wg = 8)"));
        assert!(report.text.contains("Figure 6 (wg = 64)"));
        // 3 backends × 8 PPWI values × 2 work-group sizes.
        assert_eq!(report.tables[0].rows.len(), 48);
    }
}
