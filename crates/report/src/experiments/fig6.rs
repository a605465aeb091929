//! Figure 6 — miniBUDE GFLOP/s vs PPWI on the NVIDIA H100:
//! Mojo vs CUDA with and without fast-math, for work-group sizes 8 and 64.

use super::support::bude_fom;
use crate::render::Series;
use crate::report::ExperimentReport;
use hpc_metrics::output::CsvTable;
use science_kernels::minibude::{self, MiniBudeConfig};
use vendor_models::Platform;

/// Backends compared on the H100 in Figure 6.
pub fn h100_backends() -> Vec<Platform> {
    vec![
        Platform::portable_h100(),
        Platform::cuda_h100(true),
        Platform::cuda_h100(false),
    ]
}

/// Runs the PPWI sweep for one device's backend set and one work-group size.
pub fn sweep(platforms: &[Platform], wg: u32, csv: &mut CsvTable) -> Vec<Series> {
    let mut series = Vec::new();
    for platform in platforms {
        let mut s = Series::new(platform.backend.label());
        for ppwi in MiniBudeConfig::paper_ppwi_sweep() {
            let config = MiniBudeConfig {
                executed_poses: 0,
                ..MiniBudeConfig::paper(ppwi, wg)
            };
            let run = minibude::run(platform, &config).expect("fasten run");
            let gflops = bude_fom(&run, &config);
            s.push(format!("PPWI={ppwi}"), gflops);
            csv.push_row([
                platform.spec.name.to_string(),
                platform.backend.label().to_string(),
                format!("{wg}"),
                format!("{ppwi}"),
                format!("{gflops}"),
            ]);
        }
        series.push(s);
    }
    series
}

/// Regenerates Figure 6 (both work-group sizes).
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig6",
        "miniBUDE GFLOP/s (Eq. 3) vs PPWI on the NVIDIA H100, bm1 deck",
    );
    let mut csv = CsvTable::new(["device", "backend", "wg", "ppwi", "gflops"]);
    for wg in MiniBudeConfig::paper_wg_values() {
        report.push_line(format!("Figure 6 (wg = {wg})"));
        let series = sweep(&h100_backends(), wg, &mut csv);
        report.push_line(Series::render_group(&series, "GF/s", 40));
    }
    report.push_table("gflops", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_orders_backends_like_the_paper_at_wg64() {
        let mut csv = CsvTable::new(["device", "backend", "wg", "ppwi", "gflops"]);
        let series = sweep(&h100_backends(), 64, &mut csv);
        // series[0] = Mojo, [1] = CUDA fast-math, [2] = CUDA.
        for i in 0..series[0].points.len() {
            let mojo = series[0].points[i].1;
            let cuda_ff = series[1].points[i].1;
            let cuda = series[2].points[i].1;
            assert!(
                cuda_ff > mojo && mojo > cuda,
                "at {}: expected CUDA-ff > Mojo > CUDA, got {cuda_ff:.0} / {mojo:.0} / {cuda:.0}",
                series[0].points[i].0
            );
        }
    }

    #[test]
    fn fig6_mojo_efficiency_rises_at_wg8() {
        let mut csv = CsvTable::new(["device", "backend", "wg", "ppwi", "gflops"]);
        let wg8 = sweep(&h100_backends(), 8, &mut csv);
        let wg64 = sweep(&h100_backends(), 64, &mut csv);
        // Compare Mojo/CUDA-ff efficiency at PPWI=8 (index 3): Table 5 gives
        // 0.82 at wg=8 versus 0.59 at PPWI=4, wg=64.
        let eff8 = wg8[0].points[3].1 / wg8[1].points[3].1;
        let eff64 = wg64[0].points[2].1 / wg64[1].points[2].1;
        assert!((eff8 - 0.82).abs() < 0.1, "wg8 PPWI=8 efficiency {eff8}");
        assert!((eff64 - 0.59).abs() < 0.1, "wg64 PPWI=4 efficiency {eff64}");
    }

    #[test]
    fn fig6_report_contains_both_workgroup_sections() {
        let report = run();
        assert!(report.text.contains("Figure 6 (wg = 8)"));
        assert!(report.text.contains("Figure 6 (wg = 64)"));
        // 3 backends × 8 PPWI values × 2 work-group sizes.
        assert_eq!(report.tables[0].1.rows.len(), 48);
    }
}
