//! Figure 3 — seven-point stencil bandwidth, Mojo vs CUDA (H100) and
//! Mojo vs HIP (MI300A).

use super::support::{columns, Row, RUNS_PER_CONFIG, STENCIL_JITTER, SUBFIGURES};
use crate::registry::ExperimentId;
use crate::render::Series;
use crate::report::ExperimentReport;
use hpc_metrics::output::CsvTable;
use hpc_metrics::RunStats;
use science_kernels::stencil7::workload::StencilWorkload;
use science_kernels::workload::{paper_platform_pairs, Family};

/// The figure's rows: its registry presets timed on each paper platform,
/// one column per platform (Mojo and CUDA on the H100, Mojo and HIP on the
/// MI300A).
pub fn rows() -> Vec<Vec<Row<StencilWorkload>>> {
    columns(ExperimentId::Fig3, paper_platform_pairs())
}

/// Regenerates Figure 3 (both subfigures).
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig3",
        "Mojo vs CUDA/HIP seven-point stencil effective bandwidth (Eq. 1)",
    );
    let mut csv = CsvTable::new([
        "device",
        "backend",
        "L",
        "precision",
        "run",
        "bandwidth_gbs",
    ]);

    let rows = rows();
    for (subfigure, pair) in SUBFIGURES.into_iter().zip(rows.chunks(2)) {
        report.push_line(format!("Figure 3{subfigure}"));
        let mut series: Vec<Series> = Vec::new();
        for column in pair {
            let mut s = Series::new(column[0].backend());
            for row in column {
                let config = &row.config;
                // Repeated jittered measurements (the paper plots the scatter
                // of at least 100 runs); the series carries the mean.
                let samples = row.samples(RUNS_PER_CONFIG, STENCIL_JITTER, 2025);
                for (i, &seconds) in samples.iter().enumerate() {
                    csv.push_row([
                        row.device.to_string(),
                        row.backend().to_string(),
                        format!("{}", config.l),
                        config.precision.label().to_string(),
                        format!("{i}"),
                        format!("{}", StencilWorkload::fom(config, (), seconds)),
                    ]);
                }
                let stats = RunStats::from_samples(&samples);
                s.push(
                    format!("L={} {}", config.l, config.precision.label()),
                    StencilWorkload::fom(config, (), stats.mean),
                );
            }
            series.push(s);
        }
        report.push_line(Series::render_group(&series, "GB/s", 40));
    }

    report.push_table("bandwidth_samples", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::super::support::ratio;
    use super::*;
    use gpu_spec::Precision;

    #[test]
    fn fig3_configurations_come_from_the_registry_presets() {
        for column in rows() {
            let points: Vec<(usize, Precision, u32)> = column
                .iter()
                .map(|row| (row.config.l, row.config.precision, row.config.block_x))
                .collect();
            assert_eq!(
                points,
                [
                    (512, Precision::Fp32, 512),
                    (512, Precision::Fp64, 512),
                    (1024, Precision::Fp32, 1024),
                    (1024, Precision::Fp64, 1024),
                ]
            );
            // Every paper size is above the functional limit: the figure is
            // the cost model alone.
            assert!(column.iter().all(|row| !row.config.should_execute()));
        }
    }

    #[test]
    fn fig3_shows_the_87_percent_gap_on_h100_and_parity_on_mi300a() {
        let rows = rows();
        let fp64_512 = |row: &Row<StencilWorkload>| {
            row.config.l == 512 && row.config.precision == Precision::Fp64
        };
        let eff = ratio(&rows[0], &rows[1], fp64_512);
        assert!((eff - 0.87).abs() < 0.03, "H100 FP64 efficiency {eff}");

        let eff = ratio(&rows[2], &rows[3], fp64_512);
        assert!((eff - 1.0).abs() < 0.02, "MI300A FP64 efficiency {eff}");
    }

    #[test]
    fn fig3_report_has_both_subfigures_and_scatter_data() {
        let report = run();
        assert!(report.text.contains("Figure 3(a) H100"));
        assert!(report.text.contains("Figure 3(b) MI300A"));
        assert!(report.text.contains("Mojo"));
        assert!(report.text.contains("CUDA"));
        assert!(report.text.contains("HIP"));
        // 2 devices × 2 backends × 4 configs × 100 runs of scatter rows.
        assert_eq!(report.tables[0].rows.len(), 2 * 2 * 4 * RUNS_PER_CONFIG);
    }
}
