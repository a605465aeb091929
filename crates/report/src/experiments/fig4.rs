//! Figure 4 — BabelStream bandwidth for the five operations, Mojo vs CUDA
//! (H100) and Mojo vs HIP (MI300A).

use super::support::{columns, Row, RUNS_PER_CONFIG, STREAM_JITTER, SUBFIGURES};
use crate::registry::ExperimentId;
use crate::render::Series;
use crate::report::ExperimentReport;
use hpc_metrics::output::CsvTable;
use hpc_metrics::RunStats;
use science_kernels::babelstream::workload::BabelStreamWorkload;
use science_kernels::workload::paper_platform_pairs;

/// The figure's rows: the registry preset's five operations timed on each
/// paper platform, one column per platform.
pub fn rows() -> Vec<Vec<Row<BabelStreamWorkload>>> {
    columns(ExperimentId::Fig4, paper_platform_pairs())
}

/// Regenerates Figure 4 (both subfigures) at the paper's 2^25-element size.
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig4",
        "Mojo vs CUDA/HIP BabelStream effective bandwidth (Eq. 2), n = 2^25 FP64",
    );
    let mut csv = CsvTable::new(["device", "backend", "op", "mean_bandwidth_gbs", "std_gbs"]);

    let rows = rows();
    for (subfigure, pair) in SUBFIGURES.into_iter().zip(rows.chunks(2)) {
        report.push_line(format!("Figure 4{subfigure}"));
        let mut series = Vec::new();
        for column in pair {
            let mut s = Series::new(column[0].backend());
            for row in column {
                let samples = row.samples(RUNS_PER_CONFIG, STREAM_JITTER, 41);
                let stats = RunStats::from_samples(&samples);
                let mean_bw = row.fom * row.timed.timing.seconds / stats.mean;
                let std_bw = mean_bw * stats.coefficient_of_variation();
                let op = row.kernel.label();
                s.push(op, mean_bw);
                csv.push_row([
                    row.device.to_string(),
                    row.backend().to_string(),
                    op.to_string(),
                    format!("{mean_bw}"),
                    format!("{std_bw}"),
                ]);
            }
            series.push(s);
        }
        report.push_line(Series::render_group(&series, "GB/s", 40));
    }

    report.push_table("bandwidth", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::super::support::ratio;
    use super::*;
    use gpu_spec::Precision;
    use vendor_models::kernel_class::StreamOp;

    #[test]
    fn fig4_configuration_comes_from_the_registry_preset() {
        for column in rows() {
            let ops: Vec<StreamOp> = column.iter().map(|row| row.kernel).collect();
            assert_eq!(ops, StreamOp::ALL);
            for row in &column {
                assert_eq!(row.config.n, 1 << 25);
                assert_eq!(row.config.precision, Precision::Fp64);
                // 2^25 elements is above the functional limit: the figure is
                // the cost model alone.
                assert!(!row.config.validate);
            }
        }
    }

    #[test]
    fn fig4_shows_mojo_ahead_except_for_dot_on_h100() {
        let rows = rows();
        for op in StreamOp::ALL {
            let eff = ratio(&rows[0], &rows[1], |row| row.kernel == op);
            if op == StreamOp::Dot {
                assert!((eff - 0.78).abs() < 0.05, "Dot efficiency {eff}");
            } else {
                assert!((1.0..1.06).contains(&eff), "{op} efficiency {eff}");
            }
        }
    }

    #[test]
    fn fig4_shows_parity_on_mi300a() {
        let rows = rows();
        for op in StreamOp::ALL {
            let eff = ratio(&rows[2], &rows[3], |row| row.kernel == op);
            assert!((eff - 1.0).abs() < 0.02, "{op} efficiency {eff}");
        }
    }

    #[test]
    fn fig4_report_covers_both_devices_and_all_ops() {
        let report = run();
        assert!(report.text.contains("Figure 4(a) H100"));
        assert!(report.text.contains("Figure 4(b) MI300A"));
        for op in ["Copy", "Mul", "Add", "Triad", "Dot"] {
            assert!(report.text.contains(op));
        }
        assert_eq!(report.tables[0].rows.len(), 2 * 2 * 5);
    }
}
