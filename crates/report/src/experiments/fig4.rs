//! Figure 4 — BabelStream bandwidth for the five operations, Mojo vs CUDA
//! (H100) and Mojo vs HIP (MI300A).

use super::support::{h100_pair, mi300a_pair, stream_fom, RUNS_PER_CONFIG, STREAM_JITTER};
use crate::registry::ExperimentId;
use crate::render::Series;
use crate::report::ExperimentReport;
use hpc_metrics::output::CsvTable;
use hpc_metrics::RunStats;
use science_kernels::babelstream::{self, workload as stream_workload, BabelStreamConfig};
use vendor_models::kernel_class::StreamOp;
use vendor_models::Platform;

/// The paper's 2^25-element FP64 configuration, decoded from the registry's
/// workload preset (the figure is the `babelstream` scenario engine run at
/// one pinned assignment).
pub fn configuration() -> BabelStreamConfig {
    let params = ExperimentId::Fig4
        .spec()
        .workload
        .expect("fig4 measures the babelstream workload")
        .resolve()
        .expect("fig4 preset validates")
        .remove(0);
    stream_workload::config(&params).expect("fig4 preset decodes")
}

/// Regenerates Figure 4 (both subfigures) at the paper's 2^25-element size.
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig4",
        "Mojo vs CUDA/HIP BabelStream effective bandwidth (Eq. 2), n = 2^25 FP64",
    );
    let config = configuration();
    let mut csv = CsvTable::new(["device", "backend", "op", "mean_bandwidth_gbs", "std_gbs"]);

    for (subfigure, (portable, vendor)) in
        [("(a) H100", h100_pair()), ("(b) MI300A", mi300a_pair())]
    {
        report.push_line(format!("Figure 4{subfigure}"));
        let mut series = Vec::new();
        for platform in [&portable, &vendor] {
            let mut s = Series::new(platform.backend.label());
            for op in StreamOp::ALL {
                let run = babelstream::run(platform, op, &config).expect("babelstream run");
                let samples = run.sample_durations(RUNS_PER_CONFIG, STREAM_JITTER, 41);
                let stats = RunStats::from_samples(&samples);
                let mean_bw = stream_fom(&run, op, &config) * run.seconds() / stats.mean;
                let std_bw = mean_bw * stats.coefficient_of_variation();
                s.push(op.label(), mean_bw);
                csv.push_row([
                    platform.spec.name.to_string(),
                    platform.backend.label().to_string(),
                    op.label().to_string(),
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

/// The portable-to-vendor bandwidth ratio for one operation on one device
/// pair (used by Table 5 and the tests).
pub fn efficiency(portable: &Platform, vendor: &Platform, op: StreamOp) -> f64 {
    let config = configuration();
    let p = babelstream::run(portable, op, &config).expect("portable run");
    let v = babelstream::run(vendor, op, &config).expect("vendor run");
    stream_fom(&p, op, &config) / stream_fom(&v, op, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::Precision;

    #[test]
    fn fig4_configuration_comes_from_the_registry_preset() {
        assert_eq!(configuration(), BabelStreamConfig::paper(Precision::Fp64));
    }

    #[test]
    fn fig4_shows_mojo_ahead_except_for_dot_on_h100() {
        let (mojo, cuda) = h100_pair();
        for op in StreamOp::ALL {
            let eff = efficiency(&mojo, &cuda, op);
            if op == StreamOp::Dot {
                assert!((eff - 0.78).abs() < 0.05, "Dot efficiency {eff}");
            } else {
                assert!((1.0..1.06).contains(&eff), "{op} efficiency {eff}");
            }
        }
    }

    #[test]
    fn fig4_shows_parity_on_mi300a() {
        let (mojo, hip) = mi300a_pair();
        for op in StreamOp::ALL {
            let eff = efficiency(&mojo, &hip, op);
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
        assert_eq!(report.tables[0].1.rows.len(), 2 * 2 * 5);
    }
}
