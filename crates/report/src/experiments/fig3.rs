//! Figure 3 — seven-point stencil bandwidth, Mojo vs CUDA (H100) and
//! Mojo vs HIP (MI300A).

use super::support::{h100_pair, mi300a_pair, stencil_fom, RUNS_PER_CONFIG, STENCIL_JITTER};
use crate::registry::ExperimentId;
use crate::render::Series;
use crate::report::ExperimentReport;
use hpc_metrics::output::CsvTable;
use hpc_metrics::{stencil_bandwidth_gbs, RunStats};
use science_kernels::stencil7::{self, workload as stencil_workload, StencilConfig};
use vendor_models::Platform;

/// The problem sizes and precisions swept in Figure 3, decoded from the
/// registry's workload presets — the figure is the `stencil` scenario engine
/// run at four pinned parameter assignments.
pub fn configurations() -> Vec<StencilConfig> {
    ExperimentId::Fig3
        .spec()
        .workload
        .expect("fig3 measures the stencil workload")
        .resolve()
        .expect("fig3 presets validate")
        .iter()
        .map(|params| stencil_workload::config(params).expect("fig3 presets decode"))
        .collect()
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

    for (subfigure, (portable, vendor)) in
        [("(a) H100", h100_pair()), ("(b) MI300A", mi300a_pair())]
    {
        report.push_line(format!("Figure 3{subfigure}"));
        let mut series: Vec<Series> = Vec::new();
        for platform in [&portable, &vendor] {
            let mut s = Series::new(platform.backend.label());
            for config in configurations() {
                let run = stencil7::run(platform, &config).expect("stencil run");
                // Repeated jittered measurements (the paper plots the scatter
                // of at least 100 runs); the series carries the mean.
                let samples = run.sample_durations(RUNS_PER_CONFIG, STENCIL_JITTER, 2025);
                for (i, seconds) in samples.iter().enumerate() {
                    csv.push_row([
                        platform.spec.name.to_string(),
                        platform.backend.label().to_string(),
                        format!("{}", config.l),
                        config.precision.label().to_string(),
                        format!("{i}"),
                        format!(
                            "{}",
                            stencil_bandwidth_gbs(config.l as u64, config.precision, *seconds)
                        ),
                    ]);
                }
                let stats = RunStats::from_samples(&samples);
                let mean_bw = stencil_bandwidth_gbs(config.l as u64, config.precision, stats.mean);
                s.push(
                    format!("L={} {}", config.l, config.precision.label()),
                    mean_bw,
                );
                // Spot figure of merit from the nominal run for the console text.
                let _ = stencil_fom(&run, &config);
            }
            series.push(s);
        }
        report.push_line(Series::render_group(&series, "GB/s", 40));
    }

    report.push_table("bandwidth_samples", csv);
    report
}

/// The portable-to-vendor mean bandwidth ratio for a given device pair,
/// problem size and precision (used by Table 5 and by tests).
pub fn efficiency(portable: &Platform, vendor: &Platform, config: &StencilConfig) -> f64 {
    let p = stencil7::run(portable, config).expect("portable stencil run");
    let v = stencil7::run(vendor, config).expect("vendor stencil run");
    stencil_fom(&p, config) / stencil_fom(&v, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::Precision;

    #[test]
    fn fig3_configurations_come_from_the_registry_presets() {
        let configs = configurations();
        assert_eq!(
            configs,
            vec![
                StencilConfig::paper(512, Precision::Fp32),
                StencilConfig::paper(512, Precision::Fp64),
                StencilConfig::paper(1024, Precision::Fp32),
                StencilConfig::paper(1024, Precision::Fp64),
            ]
        );
    }

    #[test]
    fn fig3_shows_the_87_percent_gap_on_h100_and_parity_on_mi300a() {
        let (mojo_h, cuda) = h100_pair();
        let fp64 = StencilConfig::paper(512, Precision::Fp64);
        let eff = efficiency(&mojo_h, &cuda, &fp64);
        assert!((eff - 0.87).abs() < 0.03, "H100 FP64 efficiency {eff}");

        let (mojo_m, hip) = mi300a_pair();
        let eff = efficiency(&mojo_m, &hip, &fp64);
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
        assert_eq!(report.tables[0].1.rows.len(), 2 * 2 * 4 * RUNS_PER_CONFIG);
    }
}
