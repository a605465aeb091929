//! Table 1 / Table 6 — GPU hardware used in the study.

use crate::render::AsciiTable;
use crate::report::ExperimentReport;
use gpu_spec::presets;
use hpc_metrics::output::CsvTable;

/// Regenerates Table 1.
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new("table1", "GPU hardware used in this study");
    let mut table = AsciiTable::new([
        "GPU - Memory",
        "Bandwidth GB/s",
        "FP32 TFLOP/s",
        "FP64 TFLOP/s",
    ]);
    let mut csv = CsvTable::new(["gpu", "bandwidth_gbs", "fp32_tflops", "fp64_tflops"]);
    for spec in presets::all_presets() {
        table.push_row([
            spec.name.to_string(),
            format!("{:.0}", spec.bandwidth_gbs),
            format!("{:.1}", spec.fp32_tflops),
            format!("{:.1}", spec.fp64_tflops),
        ]);
        csv.push_row([
            spec.name.to_string(),
            format!("{}", spec.bandwidth_gbs),
            format!("{}", spec.fp32_tflops),
            format!("{}", spec.fp64_tflops),
        ]);
    }
    report.push_line(table.render());
    report.push_table("hardware", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_both_devices_with_paper_figures() {
        let report = run();
        assert!(report.text.contains("H100"));
        assert!(report.text.contains("MI300A"));
        assert!(report.text.contains("3900"));
        assert!(report.text.contains("5300"));
        assert!(report.text.contains("122.6"));
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].rows.len(), 2);
    }
}
