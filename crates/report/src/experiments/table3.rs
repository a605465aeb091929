//! Table 3 — BabelStream NCU profiling metrics (Copy, Mul, Add, Dot), Mojo
//! vs CUDA on the H100.

use super::support::{columns, MetricRow};
use crate::registry::ExperimentId;
use crate::render::AsciiTable;
use crate::report::ExperimentReport;
use gpu_sim::ProfileReport;
use gpu_spec::presets;
use hpc_metrics::output::CsvTable;
use science_kernels::babelstream::workload::BabelStreamWorkload;
use science_kernels::workload::paper_platform_pairs;

/// Regenerates Table 3.
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table3",
        "BabelStream Mojo vs CUDA NCU profiling metrics (n = 2^25 FP64)",
    );
    report.push_line("[profile constants: EXPERIMENTS.md \u{00a7} BabelStream]");
    let spec = presets::h100_nvl();
    // The registry presets' operations (Copy, Mul, Add, Dot) on the H100
    // pair (Mojo and CUDA).
    let columns =
        columns::<BabelStreamWorkload>(ExperimentId::Table3, &paper_platform_pairs()[..2]);
    let mut header = vec!["ncu metric".to_string()];
    for row in &columns[0] {
        header.push(format!("{} Mojo", row.kernel));
        header.push(format!("{} CUDA", row.kernel));
    }
    let mut table = AsciiTable::new(header);
    let mut csv = CsvTable::new([
        "op",
        "backend",
        "duration_ms",
        "compute_sm_pct",
        "memory_pct",
        "registers",
        "ldg",
        "stg",
    ]);

    let mut profiles: Vec<(ProfileReport, ProfileReport)> = Vec::new();
    for (mojo, cuda) in columns[0].iter().zip(&columns[1]) {
        let op = mojo.kernel;
        let (mojo, cuda) = (&mojo.timed, &cuda.timed);
        let mojo_prof = ProfileReport::derive(&spec, &mojo.cost, &mojo.profile, &mojo.timing);
        let cuda_prof = ProfileReport::derive(&spec, &cuda.cost, &cuda.profile, &cuda.timing);
        for (backend, prof) in [("Mojo", &mojo_prof), ("CUDA", &cuda_prof)] {
            csv.push_row([
                op.label().to_string(),
                backend.to_string(),
                format!("{}", prof.duration_ms),
                format!("{}", prof.compute_sm_pct),
                format!("{}", prof.memory_pct),
                format!("{}", prof.registers),
                format!("{}", prof.load_global),
                format!("{}", prof.store_global),
            ]);
        }
        profiles.push((mojo_prof, cuda_prof));
    }

    let rows: [MetricRow<ProfileReport>; 6] = [
        ("Duration (ms)", |p| format!("{:.3}", p.duration_ms)),
        ("Compute SM (%)", |p| format!("{:.1}", p.compute_sm_pct)),
        ("Memory (%)", |p| format!("{:.1}", p.memory_pct)),
        ("Registers", |p| format!("{}", p.registers)),
        ("Load Global (LDG)", |p| format!("{:.0}", p.load_global)),
        ("Store Global (STG)", |p| format!("{:.0}", p.store_global)),
    ];
    for (name, extract) in rows {
        let mut row = vec![name.to_string()];
        for (mojo_prof, cuda_prof) in &profiles {
            row.push(extract(mojo_prof));
            row.push(extract(cuda_prof));
        }
        table.push_row(row);
    }
    report.push_line(table.render());
    report.push_table("ncu_metrics", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_the_papers_columns_and_register_counts() {
        let report = run();
        let text = &report.text;
        for col in ["Copy Mojo", "Copy CUDA", "Dot Mojo", "Dot CUDA"] {
            assert!(text.contains(col), "missing column {col}");
        }
        // Registers row: streaming ops use 16; Dot uses 26 (Mojo) vs 20 (CUDA).
        let reg_line = text
            .lines()
            .find(|l| l.starts_with("Registers"))
            .expect("registers row");
        assert!(reg_line.contains("16"));
        assert!(reg_line.contains("26"));
        assert!(reg_line.contains("20"));
        // 4 ops × 2 backends rows of CSV.
        assert_eq!(report.tables[0].rows.len(), 8);
    }

    #[test]
    fn table3_durations_track_the_paper() {
        // Copy ≈ 0.20 ms for both backends; Dot shows the 0.215 vs 0.168 gap.
        let report = run();
        let duration_line = report
            .text
            .lines()
            .find(|l| l.starts_with("Duration"))
            .unwrap()
            .to_string();
        assert!(duration_line.contains("0.2"));
    }
}
