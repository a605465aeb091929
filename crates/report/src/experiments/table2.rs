//! Table 2 — seven-point stencil NCU profiling metrics, Mojo vs CUDA.

use super::support::{columns, MetricRow};
use crate::registry::ExperimentId;
use crate::render::AsciiTable;
use crate::report::ExperimentReport;
use gpu_sim::ProfileReport;
use gpu_spec::{presets, Precision};
use hpc_metrics::output::CsvTable;
use science_kernels::stencil7::workload::StencilWorkload;
use science_kernels::stencil7::StencilConfig;
use science_kernels::workload::paper_platform_pairs;

/// The label of a profiled case, e.g. "Double Precision L=512 (512x1x1)".
fn case_label(config: &StencilConfig) -> String {
    let precision = match config.precision {
        Precision::Fp32 => "Single",
        Precision::Fp64 => "Double",
    };
    format!(
        "{precision} Precision L={} ({}x1x1)",
        config.l, config.block_x
    )
}

/// Regenerates Table 2.
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table2",
        "Seven-point stencil Mojo vs CUDA NCU profiling metrics",
    );
    report.push_line("[profile constants: EXPERIMENTS.md \u{00a7} Seven-point stencil]");
    let spec = presets::h100_nvl();
    let mut csv = CsvTable::new([
        "case",
        "backend",
        "duration_ms",
        "compute_sm_pct",
        "memory_pct",
        "l1_ai",
        "l2_ai",
        "l3_ai",
        "perf_flops",
        "registers",
        "ldg",
        "stg",
    ]);

    // The two registry presets (FP64 at L=512, FP32 at L=1024) on the H100
    // pair: Mojo and CUDA.
    let columns = columns::<StencilWorkload>(ExperimentId::Table2, &paper_platform_pairs()[..2]);
    for (mojo, cuda) in columns[0].iter().zip(&columns[1]) {
        let label = case_label(&mojo.config);
        report.push_line(&label);
        let mut table = AsciiTable::new(["ncu metric", "Mojo", "CUDA"]);
        let (mojo, cuda) = (&mojo.timed, &cuda.timed);
        let mojo_prof = ProfileReport::derive(&spec, &mojo.cost, &mojo.profile, &mojo.timing);
        let cuda_prof = ProfileReport::derive(&spec, &cuda.cost, &cuda.profile, &cuda.timing);

        let rows: [MetricRow<ProfileReport>; 10] = [
            ("Duration (ms)", |p| format!("{:.2}", p.duration_ms)),
            ("Compute SM (%)", |p| format!("{:.1}", p.compute_sm_pct)),
            ("Memory (%)", |p| format!("{:.1}", p.memory_pct)),
            ("L1 ai (FLOP/byte)", |p| format!("{:.2}", p.l1_ai)),
            ("L2 ai (FLOP/byte)", |p| format!("{:.2}", p.l2_ai)),
            ("L3 ai (FLOP/byte)", |p| format!("{:.2}", p.l3_ai)),
            ("L1-3 Perf (FLOP/s)", |p| format!("{:.2e}", p.perf_flops)),
            ("Registers", |p| format!("{}", p.registers)),
            ("Load Global (LDG)", |p| format!("{:.0}", p.load_global)),
            ("Store Global (STG)", |p| format!("{:.0}", p.store_global)),
        ];
        for (name, extract) in rows {
            table.push_row([name.to_string(), extract(&mojo_prof), extract(&cuda_prof)]);
        }
        report.push_line(table.render());

        for (backend, prof) in [("Mojo", &mojo_prof), ("CUDA", &cuda_prof)] {
            csv.push_row([
                label.clone(),
                backend.to_string(),
                format!("{}", prof.duration_ms),
                format!("{}", prof.compute_sm_pct),
                format!("{}", prof.memory_pct),
                format!("{}", prof.l1_ai),
                format!("{}", prof.l2_ai),
                format!("{}", prof.l3_ai),
                format!("{}", prof.perf_flops),
                format!("{}", prof.registers),
                format!("{}", prof.load_global),
                format!("{}", prof.store_global),
            ]);
        }
    }
    report.push_table("ncu_metrics", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reproduces_the_papers_row_structure_and_shape() {
        let report = run();
        let text = &report.text;
        for row in [
            "Duration (ms)",
            "Compute SM (%)",
            "Memory (%)",
            "L1 ai",
            "Registers",
            "Load Global (LDG)",
            "Store Global (STG)",
        ] {
            assert!(text.contains(row), "missing row {row}");
        }
        // Registers: Mojo 24/26 vs CUDA 21/20 (Table 2).
        assert!(text.contains("24") && text.contains("21"));
        assert!(text.contains("26") && text.contains("20"));
        // Both profiled cases appear.
        assert!(text.contains("Double Precision L=512"));
        assert!(text.contains("Single Precision L=1024"));
        // The rendered header links the calibration provenance.
        assert!(text.contains("EXPERIMENTS.md"));
        assert_eq!(report.tables[0].rows.len(), 4);
    }
}
