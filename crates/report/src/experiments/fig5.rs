//! Figure 5 — instruction-mix comparison of the Triad kernel (the paper's
//! SASS listing, reproduced as an instruction-mix diff; see DESIGN.md).

use super::support::{columns, MetricRow};
use crate::registry::ExperimentId;
use crate::render::AsciiTable;
use crate::report::ExperimentReport;
use gpu_sim::isa::{InstructionMix, MixComparison};
use hpc_metrics::output::CsvTable;
use science_kernels::babelstream::workload::BabelStreamWorkload;
use science_kernels::workload::paper_platform_pairs;

/// Builds the Mojo-vs-CUDA instruction-mix comparison for Triad, the
/// registry preset's one operation, on the H100.
pub fn comparison() -> MixComparison {
    let columns = columns::<BabelStreamWorkload>(ExperimentId::Fig5, &paper_platform_pairs()[..2]);
    let mix =
        |p: usize| InstructionMix::derive(&columns[p][0].timed.cost, &columns[p][0].timed.profile);
    MixComparison::new(mix(0), mix(1))
}

/// Regenerates Figure 5.
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig5",
        "Mojo vs CUDA generated-code comparison for BabelStream Triad (instruction mix)",
    );
    let cmp = comparison();

    let mut table = AsciiTable::new(["per-thread instruction class", "Mojo", "CUDA"]);
    let rows: [MetricRow<InstructionMix>; 7] = [
        ("Global loads (LDG)", |m| format!("{:.1}", m.ldg)),
        ("Global stores (STG)", |m| format!("{:.1}", m.stg)),
        ("Constant loads (LDC)", |m| format!("{}", m.ldc)),
        ("FMA", |m| format!("{:.2}", m.fma)),
        ("Integer add (IADD3)", |m| format!("{:.1}", m.iadd)),
        ("SFU (MUFU)", |m| format!("{:.2}", m.mufu)),
        ("Live registers", |m| format!("{}", m.live_registers)),
    ];
    for (name, extract) in rows {
        table.push_row([
            name.to_string(),
            extract(&cmp.portable),
            extract(&cmp.vendor),
        ]);
    }
    report.push_line(table.render());

    report.push_line("Observations (paper Figure 5):");
    report.push_line(format!(
        "  (i)   Mojo issues fewer constant loads: {}",
        cmp.portable_has_fewer_constant_loads()
    ));
    report.push_line(format!(
        "  (ii)  Mojo issues more integer adds in the main loop: {}",
        cmp.portable_has_more_iadd()
    ));
    report.push_line(format!(
        "  (iii) Global loads/stores are identical: {}",
        cmp.global_accesses_match()
    ));

    let mut csv = CsvTable::new([
        "backend",
        "ldg",
        "stg",
        "ldc",
        "fma",
        "iadd",
        "mufu",
        "registers",
    ]);
    for mix in [&cmp.portable, &cmp.vendor] {
        csv.push_row([
            mix.backend.to_string(),
            format!("{}", mix.ldg),
            format!("{}", mix.stg),
            format!("{}", mix.ldc),
            format!("{}", mix.fma),
            format!("{}", mix.iadd),
            format!("{}", mix.mufu),
            format!("{}", mix.live_registers),
        ]);
    }
    report.push_table("instruction_mix", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_reproduces_all_three_observations() {
        let cmp = comparison();
        assert!(cmp.portable_has_fewer_constant_loads());
        assert!(cmp.portable_has_more_iadd());
        assert!(cmp.global_accesses_match());
    }

    #[test]
    fn fig5_report_states_the_observations() {
        let report = run();
        assert!(report.text.contains("fewer constant loads: true"));
        assert!(report
            .text
            .contains("more integer adds in the main loop: true"));
        assert!(report.text.contains("identical: true"));
        assert_eq!(report.tables[0].rows.len(), 2);
    }
}
