//! Figure 2 — roofline placement of the four workloads on the H100.

use crate::render::AsciiTable;
use crate::report::ExperimentReport;
use gpu_sim::ProfileReport;
use gpu_spec::{presets, Precision};
use hpc_metrics::output::CsvTable;
use hpc_metrics::{Roofline, RooflinePoint};
use science_kernels::babelstream::{workload::BabelStreamWorkload, BabelStreamConfig};
use science_kernels::hartree_fock::{workload::HartreeFockWorkload, HartreeFockConfig};
use science_kernels::minibude::{workload::MiniBudeWorkload, MiniBudeConfig};
use science_kernels::stencil7::{workload::StencilWorkload, StencilConfig};
use science_kernels::workload::{timed, Timed};
use vendor_models::kernel_class::StreamOp;
use vendor_models::Platform;

/// Regenerates Figure 2: measured `(arithmetic intensity, FLOP/s)` points for
/// the four kernels against the H100 roofline, using the vendor (CUDA)
/// baselines exactly as the paper's NSight roofline does. The figure has no
/// registry preset, so its paper configurations are literal here.
pub fn run() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig2",
        "Roofline representation of the workloads on the NVIDIA H100",
    );
    let platform = Platform::cuda_h100(false);
    let spec = presets::h100_nvl();
    let roofline_point = |label: &str, timed: Timed| {
        let (ai, flops) = ProfileReport::derive(&spec, &timed.cost, &timed.profile, &timed.timing)
            .roofline_point();
        RooflinePoint::new(label, ai, flops)
    };

    let stencil = StencilConfig::paper(512, Precision::Fp64);
    let stream = BabelStreamConfig::paper(Precision::Fp64);
    let bude = MiniBudeConfig::paper(8, 64);
    let hf = HartreeFockConfig::paper(256, 3);
    let points = [
        (
            "seven-point stencil",
            timed::<StencilWorkload>(&platform, &stencil, ()),
            Precision::Fp64,
        ),
        (
            "BabelStream Triad",
            timed::<BabelStreamWorkload>(&platform, &stream, StreamOp::Triad),
            Precision::Fp64,
        ),
        (
            "BabelStream Dot",
            timed::<BabelStreamWorkload>(&platform, &stream, StreamOp::Dot),
            Precision::Fp64,
        ),
        (
            "miniBUDE fasten",
            timed::<MiniBudeWorkload>(&Platform::cuda_h100(true), &bude, ()),
            Precision::Fp32,
        ),
        (
            "Hartree-Fock",
            timed::<HartreeFockWorkload>(&platform, &hf, ()),
            Precision::Fp64,
        ),
    ]
    .map(|(label, timed, precision)| (roofline_point(label, timed), precision));

    let mut table = AsciiTable::new([
        "Kernel",
        "AI (FLOP/byte)",
        "Achieved GFLOP/s",
        "Roofline GFLOP/s",
        "Region",
    ]);
    let mut csv = CsvTable::new([
        "kernel",
        "arithmetic_intensity",
        "achieved_flops",
        "attainable_flops",
        "memory_bound",
    ]);
    for (point, precision) in &points {
        let roof = Roofline::of(&spec, *precision);
        let attainable = roof.attainable(point.arithmetic_intensity);
        let region = if roof.is_memory_bound(point) {
            "memory-bound"
        } else {
            "compute-bound"
        };
        table.push_row([
            point.label.clone(),
            format!("{:.2}", point.arithmetic_intensity),
            format!("{:.1}", point.achieved_flops / 1e9),
            format!("{:.1}", attainable / 1e9),
            region.to_string(),
        ]);
        csv.push_row([
            point.label.clone(),
            format!("{}", point.arithmetic_intensity),
            format!("{}", point.achieved_flops),
            format!("{}", attainable),
            format!("{}", roof.is_memory_bound(point)),
        ]);
    }
    report.push_line(table.render());

    // Ceiling series for plotting the roofline itself.
    let mut ceiling = CsvTable::new([
        "arithmetic_intensity",
        "attainable_flops_fp32",
        "attainable_flops_fp64",
    ]);
    let roof32 = Roofline::of(&spec, Precision::Fp32);
    let roof64 = Roofline::of(&spec, Precision::Fp64);
    for (ai, f32ceil) in roof32.ceiling_series(0.01, 1000.0, 61) {
        ceiling.push_row([
            format!("{ai}"),
            format!("{f32ceil}"),
            format!("{}", roof64.attainable(ai)),
        ]);
    }
    report.push_table("points", csv);
    report.push_table("ceiling", ceiling);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_classifies_kernels_like_the_paper() {
        let report = run();
        let text = &report.text;
        // Memory-bound: stencil and BabelStream. Compute-bound: miniBUDE and
        // Hartree-Fock.
        for needle in [
            "seven-point stencil",
            "BabelStream Triad",
            "miniBUDE",
            "Hartree-Fock",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        let lines: Vec<&str> = text.lines().collect();
        let region_of = |name: &str| {
            lines
                .iter()
                .find(|l| l.contains(name))
                .map(|l| {
                    if l.contains("memory-bound") {
                        "memory"
                    } else {
                        "compute"
                    }
                })
                .unwrap()
        };
        assert_eq!(region_of("seven-point stencil"), "memory");
        assert_eq!(region_of("BabelStream Triad"), "memory");
        assert_eq!(region_of("miniBUDE fasten"), "compute");
        assert_eq!(region_of("Hartree-Fock"), "compute");
        assert_eq!(report.tables.len(), 2);
    }
}
