//! Helpers shared by the experiment modules: the analytic rows a kernel
//! experiment renders, timed at its registry presets, and the sampling
//! constants of the jittered plots.

use crate::registry::ExperimentId;
use science_kernels::common::jittered_durations;
use science_kernels::workload::{timed, Family, Timed};
use vendor_models::Platform;

/// Number of repeated (jittered) measurements per configuration, mirroring
/// the paper's "at least 100 runs".
pub const RUNS_PER_CONFIG: usize = 100;

/// Relative run-to-run spread used for the stencil scatter plots (the paper
/// notes visible variability for this kernel).
pub const STENCIL_JITTER: f64 = 0.035;

/// Relative run-to-run spread for BabelStream (the paper notes much less
/// variability thanks to the simple 1-D access pattern).
pub const STREAM_JITTER: f64 = 0.008;

/// The subfigure captions of the paper platform pairs, one per device.
pub const SUBFIGURES: [&str; 2] = ["(a) H100", "(b) MI300A"];

/// One rendered metric row of a profiling table: label plus a per-record
/// extractor.
pub type MetricRow<T> = (&'static str, fn(&T) -> String);

/// One analytic row of a kernel experiment: a registry preset's
/// configuration and kernel, timed on one platform, with its figure of
/// merit.
pub struct Row<F: Family> {
    /// The platform's device name.
    pub device: &'static str,
    /// The preset's decoded configuration.
    pub config: F::Config,
    /// The kernel of the preset this row times.
    pub kernel: F::Kernel,
    /// The analytic half on the row's platform.
    pub timed: Timed,
    /// The family's figure of merit at the modelled duration.
    pub fom: f64,
}

impl<F: Family> Row<F> {
    /// The backend label ("Mojo", "CUDA", "HIP fast-math", …).
    pub fn backend(&self) -> &'static str {
        self.timed.profile.backend
    }

    /// `iterations` jittered repeats of the modelled duration, seeded per
    /// backend and kernel.
    pub fn samples(&self, iterations: usize, sigma: f64, seed: u64) -> Vec<f64> {
        let seconds = self.timed.timing.seconds;
        jittered_durations(
            self.backend(),
            self.timed.kernel,
            seconds,
            iterations,
            sigma,
            seed,
        )
    }
}

/// Times every registry preset of `id` on each of `platforms` with the
/// family's analytic half: one column per platform, each in preset order
/// (a preset's kernels in the family's order). No functional body runs.
pub fn columns<F: Family>(id: ExperimentId, platforms: &[Platform]) -> Vec<Vec<Row<F>>>
where
    F::Config: Copy,
{
    let preset = id
        .spec()
        .workload
        .expect("a kernel experiment names its workload");
    let mut points = Vec::new();
    for params in preset.resolve().expect("registry presets validate") {
        let config = F::config(&params).expect("registry presets decode");
        let kernels = F::kernels(&params).expect("registry presets name their kernels");
        points.extend(kernels.iter().map(|&kernel| (config, kernel)));
    }
    platforms
        .iter()
        .map(|platform| {
            points
                .iter()
                .map(|&(config, kernel)| {
                    let timed = timed::<F>(platform, &config, kernel);
                    Row {
                        device: platform.spec.name,
                        config,
                        kernel,
                        fom: F::fom(&config, kernel, timed.timing.seconds),
                        timed,
                    }
                })
                .collect()
        })
        .collect()
}

/// The portable-to-vendor figure-of-merit ratio at the first row `at`
/// selects in each column.
pub fn ratio<F: Family>(
    portable: &[Row<F>],
    vendor: &[Row<F>],
    at: impl Fn(&Row<F>) -> bool,
) -> f64 {
    let fom = |column: &[Row<F>]| column.iter().find(|row| at(row)).expect("a preset row").fom;
    fom(portable) / fom(vendor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use science_kernels::babelstream::workload::BabelStreamWorkload;
    use science_kernels::minibude::workload::MiniBudeWorkload;
    use science_kernels::stencil7::workload::StencilWorkload;
    use science_kernels::workload::paper_platform_pairs;
    use vendor_models::kernel_class::StreamOp;

    #[test]
    fn platform_pairs_are_portable_vs_native() {
        for pair in paper_platform_pairs().chunks(2) {
            assert!(pair[0].backend.is_portable());
            assert!(pair[1].is_vendor_baseline());
        }
    }

    #[test]
    fn stream_op_mapping_is_total_and_consistent() {
        // Every operation's figure of merit counts the arrays it moves.
        let config = science_kernels::babelstream::BabelStreamConfig {
            n: 1 << 20,
            precision: gpu_spec::Precision::Fp64,
            validate: false,
        };
        for op in StreamOp::ALL {
            let bytes = f64::from(op.array_multiplier()) * (8 << 20) as f64;
            let fom = BabelStreamWorkload::fom(&config, op, 1e-3);
            assert!((fom - bytes / 1e-3 / 1e9).abs() < 1e-9, "{op}: {fom}");
        }
    }

    #[test]
    fn figures_of_merit_are_positive() {
        let platforms = paper_platform_pairs();
        let stencil = columns::<StencilWorkload>(ExperimentId::Fig3, &platforms[1..2]);
        assert!(stencil[0].iter().all(|row| row.fom > 100.0));

        let stream = columns::<BabelStreamWorkload>(ExperimentId::Fig4, &platforms[..1]);
        let triad = stream[0].iter().find(|row| row.kernel == StreamOp::Triad);
        assert!(triad.expect("fig4 times Triad").fom > 1000.0);

        let bude = columns::<MiniBudeWorkload>(ExperimentId::Fig6, &[Platform::cuda_h100(true)]);
        assert!(bude[0].iter().all(|row| row.fom > 100.0));
    }
}
