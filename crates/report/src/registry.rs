//! The experiment registry: a data-driven table of every reproducible paper
//! element.
//!
//! Each entry ([`ExperimentSpec`]) carries the experiment's stable string id,
//! its paper caption, the builder that regenerates it, and — for every
//! element that measures a kernel — the [`science_kernels::workload`] name
//! plus the parameter presets that reproduce the paper's configurations.
//! The presets make the relationship explicit: a paper figure is the general
//! scenario engine run at pinned parameters, and `mojo-hpc sweep` runs the
//! same engine at any other size.

use crate::experiments;
use crate::report::ExperimentReport;
use rayon::prelude::*;
use science_kernels::workload;
use std::fmt;
use std::str::FromStr;

/// Identifier of one reproducible paper element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Table 1/6 — hardware.
    Table1,
    /// Figure 2 — roofline.
    Fig2,
    /// Figure 3 — stencil bandwidth.
    Fig3,
    /// Table 2 — stencil NCU profile.
    Table2,
    /// Figure 4 — BabelStream bandwidth.
    Fig4,
    /// Table 3 — BabelStream NCU profile.
    Table3,
    /// Figure 5 — Triad instruction mix.
    Fig5,
    /// Figure 6 — miniBUDE on the H100.
    Fig6,
    /// Figure 7 — miniBUDE on the MI300A.
    Fig7,
    /// Table 4 — Hartree-Fock wall-clock.
    Table4,
    /// Table 5 — performance portability Φ.
    Table5,
}

/// The workload behind an experiment: a registered
/// [`science_kernels::workload`] name and the parameter presets (partial
/// `key=value` encodings over the workload's defaults) the paper element
/// pins, in the order the experiment traverses them.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadPreset {
    /// Registered workload name.
    pub workload: &'static str,
    /// One partial parameter encoding per preset point.
    pub presets: &'static [&'static str],
}

impl WorkloadPreset {
    /// Resolves every preset against the workload's defaults, validating
    /// each assignment.
    pub fn resolve(&self) -> Result<Vec<workload::Params>, workload::WorkloadError> {
        let engine = workload::find(self.workload).ok_or_else(|| {
            workload::WorkloadError::new(format!("unknown workload '{}'", self.workload))
        })?;
        self.presets
            .iter()
            .map(|encoding| {
                let mut params = engine.default_params();
                params.apply_encoding(encoding)?;
                engine.validate(&params)?;
                Ok(params)
            })
            .collect()
    }
}

/// One row of the registry: everything the CLI, the dispatcher and the
/// docs need to know about an experiment, in one place.
pub struct ExperimentSpec {
    /// The typed identifier.
    pub id: ExperimentId,
    /// The stable string id ("table2", "fig4", …).
    pub name: &'static str,
    /// The paper caption the experiment regenerates.
    pub title: &'static str,
    /// Builder regenerating the element.
    pub run: fn() -> ExperimentReport,
    /// The workload + parameter presets the element measures, when it
    /// measures one (aggregate/derived elements carry `None`).
    pub workload: Option<WorkloadPreset>,
}

/// Stencil presets of Figure 3, in the figure's traversal order (size-major,
/// FP32 before FP64 — the order the CSV rows appear in).
pub const FIG3_STENCIL_PRESETS: &[&str] = &[
    "l=512,precision=fp32",
    "l=512,precision=fp64",
    "l=1024,precision=fp32",
    "l=1024,precision=fp64",
];

/// miniBUDE presets of Figures 6 and 7: the paper's PPWI sweep at both
/// work-group sizes, work-group-major like the figures.
pub const MINIBUDE_PPWI_PRESETS: &[&str] = &[
    "ppwi=1,wg=8",
    "ppwi=2,wg=8",
    "ppwi=4,wg=8",
    "ppwi=8,wg=8",
    "ppwi=16,wg=8",
    "ppwi=32,wg=8",
    "ppwi=64,wg=8",
    "ppwi=128,wg=8",
    "ppwi=1,wg=64",
    "ppwi=2,wg=64",
    "ppwi=4,wg=64",
    "ppwi=8,wg=64",
    "ppwi=16,wg=64",
    "ppwi=32,wg=64",
    "ppwi=64,wg=64",
    "ppwi=128,wg=64",
];

/// The registry itself, in presentation order.
pub const EXPERIMENTS: [ExperimentSpec; 11] = [
    ExperimentSpec {
        id: ExperimentId::Table1,
        name: "table1",
        title: "GPU hardware used in this study",
        run: experiments::table1::run,
        workload: None,
    },
    ExperimentSpec {
        id: ExperimentId::Fig2,
        name: "fig2",
        title: "Roofline representation of the workloads on the NVIDIA H100",
        run: experiments::fig2::run,
        workload: None,
    },
    ExperimentSpec {
        id: ExperimentId::Fig3,
        name: "fig3",
        title: "Mojo vs CUDA/HIP seven-point stencil effective bandwidth (Eq. 1)",
        run: experiments::fig3::run,
        workload: Some(WorkloadPreset {
            workload: "stencil",
            presets: FIG3_STENCIL_PRESETS,
        }),
    },
    ExperimentSpec {
        id: ExperimentId::Table2,
        name: "table2",
        title: "Seven-point stencil Mojo vs CUDA NCU profiling metrics",
        run: experiments::table2::run,
        workload: Some(WorkloadPreset {
            workload: "stencil",
            presets: &["l=512,precision=fp64", "l=1024,precision=fp32"],
        }),
    },
    ExperimentSpec {
        id: ExperimentId::Fig4,
        name: "fig4",
        title: "Mojo vs CUDA/HIP BabelStream effective bandwidth (Eq. 2), n = 2^25 FP64",
        run: experiments::fig4::run,
        workload: Some(WorkloadPreset {
            workload: "babelstream",
            presets: &["n=33554432,precision=fp64,op=all"],
        }),
    },
    ExperimentSpec {
        id: ExperimentId::Table3,
        name: "table3",
        title: "BabelStream Mojo vs CUDA NCU profiling metrics (n = 2^25 FP64)",
        run: experiments::table3::run,
        workload: Some(WorkloadPreset {
            workload: "babelstream",
            presets: &["n=33554432,precision=fp64,op=all"],
        }),
    },
    ExperimentSpec {
        id: ExperimentId::Fig5,
        name: "fig5",
        title: "Mojo vs CUDA generated-code comparison for BabelStream Triad (instruction mix)",
        run: experiments::fig5::run,
        workload: Some(WorkloadPreset {
            workload: "babelstream",
            presets: &["n=33554432,precision=fp64,op=triad"],
        }),
    },
    ExperimentSpec {
        id: ExperimentId::Fig6,
        name: "fig6",
        title: "miniBUDE GFLOP/s (Eq. 3) vs PPWI on the NVIDIA H100, bm1 deck",
        run: experiments::fig6::run,
        workload: Some(WorkloadPreset {
            workload: "minibude",
            presets: MINIBUDE_PPWI_PRESETS,
        }),
    },
    ExperimentSpec {
        id: ExperimentId::Fig7,
        name: "fig7",
        title: "miniBUDE GFLOP/s (Eq. 3) vs PPWI on the AMD MI300A, bm1 deck",
        run: experiments::fig7::run,
        workload: Some(WorkloadPreset {
            workload: "minibude",
            presets: MINIBUDE_PPWI_PRESETS,
        }),
    },
    ExperimentSpec {
        id: ExperimentId::Table4,
        name: "table4",
        title: "Hartree-Fock kernel execution duration (ms), Mojo vs CUDA and HIP",
        run: experiments::table4::run,
        workload: Some(WorkloadPreset {
            workload: "hartree-fock",
            presets: &[
                "atoms=64,ngauss=3",
                "atoms=128,ngauss=3",
                "atoms=256,ngauss=3",
                "atoms=1024,ngauss=6",
            ],
        }),
    },
    ExperimentSpec {
        id: ExperimentId::Table5,
        name: "table5",
        title: "Mojo performance-portability metric (Eq. 4)",
        run: experiments::table5::run,
        workload: None,
    },
];

impl ExperimentId {
    /// Every experiment in presentation order.
    pub const ALL: [ExperimentId; 11] = [
        ExperimentId::Table1,
        ExperimentId::Fig2,
        ExperimentId::Fig3,
        ExperimentId::Table2,
        ExperimentId::Fig4,
        ExperimentId::Table3,
        ExperimentId::Fig5,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Table4,
        ExperimentId::Table5,
    ];

    /// The registry row of this experiment.
    pub fn spec(&self) -> &'static ExperimentSpec {
        EXPERIMENTS
            .iter()
            .find(|spec| spec.id == *self)
            .expect("every ExperimentId has a registry row")
    }

    /// The stable string id ("table2", "fig4", …).
    pub fn as_str(&self) -> &'static str {
        self.spec().name
    }

    /// The paper caption the experiment regenerates (mirrors the title its
    /// [`ExperimentReport`] carries, without running it).
    pub fn title(&self) -> &'static str {
        self.spec().title
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ExperimentId {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EXPERIMENTS
            .iter()
            .find(|spec| spec.name == s)
            .map(|spec| spec.id)
            .ok_or_else(|| format!("unknown experiment id '{s}'"))
    }
}

/// The comma-separated list of every known experiment id, for usage errors
/// and coordinator diagnostics.
pub fn known_ids() -> String {
    EXPERIMENTS
        .iter()
        .map(|spec| spec.name)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Runs one experiment.
pub fn run_experiment(id: ExperimentId) -> ExperimentReport {
    (id.spec().run)()
}

/// Runs every experiment and returns the reports in presentation order.
///
/// The experiments are independent of one another, so they are dispatched
/// concurrently over the persistent rayon pool. They are analytic and run
/// no kernel body, so the only input they share is the helium system of
/// each Hartree–Fock point (Table 4, Table 5, Figure 2), generated once
/// through `science_kernels::cache` no matter which experiment reaches it
/// first.
/// Output order — and, because the timing model is analytic and the jitter
/// models are seeded, output *content* — is identical to a serial run.
pub fn all_experiments() -> Vec<ExperimentReport> {
    run_experiments(&ExperimentId::ALL)
}

/// Runs a set of experiments concurrently, preserving input order.
pub fn run_experiments(ids: &[ExperimentId]) -> Vec<ExperimentReport> {
    ids.par_iter().map(|&id| run_experiment(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_strings() {
        for id in ExperimentId::ALL {
            let parsed: ExperimentId = id.as_str().parse().unwrap();
            assert_eq!(parsed, id);
            assert_eq!(id.to_string(), id.as_str());
        }
        assert!("table9".parse::<ExperimentId>().is_err());
    }

    #[test]
    fn registry_covers_every_paper_element() {
        assert_eq!(ExperimentId::ALL.len(), 11);
        assert_eq!(EXPERIMENTS.len(), ExperimentId::ALL.len());
        for (spec, id) in EXPERIMENTS.iter().zip(ExperimentId::ALL) {
            assert_eq!(spec.id, id, "registry order matches presentation order");
        }
        // Quick experiments dispatch and produce ids matching the registry.
        for id in [ExperimentId::Table1, ExperimentId::Fig5] {
            let report = run_experiment(id);
            assert_eq!(report.id, id.as_str());
            assert!(!report.text.is_empty());
        }
    }

    #[test]
    fn every_workload_preset_resolves_against_its_engine() {
        let mut kernel_experiments = 0;
        for spec in &EXPERIMENTS {
            let Some(preset) = spec.workload else {
                continue;
            };
            kernel_experiments += 1;
            let resolved = preset
                .resolve()
                .unwrap_or_else(|e| panic!("{} presets: {e}", spec.name));
            assert_eq!(resolved.len(), preset.presets.len());
            // Encodings are total: re-applying a resolved encoding is a
            // fixed point.
            for params in &resolved {
                let engine = workload::find(preset.workload).unwrap();
                let mut again = engine.default_params();
                again.apply_encoding(&params.encode()).unwrap();
                assert_eq!(&again, params);
            }
        }
        // Every kernel-measuring element names its engine: only the
        // hardware table, the roofline and the derived Φ table are exempt.
        assert_eq!(kernel_experiments, 8);
    }

    #[test]
    fn fig3_presets_decode_to_the_papers_stencil_configs() {
        use gpu_spec::Precision;
        use science_kernels::stencil7::{workload as stencil_workload, StencilConfig};
        let preset = ExperimentId::Fig3.spec().workload.unwrap();
        let configs: Vec<StencilConfig> = preset
            .resolve()
            .unwrap()
            .iter()
            .map(|p| stencil_workload::config(p).unwrap())
            .collect();
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
}
