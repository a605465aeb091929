//! Experiment registry: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! Each experiment in [`experiments`] produces an [`ExperimentReport`]: a
//! console rendering that mirrors the paper's presentation (rows of a table,
//! series of a figure) plus CSV tables written under `target/experiments/`
//! for post-processing — the role the paper's Python plotting scripts play in
//! its artifact.
//!
//! | Id | Paper element | Module |
//! |----|---------------|--------|
//! | `table1` | Table 1/6 — GPU hardware | [`experiments::table1`] |
//! | `fig2`   | Figure 2 — roofline of the four kernels | [`experiments::fig2`] |
//! | `fig3`   | Figure 3 — stencil bandwidth scatter | [`experiments::fig3`] |
//! | `table2` | Table 2 — stencil NCU profile | [`experiments::table2`] |
//! | `fig4`   | Figure 4 — BabelStream bandwidth | [`experiments::fig4`] |
//! | `table3` | Table 3 — BabelStream NCU profile | [`experiments::table3`] |
//! | `fig5`   | Figure 5 — Triad instruction mix | [`experiments::fig5`] |
//! | `fig6`   | Figure 6 — miniBUDE on the H100 | [`experiments::fig6`] |
//! | `fig7`   | Figure 7 — miniBUDE on the MI300A | [`experiments::fig7`] |
//! | `table4` | Table 4 — Hartree–Fock wall-clock | [`experiments::table4`] |
//! | `table5` | Table 5 — performance-portability Φ | [`experiments::table5`] |

#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod dispatch;
pub mod experiments;
pub mod prelude;
pub mod registry;
pub mod render;
pub mod report;
pub mod serve;
pub mod shard;
pub mod sweep;

pub use dispatch::{DispatchPolicy, DispatchSummary};
pub use registry::{
    all_experiments, run_experiment, run_experiments, ExperimentId, ExperimentSpec, WorkloadPreset,
    EXPERIMENTS,
};
pub use report::ExperimentReport;
pub use serve::ServeConfig;
pub use shard::{ShardDocument, ShardManifest, ShardSpec};
pub use sweep::{run_sweep, SweepSpec};
