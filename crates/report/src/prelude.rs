//! Convenience prelude for experiment drivers (the examples).

pub use crate::registry::{all_experiments, run_experiment, run_experiments, ExperimentId};
pub use crate::render::{AsciiTable, Series};
pub use crate::report::ExperimentReport;
