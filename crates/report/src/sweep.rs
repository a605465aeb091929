//! The parameter-sweep engine: any registered workload, any sizes, one
//! deterministic report.
//!
//! A sweep takes a [`Workload`](workload::Workload), a base parameter
//! assignment and a list of values for the workload's size parameter, runs
//! every point concurrently over the persistent pool (the points are
//! independent), and renders the measurements as an [`ExperimentReport`] —
//! so sweeps share the CSV and JSON emitters, the `--out` handling and the
//! byte-identical-across-thread-counts contract with the paper experiments.

use crate::report::ExperimentReport;
use hpc_metrics::output::CsvTable;
use rayon::prelude::*;
use science_kernels::workload::{self, ParamValue, Params, WorkloadError, WorkloadOutput};
use std::borrow::Borrow;

/// A fully resolved sweep request.
pub struct SweepSpec {
    /// The scenario engine to drive.
    pub workload: &'static workload::Workload,
    /// Base assignment every point starts from (defaults + CLI overrides).
    pub base: Params,
    /// Values of the workload's size parameter, in presentation order.
    pub sizes: Vec<u64>,
}

impl SweepSpec {
    /// Builds a sweep over `workload` from `key=value` overrides and sizes,
    /// validating every resulting point assignment up front.
    pub fn new(
        engine: &'static workload::Workload,
        overrides: &[String],
        sizes: Vec<u64>,
    ) -> Result<SweepSpec, WorkloadError> {
        if sizes.is_empty() {
            return Err(WorkloadError::new("a sweep needs at least one size"));
        }
        let mut base = engine.default_params();
        for assignment in overrides {
            base.apply_assignment(assignment)?;
        }
        let spec = SweepSpec {
            workload: engine,
            base,
            sizes,
        };
        for size in &spec.sizes {
            engine.validate(&spec.point(*size)?)?;
        }
        Ok(spec)
    }

    /// The parameter assignment of one sweep point.
    pub fn point(&self, size: u64) -> Result<Params, WorkloadError> {
        let mut params = self.base.clone();
        params.set(self.workload.size_param(), ParamValue::Int(size))?;
        Ok(params)
    }
}

/// Runs every point of a sweep and renders the result.
///
/// Points run concurrently via the slice lane of the rayon shim
/// (`sizes.par_iter()`); order and content are thread-count independent
/// because collection preserves input order and the workloads are
/// deterministic.
pub fn run_sweep(spec: &SweepSpec) -> Result<ExperimentReport, WorkloadError> {
    let outputs: Vec<Result<WorkloadOutput, WorkloadError>> = spec
        .sizes
        .par_iter()
        .map(|&size| spec.workload.run(&spec.point(size)?))
        .collect();
    let outputs: Vec<WorkloadOutput> = outputs.into_iter().collect::<Result<_, _>>()?;
    Ok(render_sweep(spec, &outputs))
}

/// The empty report envelope of a sweep: id `sweep_<workload>` and the
/// title naming the full point count. The shard merge lane rebuilds the
/// envelope from the coordinator's spec and splices worker-rendered points
/// into it, so the envelope must depend only on the spec — never on the
/// outputs.
pub fn report_envelope(spec: &SweepSpec) -> ExperimentReport {
    let engine = spec.workload;
    ExperimentReport::new(
        format!("sweep_{}", engine.name().replace('-', "_")),
        format!(
            "{} — sweep over {} ({} points)",
            engine.description(),
            engine.size_param(),
            spec.sizes.len()
        ),
    )
}

/// The column names of a workload's `sweep` table.
pub fn table_header(engine: &workload::Workload) -> Vec<String> {
    [
        "workload",
        engine.size_param(),
        "params",
        "device",
        "backend",
        "kernel",
        "seconds",
        engine.fom_label(),
        "verification",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

/// Renders sweep outputs as an experiment-shaped report (id
/// `sweep_<workload>`, one CSV table named `sweep`).
///
/// Public so the serve layer (DESIGN.md §13) can render the `Arc`-shared
/// per-point outputs of its Params-keyed cache without copying rows;
/// `outputs` must be in `spec.sizes` order.
pub fn render_sweep(spec: &SweepSpec, outputs: &[impl Borrow<WorkloadOutput>]) -> ExperimentReport {
    let engine = spec.workload;
    let mut report = report_envelope(spec);
    let mut csv = CsvTable::new(table_header(engine));
    for (size, output) in spec.sizes.iter().zip(outputs) {
        let output = output.borrow();
        let encoding = output.params.encode();
        report.push_line(format!("{}={size}  [{encoding}]", engine.size_param()));
        for m in &output.measurements {
            report.push_line(format!(
                "  {} {} {} {} = {}",
                m.device,
                m.backend,
                m.kernel,
                engine.fom_label(),
                m.fom
            ));
            csv.push_row([
                engine.name().to_string(),
                size.to_string(),
                encoding.clone(),
                m.device.to_string(),
                m.backend.to_string(),
                m.kernel.to_string(),
                format!("{}", m.seconds),
                format!("{}", m.fom),
                m.verification.to_string(),
            ]);
        }
    }
    report.push_table("sweep", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stencil() -> &'static workload::Workload {
        workload::find("stencil").unwrap()
    }

    #[test]
    fn sweep_validates_every_point_up_front() {
        assert!(SweepSpec::new(stencil(), &[], vec![]).is_err());
        // l=2 is a degenerate grid: rejected before anything runs.
        assert!(SweepSpec::new(stencil(), &[], vec![24, 2]).is_err());
        assert!(SweepSpec::new(stencil(), &["bogus=1".to_string()], vec![24]).is_err());
        assert!(SweepSpec::new(stencil(), &[], vec![24, 32]).is_ok());
    }

    #[test]
    fn sweep_reports_one_row_per_platform_and_size() {
        let spec =
            SweepSpec::new(stencil(), &["precision=fp32".to_string()], vec![16, 24]).unwrap();
        let report = run_sweep(&spec).unwrap();
        assert_eq!(report.id, "sweep_stencil");
        assert_eq!(report.tables.len(), 1);
        let table = &report.tables[0];
        assert_eq!(table.name, "sweep");
        assert_eq!(table.header[1], "l");
        assert_eq!(table.rows.len(), 2 * 4, "2 sizes x 4 platforms");
        assert!(table.rows.iter().all(|r| r[2].contains("precision=fp32")));
        assert!(report.text.contains("l=16"));
        assert!(report.text.contains("l=24"));
    }

    #[test]
    fn sweep_output_is_identical_at_one_thread() {
        let spec = SweepSpec::new(stencil(), &[], vec![16, 20]).unwrap();
        let wide = run_sweep(&spec).unwrap();
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| run_sweep(&spec).unwrap());
        assert_eq!(wide.render(), serial.render());
        assert_eq!(wide.to_json_pretty(), serial.to_json_pretty());
    }

    #[test]
    fn sampled_hartree_fock_sweeps_through_the_same_engine() {
        let spec = SweepSpec::new(
            workload::find("hartree-fock-sampled").unwrap(),
            &["samples=128".to_string(), "shards=4".to_string()],
            vec![64],
        )
        .unwrap();
        let report = run_sweep(&spec).unwrap();
        assert_eq!(report.id, "sweep_hartree_fock_sampled");
        let table = &report.tables[0];
        assert_eq!(table.rows.len(), 1);
        assert!(table.rows[0][8].contains("exact_survivors="));
    }
}
