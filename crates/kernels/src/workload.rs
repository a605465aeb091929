//! The workload abstraction: every kernel driver behind one parameterizable
//! interface.
//!
//! A [`Workload`] is a named, self-describing scenario engine: it publishes
//! its tunable parameters ([`ParamSpec`]) with defaults, validates a concrete
//! assignment ([`Params`]), and runs the underlying kernel drivers across the
//! paper's portable/vendor platform pairs, returning uniform
//! [`Measurement`] rows. The report crate's registry, the `mojo-hpc sweep`
//! command and the bench targets all drive kernels through this layer, so a
//! paper figure is just a preset parameter assignment and a new scenario is a
//! parameter choice rather than a new driver.
//!
//! | Name | Kernel | Figure of merit | Sweep axis |
//! |---|---|---|---|
//! | `stencil` | [`crate::stencil7`] | `bandwidth_gbs` (Eq. 1) | `l` |
//! | `babelstream` | [`crate::babelstream`] | `bandwidth_gbs` (Eq. 2) | `n` |
//! | `minibude` | [`crate::minibude`] | `gflops` (Eq. 3) | `ppwi` |
//! | `hartree-fock` | [`crate::hartree_fock`] | `millis` | `atoms` |
//! | `hartree-fock-sampled` | [`crate::hartree_fock`] (sampled) | `estimated_survivors` | `atoms` |
//! | `jacobi` | [`crate::jacobi`] | `bandwidth_gbs` (§15) | `l` |
//! | `framestream` | [`crate::framestream`] | `bandwidth_gbs` (§15) | `n` |

use crate::common::{Verification, WorkloadRun};
use gpu_sim::{istr, istr_fmt, IStr, PooledVec, SimError};
use std::fmt;
use std::sync::OnceLock;
use vendor_models::Platform;

/// A typed parameter value: workloads are tuned by unsigned integers
/// (problem sizes, counts) and keywords (precisions, operation names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamValue {
    /// An unsigned integer parameter.
    Int(u64),
    /// A keyword parameter, stored lowercase. Interned: keywords come from a
    /// small fixed vocabulary, so cloning an assignment never allocates.
    Text(IStr),
}

impl ParamValue {
    /// A keyword value (lowercased on construction). Already-lowercase input
    /// — the steady-state case — interns without an intermediate copy.
    pub fn text(s: &str) -> ParamValue {
        if s.bytes().any(|b| b.is_ascii_uppercase()) {
            ParamValue::Text(istr(&s.to_ascii_lowercase()))
        } else {
            ParamValue::Text(istr(s))
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(n) => write!(f, "{n}"),
            ParamValue::Text(s) => f.write_str(s),
        }
    }
}

/// Specification of one tunable parameter of a workload.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter name (the `key` of a `key=value` assignment).
    pub name: &'static str,
    /// Default value; its variant also fixes the parameter's type.
    pub default: ParamValue,
    /// One-line description shown by `mojo-hpc list`.
    pub help: &'static str,
}

impl ParamSpec {
    /// An integer parameter.
    pub fn int(name: &'static str, default: u64, help: &'static str) -> ParamSpec {
        ParamSpec {
            name,
            default: ParamValue::Int(default),
            help,
        }
    }

    /// A keyword parameter.
    pub fn text(name: &'static str, default: &str, help: &'static str) -> ParamSpec {
        ParamSpec {
            name,
            default: ParamValue::text(default),
            help,
        }
    }
}

/// Error raised by parameter handling or a workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadError {
    message: String,
}

impl WorkloadError {
    /// Creates an error with a message.
    pub fn new(message: impl Into<String>) -> Self {
        WorkloadError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WorkloadError {}

impl From<SimError> for WorkloadError {
    fn from(e: SimError) -> Self {
        WorkloadError::new(e.to_string())
    }
}

/// A complete assignment of every parameter of one workload, in spec order.
///
/// Construct it with [`Params::defaults`] from the workload's specs, then
/// override individual values with [`Params::set`] or
/// [`Params::apply_assignment`]. The assignment always contains every
/// parameter (defaults filled in), so [`Params::encode`] is a *stable, total*
/// string encoding: two assignments are equal iff their encodings are equal,
/// and the encoding round-trips through [`Params::apply_encoding`].
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    values: PooledVec<(&'static str, ParamValue)>,
}

impl Params {
    /// The default assignment of a spec set.
    pub fn defaults(specs: &[ParamSpec]) -> Params {
        Params {
            values: specs
                .iter()
                .map(|spec| (spec.name, spec.default.clone()))
                .collect(),
        }
    }

    /// Overrides one parameter. The name must exist and the value's type
    /// must match the spec default's type.
    pub fn set(&mut self, name: &str, value: ParamValue) -> Result<(), WorkloadError> {
        let Some(slot) = self.values.iter_mut().find(|(n, _)| *n == name) else {
            let known: Vec<&str> = self.values.iter().map(|(n, _)| *n).collect();
            return Err(WorkloadError::new(format!(
                "unknown parameter '{name}' (known: {})",
                known.join(", ")
            )));
        };
        if std::mem::discriminant(&slot.1) != std::mem::discriminant(&value) {
            return Err(WorkloadError::new(format!(
                "parameter '{name}' expects {}",
                match slot.1 {
                    ParamValue::Int(_) => "an unsigned integer",
                    ParamValue::Text(_) => "a keyword",
                }
            )));
        }
        slot.1 = value;
        Ok(())
    }

    /// Applies one `key=value` assignment, parsing the value against the
    /// parameter's type.
    pub fn apply_assignment(&mut self, assignment: &str) -> Result<(), WorkloadError> {
        let Some((name, raw)) = assignment.split_once('=') else {
            return Err(WorkloadError::new(format!(
                "malformed parameter '{assignment}' (expected key=value)"
            )));
        };
        let value = match self.get(name) {
            Some(ParamValue::Int(_)) => ParamValue::Int(raw.parse::<u64>().map_err(|_| {
                WorkloadError::new(format!("parameter '{name}': invalid integer '{raw}'"))
            })?),
            Some(ParamValue::Text(_)) | None => ParamValue::text(raw),
        };
        self.set(name, value)
    }

    /// Applies a comma-separated sequence of `key=value` assignments (the
    /// inverse of [`Params::encode`], which also accepts partial encodings).
    pub fn apply_encoding(&mut self, encoding: &str) -> Result<(), WorkloadError> {
        for assignment in encoding.split(',').filter(|s| !s.is_empty()) {
            self.apply_assignment(assignment.trim())?;
        }
        Ok(())
    }

    /// The value of a parameter, if present.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// The integer value of a parameter.
    ///
    /// # Panics
    /// Panics if the parameter is missing or not an integer — construction
    /// through [`Params::defaults`] + [`Params::set`] makes that a
    /// programming error, not an input error.
    pub fn int(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(ParamValue::Int(n)) => *n,
            other => panic!("parameter '{name}' is not an integer: {other:?}"),
        }
    }

    /// The keyword value of a parameter.
    ///
    /// # Panics
    /// Panics if the parameter is missing or not a keyword.
    pub fn text(&self, name: &str) -> &str {
        match self.get(name) {
            Some(ParamValue::Text(s)) => s,
            other => panic!("parameter '{name}' is not a keyword: {other:?}"),
        }
    }

    /// The stable string encoding: every parameter as `key=value`, in spec
    /// order, joined by commas (e.g. `l=512,precision=fp64,block=0`).
    pub fn encode(&self) -> String {
        self.values
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// One measured data point of a workload run: one kernel on one platform.
/// Every string field is interned, so building and cloning rows on the sweep
/// hot path is allocation-free once the label vocabulary is warm.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Device name (e.g. "NVIDIA H100 NVL - 94 GB").
    pub device: IStr,
    /// Backend label ("Mojo", "CUDA", "HIP", …).
    pub backend: IStr,
    /// Kernel name within the workload ("laplacian", "Triad", …).
    pub kernel: IStr,
    /// Simulated kernel duration in seconds (0 when the scenario has no
    /// timing model, e.g. the sampled Hartree–Fock validation).
    pub seconds: f64,
    /// The workload's figure of merit (see [`Workload::fom_label`]).
    pub fom: f64,
    /// Rendered verification outcome (`passed(…)` / `skipped(…)`).
    pub verification: IStr,
}

impl Measurement {
    /// Builds a measurement from a driver run record and its figure of merit.
    pub fn from_run(run: &WorkloadRun, fom: f64) -> Measurement {
        Measurement {
            device: run.device.clone(),
            backend: run.backend.clone(),
            kernel: run.kernel.clone(),
            seconds: run.seconds(),
            fom,
            verification: render_verification(&run.verification),
        }
    }
}

/// Renders a verification outcome as a short deterministic token. Interned:
/// repeated runs of a deterministic workload produce the same token, so the
/// steady state is a lookup, not an allocation.
pub fn render_verification(verification: &Verification) -> IStr {
    match verification {
        Verification::Passed { max_abs_error } => {
            istr_fmt(format_args!("passed(max_abs_err={max_abs_error:.3e})"))
        }
        Verification::Skipped { reason } => istr_fmt(format_args!("skipped({reason})")),
    }
}

/// The result of running one workload at one parameter assignment.
#[derive(Debug, Clone)]
pub struct WorkloadOutput {
    /// The fully resolved parameter assignment that produced the rows.
    pub params: Params,
    /// One row per (platform, kernel) pair, in deterministic order, in
    /// pooled storage so repeated runs recycle the row buffer.
    pub measurements: PooledVec<Measurement>,
}

/// A parameterizable scenario engine wrapping one kernel family's drivers.
///
/// Implementations are stateless unit structs registered in [`all()`](all); the
/// trait is object-safe so the registry, CLI and sweep engine can treat every
/// workload uniformly.
pub trait Workload: Sync {
    /// Stable workload name (`stencil`, `babelstream`, …).
    fn name(&self) -> &'static str;

    /// One-line description shown by `mojo-hpc list`.
    fn description(&self) -> &'static str;

    /// Label of the figure-of-merit column of this workload's measurements.
    fn fom_label(&self) -> &'static str;

    /// The integer parameter a `--sizes` sweep varies.
    fn size_param(&self) -> &'static str;

    /// The tunable parameters and their defaults.
    fn params(&self) -> Vec<ParamSpec>;

    /// Sizes (values of [`Workload::size_param`]) the bench targets exercise
    /// for functional host-side measurement; small enough to execute
    /// functionally in every case.
    fn bench_sizes(&self) -> &'static [u64];

    /// Validates a complete assignment beyond per-value typing (cross-field
    /// constraints, functional limits).
    fn validate(&self, params: &Params) -> Result<(), WorkloadError>;

    /// Runs the workload at `params`.
    fn run(&self, params: &Params) -> Result<WorkloadOutput, WorkloadError>;

    /// The default parameter assignment.
    fn default_params(&self) -> Params {
        Params::defaults(&self.params())
    }
}

/// Checks that an integer parameter lies in `[min, max]`.
///
/// Every workload bounds its integer parameters with this *before* any
/// narrowing cast or cost-model arithmetic, so out-of-range CLI values are
/// rejected instead of being silently truncated (`u64 as u32`) or
/// overflowing the `u64` byte/FLOP products.
pub fn check_int_range(
    params: &Params,
    name: &str,
    min: u64,
    max: u64,
) -> Result<(), WorkloadError> {
    let value = params.int(name);
    if value < min || value > max {
        return Err(WorkloadError::new(format!(
            "parameter '{name}' must be in [{min}, {max}], got {value}"
        )));
    }
    Ok(())
}

/// The portable-vs-vendor platform set every timing workload measures, in
/// presentation order: Mojo and the vendor baseline on the H100, then on the
/// MI300A — the pairs the paper's figures compare. Built once: every run of
/// every workload iterates this set, and a `Platform` owns its spec.
pub fn paper_platform_pairs() -> &'static [Platform; 4] {
    static PAIRS: OnceLock<[Platform; 4]> = OnceLock::new();
    PAIRS.get_or_init(|| {
        [
            Platform::portable_h100(),
            Platform::cuda_h100(false),
            Platform::portable_mi300a(),
            Platform::hip_mi300a(false),
        ]
    })
}

/// Every registered workload, in presentation order (the composite patterns
/// of §15 follow the paper's four proxies).
pub fn all() -> [&'static dyn Workload; 7] {
    [
        &crate::stencil7::workload::StencilWorkload,
        &crate::babelstream::workload::BabelStreamWorkload,
        &crate::minibude::workload::MiniBudeWorkload,
        &crate::hartree_fock::workload::HartreeFockWorkload,
        &crate::hartree_fock::workload::HartreeFockSampledWorkload,
        &crate::jacobi::workload::JacobiWorkload,
        &crate::framestream::workload::FrameStreamWorkload,
    ]
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static dyn Workload> {
    all().into_iter().find(|w| w.name() == name)
}

/// The comma-separated list of every registered workload name, for usage
/// and preset error messages.
pub fn known_names() -> String {
    all()
        .iter()
        .map(|w| w.name())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<ParamSpec> {
        vec![
            ParamSpec::int("l", 192, "grid side"),
            ParamSpec::text("precision", "fp64", "fp32|fp64"),
        ]
    }

    #[test]
    fn params_encode_round_trips() {
        let mut params = Params::defaults(&specs());
        assert_eq!(params.encode(), "l=192,precision=fp64");
        params.apply_encoding("l=512,precision=FP32").unwrap();
        assert_eq!(params.encode(), "l=512,precision=fp32");
        let mut again = Params::defaults(&specs());
        again.apply_encoding(&params.encode()).unwrap();
        assert_eq!(again, params);
    }

    #[test]
    fn params_reject_unknown_names_and_type_mismatches() {
        let mut params = Params::defaults(&specs());
        assert!(params.apply_assignment("bogus=3").is_err());
        assert!(params.apply_assignment("l=abc").is_err());
        assert!(params.apply_assignment("l").is_err());
        assert!(params.set("precision", ParamValue::Int(3)).is_err());
        assert_eq!(params.encode(), "l=192,precision=fp64");
    }

    #[test]
    fn registry_finds_every_workload_by_its_own_name() {
        for workload in all() {
            let found = find(workload.name()).expect("registered workload");
            assert_eq!(found.name(), workload.name());
            // Every workload's size parameter is a real integer parameter.
            let params = workload.default_params();
            let _ = params.int(workload.size_param());
            workload.validate(&params).expect("defaults validate");
            assert!(!workload.bench_sizes().is_empty());
        }
        assert!(find("frobnicate").is_none());
    }

    #[test]
    fn verification_rendering_is_deterministic() {
        let passed = Verification::Passed {
            max_abs_error: 1.25e-12,
        };
        assert_eq!(
            render_verification(&passed),
            "passed(max_abs_err=1.250e-12)"
        );
        let skipped = Verification::Skipped {
            reason: istr("too large"),
        };
        assert_eq!(render_verification(&skipped), "skipped(too large)");
    }
}
