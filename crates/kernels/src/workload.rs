//! The workload abstraction: every kernel driver behind one parameterizable
//! interface.
//!
//! A [`Workload`] is a named, self-describing scenario engine: it publishes
//! its tunable parameters ([`ParamSpec`]) with defaults, validates a concrete
//! assignment ([`Params`]), and runs the underlying kernel drivers across the
//! paper's portable/vendor platform pairs, returning uniform
//! [`Measurement`] rows. The report crate's registry, the `mojo-hpc sweep`
//! command and the `serve` daemon all drive kernels through this layer, so a
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
use gpu_sim::{PooledString, PooledVec, SimError};
use std::fmt;
use std::sync::{Arc, OnceLock};
use vendor_models::Platform;

/// A typed parameter value: workloads are tuned by unsigned integers
/// (problem sizes, counts) and keywords (precisions, operation names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamValue {
    /// An unsigned integer parameter.
    Int(u64),
    /// A keyword parameter, stored lowercase. A value is built before it is
    /// validated, so a rejected one is freed with its assignment; cloning an
    /// assignment is a refcount bump.
    Text(Arc<str>),
}

impl ParamValue {
    /// A keyword value (lowercased on construction).
    pub fn text(s: &str) -> ParamValue {
        if s.bytes().any(|b| b.is_ascii_uppercase()) {
            ParamValue::Text(s.to_ascii_lowercase().into())
        } else {
            ParamValue::Text(s.into())
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
/// The labels are static and the verification text is pooled, so building,
/// cloning and dropping rows on the sweep hot path is allocation-free once
/// the pool is warm, and a dropped row keeps nothing resident.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Device name (e.g. "NVIDIA H100 NVL - 94 GB").
    pub device: &'static str,
    /// Backend label ("Mojo", "CUDA", "HIP", …).
    pub backend: &'static str,
    /// Kernel name within the workload ("laplacian", "Triad", …).
    pub kernel: &'static str,
    /// Simulated kernel duration in seconds (0 when the scenario has no
    /// timing model, e.g. the sampled Hartree–Fock validation).
    pub seconds: f64,
    /// The workload's figure of merit (see [`Workload::fom_label`]).
    pub fom: f64,
    /// Rendered verification outcome (`passed(…)` / `skipped(…)`).
    pub verification: PooledString,
}

impl Measurement {
    /// Builds a measurement from a driver run record and its figure of merit.
    pub fn from_run(run: &WorkloadRun, fom: f64) -> Measurement {
        Measurement {
            device: run.device,
            backend: run.backend,
            kernel: run.kernel,
            seconds: run.seconds(),
            fom,
            verification: render_verification(&run.verification),
        }
    }
}

/// Renders a verification outcome as a short deterministic token, in pooled
/// storage: the steady state is a shelf pop, not an allocation.
pub fn render_verification(verification: &Verification) -> PooledString {
    match verification {
        Verification::Passed { max_abs_error } => {
            PooledString::from_fmt(format_args!("passed(max_abs_err={max_abs_error:.3e})"))
        }
        Verification::Skipped { reason } => {
            PooledString::from_fmt(format_args!("skipped({reason})"))
        }
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

impl WorkloadOutput {
    /// Resident bytes: each row plus the pool block of its verification
    /// text, and the pool block of the parameter assignment. A pooled
    /// block is the size class of what it holds.
    pub fn resident_bytes(&self) -> u64 {
        use std::mem::size_of;
        let block = gpu_sim::pool::class_bytes;
        let rows: usize = self
            .measurements
            .iter()
            .map(|m| size_of::<Measurement>() + block(m.verification.len()))
            .sum();
        let params = block(self.params.values.len() * size_of::<(&str, ParamValue)>());
        (rows + params) as u64
    }
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

    /// Representative sizes (values of [`Workload::size_param`]) for
    /// functional host-side runs — the steady-state allocation gate runs
    /// them and the benchmark seeds its sweeps near them; small enough to
    /// execute functionally in every case.
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
            reason: PooledString::from("too large"),
        };
        assert_eq!(render_verification(&skipped), "skipped(too large)");
    }

    /// The verification tokens keep their bytes: one passed, one skipped per
    /// family and one sampled token, as the CSV/JSON cells print them.
    #[test]
    fn verification_tokens_keep_their_bytes() {
        let token = |name: &str, encoding: &str| {
            let engine = find(name).expect("registered workload");
            let mut params = engine.default_params();
            params.apply_encoding(encoding).expect("valid assignment");
            let output = engine.run(&params).expect("run succeeds");
            output.measurements[0].verification.to_string()
        };
        let platform = &paper_platform_pairs()[0];
        let stream = crate::babelstream::run(
            platform,
            vendor_models::StreamOp::Copy,
            &crate::babelstream::BabelStreamConfig::paper(gpu_spec::Precision::Fp64),
        )
        .expect("cost-model run");
        let bude = crate::minibude::run(
            platform,
            &crate::minibude::MiniBudeConfig {
                executed_poses: 0,
                ..crate::minibude::MiniBudeConfig::paper(8, 64)
            },
        )
        .expect("cost-model run");
        let cases = [
            (
                token("stencil", "l=16,precision=fp32"),
                "passed(max_abs_err=7.324e-4)",
            ),
            (
                token("stencil", "l=200"),
                "skipped(L = 200 exceeds the functional-execution limit; cost model only)",
            ),
            (
                render_verification(&stream.verification).to_string(),
                "skipped(functional execution disabled for this configuration)",
            ),
            (
                render_verification(&bude.verification).to_string(),
                "skipped(functional execution disabled (executed_poses = 0))",
            ),
            (
                token("hartree-fock", "atoms=200"),
                "skipped(natoms = 200 exceeds the functional-execution limit; cost model only)",
            ),
            (
                token("jacobi", "l=200"),
                "skipped(L = 200 exceeds the functional-execution limit; cost model only)",
            ),
            (
                token("framestream", "n=100000000"),
                "skipped(6400000000 streamed elements exceed the functional-execution budget; \
                 cost model only)",
            ),
            (
                token("hartree-fock-sampled", "atoms=16,samples=64,shards=4"),
                "passed(eri=0.000e0,fock=0.000e0,exact_survivors=9316,estimate_err=0.00%)",
            ),
        ];
        for (rendered, expected) in cases {
            assert_eq!(rendered, expected);
        }
    }
}
