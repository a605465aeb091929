//! The workload abstraction: every kernel driver behind one parameterizable
//! interface.
//!
//! A [`Workload`] is a named, self-describing scenario engine: a static
//! descriptor that publishes its tunable parameters ([`ParamSpec`]) with
//! their defaults and declared domains, validates a concrete assignment
//! ([`Params`]) against those domains and its own cross-parameter rules,
//! and runs the underlying kernels across the paper's portable/vendor
//! platform pairs, returning uniform [`Measurement`] rows. The report
//! crate's registry, the `mojo-hpc sweep` command and the `serve` daemon
//! all drive kernels through this layer, so a paper figure is just a preset
//! parameter assignment and a new scenario is a parameter choice rather
//! than a new driver.
//!
//! The six timing workloads are [`Family`] impls run by one generic driver,
//! `run_family`. A family supplies its configuration, its kernels, the
//! launch its single kernel body runs, that body ([`Family::execute`]) and
//! the analytic inputs of the timing model ([`Family::time`]). The driver
//! executes the body once per distinct (kernel, launch) and builds every
//! platform's row from that platform's timing plus the shared verification,
//! so rows of one launch carry one verification by construction. Every
//! family's public single-platform `run` is `run_on`. The analytic half
//! alone is [`timed`]: the paper experiments render it at their registry
//! presets with [`Family::fom`] and never run a body.
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

use crate::cache;
use crate::common::{Verification, WorkloadRun};
use gpu_sim::error::SimResult;
use gpu_sim::{
    ExecutionProfile, KernelCost, LaunchConfig, LaunchTiming, PooledString, PooledVec, SimError,
};
use std::fmt;
use std::sync::{Arc, OnceLock};
use vendor_models::{KernelClass, Platform};

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

/// The values a parameter may take. The variant fixes the parameter's type
/// and carries its default.
#[derive(Debug, Clone, Copy)]
pub enum Domain {
    /// An unsigned integer in `min..=max`.
    Int {
        /// Default value.
        default: u64,
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// One of a fixed set of lowercase keywords.
    Keyword {
        /// Default keyword.
        default: &'static str,
        /// Every accepted keyword, in the order `list` prints them.
        words: &'static [&'static str],
    },
}

impl fmt::Display for Domain {
    /// `[min, max]` for an integer, `(a|b|c)` for a keyword.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Int { min, max, .. } => write!(f, "[{min}, {max}]"),
            Domain::Keyword { words, .. } => write!(f, "({})", words.join("|")),
        }
    }
}

/// Specification of one tunable parameter of a workload: its name, its
/// declared domain and a help line. Specs are static data; `list` renders
/// them and [`Workload::validate`] checks every value against its domain.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter name (the `key` of a `key=value` assignment).
    pub name: &'static str,
    /// The accepted values and the default.
    pub domain: Domain,
    /// One-line description shown by `mojo-hpc list`, next to the domain.
    pub help: &'static str,
}

impl ParamSpec {
    /// An integer parameter accepting `min..=max`.
    pub const fn int(
        name: &'static str,
        default: u64,
        min: u64,
        max: u64,
        help: &'static str,
    ) -> ParamSpec {
        ParamSpec {
            name,
            domain: Domain::Int { default, min, max },
            help,
        }
    }

    /// A keyword parameter accepting one of `words`.
    pub const fn text(
        name: &'static str,
        default: &'static str,
        words: &'static [&'static str],
        help: &'static str,
    ) -> ParamSpec {
        ParamSpec {
            name,
            domain: Domain::Keyword { default, words },
            help,
        }
    }

    /// The default value.
    pub fn default_value(&self) -> ParamValue {
        match self.domain {
            Domain::Int { default, .. } => ParamValue::Int(default),
            Domain::Keyword { default, .. } => ParamValue::text(default),
        }
    }

    /// Checks that `value` lies in the declared domain. Runs before any
    /// decode, so no narrowing cast or cost-model product ever sees an
    /// out-of-range value.
    fn check(&self, value: &ParamValue) -> Result<(), WorkloadError> {
        let name = self.name;
        match (self.domain, value) {
            (Domain::Int { min, max, .. }, &ParamValue::Int(value))
                if value < min || value > max =>
            {
                Err(WorkloadError::new(format!(
                    "parameter '{name}' must be in [{min}, {max}], got {value}"
                )))
            }
            (Domain::Keyword { .. }, ParamValue::Text(word)) => self.keyword_index(word).map(drop),
            _ => Ok(()),
        }
    }

    /// The position of `word` among this keyword parameter's declared
    /// words, or the error validation gives for a word outside them.
    ///
    /// # Panics
    /// If the parameter is not a keyword.
    pub fn keyword_index(&self, word: &str) -> Result<usize, WorkloadError> {
        let Domain::Keyword { words, .. } = self.domain else {
            panic!("parameter '{}' is not a keyword", self.name);
        };
        words.iter().position(|w| *w == word).ok_or_else(|| {
            let (last, rest) = words.split_last().expect("a keyword domain has words");
            WorkloadError::new(format!(
                "unknown {} '{word}' (expected {} or {last})",
                self.name,
                rest.join(", ")
            ))
        })
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
                .map(|spec| (spec.name, spec.default_value()))
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

/// A parameterizable scenario engine: one static descriptor per workload,
/// registered in [`all()`](all).
///
/// The descriptor is data: the metadata `list` and the sweep renderer
/// print, the parameter specs with their declared domains, the
/// workload's cross-parameter rules, and the function that runs a
/// validated point. The six timing workloads run through `run_family`;
/// only `hartree-fock-sampled` has its own point function.
pub struct Workload {
    pub(crate) name: &'static str,
    pub(crate) description: &'static str,
    pub(crate) fom_label: &'static str,
    pub(crate) size_param: &'static str,
    pub(crate) params: &'static [ParamSpec],
    pub(crate) bench_sizes: &'static [u64],
    /// Rules between parameters, checked once every value is in its domain.
    pub(crate) rules: fn(&Params) -> Result<(), WorkloadError>,
    /// Runs one validated point.
    pub(crate) run_point: fn(&Params) -> Result<WorkloadOutput, WorkloadError>,
}

impl Workload {
    /// Stable workload name (`stencil`, `babelstream`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description shown by `mojo-hpc list`.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Label of the figure-of-merit column of this workload's measurements.
    pub fn fom_label(&self) -> &'static str {
        self.fom_label
    }

    /// The integer parameter a `--sizes` sweep varies.
    pub fn size_param(&self) -> &'static str {
        self.size_param
    }

    /// The tunable parameters, their domains and defaults, in spec order.
    pub fn params(&self) -> &'static [ParamSpec] {
        self.params
    }

    /// Representative sizes (values of [`Workload::size_param`]) for
    /// functional host-side runs — the steady-state allocation gate runs
    /// them and the benchmark seeds its sweeps near them; small enough to
    /// execute functionally in every case.
    pub fn bench_sizes(&self) -> &'static [u64] {
        self.bench_sizes
    }

    /// The default parameter assignment.
    pub fn default_params(&self) -> Params {
        Params::defaults(self.params)
    }

    /// Validates a complete assignment: every value against its declared
    /// domain, then the workload's cross-parameter rules.
    pub fn validate(&self, params: &Params) -> Result<(), WorkloadError> {
        for spec in self.params {
            let value = params
                .get(spec.name)
                .ok_or_else(|| WorkloadError::new(format!("missing parameter '{}'", spec.name)))?;
            spec.check(value)?;
        }
        (self.rules)(params)
    }

    /// Validates `params`, then runs the workload at them.
    pub fn run(&self, params: &Params) -> Result<WorkloadOutput, WorkloadError> {
        self.validate(params)?;
        (self.run_point)(params)
    }
}

/// What [`Family::time`] returns: the launch cost, the kernel class that
/// selects the platform's execution profile, and the row's kernel label.
pub type Analytic = (KernelCost, KernelClass, &'static str);

/// What one kernel family supplies to the generic driver: its
/// configuration, its kernels, the launch and body that produce a
/// verification, and the analytic inputs of each platform's timing.
///
/// The body is the same on every platform; only the launch shape may
/// depend on the platform (the BabelStream Dot grid does), so the
/// verification depends only on the configuration and the launch.
pub trait Family {
    /// The family's driver configuration.
    type Config;
    /// One kernel of the family: a `StreamOp` for BabelStream, `()` for
    /// the single-kernel families.
    type Kernel: Copy + 'static;

    /// Decodes a validated parameter assignment.
    fn config(params: &Params) -> Result<Self::Config, WorkloadError>;

    /// The kernels one point runs, in row order.
    fn kernels(params: &Params) -> Result<&'static [Self::Kernel], WorkloadError>;

    /// The launch the functional body runs on `platform`.
    fn launch(platform: &Platform, config: &Self::Config, kernel: Self::Kernel) -> LaunchConfig;

    /// Runs the functional body on `platform` and verifies it against the
    /// reference, or returns the family's `Skipped` reason above its
    /// functional limit.
    fn execute(
        platform: &Platform,
        config: &Self::Config,
        kernel: Self::Kernel,
    ) -> SimResult<Verification>;

    /// The analytic inputs of the timing model on `platform`.
    fn time(platform: &Platform, config: &Self::Config, kernel: Self::Kernel) -> Analytic;

    /// The figure of merit of a run that took `seconds`.
    fn fom(config: &Self::Config, kernel: Self::Kernel, seconds: f64) -> f64;
}

/// The analytic half of one kernel on one platform: what the timing model
/// says, with no functional body run.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Analytic launch cost.
    pub cost: KernelCost,
    /// The platform's execution profile for the kernel's class.
    pub profile: ExecutionProfile,
    /// Simulated kernel timing.
    pub timing: LaunchTiming,
    /// The row's kernel label.
    pub kernel: &'static str,
}

/// The analytic half of a run on `platform`: the family's cost under the
/// platform's execution profile and timing model, with the kernel label.
pub fn timed<F: Family>(platform: &Platform, config: &F::Config, kernel: F::Kernel) -> Timed {
    let (cost, class, label) = F::time(platform, config, kernel);
    let profile = platform.execution_profile(&class);
    let timing = cache::timing_model(platform).estimate(&cost, &profile);
    Timed {
        cost,
        profile,
        timing,
        kernel: label,
    }
}

/// The one single-platform composition: a family's analytic timing on
/// `platform` plus its functional body. Every family's public `run` is this.
pub(crate) fn run_on<F: Family>(
    platform: &Platform,
    config: &F::Config,
    kernel: F::Kernel,
) -> Result<WorkloadRun, SimError> {
    let timed = timed::<F>(platform, config, kernel);
    Ok(WorkloadRun {
        backend: timed.profile.backend,
        device: platform.spec.name,
        kernel: timed.kernel,
        cost: timed.cost,
        profile: timed.profile,
        timing: timed.timing,
        verification: F::execute(platform, config, kernel)?,
    })
}

/// Runs one validated point of a family on every paper platform.
///
/// The functional body runs once per distinct (kernel, launch), in order of
/// first appearance; a row whose launch an earlier platform already ran
/// takes that row's verification. Each row's timing is its own platform's.
/// Rows are platform-major, then kernel, and the bookkeeping is the rows
/// themselves, so a warm run allocates nothing.
pub(crate) fn run_family<F: Family>(params: &Params) -> Result<WorkloadOutput, WorkloadError> {
    let config = F::config(params)?;
    let kernels = F::kernels(params)?;
    let platforms = paper_platform_pairs();
    let mut measurements: PooledVec<Measurement> = PooledVec::new();
    for (p, platform) in platforms.iter().enumerate() {
        for (k, &kernel) in kernels.iter().enumerate() {
            let launch = F::launch(platform, &config, kernel);
            let earlier = platforms[..p]
                .iter()
                .position(|other| F::launch(other, &config, kernel) == launch);
            let verification = match earlier {
                Some(q) => measurements[q * kernels.len() + k].verification.clone(),
                None => render_verification(&F::execute(platform, &config, kernel)?),
            };
            let timed = timed::<F>(platform, &config, kernel);
            let seconds = timed.timing.seconds;
            measurements.push(Measurement {
                device: platform.spec.name,
                backend: timed.profile.backend,
                kernel: timed.kernel,
                seconds,
                fom: F::fom(&config, kernel, seconds),
                verification,
            });
        }
    }
    Ok(WorkloadOutput {
        params: params.clone(),
        measurements,
    })
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
pub fn all() -> [&'static Workload; 7] {
    [
        &crate::stencil7::workload::STENCIL,
        &crate::babelstream::workload::BABELSTREAM,
        &crate::minibude::workload::MINIBUDE,
        &crate::hartree_fock::workload::HARTREE_FOCK,
        &crate::hartree_fock::workload::HARTREE_FOCK_SAMPLED,
        &crate::jacobi::workload::JACOBI,
        &crate::framestream::workload::FRAMESTREAM,
    ]
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
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

    const SPECS: &[ParamSpec] = &[
        ParamSpec::int("l", 192, 3, 1024, "grid side"),
        ParamSpec::text("precision", "fp64", &["fp32", "fp64"], "precision"),
    ];

    #[test]
    fn params_encode_round_trips() {
        let mut params = Params::defaults(SPECS);
        assert_eq!(params.encode(), "l=192,precision=fp64");
        params.apply_encoding("l=512,precision=FP32").unwrap();
        assert_eq!(params.encode(), "l=512,precision=fp32");
        let mut again = Params::defaults(SPECS);
        again.apply_encoding(&params.encode()).unwrap();
        assert_eq!(again, params);
    }

    #[test]
    fn params_reject_unknown_names_and_type_mismatches() {
        let mut params = Params::defaults(SPECS);
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

    /// Walks every declared integer range of every workload across its
    /// boundaries, with the other parameters at their defaults: values
    /// outside the range are refused with the range message, values inside
    /// it validate or fail only on a cross-parameter rule, and a keyword
    /// outside its words is refused. Only `validate` runs: the corners at
    /// the maxima must never execute.
    #[test]
    fn every_declared_domain_is_enforced_at_its_boundaries() {
        for workload in all() {
            for spec in workload.params() {
                let params_at = |value: ParamValue| {
                    let mut params = workload.default_params();
                    params.set(spec.name, value).unwrap();
                    params
                };
                // An in-domain value: validation is the rules' verdict.
                let rules_decide = |value: ParamValue| {
                    let params = params_at(value);
                    workload.validate(&params) == (workload.rules)(&params)
                };
                let context =
                    |value: &dyn fmt::Display| format!("{} {}={value}", workload.name(), spec.name);
                match spec.domain {
                    Domain::Int { min, max, .. } => {
                        let mut outside = vec![max.wrapping_add(1), u64::MAX];
                        outside.extend(min.checked_sub(1));
                        for value in outside.into_iter().filter(|v| *v < min || *v > max) {
                            let result = workload.validate(&params_at(ParamValue::Int(value)));
                            let expected = format!(
                                "parameter '{}' must be in [{min}, {max}], got {value}",
                                spec.name
                            );
                            assert_eq!(
                                result.map_err(|e| e.to_string()),
                                Err(expected),
                                "{}",
                                context(&value)
                            );
                        }
                        for value in [min, max] {
                            assert!(rules_decide(ParamValue::Int(value)), "{}", context(&value));
                        }
                    }
                    Domain::Keyword { words, .. } => {
                        for word in words {
                            assert!(rules_decide(ParamValue::text(word)), "{}", context(word));
                        }
                        let result = workload.validate(&params_at(ParamValue::text("frobnicate")));
                        let message = result.unwrap_err().to_string();
                        assert!(
                            message.starts_with(&format!("unknown {} 'frobnicate'", spec.name)),
                            "{message}"
                        );
                    }
                }
            }
        }
    }

    /// A family whose body counts its runs and returns the launch's block
    /// count as its error, so a row shows which launch verified it.
    struct Fake;

    thread_local! {
        static EXECUTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    static FAKE: Workload = Workload {
        name: "fake",
        description: "driver test family",
        fom_label: "seconds",
        size_param: "n",
        params: &[
            ParamSpec::int("n", 4096, 1, 1 << 20, "elements"),
            ParamSpec::text("grid", "shared", &["shared", "backend"], "Dot-like grid"),
            ParamSpec::int("fail", 0, 0, 1, "1 = the body fails"),
        ],
        bench_sizes: &[4096],
        rules: |_| Ok(()),
        run_point: run_family::<Fake>,
    };

    impl Family for Fake {
        type Config = (u64, bool, bool);
        type Kernel = u8;

        fn config(params: &Params) -> Result<(u64, bool, bool), WorkloadError> {
            let per_backend = params.text("grid") == "backend";
            Ok((params.int("n"), per_backend, params.int("fail") == 1))
        }
        fn kernels(_: &Params) -> Result<&'static [u8], WorkloadError> {
            Ok(&[0, 1])
        }
        fn launch(platform: &Platform, config: &(u64, bool, bool), kernel: u8) -> LaunchConfig {
            // Kernel 1 takes a per-backend grid like the Dot reduction: one
            // grid for both portable platforms, one per vendor platform.
            if kernel == 1 && config.1 && !platform.backend.is_portable() {
                LaunchConfig::new(platform.spec.topology.num_compute_units, 256)
            } else {
                LaunchConfig::cover_1d(config.0, 256)
            }
        }
        fn execute(
            platform: &Platform,
            config: &(u64, bool, bool),
            kernel: u8,
        ) -> SimResult<Verification> {
            EXECUTIONS.with(|n| n.set(n.get() + 1));
            if config.2 {
                return Err(SimError::InvalidParameter("fake body failed".into()));
            }
            Ok(Verification::Passed {
                max_abs_error: Self::launch(platform, config, kernel).num_blocks() as f64,
            })
        }
        fn time(_: &Platform, config: &(u64, bool, bool), _: u8) -> Analytic {
            let launch = LaunchConfig::cover_1d(config.0, 256);
            let cost = KernelCost::builder(
                "fake",
                gpu_spec::Precision::Fp64,
                launch,
                gpu_sim::stats::AccessPattern::Stream,
            )
            .dram_traffic(config.0 * 8, config.0 * 8)
            .build();
            let class = KernelClass::Stream {
                op: vendor_models::StreamOp::Copy,
                precision: gpu_spec::Precision::Fp64,
            };
            (cost, class, "fake")
        }
        fn fom(_: &(u64, bool, bool), _: u8, seconds: f64) -> f64 {
            seconds
        }
    }

    /// Runs the fake family at `encoding`, returning the rows and the
    /// number of times its body ran.
    fn run_fake(encoding: &str) -> (Result<WorkloadOutput, WorkloadError>, usize) {
        let mut params = FAKE.default_params();
        params.apply_encoding(encoding).unwrap();
        EXECUTIONS.with(|n| n.set(0));
        let output = FAKE.run(&params);
        (output, EXECUTIONS.with(|n| n.get()))
    }

    #[test]
    fn the_driver_executes_once_per_distinct_launch() {
        // Kernels 0 and 1 share one launch across the four platforms.
        let (output, executions) = run_fake("grid=shared");
        assert_eq!(output.unwrap().measurements.len(), 8);
        assert_eq!(executions, 2);
        // Kernel 1 on a per-backend grid: once for both portable platforms,
        // once each for CUDA and HIP; each row reads its own grid's result.
        let (output, executions) = run_fake("grid=backend");
        assert_eq!(executions, 1 + 3);
        let rows = output.unwrap().measurements;
        let per_backend: Vec<&str> = rows
            .iter()
            .skip(1)
            .step_by(2)
            .map(|m| &*m.verification)
            .collect();
        let units = |p: usize| paper_platform_pairs()[p].spec.topology.num_compute_units;
        assert_eq!(
            per_backend,
            [
                "passed(max_abs_err=1.600e1)".to_string(),
                format!("passed(max_abs_err={:.3e})", f64::from(units(1))),
                "passed(max_abs_err=1.600e1)".to_string(),
                format!("passed(max_abs_err={:.3e})", f64::from(units(3))),
            ]
        );
    }

    #[test]
    fn the_driver_keeps_platform_major_row_order() {
        let (output, _) = run_fake("grid=backend");
        let rows = output.unwrap().measurements;
        let platforms = paper_platform_pairs();
        for (i, row) in rows.iter().enumerate() {
            let platform = &platforms[i / 2];
            assert_eq!(row.device, platform.spec.name);
            assert_eq!(row.backend, platform.backend.label());
            // Each row is timed on its own platform.
            let timed = run_on::<Fake>(platform, &(4096, true, false), (i % 2) as u8).unwrap();
            assert_eq!(row.seconds, timed.seconds());
            assert_eq!(row.verification, render_verification(&timed.verification));
        }
    }

    #[test]
    fn an_execute_error_propagates_as_a_workload_error() {
        let (output, executions) = run_fake("fail=1");
        let expected = WorkloadError::from(SimError::InvalidParameter("fake body failed".into()));
        assert_eq!(output.unwrap_err(), expected);
        assert_eq!(executions, 1, "the first failure stops the run");
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
