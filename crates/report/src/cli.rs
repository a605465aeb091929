//! Command-line interface of the `mojo-hpc` binary.
//!
//! Subcommands:
//!
//! * `list` — print every experiment id and its paper caption, plus every
//!   registered workload with its tunable parameters and defaults;
//! * `run --all | <experiment>…` — regenerate experiments (renders to
//!   stdout, CSV or JSON files under `--out DIR`, `--format csv|json`);
//! * `run hartree-fock --atoms N` — sharded/sampled functional validation of
//!   the Hartree–Fock kernel at any system size;
//! * `sweep <workload> --sizes a,b,c` — run any registered workload at
//!   custom problem sizes (with optional `key=value` parameter overrides);
//!   `--preset-out FILE` saves the resolved configuration, `--preset FILE`
//!   replays one;
//! * `shard (run|sweep) … --workers N` — coordinator: spawn `N` worker
//!   subprocesses of this binary, one shard each, and merge their partial
//!   JSON documents into output byte-identical to a single-process run
//!   (protocol: DESIGN.md §10);
//! * `--shard I/N` on `run`/`sweep` — worker mode: execute shard `I` of the
//!   command's work items and print a partial-report shard document;
//! * `serve --listen HOST:PORT` — the always-on TCP report service: caches
//!   results under the stable `Params` encoding, coalesces identical
//!   concurrent requests single-flight, and spills big sweeps through the
//!   launcher layer (protocol: DESIGN.md §13);
//! * `diff <dir-a> <dir-b>` — byte-compare the `.csv` and `.json` report
//!   files of two directories;
//! * `bench-diff <a> <b> [--max-regression PCT]` — compare bench JSON
//!   records, optionally failing on mean-time regressions beyond PCT percent
//!   (dispatched by the binary to the bench crate; only parsed here).
//!
//! Exit codes: `0` success, `1` difference found or validation failed, `2`
//! usage error. All diagnostics go to stderr; stdout carries only the
//! deterministic experiment renderings, so `run` and `sweep` output can be
//! compared byte-for-byte across runs, thread counts and worker counts.

use crate::chaos;
use crate::dispatch::{self, DispatchPolicy, HostManifest, Launcher, LocalLauncher};
use crate::registry::{known_ids, run_experiments, ExperimentId, EXPERIMENTS};
use crate::report::ExperimentReport;
use crate::serve::{self, ServeConfig};
use crate::shard::{self, ShardDocument, ShardManifest, ShardPoolCounters, ShardSpec};
use crate::sweep::{run_sweep, SweepSpec};
use hpc_metrics::output::{self, CsvTable};
use science_kernels::hartree_fock::{
    run_sampled, HartreeFockConfig, SampledValidation, DEFAULT_SAMPLES, DEFAULT_SHARDS,
};
use science_kernels::workload;
use std::path::{Path, PathBuf};
use std::time::Duration;
use vendor_models::Platform;

/// Output rendering of `run` and `sweep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable console text plus CSV files (the default).
    #[default]
    Csv,
    /// A JSON document on stdout plus one JSON file per report.
    Json,
}

impl OutputFormat {
    /// Parses a `--format` value.
    pub fn parse(value: &str) -> Result<OutputFormat, String> {
        match value {
            "csv" => Ok(OutputFormat::Csv),
            "json" => Ok(OutputFormat::Json),
            other => Err(format!("--format: expected csv or json, got '{other}'")),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `list`: print the registry.
    List,
    /// `run`: regenerate experiments.
    Run(RunArgs),
    /// `run hartree-fock`: sampled functional validation.
    RunHartreeFock(HartreeFockArgs),
    /// `sweep`: run a workload at custom sizes.
    Sweep(SweepArgs),
    /// `shard`: spawn worker subprocesses and merge their shard documents.
    Shard(ShardArgs),
    /// `serve`: run the always-on TCP report service (DESIGN.md §13).
    Serve(ServeConfig),
    /// `diff`: compare two experiment report directories (CSV and JSON).
    Diff {
        /// Baseline directory.
        dir_a: PathBuf,
        /// Compared directory.
        dir_b: PathBuf,
    },
    /// `bench-diff`: compare two bench JSON records (file or directory each).
    BenchDiff {
        /// Baseline record or directory.
        baseline: PathBuf,
        /// Compared record or directory.
        current: PathBuf,
        /// Fail (exit 1) when any benchmark's mean slowed down by more than
        /// this fraction (`--max-regression 10` = +10%); `None` keeps the
        /// comparison informational.
        max_regression: Option<f64>,
    },
    /// `bench-trajectory`: render the per-benchmark mean-time trend across a
    /// directory of archived per-SHA bench snapshots (dispatched by the
    /// binary to the bench crate; only parsed here).
    BenchTrajectory {
        /// Directory whose subdirectories are the archived snapshots
        /// (`bench-trajectory-<sha>` in CI), each holding bench JSON records.
        root: PathBuf,
        /// Optional CSV output path for the trend table.
        csv: Option<PathBuf>,
    },
    /// `help` / `--help`.
    Help,
}

/// Arguments of `run` over registry experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Experiments to regenerate, in presentation order.
    pub ids: Vec<ExperimentId>,
    /// File output directory (`target/experiments` when absent).
    pub out: Option<PathBuf>,
    /// Worker-thread override applied before the pool starts.
    pub threads: Option<usize>,
    /// Output rendering (CSV files + console text, or JSON).
    pub format: OutputFormat,
    /// Worker mode: regenerate only this shard of the id list and print a
    /// shard document instead of reports (DESIGN.md §10).
    pub shard: Option<ShardSpec>,
}

/// Arguments of `sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Registered workload name (absent when `--preset` carries it).
    pub workload: Option<String>,
    /// Values of the workload's size parameter, in presentation order
    /// (absent when `--preset` carries them).
    pub sizes: Option<Vec<u64>>,
    /// `key=value` parameter overrides applied to the workload defaults.
    pub params: Vec<String>,
    /// File output directory (`target/experiments` when absent).
    pub out: Option<PathBuf>,
    /// Worker-thread override applied before the pool starts.
    pub threads: Option<usize>,
    /// Output rendering (CSV files + console text, or JSON).
    pub format: OutputFormat,
    /// Worker mode: run only this shard of the sweep points and print a
    /// shard document instead of a report (DESIGN.md §10).
    pub shard: Option<ShardSpec>,
    /// Preset file to load the full sweep configuration from.
    pub preset: Option<PathBuf>,
    /// File to save the resolved sweep configuration to.
    pub preset_out: Option<PathBuf>,
}

/// How the `shard` coordinator places workers (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LauncherKind {
    /// Worker subprocesses of this binary on this host (the default).
    #[default]
    Local,
    /// Command-template workers from a `--hosts` manifest (`ssh host -- …`
    /// by default; any argv template, including replay via `cat`).
    Template,
    /// Generate a SLURM-style job-array batch script instead of running
    /// anything; the collected shard documents merge later via a replay
    /// manifest.
    Slurm,
}

impl LauncherKind {
    /// Parses a `--launcher` value (`ssh` is an alias for `template`).
    pub fn parse(value: &str) -> Result<LauncherKind, String> {
        match value {
            "local" => Ok(LauncherKind::Local),
            "template" | "ssh" => Ok(LauncherKind::Template),
            "slurm" => Ok(LauncherKind::Slurm),
            other => Err(format!(
                "--launcher: expected local, template (alias ssh) or slurm, got '{other}'"
            )),
        }
    }
}

/// Arguments of the `shard` coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardArgs {
    /// Worker subprocess count (= shard count), at least 1.
    pub workers: u64,
    /// How workers are placed ([`LauncherKind::Local`] by default).
    pub launcher: LauncherKind,
    /// Host-manifest file (required for `--launcher template`, optional
    /// node pin for `--launcher slurm`).
    pub hosts: Option<PathBuf>,
    /// Per-worker wall-clock timeout in seconds; a worker exceeding it is
    /// killed and the attempt counts as failed.
    pub timeout: Option<f64>,
    /// Attempt budget per shard (default 3; 0 runs a single attempt and
    /// degrades gracefully on failure).
    pub max_attempts: u32,
    /// Launch speculative duplicates of straggling shards.
    pub speculate: bool,
    /// The wrapped command ([`Command::Run`] or [`Command::Sweep`]) whose
    /// work items the workers partition.
    pub inner: Box<Command>,
}

/// Arguments of `run hartree-fock`.
#[derive(Debug, Clone, PartialEq)]
pub struct HartreeFockArgs {
    /// Helium atom count.
    pub atoms: u32,
    /// Gaussian primitives per atom (paper pairing by default: 6 at 1024
    /// atoms, 3 otherwise).
    pub ngauss: Option<u32>,
    /// Total sampled probes across the quartet space.
    pub samples: u64,
    /// Shard count of the quartet space.
    pub shards: u64,
    /// CSV output directory (`target/experiments` when absent).
    pub out: Option<PathBuf>,
    /// Worker-thread override applied before the pool starts.
    pub threads: Option<usize>,
}

/// The usage text printed on `help` and usage errors.
pub fn usage() -> &'static str {
    "mojo-hpc — regenerate the paper's experiments and validate the kernels

USAGE:
  mojo-hpc list
  mojo-hpc run (--all | <experiment>...) [--out DIR] [--threads N]
                            [--format csv|json] [--shard I/N]
  mojo-hpc run hartree-fock --atoms N [--ngauss G] [--sample N] [--shards N]
                            [--out DIR] [--threads N]
  mojo-hpc sweep <workload> --sizes A,B,C [key=value ...] [--out DIR]
                            [--threads N] [--format csv|json] [--shard I/N]
                            [--preset-out FILE]
  mojo-hpc sweep --preset FILE [--out DIR] [--threads N] [--format csv|json]
                            [--shard I/N]
  mojo-hpc shard (run|sweep) <run/sweep arguments> --workers N
                            [--launcher local|template|slurm] [--hosts FILE]
                            [--timeout SECS] [--max-attempts N] [--speculate]
  mojo-hpc serve --listen HOST:PORT [--threads N] [--cache-entries N]
                            [--cache-bytes N] [--spill-threshold N]
                            [--spill-workers N] [--spill-timeout SECS]
                            [--scratch DIR]
  mojo-hpc diff <dir-a> <dir-b>
  mojo-hpc bench-diff <baseline.json|dir> <current.json|dir>
                            [--max-regression PCT]
  mojo-hpc bench-trajectory <snapshot-dir> [--csv FILE]
  mojo-hpc help

Experiment and sweep renderings go to stdout (byte-identical at every
--threads / RAYON_NUM_THREADS setting); CSV or JSON files land under --out
(default target/experiments); diagnostics go to stderr. `mojo-hpc list`
names every workload with its tunable parameters and defaults; `--sizes`
sweeps the workload's size parameter and `key=value` pins any other.
`--preset-out` saves a resolved sweep configuration to a file; `--preset`
replays it. `bench-diff --max-regression PCT` turns the comparison into a
gate: exit 1 when any benchmark's mean slowed down by more than PCT percent.
`bench-trajectory DIR` walks a directory of archived per-commit bench
snapshots (CI's bench-trajectory-<sha> artifacts) and renders each
benchmark's mean-time trend across them (`--csv FILE` also writes the trend
table as CSV). `run` and `sweep` report the buffer-pool's hit rate and
traffic on stderr after each invocation.

SCALE-OUT (DESIGN.md \u{a7}10): `mojo-hpc shard run|sweep ... --workers N`
spawns N worker subprocesses of this binary, partitions the command's work
items (experiments for run, sweep points for sweep) deterministically, and
merges the workers' partial JSON documents into output byte-identical to
the single-process command. `--shard I/N` is the worker-side flag: it runs
shard I and prints a JSON shard document (manifest + partial reports); it
cannot be combined with `--format csv`.

DISPATCHER (DESIGN.md \u{a7}12): workers run under supervision. `--timeout
SECS` kills a worker exceeding the wall clock; `--max-attempts N` retries a
failed shard with exponential backoff on the healthiest launcher (default
3; 0 runs a single attempt and, on failure, reports which ranges completed
before exiting 1); `--speculate` duplicates the slowest straggler (first
completion wins). `--launcher template --hosts FILE` places workers through
a JSON host manifest's command template (ssh by default); `--launcher
slurm` writes a job-array batch script to <out>/slurm_job_array.sbatch
instead of running anything. MOJO_HPC_CHAOS=mode:shard[:attempts] injects
crash/hang/garble/slow faults into workers for harness testing.

SERVE (DESIGN.md \u{a7}13): `mojo-hpc serve --listen HOST:PORT` runs an
always-on TCP service speaking line-delimited JSON: one request per line
({\"cmd\":\"run\"|\"sweep\"|\"stats\"|\"shutdown\", ...}), one JSON header
line per response, followed (for run/sweep) by a payload byte-identical to
that subcommand's stdout. Results are cached in an LRU keyed on the stable
Params encoding (bounded by --cache-entries / --cache-bytes); identical
concurrent requests coalesce onto a single computation; sweeps with at
least --spill-threshold points dispatch through the launcher layer
(--spill-workers subprocesses, optional --spill-timeout). The bound address
is announced on stderr; `stats` reports cache, single-flight and
buffer-pool counters.

EXIT CODES:
  0  success / directories identical
  1  difference found, a validation failed, or a shard worker failed
  2  usage error or unreadable input"
}

/// Parses a command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut args = args.iter().map(String::as_str);
    let Some(subcommand) = args.next() else {
        return Err("missing subcommand".to_string());
    };
    let rest: Vec<&str> = args.collect();
    match subcommand {
        "list" => {
            expect_no_args("list", &rest)?;
            Ok(Command::List)
        }
        "run" => parse_run(&rest),
        "sweep" => parse_sweep(&rest),
        "shard" => parse_shard(&rest),
        "serve" => parse_serve(&rest),
        "diff" => {
            let [a, b] = two_paths("diff", &rest)?;
            Ok(Command::Diff { dir_a: a, dir_b: b })
        }
        "bench-diff" => parse_bench_diff(&rest),
        "bench-trajectory" => parse_bench_trajectory(&rest),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn expect_no_args(subcommand: &str, rest: &[&str]) -> Result<(), String> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("'{subcommand}' takes no arguments"))
    }
}

fn two_paths(subcommand: &str, rest: &[&str]) -> Result<[PathBuf; 2], String> {
    match rest {
        [a, b] => Ok([PathBuf::from(a), PathBuf::from(b)]),
        _ => Err(format!("'{subcommand}' takes exactly two paths")),
    }
}

/// Parses `bench-diff <a> <b> [--max-regression PCT]`. The percentage is
/// stored as a fraction (10 → 0.10) and must be non-negative.
fn parse_bench_diff(rest: &[&str]) -> Result<Command, String> {
    let mut paths = Vec::new();
    let mut max_regression = None;
    let mut args = rest.iter().copied();
    while let Some(arg) = args.next() {
        match arg {
            "--max-regression" => {
                let value = flag_value("--max-regression", &mut args)?;
                let pct: f64 = parse_number("--max-regression", value)?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(format!(
                        "--max-regression: expected a non-negative percentage, got '{value}'"
                    ));
                }
                max_regression = Some(pct / 100.0);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown 'bench-diff' argument '{flag}'"))
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [baseline, current]: [PathBuf; 2] = paths
        .try_into()
        .map_err(|_| "'bench-diff' takes exactly two paths".to_string())?;
    Ok(Command::BenchDiff {
        baseline,
        current,
        max_regression,
    })
}

/// Parses `bench-trajectory <dir> [--csv FILE]`.
fn parse_bench_trajectory(rest: &[&str]) -> Result<Command, String> {
    let mut root = None;
    let mut csv = None;
    let mut args = rest.iter().copied();
    while let Some(arg) = args.next() {
        match arg {
            "--csv" => csv = Some(PathBuf::from(flag_value("--csv", &mut args)?)),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown 'bench-trajectory' argument '{flag}'"))
            }
            path => {
                if root.is_some() {
                    return Err("'bench-trajectory' takes exactly one directory".to_string());
                }
                root = Some(PathBuf::from(path));
            }
        }
    }
    let root = root.ok_or_else(|| "'bench-trajectory' needs a snapshot directory".to_string())?;
    Ok(Command::BenchTrajectory { root, csv })
}

/// Parses `serve --listen ADDR [--threads N] [--cache-entries N]
/// [--cache-bytes N] [--spill-threshold N] [--spill-workers N]
/// [--spill-timeout SECS] [--scratch DIR]`.
fn parse_serve(rest: &[&str]) -> Result<Command, String> {
    let mut listen = None;
    let mut config = ServeConfig::new("");
    let mut args = rest.iter().copied();
    while let Some(arg) = args.next() {
        match arg {
            "--listen" => listen = Some(flag_value("--listen", &mut args)?.to_string()),
            "--threads" => {
                config.threads = Some(parse_threads(flag_value("--threads", &mut args)?)?)
            }
            "--cache-entries" => {
                config.cache_entries =
                    parse_number("--cache-entries", flag_value("--cache-entries", &mut args)?)?
            }
            "--cache-bytes" => {
                config.cache_bytes =
                    parse_number("--cache-bytes", flag_value("--cache-bytes", &mut args)?)?
            }
            "--spill-threshold" => {
                config.spill_threshold = parse_number(
                    "--spill-threshold",
                    flag_value("--spill-threshold", &mut args)?,
                )?
            }
            "--spill-workers" => {
                let workers: u64 =
                    parse_number("--spill-workers", flag_value("--spill-workers", &mut args)?)?;
                if workers == 0 {
                    return Err("--spill-workers must be at least 1".to_string());
                }
                config.spill_workers = workers;
            }
            "--spill-timeout" => {
                let secs: f64 =
                    parse_number("--spill-timeout", flag_value("--spill-timeout", &mut args)?)?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--spill-timeout must be a positive number of seconds".to_string());
                }
                config.spill_timeout = Some(secs);
            }
            "--scratch" => {
                config.scratch = Some(PathBuf::from(flag_value("--scratch", &mut args)?))
            }
            other => return Err(format!("unknown 'serve' argument '{other}'")),
        }
    }
    config.listen = listen.ok_or_else(|| "'serve' needs --listen HOST:PORT".to_string())?;
    Ok(Command::Serve(config))
}

/// Parses the value of a `--flag VALUE` pair.
fn flag_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    args: &mut I,
) -> Result<&'a str, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value '{value}'"))
}

/// Parses a `--threads` value, rejecting 0 like the other count flags.
fn parse_threads(value: &str) -> Result<usize, String> {
    let threads: usize = parse_number("--threads", value)?;
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    Ok(threads)
}

/// Parses a `--shard` value, rejecting a repeated flag (two `--shard` flags
/// would make the worker's coverage ambiguous — overlapping specs are a
/// usage error).
fn parse_shard_flag(current: &Option<ShardSpec>, value: &str) -> Result<ShardSpec, String> {
    if current.is_some() {
        return Err("--shard given more than once (shards must not overlap)".to_string());
    }
    ShardSpec::parse(value)
}

/// Rejects the `--shard I/N` + `--format csv` combination: a shard worker's
/// stdout is always one JSON shard document.
fn check_shard_format(
    shard: &Option<ShardSpec>,
    explicit_format: Option<OutputFormat>,
) -> Result<OutputFormat, String> {
    if shard.is_some() && explicit_format == Some(OutputFormat::Csv) {
        return Err(
            "--shard workers emit a JSON shard document; --format csv cannot be combined \
             with --shard (the coordinator renders CSV after merging)"
                .to_string(),
        );
    }
    Ok(explicit_format.unwrap_or_default())
}

fn parse_run(rest: &[&str]) -> Result<Command, String> {
    if rest.first() == Some(&"hartree-fock") {
        return parse_run_hartree_fock(&rest[1..]);
    }
    let mut ids = Vec::new();
    let mut all = false;
    let mut out = None;
    let mut threads = None;
    let mut format = None;
    let mut shard = None;
    let mut args = rest.iter().copied();
    while let Some(arg) = args.next() {
        match arg {
            "--all" => all = true,
            "--out" => out = Some(PathBuf::from(flag_value("--out", &mut args)?)),
            "--threads" => threads = Some(parse_threads(flag_value("--threads", &mut args)?)?),
            "--format" => format = Some(OutputFormat::parse(flag_value("--format", &mut args)?)?),
            "--shard" => shard = Some(parse_shard_flag(&shard, flag_value("--shard", &mut args)?)?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            id => ids.push(
                id.parse::<ExperimentId>()
                    .map_err(|e| format!("{e}\nknown ids: {}", known_ids()))?,
            ),
        }
    }
    if all {
        if !ids.is_empty() {
            return Err("pass either --all or explicit experiment ids, not both".to_string());
        }
        ids = ExperimentId::ALL.to_vec();
    } else if ids.is_empty() {
        return Err("'run' needs --all or at least one experiment id".to_string());
    }
    let format = check_shard_format(&shard, format)?;
    Ok(Command::Run(RunArgs {
        ids,
        out,
        threads,
        format,
        shard,
    }))
}

/// Parses a `--sizes` value: comma-separated positive integers.
fn parse_sizes(value: &str) -> Result<Vec<u64>, String> {
    let sizes: Vec<u64> = value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse::<u64>()
                .map_err(|_| format!("--sizes: invalid size '{s}'"))
        })
        .collect::<Result<_, _>>()?;
    if sizes.is_empty() {
        return Err("--sizes needs at least one value".to_string());
    }
    Ok(sizes)
}

/// The comma-separated list of every registered workload name.
fn known_workloads() -> String {
    workload::known_names()
}

fn parse_sweep(rest: &[&str]) -> Result<Command, String> {
    let mut name = None;
    let mut sizes = None;
    let mut params = Vec::new();
    let mut out = None;
    let mut threads = None;
    let mut format = None;
    let mut shard = None;
    let mut preset = None;
    let mut preset_out = None;
    let mut args = rest.iter().copied();
    while let Some(arg) = args.next() {
        match arg {
            "--sizes" => sizes = Some(parse_sizes(flag_value("--sizes", &mut args)?)?),
            "--out" => out = Some(PathBuf::from(flag_value("--out", &mut args)?)),
            "--threads" => threads = Some(parse_threads(flag_value("--threads", &mut args)?)?),
            "--format" => format = Some(OutputFormat::parse(flag_value("--format", &mut args)?)?),
            "--shard" => shard = Some(parse_shard_flag(&shard, flag_value("--shard", &mut args)?)?),
            "--preset" => preset = Some(PathBuf::from(flag_value("--preset", &mut args)?)),
            "--preset-out" => {
                preset_out = Some(PathBuf::from(flag_value("--preset-out", &mut args)?))
            }
            assignment if assignment.contains('=') && !assignment.starts_with('-') => {
                params.push(assignment.to_string());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown 'sweep' argument '{flag}'"))
            }
            workload_name => {
                if name.is_some() {
                    return Err(format!(
                        "'sweep' takes one workload name, got a second: '{workload_name}'"
                    ));
                }
                name = Some(workload_name.to_string());
            }
        }
    }
    if preset.is_some() {
        if name.is_some() || sizes.is_some() || !params.is_empty() {
            return Err(
                "--preset pins the workload, sizes and parameters; pass either \
                 --preset FILE or <workload> --sizes A,B,C [key=value ...]"
                    .to_string(),
            );
        }
    } else {
        if name.is_none() {
            return Err(format!(
                "'sweep' needs a workload name (known: {})",
                known_workloads()
            ));
        }
        if sizes.is_none() {
            return Err("'sweep' needs --sizes A,B,C".to_string());
        }
    }
    let format = check_shard_format(&shard, format)?;
    Ok(Command::Sweep(SweepArgs {
        workload: name,
        sizes,
        params,
        out,
        threads,
        format,
        shard,
        preset,
        preset_out,
    }))
}

/// Parses `shard (run|sweep) … --workers N [dispatcher flags]`: extract the
/// coordinator's own flags, delegate the rest to the wrapped subcommand's
/// parser, and reject combinations the coordinator owns (`--shard` on the
/// inner command; `--hosts` without a host-driven launcher).
fn parse_shard(rest: &[&str]) -> Result<Command, String> {
    let mut workers = None;
    let mut launcher = LauncherKind::default();
    let mut hosts = None;
    let mut timeout = None;
    let mut max_attempts = 3u32;
    let mut speculate = false;
    let mut inner_args: Vec<&str> = Vec::new();
    let mut args = rest.iter().copied();
    while let Some(arg) = args.next() {
        match arg {
            "--workers" => {
                workers = Some(parse_number::<u64>(
                    "--workers",
                    flag_value("--workers", &mut args)?,
                )?);
            }
            "--launcher" => {
                launcher = LauncherKind::parse(flag_value("--launcher", &mut args)?)?;
            }
            "--hosts" => hosts = Some(PathBuf::from(flag_value("--hosts", &mut args)?)),
            "--timeout" => {
                let secs: f64 = parse_number("--timeout", flag_value("--timeout", &mut args)?)?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--timeout must be a positive number of seconds".to_string());
                }
                timeout = Some(secs);
            }
            "--max-attempts" => {
                max_attempts = parse_number::<u32>(
                    "--max-attempts",
                    flag_value("--max-attempts", &mut args)?,
                )?;
            }
            "--speculate" => speculate = true,
            other => inner_args.push(other),
        }
    }
    let workers = workers.ok_or_else(|| "'shard' needs --workers N".to_string())?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    match launcher {
        LauncherKind::Template if hosts.is_none() => {
            return Err("--launcher template needs --hosts FILE".to_string());
        }
        LauncherKind::Local if hosts.is_some() => {
            return Err(
                "--hosts drives the template/slurm launchers; pass --launcher template \
                 (or slurm) with it"
                    .to_string(),
            );
        }
        _ => {}
    }
    let inner = match inner_args.split_first() {
        Some((&"run", tail)) => parse_run(tail)?,
        Some((&"sweep", tail)) => parse_sweep(tail)?,
        _ => {
            return Err(
                "'shard' wraps 'run' or 'sweep' (e.g. shard run --all --workers 3)".to_string(),
            )
        }
    };
    match &inner {
        Command::Run(args) if args.shard.is_some() => Err(
            "--shard is assigned by the shard coordinator; pass --workers N instead".to_string(),
        ),
        Command::Sweep(args) if args.shard.is_some() => Err(
            "--shard is assigned by the shard coordinator; pass --workers N instead".to_string(),
        ),
        Command::Run(_) | Command::Sweep(_) => Ok(Command::Shard(ShardArgs {
            workers,
            launcher,
            hosts,
            timeout,
            max_attempts,
            speculate,
            inner: Box::new(inner),
        })),
        _ => Err("'shard' wraps 'run' or 'sweep' (run hartree-fock shards internally)".to_string()),
    }
}

fn parse_run_hartree_fock(rest: &[&str]) -> Result<Command, String> {
    let mut atoms = None;
    let mut ngauss = None;
    let mut samples = DEFAULT_SAMPLES;
    let mut shards = DEFAULT_SHARDS;
    let mut out = None;
    let mut threads = None;
    let mut args = rest.iter().copied();
    while let Some(arg) = args.next() {
        match arg {
            "--atoms" => atoms = Some(parse_number("--atoms", flag_value("--atoms", &mut args)?)?),
            "--ngauss" => {
                ngauss = Some(parse_number(
                    "--ngauss",
                    flag_value("--ngauss", &mut args)?,
                )?)
            }
            "--sample" => {
                samples = parse_number("--sample", flag_value("--sample", &mut args)?)?;
            }
            "--shards" => shards = parse_number("--shards", flag_value("--shards", &mut args)?)?,
            "--out" => out = Some(PathBuf::from(flag_value("--out", &mut args)?)),
            "--threads" => threads = Some(parse_threads(flag_value("--threads", &mut args)?)?),
            other => return Err(format!("unknown 'run hartree-fock' argument '{other}'")),
        }
    }
    let atoms = atoms.ok_or_else(|| "'run hartree-fock' needs --atoms N".to_string())?;
    if atoms == 0 {
        return Err("--atoms must be at least 1".to_string());
    }
    if samples == 0 {
        return Err("--sample must be at least 1".to_string());
    }
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    Ok(Command::RunHartreeFock(HartreeFockArgs {
        atoms,
        ngauss,
        samples,
        shards,
        out,
        threads,
    }))
}

/// Applies a `--threads` override. Must run before the first parallel call
/// of the process — the worker pool reads `RAYON_NUM_THREADS` once, when it
/// is first used.
fn apply_threads(threads: Option<usize>) {
    if let Some(n) = threads {
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    }
}

/// Reports the buffer-pool activity since `before` on stderr — stdout stays
/// byte-identical to the golden renderings (DESIGN.md §11 telemetry).
fn report_pool_telemetry(before: &gpu_sim::PoolStats) {
    let delta = gpu_sim::pool::stats().since(before);
    if delta.checkouts == 0 {
        return;
    }
    eprintln!(
        "pool: {} checkout(s), {:.1}% hit rate, {} B recycled, {} B fresh, high water {} B",
        delta.checkouts,
        delta.hit_rate() * 100.0,
        delta.recycled_bytes,
        delta.fresh_bytes,
        gpu_sim::pool::stats().high_water_bytes,
    );
}

/// Executes a parsed command, returning the process exit code.
///
/// `BenchDiff` is not handled here — the bench crate sits above this one, so
/// the binary dispatches it; passing it in is a programming error.
pub fn execute(command: &Command) -> i32 {
    match command {
        Command::List => {
            execute_list();
            0
        }
        Command::Run(args) => execute_run(args),
        Command::RunHartreeFock(args) => execute_hartree_fock(args),
        Command::Sweep(args) => execute_sweep(args),
        Command::Shard(args) => execute_shard(args),
        Command::Serve(config) => execute_serve(config),
        Command::Diff { dir_a, dir_b } => execute_diff(dir_a, dir_b),
        Command::BenchDiff { .. } | Command::BenchTrajectory { .. } => {
            unreachable!("bench-diff and bench-trajectory are dispatched by the binary")
        }
        Command::Help => {
            println!("{}", usage());
            0
        }
    }
}

/// Runs the always-on report service until a `shutdown` request arrives.
fn execute_serve(config: &ServeConfig) -> i32 {
    apply_threads(config.threads);
    match serve::serve(config) {
        Ok(()) => 0,
        Err(err) => {
            eprintln!("error: {err}");
            1
        }
    }
}

/// Prints the experiment registry and every workload with its parameters.
fn execute_list() {
    println!("experiments (mojo-hpc run <id>):");
    for spec in &EXPERIMENTS {
        let preset = match spec.workload {
            Some(p) => format!("  [workload: {}]", p.workload),
            None => String::new(),
        };
        println!("  {:<8} {}{preset}", spec.name, spec.title);
    }
    println!();
    println!("workloads (mojo-hpc sweep <workload> --sizes A,B,C [key=value ...]):");
    for engine in workload::all() {
        println!("  {:<22} {}", engine.name(), engine.description());
        println!(
            "  {:<22} fom: {}; sweep axis: {}",
            "",
            engine.fom_label(),
            engine.size_param()
        );
        for spec in engine.params() {
            println!(
                "      {:<18} {}",
                format!("{}={}", spec.name, spec.default),
                spec.help
            );
        }
    }
}

/// Writes a report's files (CSV tables or the JSON document) under `dir`,
/// echoing the paths to stderr. Returns false on an I/O failure.
fn write_report_files(report: &ExperimentReport, dir: &Path, format: OutputFormat) -> bool {
    match format {
        OutputFormat::Csv => match report.write_csv_files_to(dir) {
            Ok(paths) => {
                for path in paths {
                    eprintln!("  [csv] {}", path.display());
                }
                true
            }
            Err(err) => {
                eprintln!("failed to write CSV for {}: {err}", report.id);
                false
            }
        },
        OutputFormat::Json => match report.write_json_file_to(dir) {
            Ok(path) => {
                eprintln!("  [json] {}", path.display());
                true
            }
            Err(err) => {
                eprintln!("failed to write JSON for {}: {err}", report.id);
                false
            }
        },
    }
}

/// Prints `run` reports in the requested format and writes their files —
/// the shared tail of the single-process and sharded `run` lanes, so both
/// produce identical stdout and files.
fn emit_run_reports(reports: &[ExperimentReport], format: OutputFormat, out_dir: &Path) -> i32 {
    if format == OutputFormat::Json {
        print!("{}", ExperimentReport::render_json_array(reports));
    }
    for report in reports {
        if format == OutputFormat::Csv {
            println!("{}", report.render());
        }
        if !write_report_files(report, out_dir, format) {
            return 1;
        }
    }
    0
}

fn execute_run(args: &RunArgs) -> i32 {
    apply_threads(args.threads);
    if let Some(spec) = &args.shard {
        return execute_run_shard_worker(args, spec);
    }
    let out_dir = args.out.clone().unwrap_or_else(output::experiments_dir);
    let started = std::time::Instant::now();
    let pool_before = gpu_sim::pool::stats();
    let reports = run_experiments(&args.ids);
    report_pool_telemetry(&pool_before);
    let code = emit_run_reports(&reports, args.format, &out_dir);
    if code != 0 {
        return code;
    }
    eprintln!(
        "regenerated {} experiment(s) in {:.3} s",
        reports.len(),
        started.elapsed().as_secs_f64()
    );
    0
}

/// The worker's pool activity since `before`, for embedding in its shard
/// manifest — `None` when the shard checked nothing out (empty shards add
/// no telemetry).
fn pool_counters_since(before: &gpu_sim::PoolStats) -> Option<ShardPoolCounters> {
    let counters = ShardPoolCounters::since(before);
    (counters.checkouts != 0).then_some(counters)
}

/// Worker mode of `run`: regenerate only this shard of the id list and
/// print a shard document (manifest + partial reports) on stdout. No files
/// are written — the coordinator renders and writes the merged output.
/// Consults the chaos seam first, so the fault-injection harness can
/// perturb exactly this path (DESIGN.md §12).
fn execute_run_shard_worker(args: &RunArgs, spec: &ShardSpec) -> i32 {
    chaos::apply(spec.index);
    let range = spec.range(args.ids.len());
    let subset = &args.ids[range.clone()];
    let pool_before = gpu_sim::pool::stats();
    let reports = if subset.is_empty() {
        Vec::new()
    } else {
        run_experiments(subset)
    };
    let doc = ShardDocument {
        manifest: ShardManifest {
            command: "run".to_string(),
            shard: spec.index,
            shards: spec.total,
            start: range.start as u64,
            count: subset.len() as u64,
            total: args.ids.len() as u64,
            items: subset.iter().map(|id| id.as_str().to_string()).collect(),
            workload: None,
            params: None,
            pool: pool_counters_since(&pool_before),
        },
        reports,
    };
    print!("{}", doc.to_json_pretty());
    0
}

/// Resolves a sweep's full configuration: from `--preset FILE` when given,
/// otherwise from the workload name, `--sizes` and `key=value` overrides.
/// Errors are usage errors (exit 2).
fn resolve_sweep_spec(args: &SweepArgs) -> Result<SweepSpec, String> {
    if let Some(path) = &args.preset {
        return SweepSpec::load_preset(path);
    }
    let name = args
        .workload
        .as_deref()
        .expect("parser requires a workload");
    let engine = workload::find(name)
        .ok_or_else(|| format!("unknown workload '{name}' (known: {})", known_workloads()))?;
    let sizes = args.sizes.clone().expect("parser requires --sizes");
    SweepSpec::new(engine, &args.params, sizes).map_err(|e| e.to_string())
}

/// Prints a sweep report in the requested format and writes its files —
/// shared by the single-process and sharded sweep lanes.
fn emit_sweep_report(report: &ExperimentReport, format: OutputFormat, out_dir: &Path) -> i32 {
    match format {
        OutputFormat::Csv => println!("{}", report.render()),
        OutputFormat::Json => print!("{}", report.to_json_pretty()),
    }
    if !write_report_files(report, out_dir, format) {
        return 1;
    }
    0
}

fn execute_sweep(args: &SweepArgs) -> i32 {
    apply_threads(args.threads);
    let spec = match resolve_sweep_spec(args) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("error: {err}");
            return 2;
        }
    };
    if let Some(path) = &args.preset_out {
        if let Err(err) = spec.write_preset(path) {
            eprintln!("failed to write preset {}: {err}", path.display());
            return 1;
        }
        eprintln!("  [preset] {}", path.display());
    }
    if let Some(shard_spec) = &args.shard {
        return execute_sweep_shard_worker(&spec, shard_spec);
    }
    let started = std::time::Instant::now();
    let pool_before = gpu_sim::pool::stats();
    let report = match run_sweep(&spec) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("sweep failed: {err}");
            return 1;
        }
    };
    report_pool_telemetry(&pool_before);
    let out_dir = args.out.clone().unwrap_or_else(output::experiments_dir);
    let code = emit_sweep_report(&report, args.format, &out_dir);
    if code != 0 {
        return code;
    }
    eprintln!(
        "swept {} over {} size(s) in {:.3} s",
        spec.workload.name(),
        spec.sizes.len(),
        started.elapsed().as_secs_f64()
    );
    0
}

/// Worker mode of `sweep`: run only this shard of the sweep points and
/// print a shard document. The manifest pins the workload name and the base
/// parameter encoding so the coordinator can verify every worker ran the
/// same configuration.
fn execute_sweep_shard_worker(spec: &SweepSpec, shard_spec: &ShardSpec) -> i32 {
    chaos::apply(shard_spec.index);
    let range = shard_spec.range(spec.sizes.len());
    let sizes = spec.sizes[range.clone()].to_vec();
    let pool_before = gpu_sim::pool::stats();
    let reports = if sizes.is_empty() {
        Vec::new()
    } else {
        let sub = SweepSpec {
            workload: spec.workload,
            base: spec.base.clone(),
            sizes: sizes.clone(),
        };
        match run_sweep(&sub) {
            Ok(report) => vec![report],
            Err(err) => {
                eprintln!("sweep failed: {err}");
                return 1;
            }
        }
    };
    let doc = ShardDocument {
        manifest: ShardManifest {
            command: "sweep".to_string(),
            shard: shard_spec.index,
            shards: shard_spec.total,
            start: range.start as u64,
            count: sizes.len() as u64,
            total: spec.sizes.len() as u64,
            items: sizes.iter().map(|s| s.to_string()).collect(),
            workload: Some(spec.workload.name().to_string()),
            params: Some(spec.base.encode()),
            pool: pool_counters_since(&pool_before),
        },
        reports,
    };
    print!("{}", doc.to_json_pretty());
    0
}

/// The `shard` coordinator: place one worker per shard through the
/// configured launcher under the dispatcher's supervision, merge their
/// documents, and render the merged output exactly as the wrapped
/// single-process command would. `--launcher slurm` generates a job-array
/// batch script instead of running workers.
fn execute_shard(args: &ShardArgs) -> i32 {
    match args.inner.as_ref() {
        Command::Run(run_args) => execute_shard_run(args, run_args),
        Command::Sweep(sweep_args) => execute_shard_sweep(args, sweep_args),
        _ => unreachable!("the parser only wraps run and sweep in shard"),
    }
}

/// Builds the launcher fleet a `shard` invocation dispatches through.
/// The local launcher gets one extra slot under `--speculate`, so a
/// duplicate of a straggler never has to wait for the straggler itself to
/// free a slot.
fn build_launchers(args: &ShardArgs) -> Result<Vec<Box<dyn Launcher>>, String> {
    match args.launcher {
        LauncherKind::Local => {
            let slots = args.workers as usize + usize::from(args.speculate);
            Ok(vec![
                Box::new(LocalLauncher::current_exe(slots)?) as Box<dyn Launcher>
            ])
        }
        LauncherKind::Template => {
            let path = args.hosts.as_ref().expect("parser requires --hosts");
            HostManifest::load(path)?.launchers()
        }
        LauncherKind::Slurm => {
            unreachable!("the slurm lane generates a script instead of dispatching")
        }
    }
}

/// The dispatch policy a `shard` invocation's flags select.
fn dispatch_policy(args: &ShardArgs) -> DispatchPolicy {
    DispatchPolicy {
        max_attempts: args.max_attempts,
        timeout: args.timeout.map(Duration::from_secs_f64),
        speculate: args.speculate,
        ..DispatchPolicy::default()
    }
}

/// Writes the SLURM job-array script for `base_args` (one array task per
/// shard; the script appends `--shard $SLURM_ARRAY_TASK_ID/N`) under
/// `out_dir` and echoes its path to stderr.
fn emit_slurm_script(args: &ShardArgs, base_args: &[String], out_dir: &Path) -> i32 {
    let manifest = match &args.hosts {
        Some(path) => match HostManifest::load(path) {
            Ok(manifest) => Some(manifest),
            Err(err) => {
                eprintln!("error: {err}");
                return 2;
            }
        },
        None => None,
    };
    let exe = match std::env::current_exe() {
        Ok(path) => path.display().to_string(),
        Err(err) => {
            eprintln!("error: cannot locate the current executable: {err}");
            return 1;
        }
    };
    let script = dispatch::slurm_job_array_script(&exe, base_args, args.workers, manifest.as_ref());
    let path = out_dir.join("slurm_job_array.sbatch");
    if let Err(err) = std::fs::create_dir_all(out_dir) {
        eprintln!("failed to create {}: {err}", out_dir.display());
        return 1;
    }
    if let Err(err) = std::fs::write(&path, script) {
        eprintln!("failed to write {}: {err}", path.display());
        return 1;
    }
    eprintln!("  [sbatch] {}", path.display());
    0
}

/// Prints the fleet-wide pool telemetry accumulated from the workers'
/// shard manifests — the coordinator-side counterpart of the stderr line
/// `run`/`sweep` print directly (stdout and goldens stay untouched).
fn report_fleet_pool_telemetry(docs: &[ShardDocument]) {
    let mut fleet = ShardPoolCounters::default();
    let mut reporting = 0u64;
    for doc in docs {
        if let Some(pool) = &doc.manifest.pool {
            fleet.accumulate(pool);
            reporting += 1;
        }
    }
    if fleet.checkouts == 0 {
        return;
    }
    eprintln!(
        "pool: {} worker(s), {} checkout(s), {:.1}% hit rate, {} B recycled, {} B fresh, \
         high water {} B",
        reporting,
        fleet.checkouts,
        fleet.hit_rate(),
        fleet.recycled_bytes,
        fleet.fresh_bytes,
        fleet.high_water_bytes,
    );
}

/// Runs the dispatcher over the per-worker argument lists and reports the
/// attempt accounting plus fleet pool telemetry on stderr.
fn dispatch_workers(
    args: &ShardArgs,
    worker_args: &[Vec<String>],
) -> Result<Vec<ShardDocument>, String> {
    let launchers = build_launchers(args)?;
    let tasks = shard::worker_tasks(worker_args);
    let (docs, summary) = dispatch::dispatch(&launchers, &tasks, &dispatch_policy(args))?;
    eprintln!("dispatch: {}", summary.render());
    report_fleet_pool_telemetry(&docs);
    Ok(docs)
}

fn execute_shard_run(shard_args: &ShardArgs, args: &RunArgs) -> i32 {
    let started = std::time::Instant::now();
    let workers = shard_args.workers;
    let out_dir = args.out.clone().unwrap_or_else(output::experiments_dir);
    let mut base = vec!["run".to_string()];
    base.extend(args.ids.iter().map(|id| id.as_str().to_string()));
    if let Some(threads) = args.threads {
        base.push("--threads".to_string());
        base.push(threads.to_string());
    }
    if shard_args.launcher == LauncherKind::Slurm {
        return emit_slurm_script(shard_args, &base, &out_dir);
    }
    let worker_args: Vec<Vec<String>> = (0..workers)
        .map(|index| {
            let mut argv = base.clone();
            argv.push("--shard".to_string());
            argv.push(format!("{index}/{workers}"));
            argv
        })
        .collect();
    let docs = match dispatch_workers(shard_args, &worker_args) {
        Ok(docs) => docs,
        Err(err) => {
            eprintln!("error: {err}");
            return 1;
        }
    };
    let expected: Vec<String> = args.ids.iter().map(|id| id.as_str().to_string()).collect();
    let reports = match shard::merge_run(&docs, &expected) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("merge failed: {err}");
            return 1;
        }
    };
    let code = emit_run_reports(&reports, args.format, &out_dir);
    if code != 0 {
        return code;
    }
    eprintln!(
        "merged {workers} shard(s) covering {} experiment(s) in {:.3} s",
        reports.len(),
        started.elapsed().as_secs_f64()
    );
    0
}

fn execute_shard_sweep(shard_args: &ShardArgs, args: &SweepArgs) -> i32 {
    let started = std::time::Instant::now();
    let workers = shard_args.workers;
    let spec = match resolve_sweep_spec(args) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("error: {err}");
            return 2;
        }
    };
    if let Some(path) = &args.preset_out {
        if let Err(err) = spec.write_preset(path) {
            eprintln!("failed to write preset {}: {err}", path.display());
            return 1;
        }
        eprintln!("  [preset] {}", path.display());
    }
    // Pin the resolved configuration in a preset file every worker loads, so
    // all workers provably share one configuration. It lives under the run's
    // own output directory, not the shared temp dir — a predictable path in
    // a world-writable directory would be open to symlink/rewrite games by
    // other local users.
    let out_dir = args.out.clone().unwrap_or_else(output::experiments_dir);
    if shard_args.launcher == LauncherKind::Slurm {
        // Array tasks run later, possibly on other machines: the preset must
        // outlive this process at a stable path next to the script.
        let preset_path = out_dir.join("slurm_shard_preset.json");
        if let Err(err) = spec.write_preset(&preset_path) {
            eprintln!(
                "failed to write the worker preset {}: {err}",
                preset_path.display()
            );
            return 1;
        }
        eprintln!("  [preset] {}", preset_path.display());
        let mut base = vec![
            "sweep".to_string(),
            "--preset".to_string(),
            preset_path.display().to_string(),
        ];
        if let Some(threads) = args.threads {
            base.push("--threads".to_string());
            base.push(threads.to_string());
        }
        return emit_slurm_script(shard_args, &base, &out_dir);
    }
    let preset_path = out_dir.join(format!(
        ".mojo-hpc-shard-preset-{}.json",
        std::process::id()
    ));
    if let Err(err) = spec.write_preset(&preset_path) {
        eprintln!(
            "failed to write the worker preset {}: {err}",
            preset_path.display()
        );
        return 1;
    }
    let worker_args: Vec<Vec<String>> = (0..workers)
        .map(|index| {
            let mut argv = vec![
                "sweep".to_string(),
                "--preset".to_string(),
                preset_path.display().to_string(),
                "--shard".to_string(),
                format!("{index}/{workers}"),
            ];
            if let Some(threads) = args.threads {
                argv.push("--threads".to_string());
                argv.push(threads.to_string());
            }
            argv
        })
        .collect();
    let docs = dispatch_workers(shard_args, &worker_args);
    std::fs::remove_file(&preset_path).ok();
    let docs = match docs {
        Ok(docs) => docs,
        Err(err) => {
            eprintln!("error: {err}");
            return 1;
        }
    };
    let report = match shard::merge_sweep(&spec, &docs) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("merge failed: {err}");
            return 1;
        }
    };
    let code = emit_sweep_report(&report, args.format, &out_dir);
    if code != 0 {
        return code;
    }
    eprintln!(
        "merged {workers} shard(s) covering {} sweep point(s) in {:.3} s",
        spec.sizes.len(),
        started.elapsed().as_secs_f64()
    );
    0
}

/// Renders a sampled Hartree–Fock validation the way experiments render:
/// deterministic text on stdout plus a per-shard CSV table.
fn render_sampled(report: &SampledValidation) -> (String, CsvTable) {
    let mut text = String::new();
    text.push_str(&format!(
        "=== hartree-fock — sampled functional validation (natoms = {}, ngauss = {}) ===\n",
        report.natoms, report.ngauss
    ));
    text.push_str(&format!(
        "quartets {}  shards {}  probed {}  executed {}\n",
        report.nquartets,
        report.shards.len(),
        report.probed,
        report.executed
    ));
    text.push_str(&format!(
        "survivors: exact {}  estimated {}  (estimate error {:.2}%)\n",
        report.exact_survivors,
        report.estimated_survivors,
        report.survivor_estimate_error() * 100.0
    ));
    text.push_str(&format!(
        "max abs error: eri {:.3e}  fock {:.3e}\n",
        report.eri_max_abs_error, report.fock_max_abs_error
    ));
    let mut table = CsvTable::new([
        "shard",
        "start",
        "end",
        "probed",
        "surviving",
        "estimated_survivors",
        "max_abs_error",
    ]);
    for shard in &report.shards {
        table.push_row([
            shard.shard.to_string(),
            shard.start.to_string(),
            shard.end.to_string(),
            shard.probed.to_string(),
            shard.surviving.to_string(),
            shard.estimated_survivors().to_string(),
            format!("{:.3e}", shard.max_abs_error),
        ]);
    }
    (text, table)
}

fn execute_hartree_fock(args: &HartreeFockArgs) -> i32 {
    apply_threads(args.threads);
    let ngauss = args
        .ngauss
        .unwrap_or(if args.atoms >= 1024 { 6 } else { 3 });
    let config = HartreeFockConfig::paper(args.atoms, ngauss);
    let platform = Platform::portable_h100();
    match run_sampled(&platform, &config, args.samples, args.shards) {
        Ok(report) => {
            let (text, table) = render_sampled(&report);
            print!("{text}");
            let out_dir = args.out.clone().unwrap_or_else(output::experiments_dir);
            let path = out_dir.join(format!("hartree_fock_sampled_{}_shards.csv", report.natoms));
            if let Err(err) = table.write_to(&path) {
                eprintln!("failed to write {}: {err}", path.display());
                return 1;
            }
            eprintln!("  [csv] {}", path.display());
            0
        }
        Err(err) => {
            eprintln!("hartree-fock sampled validation failed: {err}");
            1
        }
    }
}

/// Byte-compares the `.csv` and `.json` report files of two directories,
/// naming the first differing row (CSV) or line (JSON) of each mismatched
/// file.
fn execute_diff(dir_a: &Path, dir_b: &Path) -> i32 {
    let list = |dir: &Path| -> Result<Vec<String>, String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok())
            .filter(|entry| {
                entry
                    .path()
                    .extension()
                    .is_some_and(|ext| ext == "csv" || ext == "json")
            })
            .filter_map(|entry| entry.file_name().into_string().ok())
            .collect();
        names.sort();
        Ok(names)
    };
    let (names_a, names_b) = match (list(dir_a), list(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };

    let mut differences = 0u32;
    for name in &names_a {
        if !names_b.contains(name) {
            println!("{name}: only in {}", dir_a.display());
            differences += 1;
        }
    }
    for name in &names_b {
        if !names_a.contains(name) {
            println!("{name}: only in {}", dir_b.display());
            differences += 1;
        }
    }
    for name in names_a.iter().filter(|n| names_b.contains(n)) {
        let read = |dir: &Path| std::fs::read_to_string(dir.join(name));
        let (text_a, text_b) = match (read(dir_a), read(dir_b)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("cannot read {name}: {e}");
                return 2;
            }
        };
        if text_a == text_b {
            continue;
        }
        differences += 1;
        // CSV rows and pretty-JSON lines are both line-shaped, so the first
        // differing line names the divergence in either lane.
        let unit = if name.ends_with(".json") {
            "line"
        } else {
            "row"
        };
        let mut lines_a = text_a.lines();
        let mut lines_b = text_b.lines();
        let mut row = 0u32;
        loop {
            let (line_a, line_b) = (lines_a.next(), lines_b.next());
            if line_a.is_none() && line_b.is_none() {
                // Same lines, so the difference is in trailing bytes.
                println!("{name}: differs in trailing whitespace");
                break;
            }
            if line_a != line_b {
                println!("{name}: {unit} {row} differs");
                println!("  a: {}", line_a.unwrap_or("<missing>"));
                println!("  b: {}", line_b.unwrap_or("<missing>"));
                break;
            }
            row += 1;
        }
    }

    if differences == 0 {
        eprintln!(
            "{} report file(s) identical",
            names_a.iter().filter(|n| names_b.contains(n)).count()
        );
        0
    } else {
        eprintln!("{differences} difference(s) found");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parses_every_subcommand() {
        assert_eq!(parse_line("list").unwrap(), Command::List);
        assert!(matches!(parse_line("help").unwrap(), Command::Help));
        match parse_line("run table4 fig6 --out /tmp/x --threads 2").unwrap() {
            Command::Run(args) => {
                assert_eq!(args.ids, vec![ExperimentId::Table4, ExperimentId::Fig6]);
                assert_eq!(args.out, Some(PathBuf::from("/tmp/x")));
                assert_eq!(args.threads, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("run --all").unwrap() {
            Command::Run(args) => assert_eq!(args.ids.len(), ExperimentId::ALL.len()),
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("run hartree-fock --atoms 1024 --sample 512 --shards 8").unwrap() {
            Command::RunHartreeFock(args) => {
                assert_eq!(args.atoms, 1024);
                assert_eq!(args.samples, 512);
                assert_eq!(args.shards, 8);
                assert_eq!(args.ngauss, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_line("diff a b").unwrap(),
            Command::Diff { .. }
        ));
        match parse_line("bench-diff a.json b.json").unwrap() {
            Command::BenchDiff { max_regression, .. } => assert_eq!(max_regression, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_bench_diff_regression_gate() {
        match parse_line("bench-diff a.json b.json --max-regression 10").unwrap() {
            Command::BenchDiff { max_regression, .. } => {
                assert!((max_regression.unwrap() - 0.10).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The flag may appear anywhere; fractional percentages are fine.
        match parse_line("bench-diff --max-regression 2.5 a b").unwrap() {
            Command::BenchDiff { max_regression, .. } => {
                assert!((max_regression.unwrap() - 0.025).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_line("bench-diff a b --max-regression").is_err());
        assert!(parse_line("bench-diff a b --max-regression -5").is_err());
        assert!(parse_line("bench-diff a b --max-regression nope").is_err());
        assert!(parse_line("bench-diff a b c").is_err());
        assert!(parse_line("bench-diff a").is_err());
        assert!(parse_line("bench-diff a b --frobnicate").is_err());
    }

    #[test]
    fn parses_bench_trajectory() {
        match parse_line("bench-trajectory snaps").unwrap() {
            Command::BenchTrajectory { root, csv } => {
                assert_eq!(root, PathBuf::from("snaps"));
                assert_eq!(csv, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("bench-trajectory snaps --csv trend.csv").unwrap() {
            Command::BenchTrajectory { csv, .. } => {
                assert_eq!(csv, Some(PathBuf::from("trend.csv")));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_line("bench-trajectory").is_err());
        assert!(parse_line("bench-trajectory a b").is_err());
        assert!(parse_line("bench-trajectory a --csv").is_err());
        assert!(parse_line("bench-trajectory a --frobnicate").is_err());
    }

    #[test]
    fn parses_sweep_and_format_flags() {
        match parse_line("sweep stencil --sizes 64,128,256 precision=fp32 --format json").unwrap() {
            Command::Sweep(args) => {
                assert_eq!(args.workload.as_deref(), Some("stencil"));
                assert_eq!(args.sizes, Some(vec![64, 128, 256]));
                assert_eq!(args.params, vec!["precision=fp32".to_string()]);
                assert_eq!(args.format, OutputFormat::Json);
                assert_eq!(args.threads, None);
                assert_eq!(args.shard, None);
                assert_eq!(args.preset, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("run --all --format json").unwrap() {
            Command::Run(args) => assert_eq!(args.format, OutputFormat::Json),
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("run --all").unwrap() {
            Command::Run(args) => assert_eq!(args.format, OutputFormat::Csv),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_sweep_lines() {
        assert!(parse_line("sweep").is_err());
        assert!(parse_line("sweep stencil").is_err());
        assert!(parse_line("sweep stencil --sizes").is_err());
        assert!(parse_line("sweep stencil --sizes ,").is_err());
        assert!(parse_line("sweep stencil --sizes 64,x").is_err());
        assert!(parse_line("sweep stencil --sizes 64 --frobnicate").is_err());
        assert!(parse_line("sweep --sizes 64").is_err());
        assert!(parse_line("sweep stencil other --sizes 64").is_err());
        assert!(parse_line("run --all --format yaml").is_err());
    }

    #[test]
    fn parses_shard_worker_flags() {
        match parse_line("run --all --format json --shard 1/3").unwrap() {
            Command::Run(args) => {
                assert_eq!(args.shard, Some(ShardSpec { index: 1, total: 3 }));
                assert_eq!(args.format, OutputFormat::Json);
            }
            other => panic!("unexpected {other:?}"),
        }
        // No explicit format is fine — the worker always emits JSON.
        assert!(parse_line("run --all --shard 0/2").is_ok());
        match parse_line("sweep stencil --sizes 16,24 --shard 0/2").unwrap() {
            Command::Sweep(args) => {
                assert_eq!(args.shard, Some(ShardSpec { index: 0, total: 2 }))
            }
            other => panic!("unexpected {other:?}"),
        }
        // Out-of-range, malformed, overlapping (repeated) and csv-conflicting
        // shard specs are usage errors.
        assert!(parse_line("run --all --shard 3/3").is_err());
        assert!(parse_line("run --all --shard 5/3").is_err());
        assert!(parse_line("run --all --shard 1/0").is_err());
        assert!(parse_line("run --all --shard nope").is_err());
        assert!(parse_line("run --all --shard 0/3 --shard 1/3").is_err());
        assert!(parse_line("run --all --format csv --shard 0/3").is_err());
        assert!(parse_line("sweep stencil --sizes 16 --format csv --shard 0/2").is_err());
    }

    #[test]
    fn parses_the_shard_coordinator() {
        match parse_line("shard run --all --workers 3 --format json").unwrap() {
            Command::Shard(args) => {
                assert_eq!(args.workers, 3);
                match args.inner.as_ref() {
                    Command::Run(run) => {
                        assert_eq!(run.ids.len(), ExperimentId::ALL.len());
                        assert_eq!(run.format, OutputFormat::Json);
                        assert_eq!(run.shard, None);
                    }
                    other => panic!("unexpected inner {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("shard sweep stencil --sizes 16,24 --workers 2").unwrap() {
            Command::Shard(args) => {
                assert_eq!(args.workers, 2);
                assert!(matches!(args.inner.as_ref(), Command::Sweep(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // --workers may appear anywhere in the line.
        assert!(parse_line("shard run --workers 2 --all").is_ok());
        assert!(parse_line("shard run --all").is_err(), "missing --workers");
        assert!(parse_line("shard run --all --workers 0").is_err());
        assert!(parse_line("shard run --all --workers x").is_err());
        assert!(parse_line("shard --workers 2").is_err());
        assert!(parse_line("shard diff a b --workers 2").is_err());
        assert!(parse_line("shard run hartree-fock --atoms 8 --workers 2").is_err());
        // The coordinator owns shard assignment.
        assert!(parse_line("shard run --all --workers 2 --shard 0/2").is_err());
    }

    #[test]
    fn parses_the_dispatcher_flags() {
        match parse_line(
            "shard run --all --workers 3 --launcher template --hosts h.json \
             --timeout 2.5 --max-attempts 5 --speculate",
        )
        .unwrap()
        {
            Command::Shard(args) => {
                assert_eq!(args.launcher, LauncherKind::Template);
                assert_eq!(args.hosts, Some(PathBuf::from("h.json")));
                assert_eq!(args.timeout, Some(2.5));
                assert_eq!(args.max_attempts, 5);
                assert!(args.speculate);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: local launcher, 3 attempts, no timeout, no speculation.
        match parse_line("shard run --all --workers 2").unwrap() {
            Command::Shard(args) => {
                assert_eq!(args.launcher, LauncherKind::Local);
                assert_eq!(args.hosts, None);
                assert_eq!(args.timeout, None);
                assert_eq!(args.max_attempts, 3);
                assert!(!args.speculate);
            }
            other => panic!("unexpected {other:?}"),
        }
        // "ssh" is an alias for the template launcher; slurm needs no hosts.
        match parse_line("shard run --all --workers 2 --launcher ssh --hosts h.json").unwrap() {
            Command::Shard(args) => assert_eq!(args.launcher, LauncherKind::Template),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_line("shard run --all --workers 2 --launcher slurm").is_ok());
        assert!(parse_line("shard run --all --workers 2 --max-attempts 0").is_ok());
        // Conflicting or malformed dispatcher flags are usage errors.
        assert!(parse_line("shard run --all --workers 2 --launcher warp").is_err());
        assert!(parse_line("shard run --all --workers 2 --launcher template").is_err());
        assert!(parse_line("shard run --all --workers 2 --hosts h.json").is_err());
        assert!(parse_line("shard run --all --workers 2 --timeout 0").is_err());
        assert!(parse_line("shard run --all --workers 2 --timeout -1").is_err());
        assert!(parse_line("shard run --all --workers 2 --timeout inf").is_err());
        assert!(parse_line("shard run --all --workers 2 --timeout nope").is_err());
        assert!(parse_line("shard run --all --workers 2 --max-attempts x").is_err());
        assert!(parse_line("shard run --all --workers 2 --launcher").is_err());
        assert!(parse_line("shard run --all --workers 2 --hosts").is_err());
    }

    #[test]
    fn parses_preset_flags_and_their_conflicts() {
        match parse_line("sweep --preset cfg.json --format json").unwrap() {
            Command::Sweep(args) => {
                assert_eq!(args.preset, Some(PathBuf::from("cfg.json")));
                assert_eq!(args.workload, None);
                assert_eq!(args.sizes, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("sweep stencil --sizes 16 --preset-out cfg.json").unwrap() {
            Command::Sweep(args) => {
                assert_eq!(args.preset_out, Some(PathBuf::from("cfg.json")));
                assert_eq!(args.preset, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // --preset pins everything: combining it with inline configuration
        // is ambiguous and rejected.
        assert!(parse_line("sweep stencil --preset cfg.json").is_err());
        assert!(parse_line("sweep --preset cfg.json --sizes 16").is_err());
        assert!(parse_line("sweep --preset cfg.json precision=fp32").is_err());
        assert!(parse_line("sweep --preset").is_err());
    }

    #[test]
    fn sweep_of_an_unknown_workload_exits_2_naming_the_known_ones() {
        let Command::Sweep(args) = parse_line("sweep frobnicate --sizes 4").unwrap() else {
            panic!("expected a sweep command");
        };
        assert_eq!(execute_sweep(&args), 2);
        // Invalid parameters are also a usage error, caught before running.
        let Command::Sweep(args) = parse_line("sweep stencil --sizes 2").unwrap() else {
            panic!("expected a sweep command");
        };
        assert_eq!(execute_sweep(&args), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse(&[]).is_err());
        assert!(parse_line("frobnicate").is_err());
        assert!(parse_line("run").is_err());
        assert!(parse_line("run table9").is_err());
        assert!(parse_line("run --all table4").is_err());
        assert!(parse_line("run --threads").is_err());
        assert!(parse_line("run --all --threads 0").is_err());
        assert!(parse_line("run hartree-fock --atoms 64 --threads 0").is_err());
        assert!(parse_line("run hartree-fock").is_err());
        assert!(parse_line("run hartree-fock --atoms zero").is_err());
        assert!(parse_line("diff onlyone").is_err());
        assert!(parse_line("list extra").is_err());
    }

    #[test]
    fn unknown_experiment_error_names_the_known_ids() {
        let err = parse_line("run table9").unwrap_err();
        assert!(err.contains("table9"));
        assert!(err.contains("table5"), "error should list known ids: {err}");
    }

    #[test]
    fn diff_reports_identical_and_differing_directories() {
        let base = std::env::temp_dir().join(format!("mojo-hpc-cli-test-{}", std::process::id()));
        let dir_a = base.join("a");
        let dir_b = base.join("b");
        std::fs::create_dir_all(&dir_a).unwrap();
        std::fs::create_dir_all(&dir_b).unwrap();
        std::fs::write(dir_a.join("t.csv"), "h\n1\n").unwrap();
        std::fs::write(dir_b.join("t.csv"), "h\n1\n").unwrap();
        assert_eq!(execute_diff(&dir_a, &dir_b), 0);
        std::fs::write(dir_b.join("t.csv"), "h\n2\n").unwrap();
        assert_eq!(execute_diff(&dir_a, &dir_b), 1);
        std::fs::write(dir_b.join("extra.csv"), "h\n").unwrap();
        assert_eq!(execute_diff(&dir_a, &dir_b), 1);
        std::fs::remove_dir_all(&base).ok();
    }
}
