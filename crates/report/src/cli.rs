//! Command-line interface of the `mojo-hpc` binary.
//!
//! Subcommands:
//!
//! * `list` — print every experiment id and its paper caption, plus every
//!   registered workload with its tunable parameters and defaults;
//! * `run --all | <experiment>…` — regenerate experiments (renders to
//!   stdout, CSV or JSON files under `--out DIR`, `--format csv|json`);
//! * `sweep <workload> --sizes a,b,c` — run any registered workload at
//!   custom problem sizes (with optional `key=value` parameter overrides;
//!   `sweep hartree-fock-sampled` is the sharded, sampled functional
//!   validation of the Hartree–Fock kernel up to 4096 atoms);
//! * `shard (run|sweep) … --workers N` — coordinator: spawn `N` worker
//!   subprocesses of this binary, one shard each, and merge their partial
//!   JSON documents into output byte-identical to a single-process run
//!   (protocol: DESIGN.md §10);
//! * `--shard I/N` on `run`/`sweep` — worker mode: execute shard `I` of the
//!   command's work items and print a partial-report shard document. The
//!   coordinator passes each worker the wrapped command's resolved
//!   configuration on its command line: `run <ids…>` or `sweep <workload>
//!   --sizes a,b,c` with every parameter as a `key=value` assignment;
//! * `serve --listen HOST:PORT` — the always-on TCP report service: caches
//!   results under the stable `Params` encoding, coalesces identical
//!   concurrent requests single-flight, and runs a request's missing points
//!   on the pool like `sweep` does (protocol: DESIGN.md §13);
//! * `diff <dir-a> <dir-b>` — byte-compare the `.csv` and `.json` report
//!   files of two directories.
//!
//! `run` and `sweep` share one execution path (a `Job`): the whole job in a
//! single process, one shard of it in a worker, or a fan-out and merge in
//! the coordinator.
//!
//! Exit codes: `0` success, `1` difference found or validation failed, `2`
//! usage error. All diagnostics go to stderr; stdout carries only the
//! deterministic experiment renderings, so `run` and `sweep` output can be
//! compared byte-for-byte across runs, thread counts and worker counts.

use crate::chaos;
use crate::dispatch::{self, DispatchPolicy, WorkerTask};
use crate::registry::{known_ids, run_experiments, ExperimentId, EXPERIMENTS};
use crate::report::ExperimentReport;
use crate::serve::{self, ServeConfig};
use crate::shard::{self, ShardDocument, ShardManifest, ShardSpec};
use crate::sweep::{run_sweep, SweepSpec};
use gpu_sim::PoolStats;
use hpc_metrics::output;
use science_kernels::workload;
use std::borrow::Borrow;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Output rendering of `run` and `sweep`, on the CLI (`--format`) and in
/// `serve` payloads (the `format` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable console text plus CSV files (the default).
    #[default]
    Csv,
    /// A JSON document on stdout plus one JSON file per report.
    Json,
}

impl OutputFormat {
    /// Parses the value of the flag or protocol field `source`, which the
    /// error names.
    pub fn parse(value: &str, source: &str) -> Result<OutputFormat, String> {
        match value {
            "csv" => Ok(OutputFormat::Csv),
            "json" => Ok(OutputFormat::Json),
            other => Err(format!("{source}: expected csv or json, got '{other}'")),
        }
    }

    /// The stdout bytes of `run` (`array`: the JSON document is an array of
    /// the reports) or `sweep` (the one report's JSON document). The CLI
    /// prints them and `serve` sends them as its payload, so both lanes
    /// produce the same bytes.
    pub fn render<R: Borrow<ExperimentReport>>(self, reports: &[R], array: bool) -> String {
        match self {
            OutputFormat::Csv => reports
                .iter()
                .map(|r| format!("{}\n", r.borrow().render()))
                .collect(),
            OutputFormat::Json if array => ExperimentReport::render_json_array(reports),
            OutputFormat::Json => reports
                .iter()
                .map(|r| r.borrow().to_json_pretty())
                .collect(),
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
    /// `help` / `--help`.
    Help,
}

/// The flags `run` and `sweep` share.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportFlags {
    /// File output directory (`target/experiments` when absent).
    pub out: Option<PathBuf>,
    /// Worker-thread override applied before the pool starts.
    pub threads: Option<usize>,
    /// Output rendering (CSV files + console text, or JSON); `None` when
    /// `--format` was not given, which renders CSV.
    pub format: Option<OutputFormat>,
    /// Worker mode: compute only this shard of the work items and print a
    /// shard document instead of reports (DESIGN.md §10).
    pub shard: Option<ShardSpec>,
}

/// Arguments of `run` over registry experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Experiments to regenerate, in presentation order.
    pub ids: Vec<ExperimentId>,
    /// The flags shared with `sweep`.
    pub flags: ReportFlags,
}

/// Arguments of `sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Registered workload name.
    pub workload: String,
    /// Values of the workload's size parameter, in presentation order.
    pub sizes: Vec<u64>,
    /// `key=value` parameter overrides applied to the workload defaults.
    pub params: Vec<String>,
    /// The flags shared with `run`.
    pub flags: ReportFlags,
}

/// The most worker subprocesses one `shard` invocation may start. Every
/// worker is spawned at once, so a larger `--workers` is refused with a
/// usage error rather than forking without limit.
pub const MAX_WORKERS: u64 = 64;

/// The longest per-worker `--timeout` in seconds (one week). Larger values
/// are refused: they cannot be added to a clock reading without overflow.
pub const MAX_TIMEOUT_SECS: f64 = 7.0 * 24.0 * 3600.0;

/// Arguments of the `shard` coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardArgs {
    /// Worker subprocess count (= shard count), in `1..=MAX_WORKERS`.
    pub workers: u64,
    /// Per-worker wall-clock timeout in seconds; a worker exceeding it is
    /// killed and the attempt counts as failed.
    pub timeout: Option<f64>,
    /// Attempt budget per shard (default 3; 0 runs a single attempt and
    /// degrades gracefully on failure).
    pub max_attempts: u32,
    /// The wrapped command ([`Command::Run`] or [`Command::Sweep`]) whose
    /// work items the workers partition.
    pub inner: Box<Command>,
}

/// The usage text printed on `help` and usage errors.
pub fn usage() -> &'static str {
    "mojo-hpc — regenerate the paper's experiments and validate the kernels

USAGE:
  mojo-hpc list
  mojo-hpc run (--all | <experiment>...) [--out DIR] [--threads N]
                            [--format csv|json] [--shard I/N]
  mojo-hpc sweep <workload> --sizes A,B,C [key=value ...] [--out DIR]
                            [--threads N] [--format csv|json] [--shard I/N]
  mojo-hpc shard (run|sweep) <run/sweep arguments> --workers N
                            [--timeout SECS] [--max-attempts N]
  mojo-hpc serve --listen HOST:PORT [--threads N] [--cache-entries N]
                            [--scratch DIR]
  mojo-hpc diff <dir-a> <dir-b>
  mojo-hpc help

Experiment and sweep renderings go to stdout (byte-identical at every
--threads / RAYON_NUM_THREADS setting); CSV or JSON files land under --out
(default target/experiments); diagnostics go to stderr. `mojo-hpc list`
names every workload with its tunable parameters and defaults; `--sizes`
sweeps the workload's size parameter and `key=value` pins any other.
`sweep hartree-fock-sampled` validates the Hartree-Fock kernel
functionally up to 4096 atoms by sharded, sampled quartet probes. `run`
and `sweep` report the buffer-pool's hit rate and traffic on stderr after
each invocation.

SCALE-OUT (DESIGN.md \u{a7}10): `mojo-hpc shard run|sweep ... --workers N`
spawns N worker subprocesses of this binary, partitions the command's work
items (experiments for run, sweep points for sweep) deterministically, and
merges the workers' partial JSON documents into output byte-identical to
the single-process command. Each worker gets the resolved configuration on
its command line (for sweep: the workload, --sizes and every parameter as
key=value). `--shard I/N` is the worker-side flag: it runs shard I and
prints a JSON shard document (manifest + partial reports); it cannot be
combined with `--format csv`.

DISPATCHER (DESIGN.md \u{a7}12): all N workers start at once on this host,
each under its own supervisor; N is at most 64. `--timeout SECS` kills a worker
exceeding the wall clock; SECS is at most 604800 (one week).
`--max-attempts N` retries a failed shard with exponential backoff (default
3; 0 runs a single attempt and, on failure, reports which ranges completed
before exiting 1). MOJO_HPC_CHAOS=mode:shard[:attempts] injects
crash/hang/garble faults into workers for harness testing.

SERVE (DESIGN.md \u{a7}13): `mojo-hpc serve --listen HOST:PORT` runs an
always-on TCP service speaking line-delimited JSON: one request per line
({\"cmd\":\"run\"|\"sweep\"|\"stats\"|\"shutdown\", ...}), one JSON header
line per response, followed (for run/sweep) by a payload byte-identical to
that subcommand's stdout. Results are cached in an LRU keyed on the stable
Params encoding (bounded by --cache-entries and 64 MiB); identical
concurrent requests coalesce onto a single computation; the points a sweep
still needs run in parallel on the worker pool, as `sweep` runs them.
`--scratch DIR` is accepted and ignored. The bound address is announced on
stderr; `stats` reports cache, single-flight and buffer-pool counters.

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

/// Parses `serve --listen ADDR [--threads N] [--cache-entries N]
/// [--scratch DIR]`. `--scratch` takes a value and has no
/// effect: serve writes no files, and existing scripts still pass the flag.
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
            "--scratch" => {
                flag_value("--scratch", &mut args)?;
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

impl ReportFlags {
    /// Takes `arg` (and its value from `args`) when it is one of the shared
    /// flags, returning whether it was. A repeated `--shard` is refused:
    /// two specs would make the worker's coverage ambiguous.
    fn take<'a>(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = &'a str>,
    ) -> Result<bool, String> {
        match arg {
            "--out" => self.out = Some(PathBuf::from(flag_value("--out", args)?)),
            "--threads" => self.threads = Some(parse_threads(flag_value("--threads", args)?)?),
            "--format" => {
                self.format = Some(OutputFormat::parse(
                    flag_value("--format", args)?,
                    "--format",
                )?)
            }
            "--shard" => {
                if self.shard.is_some() {
                    return Err(
                        "--shard given more than once (shards must not overlap)".to_string()
                    );
                }
                self.shard = Some(ShardSpec::parse(flag_value("--shard", args)?)?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Rejects the `--shard I/N` + `--format csv` combination once the line
    /// is parsed: a shard worker's stdout is always one JSON shard document.
    fn check(self) -> Result<ReportFlags, String> {
        if self.shard.is_some() && self.format == Some(OutputFormat::Csv) {
            return Err(
                "--shard workers emit a JSON shard document; --format csv cannot be combined \
                 with --shard (the coordinator renders CSV after merging)"
                    .to_string(),
            );
        }
        Ok(self)
    }

    /// The output rendering (CSV unless `--format json`).
    fn format(&self) -> OutputFormat {
        self.format.unwrap_or_default()
    }

    /// The file output directory.
    fn out_dir(&self) -> PathBuf {
        self.out.clone().unwrap_or_else(output::experiments_dir)
    }
}

fn parse_run(rest: &[&str]) -> Result<Command, String> {
    let mut ids = Vec::new();
    let mut all = false;
    let mut flags = ReportFlags::default();
    let mut args = rest.iter().copied();
    while let Some(arg) = args.next() {
        if flags.take(arg, &mut args)? {
            continue;
        }
        match arg {
            "--all" => all = true,
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
    let flags = flags.check()?;
    Ok(Command::Run(RunArgs { ids, flags }))
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

fn parse_sweep(rest: &[&str]) -> Result<Command, String> {
    let mut name = None;
    let mut sizes = None;
    let mut params = Vec::new();
    let mut flags = ReportFlags::default();
    let mut args = rest.iter().copied();
    while let Some(arg) = args.next() {
        if flags.take(arg, &mut args)? {
            continue;
        }
        match arg {
            "--sizes" => sizes = Some(parse_sizes(flag_value("--sizes", &mut args)?)?),
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
    let workload = name.ok_or_else(|| {
        format!(
            "'sweep' needs a workload name (known: {})",
            workload::known_names()
        )
    })?;
    let sizes = sizes.ok_or_else(|| "'sweep' needs --sizes A,B,C".to_string())?;
    let flags = flags.check()?;
    Ok(Command::Sweep(SweepArgs {
        workload,
        sizes,
        params,
        flags,
    }))
}

/// Parses `shard (run|sweep) … --workers N [--timeout SECS] [--max-attempts
/// N]`: extract the coordinator's own flags, delegate the rest to the
/// wrapped subcommand's parser, and reject what the coordinator owns
/// (`--shard` on the inner command) or cannot honour (more than
/// [`MAX_WORKERS`] workers, a timeout above [`MAX_TIMEOUT_SECS`]).
fn parse_shard(rest: &[&str]) -> Result<Command, String> {
    let mut workers = None;
    let mut timeout = None;
    let mut max_attempts = 3u32;
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
            "--timeout" => {
                let secs: f64 = parse_number("--timeout", flag_value("--timeout", &mut args)?)?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--timeout must be a positive number of seconds".to_string());
                }
                if secs > MAX_TIMEOUT_SECS {
                    return Err(format!(
                        "--timeout must be at most {MAX_TIMEOUT_SECS} seconds"
                    ));
                }
                timeout = Some(secs);
            }
            "--max-attempts" => {
                max_attempts = parse_number::<u32>(
                    "--max-attempts",
                    flag_value("--max-attempts", &mut args)?,
                )?;
            }
            other => inner_args.push(other),
        }
    }
    let workers = workers.ok_or_else(|| "'shard' needs --workers N".to_string())?;
    if workers == 0 || workers > MAX_WORKERS {
        return Err(format!("--workers must be in [1, {MAX_WORKERS}]"));
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
    if report_flags(&inner).shard.is_some() {
        return Err(
            "--shard is assigned by the shard coordinator; pass --workers N instead".to_string(),
        );
    }
    Ok(Command::Shard(ShardArgs {
        workers,
        timeout,
        max_attempts,
        inner: Box::new(inner),
    }))
}

/// The shared flags of a `run` or `sweep` command.
fn report_flags(command: &Command) -> &ReportFlags {
    match command {
        Command::Run(args) => &args.flags,
        Command::Sweep(args) => &args.flags,
        _ => unreachable!("only run and sweep carry report flags"),
    }
}

/// Applies a `--threads` override. Must run before the first parallel call
/// of the process — the worker pool reads `RAYON_NUM_THREADS` once, when it
/// is first used.
fn apply_threads(threads: Option<usize>) {
    if let Some(n) = threads {
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    }
}

/// One pool-telemetry line on stderr — stdout stays byte-identical to the
/// golden renderings (DESIGN.md §11 telemetry). `workers` names how many
/// shard workers reported the counters, when a coordinator accumulated
/// them.
fn report_pool(pool: &PoolStats, workers: Option<usize>) {
    if pool.checkouts == 0 {
        return;
    }
    let fleet = workers.map_or(String::new(), |n| format!("{n} worker(s), "));
    eprintln!(
        "pool: {fleet}{} checkout(s), {:.1}% hit rate, {} B recycled, {} B fresh, high water {} B",
        pool.checkouts,
        pool.hit_rate() * 100.0,
        pool.recycled_bytes,
        pool.fresh_bytes,
        pool.high_water_bytes,
    );
}

/// Executes a parsed command, returning the process exit code.
pub fn execute(command: &Command) -> i32 {
    match command {
        Command::List => {
            execute_list();
            0
        }
        Command::Run(_) | Command::Sweep(_) => execute_report(command),
        Command::Shard(args) => execute_shard(args),
        Command::Serve(config) => execute_serve(config),
        Command::Diff { dir_a, dir_b } => execute_diff(dir_a, dir_b),
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
                "      {:<18} {} {}",
                format!("{}={}", spec.name, spec.default_value()),
                spec.help,
                spec.domain
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

/// The resolved work of a `run` or `sweep` command: the single process
/// computes all of it, a `--shard I/N` worker one range of it, and the
/// `shard` coordinator partitions and merges it. Both lanes go through
/// here, so they share one worker and one coordinator path.
enum Job<'a> {
    /// `run`: experiments in presentation order.
    Run(&'a [ExperimentId]),
    /// `sweep`: a validated sweep.
    Sweep(SweepSpec),
}

impl<'a> Job<'a> {
    /// Resolves a `run` or `sweep` command; an unknown workload or an
    /// invalid sweep point is a usage error (exit 2).
    fn resolve(command: &'a Command) -> Result<Job<'a>, String> {
        match command {
            Command::Run(args) => Ok(Job::Run(&args.ids)),
            Command::Sweep(args) => {
                let engine = workload::find(&args.workload).ok_or_else(|| {
                    format!(
                        "unknown workload '{}' (known: {})",
                        args.workload,
                        workload::known_names()
                    )
                })?;
                SweepSpec::new(engine, &args.params, args.sizes.clone())
                    .map(Job::Sweep)
                    .map_err(|e| e.to_string())
            }
            _ => unreachable!("only run and sweep resolve to a job"),
        }
    }

    /// The subcommand, as named in a shard manifest.
    fn command(&self) -> &'static str {
        match self {
            Job::Run(_) => "run",
            Job::Sweep(_) => "sweep",
        }
    }

    /// The work-item labels: experiment ids for `run`, sizes for `sweep`.
    fn items(&self) -> Vec<String> {
        match self {
            Job::Run(ids) => ids.iter().map(|id| id.as_str().to_string()).collect(),
            Job::Sweep(spec) => spec.sizes.iter().map(u64::to_string).collect(),
        }
    }

    /// The reports of the work items in `range`: one per experiment for
    /// `run`, one sweep report over the range's points for `sweep`.
    fn reports(&self, range: Range<usize>) -> Result<Vec<ExperimentReport>, String> {
        match self {
            Job::Run(ids) => Ok(run_experiments(&ids[range])),
            Job::Sweep(spec) => {
                let part = SweepSpec {
                    workload: spec.workload,
                    base: spec.base.clone(),
                    sizes: spec.sizes[range].to_vec(),
                };
                run_sweep(&part)
                    .map(|report| vec![report])
                    .map_err(|err| format!("sweep failed: {err}"))
            }
        }
    }

    /// The command line a worker needs to compute this job: `run <ids…>`,
    /// or `sweep <workload> --sizes a,b,c` followed by every base
    /// parameter as a `key=value` assignment, so each worker resolves the
    /// configuration the coordinator resolved.
    fn worker_argv(&self) -> Vec<String> {
        let mut argv = vec![self.command().to_string()];
        match self {
            Job::Run(_) => argv.extend(self.items()),
            Job::Sweep(spec) => {
                argv.extend([
                    spec.workload.name().to_string(),
                    "--sizes".to_string(),
                    self.items().join(","),
                ]);
                let encoding = spec.base.encode();
                argv.extend(
                    encoding
                        .split(',')
                        .filter(|a| !a.is_empty())
                        .map(String::from),
                );
            }
        }
        argv
    }

    /// Merges worker documents into the reports the single process renders.
    fn merge(&self, docs: &[ShardDocument]) -> Result<Vec<ExperimentReport>, String> {
        match self {
            Job::Run(_) => shard::merge_run(docs, &self.items()),
            Job::Sweep(spec) => shard::merge_sweep(spec, docs).map(|report| vec![report]),
        }
    }

    /// Prints the reports in the `--format` rendering and writes their
    /// files under `--out` — the shared tail of the single-process and sharded lanes, so both
    /// produce identical stdout and files.
    fn emit(&self, reports: &[ExperimentReport], flags: &ReportFlags) -> i32 {
        let format = flags.format();
        print!("{}", format.render(reports, matches!(self, Job::Run(_))));
        let dir = flags.out_dir();
        if reports.iter().all(|r| write_report_files(r, &dir, format)) {
            0
        } else {
            1
        }
    }

    /// What a finished invocation covered, for the closing stderr line.
    fn summary(&self) -> String {
        match self {
            Job::Run(ids) => format!("{} experiment(s)", ids.len()),
            Job::Sweep(spec) => format!("{} sweep point(s)", spec.sizes.len()),
        }
    }
}

/// `run` and `sweep`: the whole job in this process, or one shard of it in
/// worker mode (`--shard I/N`).
fn execute_report(command: &Command) -> i32 {
    let flags = report_flags(command);
    apply_threads(flags.threads);
    let job = match Job::resolve(command) {
        Ok(job) => job,
        Err(err) => {
            eprintln!("error: {err}");
            return 2;
        }
    };
    if let Some(spec) = &flags.shard {
        return execute_shard_worker(&job, spec);
    }
    let started = Instant::now();
    let pool_before = gpu_sim::pool::stats();
    let reports = match job.reports(0..job.items().len()) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("{err}");
            return 1;
        }
    };
    report_pool(&gpu_sim::pool::stats().since(&pool_before), None);
    let code = job.emit(&reports, flags);
    if code == 0 {
        eprintln!(
            "computed {} in {:.3} s",
            job.summary(),
            started.elapsed().as_secs_f64()
        );
    }
    code
}

/// Worker mode: compute only this shard of the job's work items and print
/// a shard document (manifest + partial reports) on stdout. No files are
/// written — the coordinator renders and writes the merged output. The
/// manifest is [`ShardManifest::new`]'s, which the merge builds again to
/// check it, so a sweep worker provably ran the coordinator's
/// configuration. Consults the chaos seam first, so the fault-injection
/// harness can perturb exactly this path (DESIGN.md §12).
fn execute_shard_worker(job: &Job, spec: &ShardSpec) -> i32 {
    chaos::apply(spec.index);
    let items = job.items();
    let range = spec.range(items.len());
    let pool_before = gpu_sim::pool::stats();
    let reports = if range.is_empty() {
        Vec::new()
    } else {
        match job.reports(range) {
            Ok(reports) => reports,
            Err(err) => {
                eprintln!("{err}");
                return 1;
            }
        }
    };
    let pool = gpu_sim::pool::stats().since(&pool_before);
    let sweep = match job {
        Job::Run(_) => None,
        Job::Sweep(sweep) => Some(sweep),
    };
    let mut manifest = ShardManifest::new(*spec, &items, sweep);
    manifest.pool = (pool.checkouts != 0).then_some(pool);
    let doc = ShardDocument { manifest, reports };
    print!("{}", doc.to_json_pretty());
    0
}

/// The `shard` coordinator: run one local worker per shard under the
/// dispatcher's supervision, each given the job's resolved configuration
/// on its command line, merge their documents, and render the merged
/// output exactly as the wrapped single-process command would.
fn execute_shard(args: &ShardArgs) -> i32 {
    let started = Instant::now();
    let flags = report_flags(&args.inner);
    let job = match Job::resolve(&args.inner) {
        Ok(job) => job,
        Err(err) => {
            eprintln!("error: {err}");
            return 2;
        }
    };
    let mut base = job.worker_argv();
    if let Some(threads) = flags.threads {
        base.extend(["--threads".to_string(), threads.to_string()]);
    }
    let workers = args.workers;
    let worker_args: Vec<Vec<String>> = (0..workers)
        .map(|index| {
            let mut argv = base.clone();
            argv.extend(["--shard".to_string(), format!("{index}/{workers}")]);
            argv
        })
        .collect();
    let docs = match dispatch_workers(args, &worker_args) {
        Ok(docs) => docs,
        Err(err) => {
            eprintln!("error: {err}");
            return 1;
        }
    };
    let reports = match job.merge(&docs) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("merge failed: {err}");
            return 1;
        }
    };
    let code = job.emit(&reports, flags);
    if code == 0 {
        eprintln!(
            "merged {workers} shard(s) covering {} in {:.3} s",
            job.summary(),
            started.elapsed().as_secs_f64()
        );
    }
    code
}

/// Runs the dispatcher over the per-worker argument lists and reports the
/// attempt accounting plus the fleet's pool telemetry, accumulated from
/// the workers' manifests, on stderr.
fn dispatch_workers(
    args: &ShardArgs,
    worker_args: &[Vec<String>],
) -> Result<Vec<ShardDocument>, String> {
    // Workers re-invoke this executable, so they speak the same schema.
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the current executable: {e}"))?;
    let command = |task: &WorkerTask| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(&task.args);
        cmd
    };
    let tasks = shard::worker_tasks(worker_args);
    let policy = DispatchPolicy {
        max_attempts: args.max_attempts,
        timeout: args.timeout.map(Duration::from_secs_f64),
        ..DispatchPolicy::default()
    };
    let (docs, summary) = dispatch::dispatch(&command, &tasks, &policy)?;
    eprintln!("dispatch: {}", summary.render());
    let mut pools = docs.iter().filter_map(|doc| doc.manifest.pool);
    if let Some(mut fleet) = pools.next() {
        let mut reporting = 1;
        for pool in pools {
            fleet.accumulate(&pool);
            reporting += 1;
        }
        report_pool(&fleet, Some(reporting));
    }
    Ok(docs)
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
                assert_eq!(args.flags.out, Some(PathBuf::from("/tmp/x")));
                assert_eq!(args.flags.threads, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("run --all").unwrap() {
            Command::Run(args) => assert_eq!(args.ids.len(), ExperimentId::ALL.len()),
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("serve --listen 127.0.0.1:0 --cache-entries 8 --scratch d").unwrap() {
            Command::Serve(config) => {
                assert_eq!(config.listen, "127.0.0.1:0");
                assert_eq!(config.cache_entries, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_line("diff a b").unwrap(),
            Command::Diff { .. }
        ));
    }

    #[test]
    fn parses_sweep_and_format_flags() {
        match parse_line("sweep stencil --sizes 64,128,256 precision=fp32 --format json").unwrap() {
            Command::Sweep(args) => {
                assert_eq!(args.workload, "stencil");
                assert_eq!(args.sizes, vec![64, 128, 256]);
                assert_eq!(args.params, vec!["precision=fp32".to_string()]);
                assert_eq!(args.flags.format(), OutputFormat::Json);
                assert_eq!(args.flags.threads, None);
                assert_eq!(args.flags.shard, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("run --all --format json").unwrap() {
            Command::Run(args) => assert_eq!(args.flags.format(), OutputFormat::Json),
            other => panic!("unexpected {other:?}"),
        }
        match parse_line("run --all").unwrap() {
            Command::Run(args) => assert_eq!(args.flags.format(), OutputFormat::Csv),
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
        assert_eq!(
            parse_line("run --all --format yaml").unwrap_err(),
            "--format: expected csv or json, got 'yaml'"
        );
    }

    #[test]
    fn parses_shard_worker_flags() {
        match parse_line("run --all --format json --shard 1/3").unwrap() {
            Command::Run(args) => {
                assert_eq!(args.flags.shard, Some(ShardSpec { index: 1, total: 3 }));
                assert_eq!(args.flags.format(), OutputFormat::Json);
            }
            other => panic!("unexpected {other:?}"),
        }
        // No explicit format is fine — the worker always emits JSON.
        assert!(parse_line("run --all --shard 0/2").is_ok());
        match parse_line("sweep stencil --sizes 16,24 --shard 0/2").unwrap() {
            Command::Sweep(args) => {
                assert_eq!(args.flags.shard, Some(ShardSpec { index: 0, total: 2 }))
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
                        assert_eq!(run.flags.format(), OutputFormat::Json);
                        assert_eq!(run.flags.shard, None);
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
        // Parsing only: no worker is started at either count.
        let at_cap = format!("shard run --all --workers {MAX_WORKERS}");
        assert!(parse_line(&at_cap).is_ok());
        let over_cap = format!("shard run --all --workers {}", MAX_WORKERS + 1);
        let err = parse_line(&over_cap).unwrap_err();
        assert!(err.contains(&MAX_WORKERS.to_string()), "{err}");
        assert!(parse_line("shard run --all --workers x").is_err());
        assert!(parse_line("shard --workers 2").is_err());
        assert!(parse_line("shard diff a b --workers 2").is_err());
        assert!(parse_line("shard run hartree-fock --atoms 8 --workers 2").is_err());
        // The coordinator owns shard assignment.
        assert!(parse_line("shard run --all --workers 2 --shard 0/2").is_err());
    }

    #[test]
    fn parses_the_dispatcher_flags() {
        match parse_line("shard run --all --workers 3 --timeout 2.5 --max-attempts 5").unwrap() {
            Command::Shard(args) => {
                assert_eq!(args.timeout, Some(2.5));
                assert_eq!(args.max_attempts, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: 3 attempts, no timeout.
        match parse_line("shard run --all --workers 2").unwrap() {
            Command::Shard(args) => {
                assert_eq!(args.timeout, None);
                assert_eq!(args.max_attempts, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_line("shard run --all --workers 2 --max-attempts 0").is_ok());
        let max_timeout = format!("shard run --all --workers 2 --timeout {MAX_TIMEOUT_SECS}");
        assert!(parse_line(&max_timeout).is_ok());
        // Malformed or out-of-range dispatcher flags are usage errors.
        assert!(parse_line("shard run --all --workers 2 --timeout 0").is_err());
        assert!(parse_line("shard run --all --workers 2 --timeout -1").is_err());
        assert!(parse_line("shard run --all --workers 2 --timeout inf").is_err());
        assert!(parse_line("shard run --all --workers 2 --timeout nope").is_err());
        assert!(parse_line("shard run --all --workers 2 --timeout 1e19").is_err());
        assert!(parse_line("shard run --all --workers 2 --timeout 1e300").is_err());
        assert!(parse_line("shard run --all --workers 2 --max-attempts x").is_err());
        // The usage text quotes both caps.
        assert!(usage().contains(&format!("N is at most {MAX_WORKERS}.")));
        assert!(usage().contains(&format!("SECS is at most {MAX_TIMEOUT_SECS} (one week)")));
    }

    #[test]
    fn parses_preset_flags_and_their_conflicts() {
        // A sweep's configuration has one encoding, its command line: the
        // preset-file flags are unknown arguments.
        let (preset, preset_out) = (concat!("--", "preset"), concat!("--", "preset-out"));
        for line in [
            format!("sweep {preset} cfg.json --format json"),
            format!("sweep stencil --sizes 16 {preset_out} cfg.json"),
            format!("shard sweep {preset} cfg.json --workers 2"),
        ] {
            let err = parse_line(&line).unwrap_err();
            assert!(err.contains("unknown 'sweep' argument"), "{line}: {err}");
            assert!(err.contains(preset), "{line}: {err}");
        }
    }

    #[test]
    fn sweep_of_an_unknown_workload_exits_2_naming_the_known_ones() {
        assert_eq!(
            execute(&parse_line("sweep frobnicate --sizes 4").unwrap()),
            2
        );
        // Invalid parameters are also a usage error, caught before running.
        assert_eq!(execute(&parse_line("sweep stencil --sizes 2").unwrap()), 2);
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
        assert!(parse_line("serve").is_err());
        assert!(parse_line("serve --listen 127.0.0.1:0 --scratch").is_err());
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
