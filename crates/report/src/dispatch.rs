//! Fault-tolerant shard dispatcher: supervised worker execution above the
//! shard/merge protocol (DESIGN.md §12).
//!
//! `crate::shard` defines *what* a worker computes (`--shard I/N`, one JSON
//! shard document on stdout) and how documents merge byte-identically.
//! This module owns *how workers run*: it supersedes the bare
//! spawn-and-wait fan-out with a supervision loop that keeps a fleet of
//! launchers busy and survives individual worker failures without
//! corrupting the merged result.
//!
//! The pieces:
//!
//! * [`Launcher`] — a pluggable way of turning one [`WorkerTask`] into a
//!   spawned process. [`LocalLauncher`] runs worker subprocesses of an
//!   executable on this host (the default); [`TemplateLauncher`] expands a
//!   command template from a [`HostManifest`] (`ssh {host} -- {exe} …` for
//!   cluster dispatch, or any argv — `cat shard_{shard}.json` replays
//!   pre-computed documents); [`slurm_job_array_script`] generates a
//!   SLURM-style job-array batch file instead of running anything.
//! * [`DispatchPolicy`] — per-worker wall-clock timeout, bounded retry with
//!   exponential backoff and deterministic jitter, and straggler
//!   speculation.
//! * [`dispatch`] — the engine: launch every shard, capture stdout/stderr,
//!   reap workers that exceed the timeout, retry failures (re-sharding the
//!   dead worker's range onto the healthiest launcher with a free slot),
//!   and optionally launch speculative duplicates of the slowest
//!   outstanding shard — first completion wins, the loser is killed.
//!
//! Failure handling is all-or-nothing: if any shard exhausts its attempt
//! budget the whole dispatch fails with an error naming each failed shard,
//! its attempt count and the tail of its captured stderr, plus the ranges
//! that *did* complete — and the coordinator writes no output files. The
//! merged result can never silently degrade, because the
//! [`ShardDocument`] tiling invariants reject overlapping or missing
//! ranges regardless of which attempt produced each document.

use crate::chaos;
use crate::report::{json_array, json_field, json_opt_field, json_str, json_u64};
use crate::shard::ShardDocument;
use serde::value::Value;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Version tag of the host-manifest schema.
pub const HOST_MANIFEST_SCHEMA: u64 = 1;

/// How many trailing stderr lines a failure report quotes per attempt.
pub const STDERR_TAIL_LINES: usize = 10;

/// Floor on the straggler threshold: a shard is never speculated before it
/// has run at least this long, however fast its siblings were.
const SPECULATE_FLOOR: Duration = Duration::from_millis(200);

/// Supervision loop poll interval.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// One shard's worth of work: the arguments a worker needs to compute shard
/// `shard` of `shards` (the `--shard I/N` flag is already part of `args`).
#[derive(Debug, Clone)]
pub struct WorkerTask {
    /// The shard index this task computes (the document must match it).
    pub shard: u64,
    /// Total shard count of the partition.
    pub shards: u64,
    /// Worker argv, excluding the program itself.
    pub args: Vec<String>,
}

/// A pluggable way of running one worker attempt.
///
/// Implementations only build the [`Command`]; the dispatcher owns
/// supervision (capture, timeout, retry, speculation) uniformly across
/// launcher kinds.
pub trait Launcher {
    /// Human-readable name used in diagnostics (`local`, `ssh node-a`).
    fn describe(&self) -> String;
    /// How many workers may run concurrently through this launcher.
    fn slots(&self) -> usize;
    /// Builds the command executing one worker attempt of `task`.
    fn command(&self, task: &WorkerTask) -> Command;
}

/// Runs worker subprocesses of an executable on this host.
#[derive(Debug, Clone)]
pub struct LocalLauncher {
    exe: PathBuf,
    slots: usize,
}

impl LocalLauncher {
    /// A launcher spawning `exe` with `slots` concurrent workers.
    pub fn new(exe: impl Into<PathBuf>, slots: usize) -> LocalLauncher {
        LocalLauncher {
            exe: exe.into(),
            slots: slots.max(1),
        }
    }

    /// A launcher re-invoking the current executable — the coordinator's
    /// default, guaranteeing workers speak the same schema.
    pub fn current_exe(slots: usize) -> Result<LocalLauncher, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the current executable: {e}"))?;
        Ok(LocalLauncher::new(exe, slots))
    }
}

impl Launcher for LocalLauncher {
    fn describe(&self) -> String {
        "local".to_string()
    }

    fn slots(&self) -> usize {
        self.slots
    }

    fn command(&self, task: &WorkerTask) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.args(&task.args);
        cmd
    }
}

/// One host entry of a [`HostManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostEntry {
    /// Host name substituted for `{host}` in the command template.
    pub name: String,
    /// Concurrent worker slots on this host.
    pub slots: u64,
}

/// A JSON host-manifest file driving the template launcher and the SLURM
/// generator: a command template plus the hosts (and their slot counts) the
/// dispatcher may place workers on.
///
/// ```json
/// {
///   "schema": 1,
///   "template": ["ssh", "{host}", "--", "mojo-hpc"],
///   "hosts": [
///     { "name": "node-a", "slots": 2 },
///     { "name": "node-b", "slots": 4 }
///   ]
/// }
/// ```
///
/// Template placeholders: `{host}` (the host entry's name), `{exe}` (the
/// coordinator's own executable path), `{shard}` and `{shards}` (the
/// task's indices). The worker's own arguments are appended after the
/// expanded template — unless the template mentions `{shard}`, in which
/// case the template is taken as the complete command (the replay shape:
/// `["cat", "shard_{shard}.json"]`). When `template` is absent the SSH
/// default `["ssh", "{host}", "--", "{exe}"]` applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostManifest {
    /// Command template (argv prefix, or the whole argv with `{shard}`).
    pub template: Vec<String>,
    /// The dispatchable hosts, each with a slot budget.
    pub hosts: Vec<HostEntry>,
}

/// The default command template when a manifest omits `template`.
pub const DEFAULT_TEMPLATE: [&str; 4] = ["ssh", "{host}", "--", "{exe}"];

impl HostManifest {
    /// The manifest as a JSON value tree.
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), Value::U64(HOST_MANIFEST_SCHEMA)),
            (
                "template".to_string(),
                Value::Array(self.template.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "hosts".to_string(),
                Value::Array(
                    self.hosts
                        .iter()
                        .map(|h| {
                            Value::Object(vec![
                                ("name".to_string(), Value::Str(h.name.clone())),
                                ("slots".to_string(), Value::U64(h.slots)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The manifest as pretty-printed JSON text (trailing newline included).
    pub fn to_json_pretty(&self) -> String {
        let mut json =
            serde_json::to_string_pretty(&self.to_json_value()).expect("manifest serialises");
        json.push('\n');
        json
    }

    /// Parses a manifest back from its JSON value tree, validating it.
    pub fn from_json_value(value: &Value) -> Result<HostManifest, String> {
        let schema = json_u64(json_field(value, "schema")?)?;
        if schema != HOST_MANIFEST_SCHEMA {
            return Err(format!(
                "unsupported host manifest schema {schema} (this binary speaks \
                 {HOST_MANIFEST_SCHEMA})"
            ));
        }
        let template = match json_opt_field(value, "template") {
            None | Some(Value::Null) => DEFAULT_TEMPLATE.iter().map(|s| s.to_string()).collect(),
            Some(other) => json_array(other)?
                .iter()
                .map(|item| Ok(json_str(item)?.to_string()))
                .collect::<Result<_, String>>()?,
        };
        let hosts = json_array(json_field(value, "hosts")?)?
            .iter()
            .map(|entry| {
                Ok(HostEntry {
                    name: json_str(json_field(entry, "name")?)?.to_string(),
                    slots: json_u64(json_field(entry, "slots")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let manifest = HostManifest { template, hosts };
        manifest.validate()?;
        Ok(manifest)
    }

    /// Parses a manifest from JSON text.
    pub fn parse(text: &str) -> Result<HostManifest, String> {
        let value: Value = serde_json::from_str(text)
            .map_err(|e| format!("host manifest is not valid JSON: {e}"))?;
        HostManifest::from_json_value(&value)
    }

    /// Loads a manifest file.
    pub fn load(path: &Path) -> Result<HostManifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read host manifest {}: {e}", path.display()))?;
        HostManifest::parse(&text).map_err(|e| format!("host manifest {}: {e}", path.display()))
    }

    /// Writes the manifest as a JSON file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json_pretty())
    }

    /// Checks the structural invariants: a non-empty template, at least one
    /// host, every host named uniquely with at least one slot.
    pub fn validate(&self) -> Result<(), String> {
        if self.template.is_empty() {
            return Err("host manifest: the command template must not be empty".to_string());
        }
        if self.hosts.is_empty() {
            return Err("host manifest: at least one host is required".to_string());
        }
        for (i, host) in self.hosts.iter().enumerate() {
            if host.name.is_empty() {
                return Err(format!("host manifest: host {i} has an empty name"));
            }
            if host.slots == 0 {
                return Err(format!(
                    "host manifest: host '{}' has 0 slots (need at least 1)",
                    host.name
                ));
            }
            if self.hosts[..i].iter().any(|h| h.name == host.name) {
                return Err(format!(
                    "host manifest: host '{}' appears more than once",
                    host.name
                ));
            }
        }
        Ok(())
    }

    /// Builds one [`TemplateLauncher`] per host, resolving `{exe}` against
    /// the current executable.
    pub fn launchers(&self) -> Result<Vec<Box<dyn Launcher>>, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the current executable: {e}"))?;
        self.validate()?;
        Ok(self
            .hosts
            .iter()
            .map(|host| {
                Box::new(TemplateLauncher {
                    host: host.name.clone(),
                    slots: host.slots as usize,
                    template: self.template.clone(),
                    exe: exe.clone(),
                }) as Box<dyn Launcher>
            })
            .collect())
    }
}

/// Runs workers through an expanded command template — one launcher per
/// manifest host. See [`HostManifest`] for the template grammar.
#[derive(Debug, Clone)]
pub struct TemplateLauncher {
    host: String,
    slots: usize,
    template: Vec<String>,
    exe: PathBuf,
}

impl TemplateLauncher {
    /// Expands the template into the full argv for `task`.
    fn argv(&self, task: &WorkerTask) -> Vec<String> {
        let exe = self.exe.display().to_string();
        let complete = self.template.iter().any(|el| el.contains("{shard}"));
        let mut argv: Vec<String> = self
            .template
            .iter()
            .map(|el| {
                el.replace("{host}", &self.host)
                    .replace("{exe}", &exe)
                    .replace("{shard}", &task.shard.to_string())
                    .replace("{shards}", &task.shards.to_string())
            })
            .collect();
        if !complete {
            argv.extend(task.args.iter().cloned());
        }
        argv
    }
}

impl Launcher for TemplateLauncher {
    fn describe(&self) -> String {
        format!("host {}", self.host)
    }

    fn slots(&self) -> usize {
        self.slots
    }

    fn command(&self, task: &WorkerTask) -> Command {
        let argv = self.argv(task);
        let mut cmd = Command::new(&argv[0]);
        cmd.args(&argv[1..]);
        cmd
    }
}

/// Quotes one argument for a POSIX shell script.
fn shell_quote(arg: &str) -> String {
    let safe = |c: char| c.is_ascii_alphanumeric() || "-_./=,:".contains(c);
    if !arg.is_empty() && arg.chars().all(safe) {
        arg.to_string()
    } else {
        format!("'{}'", arg.replace('\'', "'\\''"))
    }
}

/// Generates a SLURM-style job-array batch script running `workers` shard
/// workers of `program base_args… --shard $SLURM_ARRAY_TASK_ID/workers`,
/// each redirecting its shard document to `shard_<index>.json`.
///
/// `manifest` optionally pins the node list (`#SBATCH --nodelist`). The
/// script is a generator artifact — the dispatcher never submits it; merge
/// the collected documents with a replay manifest (template
/// `["cat", "shard_{shard}.json"]`), as the script's header comments
/// describe.
pub fn slurm_job_array_script(
    program: &str,
    base_args: &[String],
    workers: u64,
    manifest: Option<&HostManifest>,
) -> String {
    let mut command: Vec<String> = vec![program.to_string()];
    command.extend(base_args.iter().cloned());
    let command: String = command
        .iter()
        .map(|arg| shell_quote(arg))
        .collect::<Vec<_>>()
        .join(" ");
    let mut script = String::new();
    script.push_str("#!/bin/bash\n");
    script.push_str(&format!(
        "# Generated by `mojo-hpc shard … --launcher slurm`: one array task per\n\
         # shard, {workers} shard(s) total. Submit with `sbatch <this file>`.\n\
         # Each task writes its shard document to shard_<index>.json. Collect the\n\
         # files onto one host and merge them byte-identically with a replay\n\
         # manifest (README \"Cluster dispatch\"):\n\
         #   {{ \"schema\": 1, \"template\": [\"cat\", \"shard_{{shard}}.json\"],\n\
         #     \"hosts\": [{{\"name\": \"replay\", \"slots\": {workers}}}] }}\n"
    ));
    script.push_str("#SBATCH --job-name=mojo-hpc-shard\n");
    script.push_str(&format!("#SBATCH --array=0-{}\n", workers - 1));
    script.push_str("#SBATCH --output=shard_%a.err\n");
    if let Some(manifest) = manifest {
        let nodes: Vec<&str> = manifest.hosts.iter().map(|h| h.name.as_str()).collect();
        script.push_str(&format!("#SBATCH --nodelist={}\n", nodes.join(",")));
    }
    script.push_str("set -euo pipefail\n");
    script.push_str(&format!(
        "exec {command} --shard \"${{SLURM_ARRAY_TASK_ID}}/{workers}\" \
         > \"shard_${{SLURM_ARRAY_TASK_ID}}.json\"\n"
    ));
    script
}

/// Retry, timeout and speculation policy of one dispatch.
#[derive(Debug, Clone)]
pub struct DispatchPolicy {
    /// Maximum attempts per shard before the dispatch fails (0 is
    /// normalised to 1: a single attempt, no retry — the degraded lane that
    /// still reports which ranges completed).
    pub max_attempts: u32,
    /// Per-attempt wall-clock timeout; a worker exceeding it is killed and
    /// the attempt counts as failed.
    pub timeout: Option<Duration>,
    /// Launch speculative duplicates of straggling shards (first completion
    /// wins, the loser is reaped).
    pub speculate: bool,
    /// First retry delay; doubles per failure (exponential backoff).
    pub backoff_base: Duration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: Duration,
}

impl Default for DispatchPolicy {
    fn default() -> Self {
        DispatchPolicy {
            max_attempts: 3,
            timeout: None,
            speculate: false,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

impl DispatchPolicy {
    /// A single attempt per shard, no timeout, no speculation: any worker
    /// failure fails the whole fan-out.
    pub fn no_retry() -> DispatchPolicy {
        DispatchPolicy {
            max_attempts: 1,
            ..DispatchPolicy::default()
        }
    }

    /// The effective attempt budget (`max_attempts` with 0 meaning 1).
    pub fn attempt_budget(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// The delay before retrying after `failures` failed attempts:
    /// exponential backoff from [`backoff_base`](Self::backoff_base) with
    /// deterministic ±25% jitter (hashed from the shard and failure count,
    /// so concurrent retries do not stampede in lockstep), capped at
    /// [`backoff_cap`](Self::backoff_cap).
    pub fn backoff(&self, shard: u64, failures: u32) -> Duration {
        let doublings = failures.saturating_sub(1).min(16);
        let base = self
            .backoff_base
            .saturating_mul(1u32 << doublings)
            .min(self.backoff_cap);
        // Deterministic jitter in [0.75, 1.25): an FNV-1a hash of
        // (shard, failures) mapped onto the factor range.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in shard.to_le_bytes().iter().chain(&failures.to_le_bytes()) {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let jitter = 0.75 + (h >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        base.mul_f64(jitter)
    }
}

/// Counters describing what one dispatch did, reported on stderr by the
/// coordinator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchSummary {
    /// Worker attempts launched in total.
    pub attempts: u64,
    /// Attempts beyond the first per shard that were retries of a failure.
    pub retries: u64,
    /// Speculative duplicate attempts launched.
    pub speculative: u64,
    /// Attempts killed for exceeding the wall-clock timeout.
    pub timeouts: u64,
    /// Losing attempts killed after their shard completed elsewhere.
    pub reaped: u64,
}

impl DispatchSummary {
    /// One-line rendering for the coordinator's stderr diagnostics.
    pub fn render(&self) -> String {
        format!(
            "{} attempt(s), {} retried, {} speculative, {} timed out, {} reaped",
            self.attempts, self.retries, self.speculative, self.timeouts, self.reaped
        )
    }
}

/// One failed attempt's record: what happened and what the worker said.
#[derive(Debug, Clone)]
struct FailureRecord {
    attempt: u32,
    launcher: String,
    error: String,
    stderr_tail: Vec<String>,
}

/// A running worker attempt under supervision.
struct Active {
    task: usize,
    attempt: u32,
    launcher: usize,
    speculative: bool,
    child: Child,
    started: Instant,
    deadline: Option<Instant>,
    stdout: Option<JoinHandle<Vec<u8>>>,
    stderr: Option<JoinHandle<Vec<u8>>>,
}

impl Active {
    /// Joins the pipe-drain threads and returns (stdout, stderr) bytes.
    fn collect_output(&mut self) -> (Vec<u8>, Vec<u8>) {
        let stdout = self
            .stdout
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        let stderr = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        (stdout, stderr)
    }

    /// Kills the child (ignoring already-dead errors), reaps it, joins the
    /// drain threads, and returns whatever the worker managed to print.
    /// Every kill path goes through here so a killed attempt can never leave
    /// a zombie process or a leaked drain thread behind — and never loses
    /// the diagnostics the worker wrote before dying.
    fn kill_and_collect(&mut self) -> (Vec<u8>, Vec<u8>) {
        self.child.kill().ok();
        self.child.wait().ok();
        self.collect_output()
    }
}

impl Drop for Active {
    /// Backstop: an attempt dropped on an unexpected path (e.g. a panic
    /// unwinding through the engine) is still killed, reaped, and its drain
    /// threads joined. On every normal path `collect_output` has already
    /// taken both handles and this is a no-op.
    fn drop(&mut self) {
        if self.stdout.is_some() || self.stderr.is_some() {
            self.child.kill().ok();
            self.child.wait().ok();
            self.collect_output();
        }
    }
}

/// Supervision state of one task.
#[derive(Debug)]
struct TaskState {
    /// Completed successfully: the winning document.
    doc: Option<ShardDocument>,
    /// How long the winning attempt ran (straggler baseline).
    duration: Option<Duration>,
    /// Every failed attempt so far.
    failures: Vec<FailureRecord>,
    /// Attempts launched so far (sets the next attempt number).
    launched: u32,
    /// When the next retry may launch (`None` = not awaiting launch).
    ready_at: Option<Instant>,
    /// Attempt budget exhausted; the dispatch will fail.
    exhausted: bool,
    /// Launcher of the most recent failure (retries prefer a different one).
    last_launcher: Option<usize>,
}

/// Drains one pipe to a byte buffer on a helper thread, so a chatty worker
/// can never deadlock against a full pipe while the supervisor polls.
fn drain<R: Read + Send + 'static>(pipe: Option<R>) -> Option<JoinHandle<Vec<u8>>> {
    pipe.map(|mut pipe| {
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            pipe.read_to_end(&mut buf).ok();
            buf
        })
    })
}

/// The last [`STDERR_TAIL_LINES`] lines of a worker's captured stderr.
fn stderr_tail(bytes: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(bytes);
    let lines: Vec<&str> = text.lines().collect();
    lines
        .iter()
        .skip(lines.len().saturating_sub(STDERR_TAIL_LINES))
        .map(|l| l.to_string())
        .collect()
}

/// The dispatch engine. Runs every task to completion (or exhaustion)
/// across `launchers` under `policy`, returning the shard documents in task
/// order plus the attempt accounting.
///
/// On failure the error names every exhausted shard with its attempt count
/// and stderr tail, and lists the ranges that completed — the caller
/// reports it and exits nonzero without writing partial output.
pub fn dispatch(
    launchers: &[Box<dyn Launcher>],
    tasks: &[WorkerTask],
    policy: &DispatchPolicy,
) -> Result<(Vec<ShardDocument>, DispatchSummary), String> {
    if launchers.is_empty() {
        return Err("dispatch: no launchers configured".to_string());
    }
    if tasks.is_empty() {
        return Err("dispatch: no tasks to run".to_string());
    }
    let mut engine = Engine {
        launchers,
        tasks,
        policy,
        states: tasks
            .iter()
            .map(|_| TaskState {
                doc: None,
                duration: None,
                failures: Vec::new(),
                launched: 0,
                ready_at: Some(Instant::now()),
                exhausted: false,
                last_launcher: None,
            })
            .collect(),
        active: Vec::new(),
        launcher_failures: vec![0u64; launchers.len()],
        summary: DispatchSummary::default(),
        winner_stderr: vec![None; tasks.len()],
    };
    engine.run()
}

/// Internal supervision state of one [`dispatch`] call.
struct Engine<'a> {
    launchers: &'a [Box<dyn Launcher>],
    tasks: &'a [WorkerTask],
    policy: &'a DispatchPolicy,
    states: Vec<TaskState>,
    active: Vec<Active>,
    /// Failures attributed to each launcher (health signal: retries prefer
    /// the launcher with the fewest).
    launcher_failures: Vec<u64>,
    summary: DispatchSummary,
    /// The winning attempt's captured stderr per task, relayed after the
    /// dispatch so diagnostics stay visible exactly once.
    winner_stderr: Vec<Option<Vec<u8>>>,
}

impl Engine<'_> {
    fn run(&mut self) -> Result<(Vec<ShardDocument>, DispatchSummary), String> {
        loop {
            self.launch_ready();
            if self.policy.speculate {
                self.launch_speculative();
            }
            self.poll_active();
            let all_settled = self.states.iter().all(|s| s.doc.is_some() || s.exhausted);
            if all_settled && self.active.is_empty() {
                break;
            }
            // An exhausted task means the dispatch will fail; pending
            // retries of other tasks are pointless work, but in-flight
            // attempts still drain so "completed before failure" is maximal.
            if self.states.iter().any(|s| s.exhausted) && self.active.is_empty() {
                break;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
        self.finish()
    }

    /// Number of active attempts currently placed on `launcher`.
    fn active_on(&self, launcher: usize) -> usize {
        self.active
            .iter()
            .filter(|a| a.launcher == launcher)
            .count()
    }

    /// Picks the launcher for the next attempt of `task`: a free slot,
    /// preferring (in order) not the launcher that just failed the task,
    /// fewest recorded failures (health), fewest active workers.
    fn pick_launcher(&self, task: usize) -> Option<usize> {
        let avoid = self.states[task].last_launcher;
        (0..self.launchers.len())
            .filter(|&l| self.active_on(l) < self.launchers[l].slots())
            .min_by_key(|&l| {
                (
                    (Some(l) == avoid && self.launchers.len() > 1) as u64,
                    self.launcher_failures[l],
                    self.active_on(l) as u64,
                    l as u64,
                )
            })
    }

    /// Spawns one attempt of `task` on `launcher`. A spawn error is
    /// recorded as a failed attempt (the launcher may be dead — retries
    /// will prefer its peers).
    fn launch(&mut self, task: usize, launcher: usize, speculative: bool) {
        let state = &mut self.states[task];
        let attempt = state.launched + 1;
        state.launched = attempt;
        state.ready_at = None;
        self.summary.attempts += 1;
        if speculative {
            self.summary.speculative += 1;
        } else if state.failures.len() as u32 == attempt - 1 && attempt > 1 {
            self.summary.retries += 1;
        }
        let spec = &self.tasks[task];
        let mut cmd = self.launchers[launcher].command(spec);
        cmd.stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .stdin(Stdio::null())
            .env(chaos::ATTEMPT_ENV, attempt.to_string());
        match cmd.spawn() {
            Ok(mut child) => {
                let stdout = drain(child.stdout.take());
                let stderr = drain(child.stderr.take());
                let started = Instant::now();
                self.active.push(Active {
                    task,
                    attempt,
                    launcher,
                    speculative,
                    child,
                    started,
                    deadline: self.policy.timeout.map(|t| started + t),
                    stdout,
                    stderr,
                });
            }
            Err(e) => {
                // No worker ran, so there is no captured stderr; synthesise
                // a tail naming the launcher and OS error so exhausted-retry
                // reports stay uniform across the exit/timeout/spawn paths.
                let tail = vec![format!(
                    "(no worker output: spawn through launcher '{}' failed: {e})",
                    self.launchers[launcher].describe()
                )];
                self.record_failure(
                    task,
                    attempt,
                    launcher,
                    format!("failed to spawn worker: {e}"),
                    tail,
                );
            }
        }
    }

    /// Launches every pending task whose backoff delay has elapsed and for
    /// which a slot is free.
    fn launch_ready(&mut self) {
        let failing = self.states.iter().any(|s| s.exhausted);
        let now = Instant::now();
        for task in 0..self.states.len() {
            let ready = match self.states[task].ready_at {
                Some(at) => at <= now,
                None => false,
            };
            if !ready || failing {
                continue;
            }
            if let Some(launcher) = self.pick_launcher(task) {
                self.launch(task, launcher, false);
            }
        }
    }

    /// Launches a speculative duplicate of the slowest outstanding shard
    /// once every other shard is done or running: the straggler must have
    /// run at least twice the median completed duration (and the
    /// [`SPECULATE_FLOOR`]), have exactly one active attempt, and a free
    /// slot must exist — preferably on a different launcher.
    fn launch_speculative(&mut self) {
        let pending = self
            .states
            .iter()
            .any(|s| s.ready_at.is_some() || s.exhausted);
        if pending {
            return;
        }
        let mut done: Vec<Duration> = self.states.iter().filter_map(|s| s.duration).collect();
        if done.is_empty() {
            return;
        }
        done.sort();
        let median = done[done.len() / 2];
        let threshold = (median * 2).max(SPECULATE_FLOOR);
        let now = Instant::now();
        // The slowest straggler with a single active attempt.
        let straggler = self
            .active
            .iter()
            .filter(|a| {
                !a.speculative
                    && self.states[a.task].doc.is_none()
                    && now.duration_since(a.started) > threshold
                    && self.active.iter().filter(|b| b.task == a.task).count() == 1
            })
            .max_by_key(|a| now.duration_since(a.started));
        let Some((task, running_on)) = straggler.map(|a| (a.task, a.launcher)) else {
            return;
        };
        if self.states[task].launched > self.policy.attempt_budget() {
            // Never burn more than one attempt beyond the budget on
            // speculation; the straggler may still finish on its own.
            return;
        }
        let choice = (0..self.launchers.len())
            .filter(|&l| self.active_on(l) < self.launchers[l].slots())
            .min_by_key(|&l| {
                (
                    (l == running_on && self.launchers.len() > 1) as u64,
                    self.launcher_failures[l],
                    self.active_on(l) as u64,
                    l as u64,
                )
            });
        if let Some(launcher) = choice {
            self.launch(task, launcher, true);
        }
    }

    /// Records one failed attempt and schedules the retry (or marks the
    /// task exhausted once the budget is spent and nothing else is still
    /// trying).
    fn record_failure(
        &mut self,
        task: usize,
        attempt: u32,
        launcher: usize,
        error: String,
        stderr_tail_lines: Vec<String>,
    ) {
        self.launcher_failures[launcher] += 1;
        let still_running = self.active.iter().any(|a| a.task == task);
        // Relay the failure (and the attempt's stderr tail) live, in attempt
        // order: a retried-and-recovered run would otherwise swallow the
        // failed attempt's diagnostics entirely — the final failure report
        // only renders when the whole dispatch fails.
        let spec = &self.tasks[task];
        eprintln!(
            "dispatch: shard {}/{} attempt {attempt} [{}] failed: {error}",
            spec.shard,
            spec.shards,
            self.launchers[launcher].describe()
        );
        for line in &stderr_tail_lines {
            eprintln!("dispatch:   stderr: {line}");
        }
        let state = &mut self.states[task];
        state.failures.push(FailureRecord {
            attempt,
            launcher: self.launchers[launcher].describe(),
            error,
            stderr_tail: stderr_tail_lines,
        });
        state.last_launcher = Some(launcher);
        if state.doc.is_some() || still_running {
            // The shard completed elsewhere, or another attempt is still in
            // flight — nothing to schedule.
            return;
        }
        let failures = state.failures.len() as u32;
        if failures >= self.policy.attempt_budget() {
            state.exhausted = true;
            state.ready_at = None;
        } else {
            state.ready_at =
                Some(Instant::now() + self.policy.backoff(self.tasks[task].shard, failures));
        }
    }

    /// Handles one finished attempt: validate the document on success, or
    /// record the failure.
    fn settle(&mut self, mut attempt: Active, status: std::process::ExitStatus) {
        let (stdout, stderr) = attempt.collect_output();
        let task = attempt.task;
        if self.states[task].doc.is_some() {
            // A duplicate finishing after the winner: drop it quietly.
            self.summary.reaped += 1;
            return;
        }
        let outcome = if !status.success() {
            Err(format!("worker exited with {status}"))
        } else {
            match std::str::from_utf8(&stdout) {
                Err(_) => Err("worker stdout is not UTF-8".to_string()),
                Ok(text) => ShardDocument::parse(text).and_then(|doc| {
                    if doc.manifest.shard != self.tasks[task].shard {
                        Err(format!(
                            "worker returned a document for shard {} (expected {})",
                            doc.manifest.shard, self.tasks[task].shard
                        ))
                    } else {
                        Ok(doc)
                    }
                }),
            }
        };
        match outcome {
            Ok(doc) => {
                let state = &mut self.states[task];
                state.doc = Some(doc);
                state.duration = Some(attempt.started.elapsed());
                state.ready_at = None;
                self.winner_stderr[task] = Some(stderr);
                // Reap every other attempt of the now-complete task.
                let mut reaped = Vec::new();
                let mut keep = Vec::with_capacity(self.active.len());
                for active in self.active.drain(..) {
                    if active.task == task {
                        reaped.push(active);
                    } else {
                        keep.push(active);
                    }
                }
                self.active = keep;
                for mut loser in reaped {
                    loser.kill_and_collect();
                    self.summary.reaped += 1;
                }
            }
            Err(error) => {
                self.record_failure(
                    task,
                    attempt.attempt,
                    attempt.launcher,
                    error,
                    stderr_tail(&stderr),
                );
            }
        }
    }

    /// Polls every active attempt: settle the finished, kill the timed out.
    fn poll_active(&mut self) {
        let now = Instant::now();
        let mut index = 0;
        while index < self.active.len() {
            match self.active[index].child.try_wait() {
                Ok(Some(status)) => {
                    let attempt = self.active.swap_remove(index);
                    self.settle(attempt, status);
                    continue;
                }
                Ok(None) => {
                    let timed_out = self.active[index]
                        .deadline
                        .is_some_and(|deadline| now >= deadline);
                    if timed_out {
                        let mut attempt = self.active.swap_remove(index);
                        // The drain threads already hold whatever the hung
                        // worker printed; pass the real tail, not an empty
                        // one — a killed worker's last words are exactly
                        // what the operator needs.
                        let (_stdout, stderr) = attempt.kill_and_collect();
                        self.summary.timeouts += 1;
                        let elapsed = attempt.started.elapsed().as_secs_f64();
                        self.record_failure(
                            attempt.task,
                            attempt.attempt,
                            attempt.launcher,
                            format!("worker timed out after {elapsed:.1} s (killed)"),
                            stderr_tail(&stderr),
                        );
                        continue;
                    }
                }
                Err(e) => {
                    let mut attempt = self.active.swap_remove(index);
                    let (_stdout, stderr) = attempt.kill_and_collect();
                    self.record_failure(
                        attempt.task,
                        attempt.attempt,
                        attempt.launcher,
                        format!("failed to poll worker: {e}"),
                        stderr_tail(&stderr),
                    );
                    continue;
                }
            }
            index += 1;
        }
    }

    /// Builds the final result: documents in task order on success, or the
    /// full failure report.
    fn finish(&mut self) -> Result<(Vec<ShardDocument>, DispatchSummary), String> {
        for mut orphan in self.active.drain(..) {
            orphan.kill_and_collect();
            self.summary.reaped += 1;
        }
        if self.states.iter().all(|s| s.doc.is_some()) {
            // Relay each winner's stderr exactly once, in shard order, so
            // worker diagnostics stay visible to the coordinator's caller.
            for stderr in self.winner_stderr.iter().flatten() {
                if !stderr.is_empty() {
                    eprint!("{}", String::from_utf8_lossy(stderr));
                }
            }
            let docs = self
                .states
                .iter_mut()
                .map(|s| s.doc.take().expect("all tasks settled"))
                .collect();
            return Ok((docs, self.summary));
        }
        Err(self.failure_report())
    }

    /// The multi-line error naming every failed shard (attempts, errors,
    /// stderr tails) and the ranges that completed before the failure.
    fn failure_report(&self) -> String {
        let mut lines = Vec::new();
        let failed = self.states.iter().filter(|s| s.doc.is_none()).count();
        lines.push(format!(
            "dispatch failed: {failed} of {} shard(s) did not complete",
            self.states.len()
        ));
        for (task, state) in self.states.iter().enumerate() {
            if state.doc.is_some() {
                continue;
            }
            let spec = &self.tasks[task];
            let name = format!("shard {}/{}", spec.shard, spec.shards);
            let last = state
                .failures
                .last()
                .map(|f| f.error.clone())
                .unwrap_or_else(|| "never attempted".to_string());
            lines.push(format!(
                "{name}: failed after {} attempt(s); last error: {last}",
                state.failures.len().max(1)
            ));
            for failure in &state.failures {
                lines.push(format!(
                    "{name}: attempt {} [{}]: {}",
                    failure.attempt, failure.launcher, failure.error
                ));
                if !failure.stderr_tail.is_empty() {
                    lines.push(format!(
                        "{name}:   stderr tail (last {} line(s)):",
                        failure.stderr_tail.len()
                    ));
                    for line in &failure.stderr_tail {
                        lines.push(format!("{name}:     {line}"));
                    }
                }
            }
        }
        let completed: Vec<String> = self
            .states
            .iter()
            .enumerate()
            .filter_map(|(task, state)| {
                state.doc.as_ref().map(|doc| {
                    let spec = &self.tasks[task];
                    format!(
                        "shard {}/{} (items {}..{})",
                        spec.shard,
                        spec.shards,
                        doc.manifest.start,
                        doc.manifest.start + doc.manifest.count
                    )
                })
            })
            .collect();
        if completed.is_empty() {
            lines.push("completed before failure: none".to_string());
        } else {
            lines.push(format!(
                "completed before failure: {}",
                completed.join(", ")
            ));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> HostManifest {
        HostManifest {
            template: vec!["ssh".into(), "{host}".into(), "--".into(), "{exe}".into()],
            hosts: vec![
                HostEntry {
                    name: "node-a".into(),
                    slots: 2,
                },
                HostEntry {
                    name: "node-b".into(),
                    slots: 4,
                },
            ],
        }
    }

    #[test]
    fn host_manifests_round_trip_through_json() {
        let manifest = manifest();
        let parsed = HostManifest::parse(&manifest.to_json_pretty()).unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.to_json_pretty(), manifest.to_json_pretty());
    }

    #[test]
    fn host_manifests_default_the_ssh_template() {
        let parsed =
            HostManifest::parse("{\"schema\": 1, \"hosts\": [{\"name\": \"n1\", \"slots\": 1}]}")
                .unwrap();
        assert_eq!(
            parsed.template,
            DEFAULT_TEMPLATE
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn host_manifests_reject_structural_violations() {
        let err = |text: &str| HostManifest::parse(text).expect_err(text);
        assert!(err("{\"schema\": 2, \"hosts\": []}").contains("schema"));
        assert!(err("{\"schema\": 1, \"hosts\": []}").contains("at least one host"));
        assert!(
            err("{\"schema\": 1, \"hosts\": [{\"name\": \"a\", \"slots\": 0}]}")
                .contains("0 slots")
        );
        assert!(
            err("{\"schema\": 1, \"hosts\": [{\"name\": \"\", \"slots\": 1}]}")
                .contains("empty name")
        );
        assert!(err(
            "{\"schema\": 1, \"hosts\": [{\"name\": \"a\", \"slots\": 1}, \
             {\"name\": \"a\", \"slots\": 2}]}"
        )
        .contains("more than once"));
        assert!(err("{\"schema\": 1, \"template\": [], \"hosts\": \
                     [{\"name\": \"a\", \"slots\": 1}]}")
        .contains("template"));
        assert!(err("not json").contains("JSON"));
    }

    #[test]
    fn template_launchers_expand_placeholders_and_append_args() {
        let task = WorkerTask {
            shard: 1,
            shards: 3,
            args: vec!["run".into(), "--all".into(), "--shard".into(), "1/3".into()],
        };
        let launcher = TemplateLauncher {
            host: "node-a".into(),
            slots: 2,
            template: vec!["ssh".into(), "{host}".into(), "--".into(), "{exe}".into()],
            exe: PathBuf::from("/opt/mojo-hpc"),
        };
        assert_eq!(
            launcher.argv(&task),
            vec![
                "ssh",
                "node-a",
                "--",
                "/opt/mojo-hpc",
                "run",
                "--all",
                "--shard",
                "1/3"
            ]
        );
        // A template mentioning {shard} is the complete command (replay).
        let replay = TemplateLauncher {
            host: "replay".into(),
            slots: 1,
            template: vec!["cat".into(), "shard_{shard}.json".into()],
            exe: PathBuf::from("/opt/mojo-hpc"),
        };
        assert_eq!(replay.argv(&task), vec!["cat", "shard_1.json"]);
    }

    #[test]
    fn slurm_scripts_cover_every_shard_with_quoted_args() {
        let args: Vec<String> = ["run", "--all", "--format", "json", "it has spaces"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let script = slurm_job_array_script("mojo-hpc", &args, 3, Some(&manifest()));
        assert!(script.starts_with("#!/bin/bash\n"), "{script}");
        assert!(script.contains("#SBATCH --array=0-2"), "{script}");
        assert!(
            script.contains("#SBATCH --nodelist=node-a,node-b"),
            "{script}"
        );
        assert!(script.contains("'it has spaces'"), "{script}");
        assert!(
            script.contains("--shard \"${SLURM_ARRAY_TASK_ID}/3\""),
            "{script}"
        );
        assert!(
            script.contains("> \"shard_${SLURM_ARRAY_TASK_ID}.json\""),
            "{script}"
        );
        // Without a manifest there is no nodelist pin.
        let bare = slurm_job_array_script("mojo-hpc", &args, 2, None);
        assert!(!bare.contains("--nodelist"), "{bare}");
        assert!(bare.contains("#SBATCH --array=0-1"), "{bare}");
    }

    #[test]
    fn shell_quoting_escapes_the_awkward_cases() {
        assert_eq!(shell_quote("plain-arg_1.0"), "plain-arg_1.0");
        assert_eq!(shell_quote("a b"), "'a b'");
        assert_eq!(shell_quote(""), "''");
        assert_eq!(shell_quote("it's"), "'it'\\''s'");
        assert_eq!(shell_quote("$HOME"), "'$HOME'");
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let policy = DispatchPolicy::default();
        let base = policy.backoff_base.as_secs_f64();
        for failures in 1..6u32 {
            let delay = policy.backoff(2, failures).as_secs_f64();
            let nominal = base * f64::from(1u32 << (failures - 1));
            let nominal = nominal.min(policy.backoff_cap.as_secs_f64());
            assert!(
                delay >= nominal * 0.75 && delay <= nominal * 1.25,
                "failures={failures}: delay {delay} outside jitter band of {nominal}"
            );
        }
        // Deterministic: the same (shard, failures) always backs off equally.
        assert_eq!(policy.backoff(2, 3), policy.backoff(2, 3));
        // The cap bounds arbitrarily deep retry chains (31+ doublings must
        // not overflow Duration arithmetic).
        assert!(policy.backoff(0, 40) <= policy.backoff_cap.mul_f64(1.25));
    }

    #[test]
    fn attempt_budget_normalises_zero_to_one() {
        let mut policy = DispatchPolicy {
            max_attempts: 0,
            ..DispatchPolicy::default()
        };
        assert_eq!(policy.attempt_budget(), 1);
        policy.max_attempts = 4;
        assert_eq!(policy.attempt_budget(), 4);
        assert_eq!(DispatchPolicy::no_retry().attempt_budget(), 1);
    }

    #[test]
    fn stderr_tails_keep_the_last_lines_only() {
        let text: String = (0..25).map(|i| format!("line {i}\n")).collect();
        let tail = stderr_tail(text.as_bytes());
        assert_eq!(tail.len(), STDERR_TAIL_LINES);
        assert_eq!(tail.first().unwrap(), "line 15");
        assert_eq!(tail.last().unwrap(), "line 24");
        assert!(stderr_tail(b"").is_empty());
    }

    #[test]
    fn dispatch_rejects_empty_configurations() {
        let launchers: Vec<Box<dyn Launcher>> = vec![];
        let tasks = [WorkerTask {
            shard: 0,
            shards: 1,
            args: vec![],
        }];
        assert!(dispatch(&launchers, &tasks, &DispatchPolicy::default()).is_err());
        let launchers: Vec<Box<dyn Launcher>> = vec![Box::new(LocalLauncher::new("/bin/true", 1))];
        assert!(dispatch(&launchers, &[], &DispatchPolicy::default()).is_err());
    }

    #[test]
    fn dispatch_reports_spawn_failures_with_attempts_and_completed_ranges() {
        // A launcher pointing at a nonexistent binary: every attempt fails
        // to spawn, the budget is spent, and the report names the shard.
        let launchers: Vec<Box<dyn Launcher>> =
            vec![Box::new(LocalLauncher::new("/nonexistent/mojo-worker", 2))];
        let tasks = [WorkerTask {
            shard: 0,
            shards: 1,
            args: vec![],
        }];
        let policy = DispatchPolicy {
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            ..DispatchPolicy::default()
        };
        let err = dispatch(&launchers, &tasks, &policy).expect_err("spawn failures must fail");
        assert!(err.contains("shard 0/1"), "{err}");
        assert!(err.contains("2 attempt(s)"), "{err}");
        assert!(err.contains("failed to spawn"), "{err}");
        assert!(err.contains("completed before failure: none"), "{err}");
    }
}
