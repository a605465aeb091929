//! Fault-tolerant shard dispatcher: supervised local worker execution above
//! the shard/merge protocol (DESIGN.md §12).
//!
//! `crate::shard` defines *what* a worker computes (`--shard I/N`, one JSON
//! shard document on stdout) and how documents merge byte-identically.
//! This module owns *how workers run*: every shard is a subprocess of one
//! [`Launcher`], all started at once, under a supervision loop that
//! survives individual worker failures without corrupting the merged
//! result.
//!
//! The pieces:
//!
//! * [`Launcher`] — turns one [`WorkerTask`] into a [`Command`].
//!   [`LocalLauncher`] runs worker subprocesses of an executable on this
//!   host; tests substitute their own to inject faults.
//! * [`DispatchPolicy`] — per-worker wall-clock timeout and bounded retry
//!   with exponential backoff and deterministic jitter.
//! * [`dispatch`] — the engine: launch every shard, capture stdout/stderr,
//!   kill workers that exceed the timeout, and retry failures.
//!
//! Failure handling is all-or-nothing: if any shard exhausts its attempt
//! budget the whole dispatch fails with an error naming each failed shard,
//! its attempt count and the tail of its captured stderr, plus the ranges
//! that *did* complete — and the coordinator writes no output files. The
//! merged result can never silently degrade, because the
//! [`ShardDocument`] tiling invariants reject overlapping or missing
//! ranges regardless of which attempt produced each document.

use crate::chaos;
use crate::shard::ShardDocument;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many trailing stderr lines a failure report quotes per attempt.
pub const STDERR_TAIL_LINES: usize = 10;

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

/// How one worker attempt is started.
///
/// Implementations only build the [`Command`]; the dispatcher owns
/// supervision (capture, timeout, retry).
pub trait Launcher {
    /// Human-readable name used in diagnostics (`local`).
    fn describe(&self) -> String;
    /// Builds the command executing one worker attempt of `task`.
    fn command(&self, task: &WorkerTask) -> Command;
}

/// Runs worker subprocesses of an executable on this host.
#[derive(Debug, Clone)]
pub struct LocalLauncher {
    exe: PathBuf,
}

impl LocalLauncher {
    /// A launcher spawning `exe`.
    pub fn new(exe: impl Into<PathBuf>) -> LocalLauncher {
        LocalLauncher { exe: exe.into() }
    }

    /// A launcher re-invoking the current executable — the coordinator's
    /// default, guaranteeing workers speak the same schema.
    pub fn current_exe() -> Result<LocalLauncher, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the current executable: {e}"))?;
        Ok(LocalLauncher::new(exe))
    }
}

impl Launcher for LocalLauncher {
    fn describe(&self) -> String {
        "local".to_string()
    }

    fn command(&self, task: &WorkerTask) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.args(&task.args);
        cmd
    }
}

/// Retry and timeout policy of one dispatch.
#[derive(Debug, Clone)]
pub struct DispatchPolicy {
    /// Maximum attempts per shard before the dispatch fails (0 is
    /// normalised to 1: a single attempt, no retry — the degraded lane that
    /// still reports which ranges completed).
    pub max_attempts: u32,
    /// Per-attempt wall-clock timeout; a worker exceeding it is killed and
    /// the attempt counts as failed.
    pub timeout: Option<Duration>,
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
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

impl DispatchPolicy {
    /// A single attempt per shard, no timeout: any worker failure fails the
    /// whole fan-out.
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
    /// Attempts beyond the first per shard (each a retry of a failure).
    pub retries: u64,
    /// Attempts killed for exceeding the wall-clock timeout.
    pub timeouts: u64,
}

impl DispatchSummary {
    /// One-line rendering for the coordinator's stderr diagnostics.
    pub fn render(&self) -> String {
        format!(
            "{} attempt(s), {} retried, {} timed out",
            self.attempts, self.retries, self.timeouts
        )
    }
}

/// One failed attempt's record: what happened and what the worker said.
#[derive(Debug, Clone)]
struct FailureRecord {
    attempt: u32,
    error: String,
    stderr_tail: Vec<String>,
}

/// A running worker attempt under supervision.
struct Active {
    task: usize,
    attempt: u32,
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
    /// Every failed attempt so far.
    failures: Vec<FailureRecord>,
    /// Attempts launched so far (sets the next attempt number).
    launched: u32,
    /// When the next attempt may launch (`None` = running or settled).
    ready_at: Option<Instant>,
    /// Attempt budget exhausted; the dispatch will fail.
    exhausted: bool,
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
/// through `launcher` under `policy`, all tasks at once, returning the
/// shard documents in task order plus the attempt accounting.
///
/// On failure the error names every exhausted shard with its attempt count
/// and stderr tail, and lists the ranges that completed — the caller
/// reports it and exits nonzero without writing partial output.
pub fn dispatch(
    launcher: &dyn Launcher,
    tasks: &[WorkerTask],
    policy: &DispatchPolicy,
) -> Result<(Vec<ShardDocument>, DispatchSummary), String> {
    if tasks.is_empty() {
        return Err("dispatch: no tasks to run".to_string());
    }
    let mut engine = Engine {
        launcher,
        tasks,
        policy,
        states: tasks
            .iter()
            .map(|_| TaskState {
                doc: None,
                failures: Vec::new(),
                launched: 0,
                ready_at: Some(Instant::now()),
                exhausted: false,
            })
            .collect(),
        active: Vec::new(),
        summary: DispatchSummary::default(),
        winner_stderr: vec![None; tasks.len()],
    };
    engine.run()
}

/// Internal supervision state of one [`dispatch`] call.
struct Engine<'a> {
    launcher: &'a dyn Launcher,
    tasks: &'a [WorkerTask],
    policy: &'a DispatchPolicy,
    states: Vec<TaskState>,
    active: Vec<Active>,
    summary: DispatchSummary,
    /// The winning attempt's captured stderr per task, relayed after the
    /// dispatch so diagnostics stay visible exactly once.
    winner_stderr: Vec<Option<Vec<u8>>>,
}

impl Engine<'_> {
    fn run(&mut self) -> Result<(Vec<ShardDocument>, DispatchSummary), String> {
        loop {
            self.launch_ready();
            self.poll_active();
            // Once a task is exhausted the dispatch will fail: pending
            // retries of other tasks are pointless work, but in-flight
            // attempts still drain so "completed before failure" is maximal.
            let failing = self.states.iter().any(|s| s.exhausted);
            let all_settled = self.states.iter().all(|s| s.doc.is_some() || s.exhausted);
            if (all_settled || failing) && self.active.is_empty() {
                break;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
        self.finish()
    }

    /// Spawns the next attempt of `task`. A spawn error is recorded as a
    /// failed attempt.
    fn launch(&mut self, task: usize) {
        let state = &mut self.states[task];
        let attempt = state.launched + 1;
        state.launched = attempt;
        state.ready_at = None;
        self.summary.attempts += 1;
        if attempt > 1 {
            self.summary.retries += 1;
        }
        let mut cmd = self.launcher.command(&self.tasks[task]);
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
                    self.launcher.describe()
                )];
                self.record_failure(task, attempt, format!("failed to spawn worker: {e}"), tail);
            }
        }
    }

    /// Launches every pending task whose backoff delay has elapsed, unless
    /// the dispatch is already failing.
    fn launch_ready(&mut self) {
        if self.states.iter().any(|s| s.exhausted) {
            return;
        }
        let now = Instant::now();
        for task in 0..self.states.len() {
            if self.states[task].ready_at.is_some_and(|at| at <= now) {
                self.launch(task);
            }
        }
    }

    /// Records one failed attempt and schedules the retry (or marks the
    /// task exhausted once the budget is spent).
    fn record_failure(
        &mut self,
        task: usize,
        attempt: u32,
        error: String,
        stderr_tail_lines: Vec<String>,
    ) {
        // Relay the failure (and the attempt's stderr tail) live, in attempt
        // order: a retried-and-recovered run would otherwise swallow the
        // failed attempt's diagnostics entirely — the final failure report
        // only renders when the whole dispatch fails.
        let spec = &self.tasks[task];
        eprintln!(
            "dispatch: shard {}/{} attempt {attempt} [{}] failed: {error}",
            spec.shard,
            spec.shards,
            self.launcher.describe()
        );
        for line in &stderr_tail_lines {
            eprintln!("dispatch:   stderr: {line}");
        }
        let state = &mut self.states[task];
        state.failures.push(FailureRecord {
            attempt,
            error,
            stderr_tail: stderr_tail_lines,
        });
        let failures = state.failures.len() as u32;
        if failures >= self.policy.attempt_budget() {
            state.exhausted = true;
        } else {
            state.ready_at = Some(Instant::now() + self.policy.backoff(spec.shard, failures));
        }
    }

    /// Handles one finished attempt: validate the document on success, or
    /// record the failure.
    fn settle(&mut self, mut attempt: Active, status: std::process::ExitStatus) {
        let (stdout, stderr) = attempt.collect_output();
        let task = attempt.task;
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
                self.states[task].doc = Some(doc);
                self.winner_stderr[task] = Some(stderr);
            }
            Err(error) => {
                self.record_failure(task, attempt.attempt, error, stderr_tail(&stderr));
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
        let launcher = self.launcher.describe();
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
                    failure.attempt, launcher, failure.error
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
        let launcher = LocalLauncher::new("/bin/true");
        assert!(dispatch(&launcher, &[], &DispatchPolicy::default()).is_err());
    }

    #[test]
    fn dispatch_reports_spawn_failures_with_attempts_and_completed_ranges() {
        // A launcher pointing at a nonexistent binary: every attempt fails
        // to spawn, the budget is spent, and the report names the shard.
        let launcher = LocalLauncher::new("/nonexistent/mojo-worker");
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
        let err = dispatch(&launcher, &tasks, &policy).expect_err("spawn failures must fail");
        assert!(err.contains("shard 0/1"), "{err}");
        assert!(err.contains("2 attempt(s)"), "{err}");
        assert!(err.contains("failed to spawn"), "{err}");
        assert!(err.contains("completed before failure: none"), "{err}");
    }
}
