//! Fault-tolerant shard dispatcher: supervised local worker execution above
//! the shard/merge protocol (DESIGN.md §12).
//!
//! `crate::shard` defines *what* a worker computes (`--shard I/N`, one JSON
//! shard document on stdout) and how documents merge byte-identically.
//! This module owns *how workers run*: every shard gets one supervisor
//! thread, all started at once, that runs the shard's attempts in order —
//! spawn, wait, parse the document, back off, retry — so individual
//! worker failures never corrupt the merged result.
//!
//! The pieces:
//!
//! * the command builder, `Fn(&WorkerTask) -> Command` — turns one
//!   [`WorkerTask`] into the worker's [`Command`]. The coordinator
//!   re-invokes its own executable; tests substitute a fault-injecting
//!   command.
//! * [`DispatchPolicy`] — per-worker wall-clock timeout and bounded retry
//!   with exponential backoff and deterministic jitter.
//! * [`dispatch`] — one supervisor per shard: capture stdout/stderr, kill
//!   workers that exceed the timeout, and retry failures.
//!
//! A supervisor needs no polling: a worker is this binary, which holds both
//! pipes until it exits, so the close of both pipes is the exit event. The
//! drain threads report each pipe's bytes on one channel, and the
//! supervisor blocks on it until the pipes close or the deadline passes.
//!
//! Failure handling is all-or-nothing: if any shard exhausts its attempt
//! budget the whole dispatch fails with an error naming each failed shard,
//! its attempt count and the tail of its captured stderr, plus the ranges
//! that *did* complete — and the coordinator writes no output files. The
//! merged result can never silently degrade, because the merge requires
//! every [`ShardDocument`]'s manifest to equal the one its shard's worker
//! builds, whichever attempt produced it. A document that parses but is
//! wrong therefore fails the merge once instead of being retried.

use crate::chaos;
use crate::shard::ShardDocument;
use std::io::{Read, Write};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many trailing stderr lines a failure report quotes per attempt.
pub const STDERR_TAIL_LINES: usize = 10;

/// One shard's worth of work: the arguments a worker needs to compute shard
/// `shard` of `shards` (the `--shard I/N` flag is already part of `args`).
#[derive(Debug, Clone)]
pub struct WorkerTask {
    /// The shard index this task computes; it names the shard in
    /// diagnostics and keys its backoff jitter.
    pub shard: u64,
    /// Total shard count of the partition.
    pub shards: u64,
    /// Worker argv, excluding the program itself.
    pub args: Vec<String>,
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
    /// The attempt was killed at its deadline.
    timed_out: bool,
}

/// Which of a worker's pipes a drained buffer came from.
enum Pipe {
    Stdout,
    Stderr,
}

/// A running worker attempt: the child and the threads draining its pipes
/// into one channel.
struct Active {
    child: Child,
    events: Receiver<(Pipe, Vec<u8>)>,
    drains: Vec<JoinHandle<()>>,
}

impl Active {
    /// Spawns `cmd` with stdout and stderr piped and starts one drain
    /// thread per pipe.
    fn spawn(cmd: &mut Command) -> std::io::Result<Active> {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()?;
        let (sender, events) = mpsc::channel();
        let stdout = child
            .stdout
            .take()
            .map(|pipe| drain(pipe, Pipe::Stdout, sender.clone()));
        let stderr = child
            .stderr
            .take()
            .map(|pipe| drain(pipe, Pipe::Stderr, sender));
        let drains = stdout.into_iter().chain(stderr).collect();
        Ok(Active {
            child,
            events,
            drains,
        })
    }

    /// Receives both pipes' bytes until they close, killing the child at
    /// `deadline` and receiving what it printed until then; then reaps the
    /// child and joins the drains. Returns the exit status, stdout, stderr,
    /// and whether the deadline killed the worker.
    fn wait(
        mut self,
        deadline: Option<Instant>,
    ) -> (std::io::Result<ExitStatus>, Vec<u8>, Vec<u8>, bool) {
        let (mut stdout, mut stderr, mut killed) = (Vec::new(), Vec::new(), false);
        loop {
            let event = match deadline {
                Some(deadline) if !killed => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match self.events.recv_timeout(left) {
                        Err(RecvTimeoutError::Timeout) => {
                            self.child.kill().ok();
                            killed = true;
                            continue;
                        }
                        event => event.ok(),
                    }
                }
                _ => self.events.recv().ok(),
            };
            match event {
                Some((Pipe::Stdout, bytes)) => stdout = bytes,
                Some((Pipe::Stderr, bytes)) => stderr = bytes,
                None => break,
            }
        }
        let status = self.child.wait();
        self.join_drains();
        (status, stdout, stderr, killed)
    }

    fn join_drains(&mut self) {
        for handle in self.drains.drain(..) {
            handle.join().ok();
        }
    }
}

impl Drop for Active {
    /// Backstop: an attempt dropped on an unexpected path (e.g. a panic
    /// unwinding through its supervisor) is still killed, reaped, and its
    /// drain threads joined. On the normal path `wait` has already joined
    /// them and this is a no-op.
    fn drop(&mut self) {
        if !self.drains.is_empty() {
            self.child.kill().ok();
            self.child.wait().ok();
            self.join_drains();
        }
    }
}

/// Drains one pipe to its end on a helper thread, then sends the bytes, so
/// a chatty worker can never block on a full pipe and the pipe's close
/// reaches the supervisor as an event.
fn drain(
    mut pipe: impl Read + Send + 'static,
    which: Pipe,
    events: Sender<(Pipe, Vec<u8>)>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        pipe.read_to_end(&mut buf).ok();
        events.send((which, buf)).ok();
    })
}

/// The last [`STDERR_TAIL_LINES`] lines of a worker's captured stderr.
fn stderr_tail(bytes: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(bytes);
    let lines: Vec<&str> = text.lines().collect();
    let skip = lines.len().saturating_sub(STDERR_TAIL_LINES);
    lines[skip..].iter().map(|l| l.to_string()).collect()
}

/// Runs one attempt through `cmd` to its end: the shard's document and the
/// worker's stderr, or the failure record.
fn run_attempt(
    mut cmd: Command,
    attempt: u32,
    timeout: Option<Duration>,
) -> Result<(ShardDocument, Vec<u8>), FailureRecord> {
    cmd.env(chaos::ATTEMPT_ENV, attempt.to_string());
    let started = Instant::now();
    let active = match Active::spawn(&mut cmd) {
        Ok(active) => active,
        Err(e) => {
            // No worker ran, so there is no captured stderr; synthesise a
            // tail naming the program and OS error so exhausted-retry
            // reports stay uniform across the exit/timeout/spawn paths.
            let program = cmd.get_program().to_string_lossy().into_owned();
            return Err(FailureRecord {
                attempt,
                error: format!("failed to spawn worker: {e}"),
                stderr_tail: vec![format!("(no worker output: cannot spawn {program}: {e})")],
                timed_out: false,
            });
        }
    };
    // A killed worker's drained stderr is its last words — exactly what
    // the operator needs — so every path below quotes the real tail.
    let (status, stdout, stderr, timed_out) = active.wait(timeout.map(|t| started + t));
    let outcome = match status {
        _ if timed_out => Err(format!(
            "worker timed out after {:.1} s (killed)",
            started.elapsed().as_secs_f64()
        )),
        Err(e) => Err(format!("failed to wait for worker: {e}")),
        Ok(status) if !status.success() => Err(format!("worker exited with {status}")),
        Ok(_) => parse_document(&stdout),
    };
    match outcome {
        Ok(doc) => Ok((doc, stderr)),
        Err(error) => Err(FailureRecord {
            attempt,
            error,
            stderr_tail: stderr_tail(&stderr),
            timed_out,
        }),
    }
}

/// The shard document a successful worker printed. Output that does not
/// parse fails the attempt, so it is retried; whether a parsed document is
/// the right one is the merge's check (DESIGN.md §10).
fn parse_document(stdout: &[u8]) -> Result<ShardDocument, String> {
    let text = std::str::from_utf8(stdout).map_err(|_| "worker stdout is not UTF-8".to_string())?;
    ShardDocument::parse(text)
}

/// Relays one failed attempt (and its stderr tail) live: a retried-and-
/// recovered run would otherwise swallow the failed attempt's diagnostics
/// entirely, since the failure report only renders when the whole dispatch
/// fails. One stderr lock per block keeps two shards' blocks apart.
fn relay(task: &WorkerTask, failure: &FailureRecord) {
    let mut err = std::io::stderr().lock();
    writeln!(
        err,
        "dispatch: shard {}/{} attempt {} failed: {}",
        task.shard, task.shards, failure.attempt, failure.error
    )
    .ok();
    for line in &failure.stderr_tail {
        writeln!(err, "dispatch:   stderr: {line}").ok();
    }
}

/// Raised once a shard exhausts its attempt budget: the dispatch will fail,
/// so no shard starts another attempt and every pending backoff ends at
/// once. Attempts already running still finish, so "completed before
/// failure" lists every range that completed. A `bool` is valid at every
/// step, so a poisoned lock is recovered rather than propagated.
#[derive(Default)]
struct Failing {
    raised: Mutex<bool>,
    wake: Condvar,
}

impl Failing {
    fn raise(&self) {
        *self.raised.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.wake.notify_all();
    }

    /// Waits out `delay` unless the flag is or gets raised; true if it is.
    fn wait(&self, delay: Duration) -> bool {
        let raised = self.raised.lock().unwrap_or_else(PoisonError::into_inner);
        let (raised, _) = self
            .wake
            .wait_timeout_while(raised, delay, |raised| !*raised)
            .unwrap_or_else(PoisonError::into_inner);
        *raised
    }
}

/// What one shard's supervisor ends with.
struct Supervised {
    /// The winning document and the winner's stderr.
    won: Option<(ShardDocument, Vec<u8>)>,
    /// Every failed attempt, in attempt order.
    failures: Vec<FailureRecord>,
}

/// One shard's supervisor: runs its attempts in order — spawn, wait,
/// parse, back off, retry — until one returns the shard's document, the
/// budget is spent (raising `failing`), or another shard raised it.
fn supervise(
    command: &(dyn Fn(&WorkerTask) -> Command + Sync),
    task: &WorkerTask,
    policy: &DispatchPolicy,
    failing: &Failing,
) -> Supervised {
    let mut failures = Vec::new();
    let won = loop {
        let attempt = failures.len() as u32 + 1;
        match run_attempt(command(task), attempt, policy.timeout) {
            Ok(won) => break Some(won),
            Err(failure) => {
                relay(task, &failure);
                failures.push(failure);
            }
        }
        let failed = failures.len() as u32;
        if failed >= policy.attempt_budget() {
            failing.raise();
        }
        // Returns at once when the flag is (already) raised.
        if failing.wait(policy.backoff(task.shard, failed)) {
            break None;
        }
    };
    Supervised { won, failures }
}

/// Runs every task to completion (or exhaustion) under `policy`, one
/// supervisor thread per task, all at once, each attempt's worker built by
/// `command`. Returns the shard documents in task order plus the attempt
/// accounting.
///
/// On failure the error names every exhausted shard with its attempt count
/// and stderr tail, and lists the ranges that completed — the caller
/// reports it and exits nonzero without writing partial output.
pub fn dispatch(
    command: &(dyn Fn(&WorkerTask) -> Command + Sync),
    tasks: &[WorkerTask],
    policy: &DispatchPolicy,
) -> Result<(Vec<ShardDocument>, DispatchSummary), String> {
    if tasks.is_empty() {
        return Err("dispatch: no tasks to run".to_string());
    }
    let failing = &Failing::default();
    let shards: Vec<Supervised> = std::thread::scope(|scope| {
        let supervisors: Vec<_> = tasks
            .iter()
            .map(|task| scope.spawn(move || supervise(command, task, policy, failing)))
            .collect();
        supervisors
            .into_iter()
            .map(|supervisor| {
                supervisor
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut summary = DispatchSummary::default();
    for shard in &shards {
        let attempts = shard.failures.len() as u64 + u64::from(shard.won.is_some());
        summary.attempts += attempts;
        summary.retries += attempts - 1;
        summary.timeouts += shard.failures.iter().filter(|f| f.timed_out).count() as u64;
    }
    if shards.iter().any(|shard| shard.won.is_none()) {
        return Err(failure_report(tasks, &shards));
    }
    // Relay each winner's stderr exactly once, in shard order, so worker
    // diagnostics stay visible to the coordinator's caller.
    let mut err = std::io::stderr().lock();
    let docs = shards
        .into_iter()
        .flat_map(|shard| shard.won)
        .map(|(doc, stderr)| {
            err.write_all(&stderr).ok();
            doc
        })
        .collect();
    Ok((docs, summary))
}

/// The multi-line error naming every failed shard (attempts, errors,
/// stderr tails) and the ranges that completed before the failure.
fn failure_report(tasks: &[WorkerTask], shards: &[Supervised]) -> String {
    let failed = shards.iter().filter(|shard| shard.won.is_none()).count();
    let mut lines = vec![format!(
        "dispatch failed: {failed} of {} shard(s) did not complete",
        shards.len()
    )];
    let mut completed = Vec::new();
    for (task, shard) in tasks.iter().zip(shards) {
        let name = format!("shard {}/{}", task.shard, task.shards);
        if let Some((doc, _)) = &shard.won {
            completed.push(format!(
                "{name} (items {}..{})",
                doc.manifest.start,
                doc.manifest.start + doc.manifest.count
            ));
            continue;
        }
        // Every shard's first attempt runs, so a shard without a document
        // has at least one failure.
        let last = shard.failures.last().map_or("", |f| f.error.as_str());
        lines.push(format!(
            "{name}: failed after {} attempt(s); last error: {last}",
            shard.failures.len()
        ));
        for failure in &shard.failures {
            lines.push(format!(
                "{name}: attempt {}: {}",
                failure.attempt, failure.error
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
    let completed = if completed.is_empty() {
        "none".to_string()
    } else {
        completed.join(", ")
    };
    lines.push(format!("completed before failure: {completed}"));
    lines.join("\n")
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

    /// A command builder running `program` with each task's arguments.
    fn local(program: &'static str) -> impl Fn(&WorkerTask) -> Command + Sync {
        move |task| {
            let mut cmd = Command::new(program);
            cmd.args(&task.args);
            cmd
        }
    }

    #[test]
    fn dispatch_rejects_empty_configurations() {
        assert!(dispatch(&local("/bin/true"), &[], &DispatchPolicy::default()).is_err());
    }

    #[test]
    fn dispatch_reports_spawn_failures_with_attempts_and_completed_ranges() {
        // A nonexistent worker binary: every attempt fails to spawn, the
        // budget is spent, and the report names the shard.
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
        let err = dispatch(&local("/nonexistent/mojo-worker"), &tasks, &policy)
            .expect_err("spawn failures must fail");
        assert!(err.contains("shard 0/1"), "{err}");
        assert!(err.contains("2 attempt(s)"), "{err}");
        assert!(err.contains("failed to spawn"), "{err}");
        assert!(err.contains("completed before failure: none"), "{err}");
    }

    #[test]
    fn a_parsed_document_for_the_wrong_shard_is_not_retried_but_fails_the_merge() {
        // Both workers print shard 0's document. Each parses, so no attempt
        // is retried; the merge refuses the set once, naming shard 1.
        use crate::shard::{merge_run, ShardManifest, ShardSpec};
        let items = ["table1".to_string()];
        let doc = ShardDocument {
            manifest: ShardManifest::new(ShardSpec { index: 0, total: 2 }, &items, None),
            reports: vec![],
        };
        let tasks = [0, 1].map(|shard| WorkerTask {
            shard,
            shards: 2,
            args: vec![doc.to_json_pretty()],
        });
        let (docs, summary) = dispatch(&local("/bin/echo"), &tasks, &DispatchPolicy::default())
            .expect("both documents parse");
        assert_eq!(summary.retries, 0);
        let err = merge_run(&docs, &items).expect_err("shard 1 is missing");
        assert!(
            err.contains("shard 1/2: manifest shard is 0, expected 1"),
            "{err}"
        );
    }

    #[test]
    fn an_exhausted_shard_cancels_the_pending_retries_of_the_others() {
        // Both shards fail at once. The deterministic jitter schedules shard
        // 0's retry at about 1.10 × 2 s and shard 1's at about 1.25 × 2 s, so
        // shard 0's second failure exhausts the dispatch while shard 1 is
        // still backing off, and shard 1's retry must never launch.
        // Margin: the gap is about 0.29 s, against the few ms it takes to
        // spawn `/bin/false` and see it exit.
        let tasks = [0, 1].map(|shard| WorkerTask {
            shard,
            shards: 2,
            args: vec![],
        });
        let policy = DispatchPolicy {
            max_attempts: 2,
            timeout: None,
            backoff_base: Duration::from_secs(2),
            backoff_cap: Duration::from_secs(2),
        };
        let err = dispatch(&local("/bin/false"), &tasks, &policy)
            .expect_err("failing workers must fail the dispatch");
        assert!(
            err.contains("shard 0/2: failed after 2 attempt(s)"),
            "{err}"
        );
        assert!(
            err.contains("shard 1/2: failed after 1 attempt(s)"),
            "{err}"
        );
    }
}
