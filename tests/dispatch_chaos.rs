//! Fault-injection tests of the shard dispatcher, through the real binary
//! (DESIGN.md §12): with crash, hang and garbled-output workers injected via
//! `MOJO_HPC_CHAOS`, `shard run --all --workers 3` must retry its way to
//! stdout and files byte-identical to the committed goldens — and with
//! retries exhausted it must exit 1 naming the failed shard, its attempt
//! count and the worker's stderr tail, without writing any partial files.

mod common;

use common::{mojo_hpc, mojo_hpc_env, row, scratch, shard_cell, stderr, stdout, REPORT};
use std::process::{Command, Output};

/// Runs `shard run --all --workers 3 --format json` under `chaos` with
/// `extra` coordinator flags as a cell of the byte-identity matrix
/// (`tests/common/mod.rs`): it must recover to exit 0, stdout
/// byte-identical to the single-process run, and files byte-identical to
/// the committed goldens.
fn assert_recovers(chaos: &str, extra: &[&str]) -> Output {
    shard_cell(
        &row(REPORT, "json"),
        "3",
        extra,
        &[("MOJO_HPC_CHAOS", chaos)],
    )
}

#[test]
fn crashed_worker_is_retried_to_byte_identical_goldens() {
    let output = assert_recovers("crash:1", &[]);
    let diag = stderr(&output);
    assert!(diag.contains("1 retried"), "{diag}");
}

#[test]
fn hung_worker_is_timeout_reaped_and_retried() {
    // 10 s: generous enough for a debug-profile worker's real work on a
    // loaded machine, while still reaping the infinite hang promptly.
    // Margin: the whole unsharded `run --all` takes ~3.7 s in a debug build
    // on 2 vCPU and each shard does less, so the timeout only fires on a
    // real worker if the machine is ~2.7× slower than that; the test takes
    // ~10.3 s there (one 10 s reap plus the fast retry).
    let output = assert_recovers("hang:0", &["--timeout", "10"]);
    let diag = stderr(&output);
    assert!(diag.contains("1 timed out"), "{diag}");
    assert!(diag.contains("1 retried"), "{diag}");
}

#[test]
fn garbled_worker_output_is_caught_and_retried() {
    let output = assert_recovers("garble:2", &[]);
    let diag = stderr(&output);
    assert!(diag.contains("1 retried"), "{diag}");
}

#[test]
fn exhausted_retries_fail_loudly_with_shard_attempts_and_stderr_tail() {
    let out_dir = scratch("exhausted");
    std::fs::remove_dir_all(&out_dir).ok(); // must stay unwritten
    let sharded = mojo_hpc_env(
        &[
            "shard",
            "run",
            "--all",
            "--workers",
            "3",
            "--format",
            "json",
            "--max-attempts",
            "2",
            "--out",
            out_dir.to_str().unwrap(),
        ],
        &[("MOJO_HPC_CHAOS", "crash:1:*")],
    );
    assert_eq!(sharded.status.code(), Some(1), "{}", stderr(&sharded));
    let diag = stderr(&sharded);
    assert!(diag.contains("shard 1/3"), "names the failed shard: {diag}");
    assert!(diag.contains("2 attempt(s)"), "names the attempts: {diag}");
    assert!(diag.contains("stderr tail"), "quotes worker stderr: {diag}");
    assert!(
        diag.contains("chaos: injecting crash into shard 1"),
        "the tail carries the worker's own words: {diag}"
    );
    assert!(stdout(&sharded).is_empty(), "no partial stdout on failure");
    assert!(
        !out_dir.exists() || std::fs::read_dir(&out_dir).unwrap().next().is_none(),
        "no partial files on failure"
    );
}

#[test]
fn exhausted_timeouts_quote_the_hung_workers_stderr_tail() {
    // A hung worker is killed by the timeout, but its drained stderr must
    // survive the kill: the failure report quotes the chaos notice the
    // worker printed before it stopped responding. (The timeout-kill path
    // used to discard the tail entirely.)
    let out_dir = scratch("hang-exhausted");
    std::fs::remove_dir_all(&out_dir).ok(); // must stay unwritten
    let sharded = mojo_hpc_env(
        &[
            "shard",
            "run",
            "--all",
            "--workers",
            "3",
            "--format",
            "json",
            "--timeout",
            "5",
            "--max-attempts",
            "1",
            "--out",
            out_dir.to_str().unwrap(),
        ],
        &[("MOJO_HPC_CHAOS", "hang:0:*")],
    );
    assert_eq!(sharded.status.code(), Some(1), "{}", stderr(&sharded));
    let diag = stderr(&sharded);
    assert!(diag.contains("shard 0/3"), "names the hung shard: {diag}");
    assert!(diag.contains("timed out"), "names the timeout: {diag}");
    assert!(diag.contains("stderr tail"), "quotes worker stderr: {diag}");
    assert!(
        diag.contains("chaos: injecting hang into shard 0"),
        "the timeout kill must preserve the hung worker's last words: {diag}"
    );
    assert!(
        !out_dir.exists() || std::fs::read_dir(&out_dir).unwrap().next().is_none(),
        "no partial files on failure"
    );
}

#[test]
fn garbled_attempts_relay_live_per_attempt_stderr_tails_in_order() {
    // Shard 1 garbles its first two attempts and recovers on the third.
    // The recovered run still relays each failed attempt's diagnostics
    // live, in attempt order — without the live notices a retried-and-
    // recovered run would swallow them entirely (the full failure report
    // only renders when the whole dispatch fails).
    let output = assert_recovers("garble:1:2", &[]);
    let diag = stderr(&output);
    assert!(diag.contains("2 retried"), "{diag}");
    let first = diag
        .find("dispatch: shard 1/3 attempt 1")
        .unwrap_or_else(|| panic!("attempt 1 notice missing: {diag}"));
    let second = diag
        .find("dispatch: shard 1/3 attempt 2")
        .unwrap_or_else(|| panic!("attempt 2 notice missing: {diag}"));
    assert!(first < second, "notices out of attempt order: {diag}");
    assert!(
        diag.contains("chaos: injecting garble into shard 1 (attempt 1)"),
        "attempt 1's own stderr tail must be relayed: {diag}"
    );
    assert!(
        diag.contains("chaos: injecting garble into shard 1 (attempt 2)"),
        "attempt 2's own stderr tail must be relayed: {diag}"
    );
}

/// Live threads of this process, per `/proc/self/task`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Direct children of this process currently in Z (zombie) state.
#[cfg(target_os = "linux")]
fn zombie_children() -> Vec<u32> {
    let me = std::process::id();
    let mut zombies = Vec::new();
    for entry in std::fs::read_dir("/proc").unwrap().flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Fields after the parenthesised comm: state, then ppid.
        let Some(rest) = stat.rsplit(')').next() else {
            continue;
        };
        let mut fields = rest.split_whitespace();
        let state = fields.next().unwrap_or("");
        let ppid: u32 = fields.next().and_then(|p| p.parse().ok()).unwrap_or(0);
        if ppid == me && state == "Z" {
            zombies.push(pid);
        }
    }
    zombies
}

#[test]
#[cfg(target_os = "linux")]
fn repeated_timeout_kills_leak_no_zombies_or_drain_threads() {
    // Drives the dispatcher in-process so this test's own /proc entries
    // witness the cleanup: every timeout-killed worker must be wait()ed
    // (no zombie children) and both pipe-drain threads joined (stable
    // thread count), round after round.
    use experiment_report::dispatch::{dispatch, DispatchPolicy, WorkerTask};
    use std::time::Duration;

    let chaos_local = |task: &WorkerTask| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mojo-hpc"));
        cmd.args(&task.args).env("MOJO_HPC_CHAOS", "hang:0:*");
        cmd
    };

    let tasks = vec![WorkerTask {
        shard: 0,
        shards: 1,
        args: vec![
            "run".to_string(),
            "table1".to_string(),
            "--shard".to_string(),
            "0/1".to_string(),
        ],
    }];
    let policy = DispatchPolicy {
        max_attempts: 2,
        timeout: Some(Duration::from_secs(1)),
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(10),
    };

    // Warm-up round so lazily-created runtime threads don't skew the
    // baseline taken below.
    assert!(dispatch(&chaos_local, &tasks, &policy).is_err());
    let threads_before = thread_count();
    for round in 0..3 {
        assert!(
            dispatch(&chaos_local, &tasks, &policy).is_err(),
            "round {round}: every attempt hangs, the dispatch must fail"
        );
        // A concurrently-running test's child may be transiently zombie
        // between its exit and the harness's wait(); only a *persistent*
        // zombie is a leak.
        let mut zombies = zombie_children();
        for _ in 0..20 {
            if zombies.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
            zombies = zombie_children();
        }
        assert!(
            zombies.is_empty(),
            "round {round}: leaked zombies {zombies:?}"
        );
    }
    let threads_after = thread_count();
    // Six timeout kills happened since the baseline; leaking the two
    // pipe-drain threads per kill would add 12 threads. The slack only
    // absorbs unrelated harness threads scheduling other tests.
    // Margin: the count is process-wide, but this is the only test in the
    // binary that dispatches in-process; the others run the CLI through
    // `Command::output`, which starts no threads here. The noise is
    // therefore libtest's own per-test threads, at most
    // `RUST_TEST_THREADS - 1` others (1 on 2 vCPU), so the 4-thread slack
    // holds up to 5 concurrent test threads and a one-kill leak (+2 per
    // kill, +12 in all) still trips it with 8 threads to spare.
    assert!(
        threads_after <= threads_before + 4,
        "drain threads leaked: {threads_before} -> {threads_after}"
    );
}

#[test]
fn max_attempts_0_degrades_gracefully_naming_completed_ranges() {
    let out_dir = scratch("degraded");
    std::fs::remove_dir_all(&out_dir).ok();
    let sharded = mojo_hpc_env(
        &[
            "shard",
            "run",
            "--all",
            "--workers",
            "3",
            "--format",
            "json",
            "--max-attempts",
            "0",
            "--out",
            out_dir.to_str().unwrap(),
        ],
        &[("MOJO_HPC_CHAOS", "crash:0:*")],
    );
    assert_eq!(sharded.status.code(), Some(1), "{}", stderr(&sharded));
    let diag = stderr(&sharded);
    assert!(diag.contains("shard 0/3"), "{diag}");
    assert!(diag.contains("1 attempt(s)"), "single attempt only: {diag}");
    assert!(
        diag.contains("completed before failure"),
        "reports surviving ranges: {diag}"
    );
    assert!(
        diag.contains("shard 1/3 (items") || diag.contains("shard 2/3 (items"),
        "names the completed ranges: {diag}"
    );
    assert!(
        !out_dir.exists() || std::fs::read_dir(&out_dir).unwrap().next().is_none(),
        "no partial files on failure"
    );
}

#[test]
fn malformed_chaos_specs_fail_loudly_instead_of_running_clean() {
    // `slow` is not a mode: a spec naming it is as malformed as a typo.
    for spec in ["explode:1", "slow:1"] {
        let sharded = mojo_hpc_env(
            &[
                "shard",
                "run",
                "table1",
                "fig5",
                "--workers",
                "2",
                "--max-attempts",
                "1",
                "--format",
                "json",
            ],
            &[("MOJO_HPC_CHAOS", spec)],
        );
        assert_eq!(
            sharded.status.code(),
            Some(1),
            "{spec}: {}",
            stderr(&sharded)
        );
        assert!(
            stderr(&sharded).contains("MOJO_HPC_CHAOS"),
            "{spec}: names the bad spec: {}",
            stderr(&sharded)
        );
        // The worker itself rejects the spec as a usage error.
        let worker = mojo_hpc_env(
            &["run", "table1", "--shard", "1/2"],
            &[("MOJO_HPC_CHAOS", spec)],
        );
        assert_eq!(worker.status.code(), Some(2), "{spec}: {}", stderr(&worker));
    }
}

#[test]
fn coordinator_reports_fleet_pool_telemetry_on_stderr() {
    // The sweep lane exercises the buffer pool, so the coordinator must
    // accumulate the workers' embedded counters into one stderr line —
    // while stdout stays byte-identical to the single-process sweep.
    let single = mojo_hpc(&["sweep", "stencil", "--sizes", "16,20", "--format", "json"]);
    let sharded = mojo_hpc(&[
        "shard",
        "sweep",
        "stencil",
        "--sizes",
        "16,20",
        "--workers",
        "2",
        "--format",
        "json",
    ]);
    assert_eq!(sharded.status.code(), Some(0), "{}", stderr(&sharded));
    assert_eq!(stdout(&sharded), stdout(&single));
    let diag = stderr(&sharded);
    assert!(diag.contains("pool: 2 worker(s)"), "{diag}");
    assert!(diag.contains("hit rate"), "{diag}");
}

#[test]
fn dispatcher_flag_combinations_are_validated_at_parse_time() {
    for line in [
        vec!["shard", "run", "--all", "--workers", "2", "--timeout", "0"],
        vec!["shard", "run", "--all", "--workers", "2", "--timeout", "-3"],
        vec![
            "shard",
            "run",
            "--all",
            "--workers",
            "2",
            "--timeout",
            "nope",
        ],
        // Beyond the timeout cap: 1e300 s overflows a `Duration`, and 1e19 s
        // overflows an `Instant` addition.
        vec![
            "shard",
            "run",
            "table1",
            "--workers",
            "1",
            "--timeout",
            "1e300",
        ],
        vec![
            "shard",
            "run",
            "table1",
            "--workers",
            "1",
            "--timeout",
            "1e19",
        ],
        vec![
            "shard",
            "run",
            "--all",
            "--workers",
            "2",
            "--max-attempts",
            "x",
        ],
    ] {
        let output = mojo_hpc(&line);
        assert_eq!(
            output.status.code(),
            Some(2),
            "expected a usage error for {line:?}: {}",
            stderr(&output)
        );
    }
}
