//! Fault-injection tests of the shard dispatcher, through the real binary
//! (DESIGN.md §12): with crash, hang, garbled-output and slow-straggler
//! workers injected via `MOJO_HPC_CHAOS`, `shard run --all --workers 3`
//! must retry/re-shard/speculate its way to stdout and files byte-identical
//! to the committed goldens — and with retries exhausted it must exit 1
//! naming the failed shard, its attempt count and the worker's stderr tail,
//! without writing any partial files.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

fn mojo_hpc_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mojo-hpc"));
    cmd.args(args);
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("run mojo-hpc")
}

fn mojo_hpc(args: &[&str]) -> Output {
    mojo_hpc_env(args, &[])
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("dispatch-chaos-scratch")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The single-process `run --all --format json` stdout — the byte-identity
/// baseline every recovering chaos run must reproduce.
fn single_process_baseline() -> String {
    let single = mojo_hpc(&["run", "--all", "--format", "json"]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr(&single));
    stdout(&single)
}

/// Runs `shard run --all --workers 3 --format json` under `chaos` with
/// `extra` coordinator flags, asserting it recovers: exit 0, stdout
/// byte-identical to the single-process run, files byte-identical to the
/// committed goldens.
fn assert_recovers(tag: &str, chaos: &str, extra: &[&str]) -> Output {
    let out_dir = scratch(tag);
    let mut args = vec![
        "shard",
        "run",
        "--all",
        "--workers",
        "3",
        "--format",
        "json",
        "--out",
        out_dir.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let sharded = mojo_hpc_env(&args, &[("MOJO_HPC_CHAOS", chaos)]);
    assert_eq!(
        sharded.status.code(),
        Some(0),
        "chaos '{chaos}' did not recover: {}",
        stderr(&sharded)
    );
    assert_eq!(
        stdout(&sharded),
        single_process_baseline(),
        "chaos '{chaos}' recovered to different stdout"
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/json");
    let diff = mojo_hpc(&["diff", golden.to_str().unwrap(), out_dir.to_str().unwrap()]);
    assert_eq!(
        diff.status.code(),
        Some(0),
        "chaos '{chaos}' files differ from goldens: {}",
        stdout(&diff)
    );
    std::fs::remove_dir_all(&out_dir).ok();
    sharded
}

#[test]
fn crashed_worker_is_retried_to_byte_identical_goldens() {
    let output = assert_recovers("crash", "crash:1", &[]);
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
    let output = assert_recovers("hang", "hang:0", &["--timeout", "10"]);
    let diag = stderr(&output);
    assert!(diag.contains("1 timed out"), "{diag}");
    assert!(diag.contains("1 retried"), "{diag}");
}

#[test]
fn garbled_worker_output_is_caught_and_retried() {
    let output = assert_recovers("garble", "garble:2", &[]);
    let diag = stderr(&output);
    assert!(diag.contains("1 retried"), "{diag}");
}

#[test]
fn slow_straggler_is_speculated_and_the_loser_reaped() {
    // Shard 1 sleeps 30 s on its first attempt; the speculative duplicate
    // (attempt 2, chaos-free) must win long before that.
    let started = Instant::now();
    let out_dir = scratch("speculate");
    let sharded = mojo_hpc_env(
        &[
            "shard",
            "run",
            "--all",
            "--workers",
            "3",
            "--format",
            "json",
            "--speculate",
            "--out",
            out_dir.to_str().unwrap(),
        ],
        &[
            ("MOJO_HPC_CHAOS", "slow:1"),
            ("MOJO_HPC_CHAOS_SLOW_MS", "30000"),
        ],
    );
    let elapsed = started.elapsed();
    assert_eq!(sharded.status.code(), Some(0), "{}", stderr(&sharded));
    assert_eq!(stdout(&sharded), single_process_baseline());
    // Exactly how many duplicates fire depends on timing; what matters is
    // that at least one did and its loser was reaped.
    let diag = stderr(&sharded);
    assert!(diag.contains("speculative"), "{diag}");
    assert!(!diag.contains("0 speculative"), "{diag}");
    assert!(!diag.contains("0 reaped"), "{diag}");
    // Margin: the duplicate launches once the straggler has run twice the
    // median sibling duration, then does shard 1's real work; the whole
    // dispatch took ~5 s in a debug build on 2 vCPU, so 25 s allows a 5×
    // slower machine and still sits 5 s under the 30 s the straggler
    // sleeps. Only a dispatch that never speculated can reach 30 s.
    assert!(
        elapsed.as_secs() < 25,
        "speculation should beat the 30 s straggler, took {elapsed:?}"
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/json");
    let diff = mojo_hpc(&["diff", golden.to_str().unwrap(), out_dir.to_str().unwrap()]);
    assert_eq!(diff.status.code(), Some(0), "{}", stdout(&diff));
    std::fs::remove_dir_all(&out_dir).ok();
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
    let output = assert_recovers("garble-recover", "garble:1:2", &[]);
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
    use experiment_report::dispatch::{dispatch, DispatchPolicy, Launcher, WorkerTask};
    use std::time::Duration;

    struct ChaosLocal;
    impl Launcher for ChaosLocal {
        fn describe(&self) -> String {
            "chaos-local".to_string()
        }
        fn slots(&self) -> usize {
            1
        }
        fn command(&self, task: &WorkerTask) -> Command {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_mojo-hpc"));
            cmd.args(&task.args).env("MOJO_HPC_CHAOS", "hang:0:*");
            cmd
        }
    }

    let launchers: Vec<Box<dyn Launcher>> = vec![Box::new(ChaosLocal)];
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
        ..DispatchPolicy::default()
    };

    // Warm-up round so lazily-created runtime threads don't skew the
    // baseline taken below.
    assert!(dispatch(&launchers, &tasks, &policy).is_err());
    let threads_before = thread_count();
    for round in 0..3 {
        assert!(
            dispatch(&launchers, &tasks, &policy).is_err(),
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
        &[("MOJO_HPC_CHAOS", "explode:1")],
    );
    assert_eq!(sharded.status.code(), Some(1), "{}", stderr(&sharded));
    assert!(
        stderr(&sharded).contains("MOJO_HPC_CHAOS"),
        "names the bad spec: {}",
        stderr(&sharded)
    );
}

#[test]
fn template_launcher_runs_workers_through_a_host_manifest() {
    let out_dir = scratch("template");
    let hosts = out_dir.join("hosts.json");
    // A {exe}-only template: same binary, but placed through the manifest
    // lane — proving template expansion end to end without needing ssh.
    std::fs::write(
        &hosts,
        "{\"schema\": 1, \"template\": [\"{exe}\"], \
         \"hosts\": [{\"name\": \"localhost\", \"slots\": 4}]}\n",
    )
    .unwrap();
    let sharded = mojo_hpc(&[
        "shard",
        "run",
        "--all",
        "--workers",
        "3",
        "--launcher",
        "template",
        "--hosts",
        hosts.to_str().unwrap(),
        "--format",
        "json",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(sharded.status.code(), Some(0), "{}", stderr(&sharded));
    assert_eq!(stdout(&sharded), single_process_baseline());
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn replay_manifest_merges_precomputed_shard_documents() {
    // The SLURM collect-and-merge shape: workers ran elsewhere, their
    // documents sit in files, and a `cat shard_{shard}.json` template
    // replays them into the byte-identical merged output.
    let out_dir = scratch("replay");
    for index in 0..2 {
        let worker = mojo_hpc(&["run", "table1", "fig5", "--shard", &format!("{index}/2")]);
        assert_eq!(worker.status.code(), Some(0), "{}", stderr(&worker));
        std::fs::write(out_dir.join(format!("shard_{index}.json")), worker.stdout).unwrap();
    }
    let manifest = out_dir.join("replay.json");
    std::fs::write(
        &manifest,
        format!(
            "{{\"schema\": 1, \"template\": [\"cat\", \"{}/shard_{{shard}}.json\"], \
             \"hosts\": [{{\"name\": \"replay\", \"slots\": 2}}]}}\n",
            out_dir.display()
        ),
    )
    .unwrap();
    let merged = mojo_hpc(&[
        "shard",
        "run",
        "table1",
        "fig5",
        "--workers",
        "2",
        "--launcher",
        "template",
        "--hosts",
        manifest.to_str().unwrap(),
        "--format",
        "json",
        "--out",
        out_dir.join("merged").to_str().unwrap(),
    ]);
    assert_eq!(merged.status.code(), Some(0), "{}", stderr(&merged));
    let single = mojo_hpc(&["run", "table1", "fig5", "--format", "json"]);
    assert_eq!(stdout(&merged), stdout(&single));
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn slurm_launcher_generates_a_job_array_script() {
    let out_dir = scratch("slurm");
    let sharded = mojo_hpc(&[
        "shard",
        "run",
        "--all",
        "--workers",
        "4",
        "--launcher",
        "slurm",
        "--format",
        "json",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(sharded.status.code(), Some(0), "{}", stderr(&sharded));
    assert!(
        stdout(&sharded).is_empty(),
        "the slurm lane generates, it does not run"
    );
    let script = std::fs::read_to_string(out_dir.join("slurm_job_array.sbatch")).unwrap();
    assert!(script.starts_with("#!/bin/bash"), "{script}");
    assert!(script.contains("#SBATCH --array=0-3"), "{script}");
    assert!(
        script.contains("--shard \"${SLURM_ARRAY_TASK_ID}/4\""),
        "{script}"
    );
    assert!(
        script.contains("> \"shard_${SLURM_ARRAY_TASK_ID}.json\""),
        "{script}"
    );
    std::fs::remove_dir_all(&out_dir).ok();
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
        vec![
            "shard",
            "run",
            "--all",
            "--workers",
            "2",
            "--launcher",
            "warp",
        ],
        vec![
            "shard",
            "run",
            "--all",
            "--workers",
            "2",
            "--launcher",
            "template",
        ],
        vec![
            "shard",
            "run",
            "--all",
            "--workers",
            "2",
            "--hosts",
            "h.json",
        ],
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
    // A missing host manifest is caught when dispatch starts, not mid-run.
    let missing = mojo_hpc(&[
        "shard",
        "run",
        "table1",
        "--workers",
        "1",
        "--launcher",
        "template",
        "--hosts",
        "/nonexistent/hosts.json",
    ]);
    assert_eq!(missing.status.code(), Some(1), "{}", stderr(&missing));
    assert!(
        stderr(&missing).contains("hosts.json"),
        "{}",
        stderr(&missing)
    );
}
