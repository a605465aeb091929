//! Integration tests of the sharded multi-process mode, through the real
//! binary: the `shard` coordinator's merge must be **byte-identical** to the
//! single-process command (stdout and files), shard workers must emit valid
//! shard documents (including for empty shards), and malformed shard specs
//! must be usage errors. Protocol: DESIGN.md §10.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn mojo_hpc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mojo-hpc"))
        .args(args)
        .output()
        .expect("run mojo-hpc")
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
        .join("shard-scratch")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Asserts two directories hold the same file names with identical bytes.
fn assert_same_files(dir_a: &Path, dir_b: &Path) {
    let names = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| entry.file_name().into_string().ok())
            .collect();
        names.sort();
        names
    };
    let (names_a, names_b) = (names(dir_a), names(dir_b));
    assert_eq!(names_a, names_b, "file sets differ");
    for name in &names_a {
        let a = std::fs::read(dir_a.join(name)).unwrap();
        let b = std::fs::read(dir_b.join(name)).unwrap();
        assert!(a == b, "{name} differs between the single and sharded run");
    }
}

#[test]
fn shard_run_all_is_byte_identical_to_the_single_process_run() {
    let single_out = scratch("run-single");
    let sharded_out = scratch("run-sharded");
    let single = mojo_hpc(&[
        "run",
        "--all",
        "--format",
        "json",
        "--out",
        single_out.to_str().unwrap(),
    ]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr(&single));
    let sharded = mojo_hpc(&[
        "shard",
        "run",
        "--all",
        "--workers",
        "3",
        "--format",
        "json",
        "--out",
        sharded_out.to_str().unwrap(),
    ]);
    assert_eq!(sharded.status.code(), Some(0), "{}", stderr(&sharded));
    assert_eq!(
        stdout(&single),
        stdout(&sharded),
        "sharded stdout differs from the single-process run"
    );
    assert_same_files(&single_out, &sharded_out);
    // And against the committed goldens, via the binary's own diff lane.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/json");
    let diff = mojo_hpc(&[
        "diff",
        golden.to_str().unwrap(),
        sharded_out.to_str().unwrap(),
    ]);
    assert_eq!(diff.status.code(), Some(0), "{}", stdout(&diff));
    std::fs::remove_dir_all(&single_out).ok();
    std::fs::remove_dir_all(&sharded_out).ok();
}

#[test]
fn shard_run_csv_lane_matches_single_process_output() {
    let single_out = scratch("csv-single");
    let sharded_out = scratch("csv-sharded");
    let single = mojo_hpc(&[
        "run",
        "table1",
        "fig2",
        "fig5",
        "--out",
        single_out.to_str().unwrap(),
    ]);
    let sharded = mojo_hpc(&[
        "shard",
        "run",
        "table1",
        "fig2",
        "fig5",
        "--workers",
        "2",
        "--out",
        sharded_out.to_str().unwrap(),
    ]);
    assert_eq!(sharded.status.code(), Some(0), "{}", stderr(&sharded));
    assert_eq!(stdout(&single), stdout(&sharded));
    assert_same_files(&single_out, &sharded_out);
    std::fs::remove_dir_all(&single_out).ok();
    std::fs::remove_dir_all(&sharded_out).ok();
}

#[test]
fn shard_sweep_merges_byte_identically_including_empty_shards() {
    let single_out = scratch("sweep-single");
    let sharded_out = scratch("sweep-sharded");
    let single = mojo_hpc(&[
        "sweep",
        "stencil",
        "--sizes",
        "16,20,24",
        "precision=fp32",
        "--format",
        "json",
        "--out",
        single_out.to_str().unwrap(),
    ]);
    // 5 workers over 3 points: two shards are empty and contribute nothing.
    let sharded = mojo_hpc(&[
        "shard",
        "sweep",
        "stencil",
        "--sizes",
        "16,20,24",
        "precision=fp32",
        "--workers",
        "5",
        "--format",
        "json",
        "--out",
        sharded_out.to_str().unwrap(),
    ]);
    assert_eq!(sharded.status.code(), Some(0), "{}", stderr(&sharded));
    assert_eq!(stdout(&single), stdout(&sharded));
    assert_same_files(&single_out, &sharded_out);
    std::fs::remove_dir_all(&single_out).ok();
    std::fs::remove_dir_all(&sharded_out).ok();
}

#[test]
fn composite_workload_shard_sweeps_merge_byte_identically() {
    // The §15 composite engines ride the same shard protocol: a 3-worker
    // sweep must merge to the exact bytes of the single-process run, stdout
    // and files alike.
    for (workload, sizes, extra) in [
        ("jacobi", "8,12,16", "iters=200"),
        ("framestream", "4096,8192,16384", "frames=32"),
    ] {
        let single_out = scratch(&format!("{workload}-single"));
        let sharded_out = scratch(&format!("{workload}-sharded"));
        let single = mojo_hpc(&[
            "sweep",
            workload,
            "--sizes",
            sizes,
            extra,
            "--format",
            "json",
            "--out",
            single_out.to_str().unwrap(),
        ]);
        assert_eq!(single.status.code(), Some(0), "{}", stderr(&single));
        let sharded = mojo_hpc(&[
            "shard",
            "sweep",
            workload,
            "--sizes",
            sizes,
            extra,
            "--workers",
            "3",
            "--format",
            "json",
            "--out",
            sharded_out.to_str().unwrap(),
        ]);
        assert_eq!(sharded.status.code(), Some(0), "{}", stderr(&sharded));
        assert_eq!(
            stdout(&single),
            stdout(&sharded),
            "{workload}: sharded stdout differs from the single-process run"
        );
        assert_same_files(&single_out, &sharded_out);
        std::fs::remove_dir_all(&single_out).ok();
        std::fs::remove_dir_all(&sharded_out).ok();
    }
}

#[test]
fn single_worker_shard_equals_the_unsharded_command() {
    let single = mojo_hpc(&["sweep", "stencil", "--sizes", "16,20"]);
    let sharded = mojo_hpc(&[
        "shard",
        "sweep",
        "stencil",
        "--sizes",
        "16,20",
        "--workers",
        "1",
    ]);
    assert_eq!(sharded.status.code(), Some(0), "{}", stderr(&sharded));
    assert_eq!(stdout(&single), stdout(&sharded));
}

#[test]
fn worker_mode_emits_a_shard_document_and_covers_all_items_at_0_of_1() {
    let output = mojo_hpc(&[
        "run", "table1", "fig5", "--format", "json", "--shard", "0/1",
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.starts_with('{'), "shard document is one JSON object");
    assert!(text.contains("\"manifest\""), "{text}");
    assert!(text.contains("\"command\": \"run\""), "{text}");
    assert!(text.contains("\"shard\": 0") && text.contains("\"shards\": 1"));
    assert!(text.contains("\"id\": \"table1\"") && text.contains("\"id\": \"fig5\""));
}

#[test]
fn an_empty_shard_emits_a_manifest_with_no_reports() {
    // 3 workers over 2 experiments: shard 0/3 covers [0, 2/3) = nothing.
    let output = mojo_hpc(&["run", "table1", "fig5", "--shard", "0/3"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("\"count\": 0"), "{text}");
    assert!(text.contains("\"items\": []"), "{text}");
    assert!(text.contains("\"reports\": []"), "{text}");
    // The coordinator still merges the set cleanly.
    let merged = mojo_hpc(&["shard", "run", "table1", "fig5", "--workers", "3"]);
    assert_eq!(merged.status.code(), Some(0), "{}", stderr(&merged));
    assert_eq!(
        stdout(&merged),
        stdout(&mojo_hpc(&["run", "table1", "fig5"]))
    );
}

#[test]
fn out_of_range_and_overlapping_shard_specs_are_usage_errors() {
    for line in [
        vec!["run", "--all", "--shard", "3/3"],
        vec!["run", "--all", "--shard", "5/3"],
        vec!["run", "--all", "--shard", "1/0"],
        vec!["run", "--all", "--shard", "2"],
        vec!["run", "--all", "--shard", "0/3", "--shard", "1/3"],
        vec!["run", "--all", "--format", "csv", "--shard", "0/3"],
        vec![
            "sweep", "stencil", "--sizes", "16", "--shard", "1/1", "--shard", "0/1",
        ],
        vec!["shard", "run", "--all"],
        vec!["shard", "run", "--all", "--workers", "0"],
        vec!["shard", "run", "--all", "--workers", "2", "--shard", "0/2"],
        vec!["shard", "diff", "a", "b", "--workers", "2"],
    ] {
        let output = mojo_hpc(&line);
        assert_eq!(
            output.status.code(),
            Some(2),
            "expected a usage error for {line:?}: {}",
            stderr(&output)
        );
        assert!(
            stderr(&output).contains("USAGE"),
            "usage text missing for {line:?}"
        );
    }
}

#[test]
fn presets_round_trip_through_the_cli_and_feed_shard_workers() {
    use mojo_hpc::kernels::workload;
    use mojo_hpc::report::shard::ShardDocument;
    use mojo_hpc::report::sweep::SweepSpec;
    // A worker takes its configuration from its command line, as the
    // coordinator passes it: shard 1 of 2 covers the second point.
    let worker = mojo_hpc(&[
        "sweep",
        "stencil",
        "--sizes",
        "16,20",
        "precision=fp32",
        "--shard",
        "1/2",
    ]);
    assert_eq!(worker.status.code(), Some(0), "{}", stderr(&worker));
    let doc = ShardDocument::parse(&stdout(&worker)).expect("a shard document");
    assert_eq!(doc.manifest.command, "sweep");
    assert_eq!(doc.manifest.items, vec!["20".to_string()]);
    // Its manifest pins the configuration the single process resolves.
    let engine = workload::find("stencil").unwrap();
    let spec = SweepSpec::new(engine, &["precision=fp32".to_string()], vec![16, 20]).unwrap();
    assert_eq!(doc.manifest.workload.as_deref(), Some("stencil"));
    assert_eq!(doc.manifest.params, Some(spec.base.encode()));
    // The preset-file flags are gone: both are usage errors.
    let out = scratch("preset");
    let file = out.join("stencil.json");
    let file = file.to_str().unwrap();
    for removed in [
        vec!["sweep", concat!("--", "preset"), file],
        vec![
            "sweep",
            "stencil",
            "--sizes",
            "16",
            concat!("--", "preset-out"),
            file,
        ],
    ] {
        let output = mojo_hpc(&removed);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{removed:?}: {}",
            stderr(&output)
        );
    }
    assert!(!Path::new(file).exists());
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn a_crashed_worker_fails_the_fan_out_naming_its_shard() {
    use mojo_hpc::report::dispatch::dispatch;
    use mojo_hpc::report::shard::worker_tasks;
    use mojo_hpc::report::{DispatchPolicy, LocalLauncher};
    let fan_out = |exe: &str, args_per_worker: &[Vec<String>]| {
        dispatch(
            &LocalLauncher::new(exe),
            &worker_tasks(args_per_worker),
            &DispatchPolicy::no_retry(),
        )
        .map(|(docs, _summary)| docs)
    };
    // Workers that exit nonzero: every failing shard is named.
    let err = fan_out("/bin/false", &[vec![], vec![]])
        .expect_err("nonzero workers must fail the fan-out");
    assert!(err.contains("shard 0/2"), "{err}");
    assert!(err.contains("shard 1/2"), "{err}");
    // A worker that exits 0 but prints garbage is equally fatal.
    let err = fan_out("/bin/echo", &[vec!["not-json".to_string()]])
        .expect_err("garbled worker stdout must fail the fan-out");
    assert!(err.contains("shard 0/1"), "{err}");
    assert!(err.contains("JSON"), "{err}");
}

#[test]
fn coordinator_validation_failures_exit_before_spawning_workers() {
    // An invalid sweep point (l=2 is a degenerate grid) is caught by the
    // coordinator's own up-front validation: usage error, no workers run.
    let output = mojo_hpc(&[
        "shard",
        "sweep",
        "stencil",
        "--sizes",
        "2",
        "--workers",
        "2",
    ]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    let unknown = mojo_hpc(&[
        "shard",
        "sweep",
        "frobnicate",
        "--sizes",
        "8",
        "--workers",
        "2",
    ]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(
        stderr(&unknown).contains("unknown workload"),
        "{}",
        stderr(&unknown)
    );
}

#[test]
fn diff_compares_json_report_directories() {
    let dir_a = scratch("jdiff-a");
    let dir_b = scratch("jdiff-b");
    let doc = "{\n  \"id\": \"x\",\n  \"tables\": []\n}\n";
    std::fs::write(dir_a.join("x.json"), doc).unwrap();
    std::fs::write(dir_b.join("x.json"), doc).unwrap();
    let same = mojo_hpc(&["diff", dir_a.to_str().unwrap(), dir_b.to_str().unwrap()]);
    assert_eq!(same.status.code(), Some(0));

    std::fs::write(
        dir_b.join("x.json"),
        "{\n  \"id\": \"y\",\n  \"tables\": []\n}\n",
    )
    .unwrap();
    let changed = mojo_hpc(&["diff", dir_a.to_str().unwrap(), dir_b.to_str().unwrap()]);
    assert_eq!(changed.status.code(), Some(1));
    let text = stdout(&changed);
    assert!(text.contains("x.json: line 1 differs"), "{text}");

    // JSON files present on only one side are differences too.
    std::fs::remove_file(dir_b.join("x.json")).unwrap();
    let missing = mojo_hpc(&["diff", dir_a.to_str().unwrap(), dir_b.to_str().unwrap()]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(stdout(&missing).contains("x.json: only in"));
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
