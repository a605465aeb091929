//! Integration tests of the sharded multi-process mode, through the real
//! binary. The byte-identity matrix's shard columns (`tests/common/mod.rs`)
//! pin the coordinator's merge to the fixture bytes and to the
//! single-process stdout at 2 and 3 workers; the other tests pin that shard
//! workers emit valid shard documents (including for empty shards) and that
//! malformed shard specs are usage errors. Protocol: DESIGN.md §10.

mod common;

use common::{mojo_hpc, row, rows, scratch, shard_cell, stderr, stdout, Row, COMPOSITES, REPORT};
use std::path::Path;

/// The matrix's shard columns for `rows`: 2 and 3 workers.
fn shard_cells(rows: impl IntoIterator<Item = Row>) {
    for row in rows {
        for workers in ["2", "3"] {
            shard_cell(&row, workers, &[], &[]);
        }
    }
}

#[test]
fn shard_run_all_is_byte_identical_to_the_single_process_run() {
    shard_cells([row(REPORT, "json")]);
}

#[test]
fn shard_run_csv_lane_matches_single_process_output() {
    shard_cells([row(REPORT, "csv")]);
}

#[test]
fn shard_sweep_merges_byte_identically_including_empty_shards() {
    // `sweep_babelstream_dot` has one point, so its shards 0/2, 0/3 and 1/3
    // are empty and contribute nothing; the two-point rows leave one empty
    // shard at 3 workers.
    shard_cells(
        rows()
            .into_iter()
            .filter(|row| row.fixture != REPORT && !COMPOSITES.contains(&row.fixture)),
    );
}

#[test]
fn composite_workload_shard_sweeps_merge_byte_identically() {
    // The §15 composite engines ride the same shard protocol, and still
    // merge to the fixture bytes when a worker crashes or garbles its
    // output and is retried.
    shard_cells(
        rows()
            .into_iter()
            .filter(|row| COMPOSITES.contains(&row.fixture)),
    );
    for (fixture, chaos) in [
        ("sweep_jacobi", "crash:1"),
        ("sweep_framestream", "garble:2"),
    ] {
        let output = shard_cell(
            &row(fixture, "json"),
            "3",
            &[],
            &[("MOJO_HPC_CHAOS", chaos)],
        );
        let diag = stderr(&output);
        assert!(diag.contains("1 retried"), "{chaos}: {diag}");
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
    use mojo_hpc::report::dispatch::{dispatch, WorkerTask};
    use mojo_hpc::report::shard::worker_tasks;
    use mojo_hpc::report::DispatchPolicy;
    let fan_out = |exe: &str, args_per_worker: &[Vec<String>]| {
        dispatch(
            &|task: &WorkerTask| {
                let mut cmd = std::process::Command::new(exe);
                cmd.args(&task.args);
                cmd
            },
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
