//! Integration tests of the `mojo-hpc` command-line interface: subcommand
//! coverage, exit codes and error messages, through the real binary.

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
        .join("cli-scratch")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn list_names_every_registry_entry() {
    let output = mojo_hpc(&["list"]);
    assert_eq!(output.status.code(), Some(0));
    let text = stdout(&output);
    for id in [
        "table1", "fig2", "fig3", "table2", "fig4", "table3", "fig5", "fig6", "fig7", "table4",
        "table5",
    ] {
        assert!(
            text.lines().any(|line| line.trim_start().starts_with(id)),
            "list output missing {id}:\n{text}"
        );
    }
    // Kernel-measuring experiments name the workload behind them.
    assert!(text.contains("[workload: stencil]"), "{text}");
    assert!(text.contains("[workload: hartree-fock]"), "{text}");
}

#[test]
fn list_shows_every_workload_with_parameters_and_defaults() {
    let output = mojo_hpc(&["list"]);
    assert_eq!(output.status.code(), Some(0));
    let text = stdout(&output);
    for workload in [
        "stencil",
        "babelstream",
        "minibude",
        "hartree-fock",
        "hartree-fock-sampled",
        "jacobi",
        "framestream",
    ] {
        assert!(
            text.lines()
                .any(|line| line.trim_start().starts_with(workload)),
            "list output missing workload {workload}:\n{text}"
        );
    }
    // Tunable parameters appear as key=default pairs with help text.
    for param in [
        "l=192",
        "precision=fp64",
        "n=33554432",
        "ppwi=8",
        "atoms=1024",
        "samples=4096",
        "iters=400",
        "frames=64",
    ] {
        assert!(text.contains(param), "list output missing {param}:\n{text}");
    }
    // The sweep axis is called out so `--sizes` is discoverable.
    assert!(text.contains("sweep axis: l"), "{text}");
    assert!(text.contains("--sizes"), "{text}");
}

#[test]
fn sweep_runs_custom_sizes_and_emits_csv_and_json() {
    let out = scratch("sweep");
    let csv_run = mojo_hpc(&[
        "sweep",
        "stencil",
        "--sizes",
        "24,32",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        csv_run.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&csv_run)
    );
    let text = stdout(&csv_run);
    assert!(text.contains("=== sweep_stencil"), "{text}");
    assert!(text.contains("l=24") && text.contains("l=32"), "{text}");
    let csv_path = out.join("sweep_stencil_sweep.csv");
    let csv = std::fs::read_to_string(&csv_path).expect("sweep CSV written");
    assert!(csv
        .starts_with("workload,l,params,device,backend,kernel,seconds,bandwidth_gbs,verification"));
    assert_eq!(csv.lines().count(), 1 + 2 * 4, "2 sizes x 4 platforms");

    let json_run = mojo_hpc(&[
        "sweep",
        "stencil",
        "--sizes",
        "24,32",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(json_run.status.code(), Some(0));
    let json = stdout(&json_run);
    assert!(json.contains("\"id\": \"sweep_stencil\""), "{json}");
    assert!(out.join("sweep_stencil.json").exists());

    // Parameter overrides flow into the encoded params column.
    let fp32 = mojo_hpc(&[
        "sweep",
        "stencil",
        "--sizes",
        "24",
        "precision=fp32",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(fp32.status.code(), Some(0));
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.contains("precision=fp32"), "{csv}");

    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn composite_workloads_run_sweep_and_preset_through_the_cli() {
    let out = scratch("composite");
    // Jacobi: a sweep with an iters override runs all four platforms per
    // point and validates functionally at these grid sides.
    let jacobi = mojo_hpc(&[
        "sweep",
        "jacobi",
        "--sizes",
        "8,12",
        "iters=150",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(jacobi.status.code(), Some(0), "{}", stderr(&jacobi));
    let text = stdout(&jacobi);
    assert!(text.contains("=== sweep_jacobi"), "{text}");
    let csv = std::fs::read_to_string(out.join("sweep_jacobi_sweep.csv")).unwrap();
    assert_eq!(csv.lines().count(), 1 + 2 * 4, "2 sizes x 4 platforms");
    assert!(csv.contains("iters=150"), "{csv}");
    assert!(csv.contains("passed(max_abs_err=0.000e0)"), "{csv}");

    // Framestream: preset round trip reproduces the run byte-for-byte.
    let preset = out.join("framestream.json");
    let save = mojo_hpc(&[
        "sweep",
        "framestream",
        "--sizes",
        "4096,8192",
        "frames=16",
        "--preset-out",
        preset.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(save.status.code(), Some(0), "{}", stderr(&save));
    let preset_text = std::fs::read_to_string(&preset).unwrap();
    assert!(
        preset_text.contains("\"workload\": \"framestream\""),
        "{preset_text}"
    );
    assert!(preset_text.contains("frames=16"), "{preset_text}");
    let replay = mojo_hpc(&["sweep", "--preset", preset.to_str().unwrap()]);
    assert_eq!(replay.status.code(), Some(0), "{}", stderr(&replay));
    assert_eq!(stdout(&replay), stdout(&save));

    // Out-of-range parameters are usage errors (exit 2), not runs.
    for args in [
        ["sweep", "jacobi", "--sizes", "2"],
        ["sweep", "jacobi", "--sizes", "5000"],
        ["sweep", "framestream", "--sizes", "1"],
    ] {
        let output = mojo_hpc(&args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "expected a usage error for {args:?}: {}",
            stderr(&output)
        );
    }
    let bad_iters = mojo_hpc(&["sweep", "jacobi", "--sizes", "8", "iters=0"]);
    assert_eq!(bad_iters.status.code(), Some(2));
    let bad_frames = mojo_hpc(&["sweep", "framestream", "--sizes", "4096", "frames=100000"]);
    assert_eq!(bad_frames.status.code(), Some(2));
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn sweep_usage_errors_exit_2() {
    let unknown = mojo_hpc(&["sweep", "frobnicate", "--sizes", "8"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(
        stderr(&unknown).contains("stencil"),
        "should name known workloads"
    );
    let no_sizes = mojo_hpc(&["sweep", "stencil"]);
    assert_eq!(no_sizes.status.code(), Some(2));
    let bad_param = mojo_hpc(&["sweep", "stencil", "--sizes", "24", "bogus=1"]);
    assert_eq!(bad_param.status.code(), Some(2));
    // A size that would overflow the cost model is a usage error, not a run.
    let overflow = mojo_hpc(&["sweep", "stencil", "--sizes", "10000000000"]);
    assert_eq!(overflow.status.code(), Some(2));
    assert!(
        stderr(&bad_param).contains("unknown parameter"),
        "{}",
        stderr(&bad_param)
    );
}

#[test]
fn run_single_experiment_with_json_format_writes_the_json_file() {
    let out = scratch("run-json");
    let output = mojo_hpc(&[
        "run",
        "table1",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0));
    let text = stdout(&output);
    assert!(
        text.starts_with('['),
        "json stdout should be an array: {text}"
    );
    assert!(text.contains("\"id\": \"table1\""));
    assert!(
        !text.contains("=== table1"),
        "no console banner in json mode"
    );
    assert!(out.join("table1.json").exists());
    assert!(
        !out.join("table1_hardware.csv").exists(),
        "json mode writes no CSV"
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn run_unknown_experiment_fails_helpfully() {
    let output = mojo_hpc(&["run", "table9"]);
    assert_eq!(output.status.code(), Some(2));
    let err = stderr(&output);
    assert!(
        err.contains("table9"),
        "stderr should name the bad id: {err}"
    );
    assert!(
        err.contains("known ids") && err.contains("table5"),
        "stderr should list the known ids: {err}"
    );
}

#[test]
fn run_without_arguments_is_a_usage_error() {
    let output = mojo_hpc(&["run"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("--all"));
}

#[test]
fn run_single_experiment_renders_and_writes_csv() {
    let out = scratch("run-single");
    let output = mojo_hpc(&["run", "table1", "--out", out.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(0));
    assert!(stdout(&output).contains("=== table1"));
    assert!(out.join("table1_hardware.csv").exists());
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn diff_identical_dirs_exits_zero_and_mutation_names_the_row() {
    let dir_a = scratch("diff-a");
    let dir_b = scratch("diff-b");
    let csv = "kernel,backend\ncopy,Mojo\ndot,CUDA\n";
    std::fs::write(dir_a.join("t.csv"), csv).unwrap();
    std::fs::write(dir_b.join("t.csv"), csv).unwrap();

    let same = mojo_hpc(&["diff", dir_a.to_str().unwrap(), dir_b.to_str().unwrap()]);
    assert_eq!(same.status.code(), Some(0));

    // Mutate row 2 (0-based: the "dot" data row) and expect it named.
    std::fs::write(dir_b.join("t.csv"), "kernel,backend\ncopy,Mojo\ndot,HIP\n").unwrap();
    let changed = mojo_hpc(&["diff", dir_a.to_str().unwrap(), dir_b.to_str().unwrap()]);
    assert_eq!(changed.status.code(), Some(1));
    let text = stdout(&changed);
    assert!(text.contains("t.csv: row 2 differs"), "diff output: {text}");
    assert!(text.contains("dot,CUDA") && text.contains("dot,HIP"));

    // A file present on only one side is also a difference.
    std::fs::write(dir_b.join("t.csv"), csv).unwrap();
    std::fs::write(dir_b.join("extra.csv"), "h\n").unwrap();
    let extra = mojo_hpc(&["diff", dir_a.to_str().unwrap(), dir_b.to_str().unwrap()]);
    assert_eq!(extra.status.code(), Some(1));
    assert!(stdout(&extra).contains("extra.csv: only in"));

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn diff_on_a_missing_directory_is_a_usage_error() {
    let output = mojo_hpc(&["diff", "/nonexistent/a", "/nonexistent/b"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn bench_diff_tolerates_a_missing_group() {
    let dir = scratch("bench-diff");
    let record = |group: &str, mean: f64| {
        format!(
            r#"{{"group": "{group}", "benchmarks": [{{"id": "x", "samples": 1, "mean_ns": {mean}, "min_ns": 1, "max_ns": 2, "throughput": null}}]}}"#
        )
    };
    std::fs::write(dir.join("a.json"), record("shared", 100.0)).unwrap();
    std::fs::write(dir.join("b.json"), record("shared", 150.0)).unwrap();
    let a_dir = dir.join("a-set");
    let b_dir = dir.join("b-set");
    std::fs::create_dir_all(&a_dir).unwrap();
    std::fs::create_dir_all(&b_dir).unwrap();
    std::fs::write(a_dir.join("shared.json"), record("shared", 100.0)).unwrap();
    std::fs::write(a_dir.join("gone.json"), record("gone", 50.0)).unwrap();
    std::fs::write(b_dir.join("shared.json"), record("shared", 150.0)).unwrap();
    std::fs::write(b_dir.join("fresh.json"), record("fresh", 25.0)).unwrap();

    let files = mojo_hpc(&[
        "bench-diff",
        dir.join("a.json").to_str().unwrap(),
        dir.join("b.json").to_str().unwrap(),
    ]);
    assert_eq!(files.status.code(), Some(0));
    assert!(stdout(&files).contains("+50.0%"), "{}", stdout(&files));

    let dirs = mojo_hpc(&[
        "bench-diff",
        a_dir.to_str().unwrap(),
        b_dir.to_str().unwrap(),
    ]);
    assert_eq!(dirs.status.code(), Some(0));
    let text = stdout(&dirs);
    assert!(text.contains("gone: removed"), "{text}");
    assert!(text.contains("fresh: added"), "{text}");

    let bad = mojo_hpc(&["bench-diff", "/nonexistent.json", "/nonexistent.json"]);
    assert_eq!(bad.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampled_hartree_fock_runs_beyond_the_full_validation_limit() {
    let out = scratch("hf-sampled");
    let output = mojo_hpc(&[
        "run",
        "hartree-fock",
        "--atoms",
        "128",
        "--sample",
        "128",
        "--shards",
        "4",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("natoms = 128"));
    assert!(text.contains("survivors: exact"));
    assert!(out.join("hartree_fock_sampled_128_shards.csv").exists());
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn help_prints_usage_and_unknown_subcommands_fail() {
    let help = mojo_hpc(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(stdout(&help).contains("USAGE"));
    let unknown = mojo_hpc(&["frobnicate"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(stderr(&unknown).contains("USAGE"));
    let none = mojo_hpc(&[]);
    assert_eq!(none.status.code(), Some(2));
}

/// Every `--flag` token in `text`, in order of appearance.
fn flag_tokens(text: &str) -> Vec<String> {
    let mut flags = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("--") {
        let tail = &rest[at + 2..];
        let len = tail
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
            .unwrap_or(tail.len());
        if tail.starts_with(|c: char| c.is_ascii_lowercase()) {
            flags.push(format!("--{}", &tail[..len]));
        }
        rest = &tail[len..];
    }
    flags
}

#[test]
fn documented_flags_match_the_usage_text() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README.md");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let usage = mojo_hpc::report::cli::usage();

    // README's flag tables, and the CLI-facing DESIGN sections §8–§13.
    let tables: String = readme
        .lines()
        .filter(|line| line.starts_with('|'))
        .collect::<Vec<_>>()
        .join("\n");
    let start = design.find("## §8 ").expect("DESIGN.md has §8");
    let end = design.find("## §14 ").expect("DESIGN.md has §14");
    // Flags of other tools the docs quote (sbatch's, in generated scripts).
    let foreign = ["--nodelist"];
    for (doc, text) in [
        ("README.md tables", tables.as_str()),
        ("DESIGN.md §8–§13", &design[start..end]),
    ] {
        for flag in flag_tokens(text) {
            assert!(
                usage.contains(&flag) || foreign.contains(&flag.as_str()),
                "{doc} documents {flag}, which `mojo-hpc help` does not know"
            );
        }
    }

    // Removed options must not linger in the docs, and the binary rejects
    // the flag like any other unknown one. Spelled in pieces so the removed
    // names appear nowhere in the tree.
    let removed_flag = concat!("--", "lane");
    let removed_env = concat!("MOJO_HPC_", "CROSSOVER");
    for (doc, text) in [("README.md", &readme), ("DESIGN.md", &design)] {
        assert!(
            !text.contains(removed_flag),
            "{doc} still mentions {removed_flag}"
        );
        assert!(
            !text.contains(removed_env),
            "{doc} still mentions {removed_env}"
        );
    }
    let output = mojo_hpc(&["run", "--all", removed_flag, "simd"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(
        stderr(&output).contains("unknown flag"),
        "{}",
        stderr(&output)
    );
}
