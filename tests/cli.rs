//! Integration tests of the `mojo-hpc` command-line interface: subcommand
//! coverage, exit codes and error messages, through the real binary.

mod common;

use common::{field, mojo_hpc, scratch, stderr, stdout, Server};
use serde::value::Value;
use std::path::Path;

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
    // Every declared range and keyword set is printed from the specs, after
    // the parameter's help line.
    for workload in science_kernels::workload::all() {
        for spec in workload.params() {
            let head = format!("{}={} ", spec.name, spec.default_value());
            let tail = format!("{} {}", spec.help, spec.domain);
            assert!(
                text.lines()
                    .any(|line| line.trim_start().starts_with(&head) && line.ends_with(&tail)),
                "list output missing {} {head}... {tail}:\n{text}",
                workload.name()
            );
        }
    }
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

    // Framestream: a sweep with a frames override.
    let framestream = mojo_hpc(&[
        "sweep",
        "framestream",
        "--sizes",
        "4096,8192",
        "frames=16",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        framestream.status.code(),
        Some(0),
        "{}",
        stderr(&framestream)
    );
    assert!(stdout(&framestream).contains("=== sweep_framestream"));
    let csv = std::fs::read_to_string(out.join("sweep_framestream_sweep.csv")).unwrap();
    assert_eq!(csv.lines().count(), 1 + 2 * 4, "2 sizes x 4 platforms");
    assert!(csv.contains("frames=16"), "{csv}");

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
    // Hartree-Fock counts and miniBUDE decks large enough to exhaust the
    // host are refused up front instead of aborting the process
    // mid-allocation.
    for line in [
        "sweep hartree-fock --sizes 65536",
        "sweep hartree-fock-sampled --sizes 4097",
        "sweep hartree-fock-sampled --sizes 1024 shards=4294967296",
        "sweep hartree-fock-sampled --sizes 1024 samples=4294967296",
        "sweep hartree-fock-sampled --sizes 64 samples=8 shards=9",
        "sweep minibude --sizes 8 poses=11184811",
        "sweep minibude --sizes 8 natlig=65536 natpro=1048576",
    ] {
        let output = mojo_hpc(&line.split_whitespace().collect::<Vec<_>>());
        assert_eq!(output.status.code(), Some(2), "{line}: {}", stderr(&output));
        assert!(
            stderr(&output).contains("must be in"),
            "{}",
            stderr(&output)
        );
    }
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
fn sampled_hartree_fock_runs_beyond_the_full_validation_limit() {
    // The paper's 1024-atom case, past the exact-validation limit.
    let out = scratch("hf-sampled");
    let output = mojo_hpc(&[
        "sweep",
        "hartree-fock-sampled",
        "--sizes",
        "1024",
        "samples=4096",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("atoms=1024"), "{text}");
    let csv = std::fs::read_to_string(out.join("sweep_hartree_fock_sampled_sweep.csv"))
        .expect("sampled sweep CSV written");
    assert!(csv.contains("passed(eri="), "{csv}");
    assert!(csv.contains("exact_survivors="), "{csv}");
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
    for (doc, text) in [
        ("README.md tables", tables.as_str()),
        ("DESIGN.md §8–§13", &design[start..end]),
    ] {
        for flag in flag_tokens(text) {
            assert!(
                usage.contains(&flag),
                "{doc} documents {flag}, which `mojo-hpc help` does not know"
            );
        }
    }

    // Removed options must not linger in the docs, and the binary rejects
    // the flag like any other unknown one. Spelled in pieces so the removed
    // names appear nowhere in the tree.
    let removed_flag = concat!("--", "lane");
    let removed_env = concat!("MOJO_HPC_", "CROSSOVER");
    let removed_subcommands = [concat!("bench", "-diff"), concat!("bench", "-trajectory")];
    let removed_command = concat!("cargo ", "bench");
    let removed_serve_flags = [
        concat!("--", "spill-threshold"),
        concat!("--", "spill-workers"),
        concat!("--", "spill-timeout"),
        concat!("--", "cache-bytes"),
    ];
    let removed_run_form = concat!("run ", "hartree-fock");
    let removed_shard_flags = [
        concat!("--", "launcher"),
        concat!("--", "hosts"),
        concat!("--", "speculate"),
    ];
    let removed_shard_names = [
        concat!("MOJO_HPC_CHAOS_", "SLOW_MS"),
        concat!("slurm_", "job_array"),
    ];
    let removed_interner = [
        concat!("gpu_sim::", "intern"),
        concat!("IS", "tr"),
        concat!("is", "tr_fmt"),
    ];
    let removed_preset_lane = [
        concat!("--", "preset"),
        concat!("--", "preset-out"),
        concat!("ShardPool", "Counters"),
        concat!("Memory", "Report"),
    ];
    let removed_range_check = concat!("check_int", "_range");
    let removed_dispatcher = [concat!("Local", "Launcher"), concat!("POLL_", "INTERVAL")];
    let renamed_cache_bound = concat!("DEFAULT_", "CACHE_BYTES");
    for (doc, text) in [
        ("README.md", readme.as_str()),
        ("DESIGN.md", design.as_str()),
        ("mojo-hpc help", usage),
    ] {
        for removed in [
            removed_flag,
            removed_env,
            removed_command,
            removed_run_form,
            removed_range_check,
            renamed_cache_bound,
        ]
        .into_iter()
        .chain(removed_subcommands)
        .chain(removed_serve_flags)
        .chain(removed_shard_flags)
        .chain(removed_shard_names)
        .chain(removed_interner)
        .chain(removed_preset_lane)
        .chain(removed_dispatcher)
        {
            assert!(!text.contains(removed), "{doc} still mentions {removed}");
        }
    }
    let output = mojo_hpc(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        removed_serve_flags[0],
        "2",
    ]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    let output = mojo_hpc(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        removed_serve_flags[3],
        "1",
    ]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    let output = mojo_hpc(&["run", "hartree-fock", "--atoms", "8"]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    for removed in [
        vec![removed_shard_flags[2]],
        vec![removed_shard_flags[0], "slurm"],
    ] {
        let mut line = vec!["shard", "run", "table1", "--workers", "1"];
        line.extend(removed);
        let output = mojo_hpc(&line);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{line:?}: {}",
            stderr(&output)
        );
    }

    // `stats` reports exactly the counters and memo tiers §13 documents,
    // so a removed one cannot linger in either, and every memo tier reports
    // the cache's counters.
    let server = Server::start(&[]);
    let stats = server.connect().stats();
    server.shutdown();
    for section in ["cache", "memo", "compute", "pool"] {
        assert_eq!(
            section_keys(&stats, section),
            documented_stats_keys(&design, section),
            "DESIGN.md §13 and `stats` disagree on the {section} keys"
        );
    }
    for tier in section_keys(&stats, "memo") {
        assert_eq!(
            section_keys(field(&stats, "memo"), &tier),
            documented_stats_keys(&design, "cache"),
            "memo tier {tier} does not report the cache counters"
        );
    }
    // A live shard manifest has exactly the keys of DESIGN.md §10's schema
    // block. The keys are derived from the struct's fields, so a renamed
    // field changes the wire schema and fails here.
    let worker = mojo_hpc(&["run", "table1", "fig5", "--shard", "0/1"]);
    assert!(worker.status.success(), "{}", stderr(&worker));
    let doc: Value = serde_json::from_str(&stdout(&worker)).expect("a shard document");
    assert_eq!(
        section_keys(&doc, "manifest"),
        documented_manifest_keys(&design),
        "DESIGN.md §10 and a live manifest disagree on the manifest keys"
    );
    // A live report has exactly the keys of DESIGN.md §9's schema line,
    // and so does its first table; both are derived from struct fields.
    let out = scratch("report-keys");
    let run = mojo_hpc(&[
        "run",
        "table1",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&out).ok();
    assert!(run.status.success(), "{}", stderr(&run));
    let reports: Value = serde_json::from_str(&stdout(&run)).expect("a report array");
    let Value::Array(reports) = reports else {
        panic!("expected a report array")
    };
    let report = &reports[0];
    let Value::Array(tables) = field(report, "tables") else {
        panic!("expected a table array")
    };
    assert_eq!(
        (keys(report), keys(&tables[0])),
        documented_report_keys(&design),
        "DESIGN.md §9 and a live report disagree on the report or table keys"
    );
    let output = mojo_hpc(&["run", "--all", removed_flag, "simd"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(
        stderr(&output).contains("unknown flag"),
        "{}",
        stderr(&output)
    );
    for subcommand in removed_subcommands {
        let output = mojo_hpc(&[subcommand, "a", "b"]);
        assert_eq!(output.status.code(), Some(2), "{subcommand}");
        let text = stderr(&output);
        assert!(
            text.contains(&format!("unknown subcommand '{subcommand}'")),
            "{text}"
        );
        assert!(text.contains("USAGE:"), "{text}");
    }
}

/// The counter names DESIGN.md §13 lists for `stats` section `section`,
/// written there as `section (a/b/c)`.
fn documented_stats_keys(design: &str, section: &str) -> Vec<String> {
    let start = design.find("## §13 ").expect("DESIGN.md has §13");
    let text = &design[start..];
    let open = text
        .find(&format!("{section} ("))
        .unwrap_or_else(|| panic!("DESIGN.md §13 lists no {section} counters"))
        + section.len()
        + 2;
    let close = open + text[open..].find(')').expect("closing parenthesis");
    text[open..close].split('/').map(str::to_string).collect()
}

/// The manifest keys of DESIGN.md §10's shard document schema block, one
/// `"key": …` line each inside `"manifest": { … }`.
fn documented_manifest_keys(design: &str) -> Vec<String> {
    let start = design
        .find("### Shard document schema")
        .expect("DESIGN.md §10 has the schema block");
    design[start..]
        .lines()
        .skip_while(|line| !line.contains("\"manifest\": {"))
        .skip(1)
        .map(str::trim)
        .take_while(|line| !line.starts_with('}'))
        .filter_map(|line| line.strip_prefix('"')?.split_once('"'))
        .map(|(key, _)| key.to_string())
        .collect()
}

/// The report and table keys of DESIGN.md §9's JSON schema line,
/// written there as `{a, b, tables: [{c, d}]}`.
fn documented_report_keys(design: &str) -> (Vec<String>, Vec<String>) {
    let start = design
        .find("**JSON emission**")
        .expect("DESIGN.md §9 documents JSON emission");
    let text = &design[start..];
    let open = text.find("`{").expect("the schema line") + 2;
    let close = open + text[open..].find("}`").expect("its closing brace");
    let (report, table) = text[open..close]
        .split_once(": [{")
        .expect("a nested table schema");
    let list = |keys: &str| keys.split(',').map(|k| k.trim().to_string()).collect();
    (list(report), list(table.trim_end_matches("}]")))
}

/// The field names of the `name` object of a `stats` object.
fn section_keys(stats: &Value, name: &str) -> Vec<String> {
    keys(field(stats, name))
}

/// The field names of an object.
fn keys(object: &Value) -> Vec<String> {
    match object {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}
