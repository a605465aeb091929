//! Golden-file regression suite.
//!
//! `tests/golden/` commits the CSV output of `mojo-hpc run --all`, and
//! `tests/golden/json/` the JSON documents of `run --all --format json`.
//! These tests regenerate the full report through the real binary and assert
//! the output is **byte-identical** to the committed files — at the default
//! thread count, with `RAYON_NUM_THREADS=1` and with an over-subscribed
//! `RAYON_NUM_THREADS=4` — so any change to the
//! timing model, the kernels, the executor or the CSV/JSON rendering that
//! moves a single byte of the paper's tables fails loudly. Regenerate the
//! goldens with `mojo-hpc run --all --out tests/golden` (CSV) and
//! `mojo-hpc run --all --format json --out tests/golden/json` when a change
//! is intended.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Fresh scratch directory under the target tree.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("golden-scratch")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `mojo-hpc run --all --out <dir>` (plus any extra flags) and returns
/// its stdout.
fn run_all_with(out: &Path, threads: Option<&str>, extra: &[&str]) -> String {
    let mut command = Command::new(env!("CARGO_BIN_EXE_mojo-hpc"));
    command.args(["run", "--all", "--out"]).arg(out).args(extra);
    match threads {
        Some(n) => command.env("RAYON_NUM_THREADS", n),
        None => command.env_remove("RAYON_NUM_THREADS"),
    };
    let output = command.output().expect("run mojo-hpc");
    assert!(
        output.status.success(),
        "mojo-hpc run --all failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// Runs `mojo-hpc run --all --out <dir>` and returns its stdout.
fn run_all(out: &Path, threads: Option<&str>) -> String {
    run_all_with(out, threads, &[])
}

fn csv_names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "csv"))
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect()
}

/// Asserts every golden CSV exists in `generated` with identical bytes, and
/// that no unexpected CSVs appeared.
fn assert_matches_golden(generated: &Path) {
    let golden = golden_dir();
    let golden_names = csv_names(&golden);
    assert!(
        !golden_names.is_empty(),
        "no golden files committed under {}",
        golden.display()
    );
    assert_eq!(
        csv_names(generated),
        golden_names,
        "generated CSV set differs from the committed goldens"
    );
    for name in &golden_names {
        let expected = std::fs::read(golden.join(name)).expect("read golden");
        let actual = std::fs::read(generated.join(name)).expect("read generated");
        assert!(
            actual == expected,
            "{name} differs from the committed golden (regenerate with \
             `mojo-hpc run --all --out tests/golden` if the change is intended)"
        );
    }
}

#[test]
fn run_all_matches_the_committed_goldens_at_default_threads() {
    let out = scratch_dir("default");
    let stdout = run_all(&out, None);
    // Every experiment renders under its registry caption — this pins
    // `ExperimentId::title()` to the titles the builders actually set.
    for id in mojo_hpc::report::ExperimentId::ALL {
        let banner = format!("=== {} — {} ===", id.as_str(), id.title());
        assert!(stdout.contains(&banner), "stdout missing banner: {banner}");
    }
    assert_matches_golden(&out);
    std::fs::remove_dir_all(&out).ok();
}

/// Explicit pool widths every determinism test checks besides the default:
/// the serial lane and an over-subscribed pool.
const THREAD_COUNTS: [&str; 2] = ["1", "4"];

#[test]
fn run_all_is_byte_identical_at_one_thread() {
    // The console rendering is part of the determinism contract too.
    let wide = scratch_dir("wide");
    let wide_stdout = run_all(&wide, None);
    for threads in THREAD_COUNTS {
        let out = scratch_dir(&format!("threads-{threads}"));
        let stdout = run_all(&out, Some(threads));
        assert_matches_golden(&out);
        assert_eq!(
            stdout, wide_stdout,
            "stdout differs between {threads} thread(s) and the default pool"
        );
        std::fs::remove_dir_all(&out).ok();
    }
    std::fs::remove_dir_all(&wide).ok();
}

/// Asserts every committed golden JSON document exists in `generated` with
/// identical bytes, and that no unexpected documents appeared.
fn assert_matches_json_golden(generated: &Path) {
    let golden = golden_dir().join("json");
    let names: BTreeSet<String> = std::fs::read_dir(&golden)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden.display()))
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "json"))
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    assert_eq!(
        names.len(),
        mojo_hpc::report::ExperimentId::ALL.len(),
        "one committed JSON golden per experiment"
    );
    let generated_names: BTreeSet<String> = std::fs::read_dir(generated)
        .unwrap_or_else(|e| panic!("read {}: {e}", generated.display()))
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    assert_eq!(
        generated_names, names,
        "generated JSON set differs from the committed goldens"
    );
    for name in &names {
        let expected = std::fs::read(golden.join(name)).expect("read golden");
        let actual = std::fs::read(generated.join(name)).expect("read generated");
        assert!(
            actual == expected,
            "{name} differs from the committed golden (regenerate with \
             `mojo-hpc run --all --format json --out tests/golden/json` if \
             the change is intended)"
        );
    }
}

#[test]
fn run_all_json_is_byte_identical_across_thread_counts_and_matches_goldens() {
    let out = scratch_dir("json-default");
    let stdout = run_all_with(&out, None, &["--format", "json"]);
    // The stdout payload is one JSON array covering every experiment.
    assert!(stdout.starts_with('['), "json stdout should be an array");
    for id in mojo_hpc::report::ExperimentId::ALL {
        assert!(
            stdout.contains(&format!("\"id\": \"{}\"", id.as_str())),
            "stdout missing {id}"
        );
    }
    assert_matches_json_golden(&out);

    for threads in THREAD_COUNTS {
        let out_threads = scratch_dir(&format!("json-threads-{threads}"));
        let threads_stdout = run_all_with(&out_threads, Some(threads), &["--format", "json"]);
        assert_eq!(
            stdout, threads_stdout,
            "json stdout differs between {threads} thread(s) and the default pool"
        );
        assert_matches_json_golden(&out_threads);
        std::fs::remove_dir_all(&out_threads).ok();
    }

    std::fs::remove_dir_all(&out).ok();
}

/// The committed sweep goldens: the fixture name and the exact CLI
/// invocation that regenerates each fixture pair. A sweep writes
/// `sweep_<workload>_sweep.csv` and `sweep_<workload>.json`; the fixtures
/// are those files renamed to `<fixture>_sweep.csv` and `<fixture>.json`.
/// The §15 composites, both stencil precisions, every BabelStream operation,
/// the Dot reduction at `n = 2^20` (its three distinct grids read three
/// distinct errors there) and a reduced miniBUDE deck.
const SWEEP_GOLDENS: [(&str, &[&str]); 7] = [
    (
        "sweep_jacobi",
        &["sweep", "jacobi", "--sizes", "8,12,16", "iters=200"],
    ),
    (
        "sweep_framestream",
        &["sweep", "framestream", "--sizes", "4096,16384", "frames=32"],
    ),
    (
        "sweep_stencil_fp32",
        &["sweep", "stencil", "--sizes", "16,24", "precision=fp32"],
    ),
    (
        "sweep_stencil_fp64",
        &["sweep", "stencil", "--sizes", "16,24", "precision=fp64"],
    ),
    (
        "sweep_babelstream",
        &["sweep", "babelstream", "--sizes", "4096,65536", "op=all"],
    ),
    (
        "sweep_babelstream_dot",
        &["sweep", "babelstream", "--sizes", "1048576", "op=dot"],
    ),
    (
        "sweep_minibude",
        &[
            "sweep",
            "minibude",
            "--sizes",
            "1,4,8",
            "wg=8",
            "poses=128",
            "natlig=8",
            "natpro=64",
        ],
    ),
];

/// Runs one sweep invocation in both formats and asserts the CSV and JSON
/// artefacts are byte-identical to `tests/golden/sweep/`.
fn assert_sweep_matches_golden(tag: &str, id: &str, args: &[&str], threads: Option<&str>) {
    let golden = golden_dir().join("sweep");
    let out = scratch_dir(tag);
    for format in ["csv", "json"] {
        let mut command = Command::new(env!("CARGO_BIN_EXE_mojo-hpc"));
        command
            .args(args)
            .args(["--format", format, "--out"])
            .arg(&out);
        match threads {
            Some(n) => command.env("RAYON_NUM_THREADS", n),
            None => command.env_remove("RAYON_NUM_THREADS"),
        };
        let output = command.output().expect("run mojo-hpc sweep");
        assert!(
            output.status.success(),
            "{id} sweep failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let stem = format!("sweep_{}", args[1].replace('-', "_"));
    for (produced, fixture) in [
        (format!("{stem}_sweep.csv"), format!("{id}_sweep.csv")),
        (format!("{stem}.json"), format!("{id}.json")),
    ] {
        let expected = std::fs::read(golden.join(&fixture)).expect("read sweep golden");
        let actual = std::fs::read(out.join(&produced)).expect("read generated sweep file");
        assert!(
            actual == expected,
            "{fixture} differs from the committed golden (regenerate \
             tests/golden/sweep/ with the invocation in SWEEP_GOLDENS if the \
             change is intended)"
        );
    }
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn composite_sweeps_match_the_committed_goldens_at_default_threads() {
    for (id, args) in SWEEP_GOLDENS {
        assert_sweep_matches_golden(&format!("{id}-default"), id, args, None);
    }
}

#[test]
fn composite_sweeps_are_byte_identical_at_one_thread() {
    for (id, args) in SWEEP_GOLDENS {
        for threads in THREAD_COUNTS {
            assert_sweep_matches_golden(
                &format!("{id}-threads-{threads}"),
                id,
                args,
                Some(threads),
            );
        }
    }
}

#[test]
fn the_binary_diff_subcommand_agrees_the_goldens_match() {
    let out = scratch_dir("diff");
    run_all(&out, None);
    let status = Command::new(env!("CARGO_BIN_EXE_mojo-hpc"))
        .arg("diff")
        .arg(golden_dir())
        .arg(&out)
        .status()
        .expect("run mojo-hpc diff");
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&out).ok();
}
