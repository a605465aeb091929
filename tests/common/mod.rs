//! Shared by the integration tests: running the `mojo-hpc` binary, scratch
//! directories, a `serve` client, and the byte-identity matrix.
//!
//! The matrix is the one statement of the determinism contract: every lane
//! gives the same bytes. Its rows are the committed fixtures: the full
//! report in CSV (`tests/golden/`) and in JSON (`tests/golden/json/`), and
//! every entry of [`SWEEP_GOLDENS`] in both formats. Its columns are the
//! lanes: the CLI at the default pool width, at `RAYON_NUM_THREADS=1` and
//! at `=4`; `shard` with 2 and with 3 workers; one `serve` daemon. A cell
//! checks that the files its lane writes are the fixture's bytes, and that
//! its stdout (for `serve`, the payload) is the row's default-width CLI
//! stdout. Each cell is run by exactly one test: the CLI columns by
//! `golden_report.rs` and `lane_parity.rs`, the shard columns by
//! `shard.rs`, the serve column by `serve_stress.rs`.
//!
//! Every test binary compiles this whole module and uses only part of it.
#![allow(dead_code)]

use serde::value::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::OnceLock;
use std::time::Duration;

/// Runs the binary with `args` and `env` set.
pub fn mojo_hpc_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mojo-hpc"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("run mojo-hpc")
}

/// Runs the binary with `args`.
pub fn mojo_hpc(args: &[&str]) -> Output {
    mojo_hpc_env(args, &[])
}

pub fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

pub fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A fresh, empty scratch directory under the target tree, private to this
/// test process.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("test-scratch")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The committed fixtures.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The committed sweep goldens: the fixture name and the exact CLI
/// invocation that regenerates each fixture pair. A sweep writes
/// `sweep_<workload>_sweep.csv` and `sweep_<workload>.json`; the fixtures
/// are those files renamed to `<fixture>_sweep.csv` and `<fixture>.json`.
/// The §15 composites, both stencil precisions, every BabelStream operation,
/// the Dot reduction at `n = 2^20` (its three distinct grids read three
/// distinct errors there, and its one point leaves shards empty) and a
/// reduced miniBUDE deck.
pub const SWEEP_GOLDENS: [(&str, &[&str]); 7] = [
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

/// The fixture name of the full-report rows.
pub const REPORT: &str = "report";

/// The §15 composite sweep fixtures.
pub const COMPOSITES: [&str; 2] = ["sweep_jacobi", "sweep_framestream"];

/// One matrix row: a committed fixture set in one format and the command
/// that regenerates it.
pub struct Row {
    /// [`REPORT`] or a [`SWEEP_GOLDENS`] name.
    pub fixture: &'static str,
    /// `"csv"` or `"json"`.
    pub format: &'static str,
    /// The command, without `--format` and `--out`.
    args: &'static [&'static str],
    /// Every file the command writes, with the fixture it must equal.
    files: Vec<(String, PathBuf)>,
    /// Position in [`rows`], which keys the baseline memo.
    index: usize,
}

const ROWS: usize = 2 * (1 + SWEEP_GOLDENS.len());

/// Every row: the report first, then the sweeps in [`SWEEP_GOLDENS`] order,
/// each in CSV and then JSON.
pub fn rows() -> Vec<Row> {
    let report = std::iter::once((REPORT, &["run", "--all"][..]));
    let mut rows = Vec::with_capacity(ROWS);
    for (fixture, args) in report.chain(SWEEP_GOLDENS) {
        for format in ["csv", "json"] {
            let files = if fixture == REPORT {
                let dir = match format {
                    "csv" => golden_dir(),
                    _ => golden_dir().join("json"),
                };
                let files: Vec<_> = file_names(&dir)
                    .into_iter()
                    .filter(|name| name.ends_with(&format!(".{format}")))
                    .map(|name| (name.clone(), dir.join(name)))
                    .collect();
                assert!(!files.is_empty(), "no {format} goldens committed");
                files
            } else {
                let stem = format!("sweep_{}", args[1].replace('-', "_"));
                let suffix = if format == "csv" {
                    "_sweep.csv"
                } else {
                    ".json"
                };
                let fixture = golden_dir()
                    .join("sweep")
                    .join(format!("{fixture}{suffix}"));
                vec![(format!("{stem}{suffix}"), fixture)]
            };
            let index = rows.len();
            rows.push(Row {
                fixture,
                format,
                args,
                files,
                index,
            });
        }
    }
    rows
}

/// The row of `fixture` in `format`.
pub fn row(fixture: &str, format: &str) -> Row {
    rows()
        .into_iter()
        .find(|row| row.fixture == fixture && row.format == format)
        .unwrap_or_else(|| panic!("no matrix row {fixture}.{format}"))
}

/// The sorted file names in `dir`.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.path().is_file())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    names.sort();
    names
}

impl Row {
    /// `report.csv`, `sweep_jacobi.json`, …
    pub fn name(&self) -> String {
        format!("{}.{}", self.fixture, self.format)
    }

    /// The number of committed fixture files.
    pub fn fixture_count(&self) -> usize {
        self.files.len()
    }

    /// The `serve` request that asks for the same bytes as the command.
    fn serve_request(&self) -> String {
        let format = self.format;
        match self.args {
            ["run", "--all"] => format!(r#"{{"cmd":"run","format":"{format}"}}"#),
            ["sweep", workload, "--sizes", sizes, params @ ..] => {
                let params: Vec<String> = params
                    .iter()
                    .map(|assignment| {
                        let (key, value) = assignment.split_once('=').expect("key=value");
                        format!(r#""{key}":"{value}""#)
                    })
                    .collect();
                format!(
                    r#"{{"cmd":"sweep","workload":"{workload}","sizes":[{sizes}],"params":{{{}}},"format":"{format}"}}"#,
                    params.join(",")
                )
            }
            other => panic!("no serve request for {other:?}"),
        }
    }

    /// Runs `prefix`, the row's command, then `suffix`, in `format` into a
    /// fresh directory; asserts exit 0 and that the written files are the
    /// fixtures' bytes, and returns the output.
    fn run(&self, lane: &str, prefix: &[&str], suffix: &[&str], env: &[(&str, &str)]) -> Output {
        let row = self.name();
        let out = scratch(&format!("{lane}-{row}").replace(':', "-"));
        let mut command = Command::new(env!("CARGO_BIN_EXE_mojo-hpc"));
        command
            .args(prefix)
            .args(self.args)
            .args(suffix)
            .args(["--format", self.format, "--out"])
            .arg(&out)
            .envs(env.iter().copied());
        if lane == DEFAULT_LANE {
            command.env_remove("RAYON_NUM_THREADS");
        }
        let output = command.output().expect("run mojo-hpc");
        assert_eq!(
            output.status.code(),
            Some(0),
            "{lane} × {row} failed: {}",
            stderr(&output)
        );
        let written = file_names(&out);
        let expected: Vec<&String> = self.files.iter().map(|(name, _)| name).collect();
        assert_eq!(
            written.iter().collect::<Vec<_>>(),
            expected,
            "{lane} × {row}: the written files are not the fixture set"
        );
        for (name, fixture) in &self.files {
            let actual = std::fs::read(out.join(name)).expect("read written file");
            let golden = std::fs::read(fixture).expect("read fixture");
            assert!(
                actual == golden,
                "{lane} × {row}: {name} differs from {} (if the change is \
                 intended, regenerate the fixture with the row's command: \
                 `mojo-hpc run --all [--format json] --out tests/golden[/json]`, \
                 or the invocation in SWEEP_GOLDENS)",
                fixture.display()
            );
        }
        std::fs::remove_dir_all(&out).ok();
        output
    }

    /// Asserts a cell's stdout (or serve payload) is the baseline.
    fn assert_baseline(&self, lane: &str, bytes: &[u8]) {
        assert!(
            bytes == default_cell(self),
            "{lane} × {}: stdout differs from the default-width CLI stdout",
            self.name()
        );
    }
}

const DEFAULT_LANE: &str = "cli-default";

/// The default-width CLI cell. It runs once per test process; its stdout
/// is the baseline every other cell of the row is compared with.
pub fn default_cell(row: &Row) -> &'static [u8] {
    static BASELINES: [OnceLock<Vec<u8>>; ROWS] = [const { OnceLock::new() }; ROWS];
    BASELINES[row.index].get_or_init(|| row.run(DEFAULT_LANE, &[], &[], &[]).stdout)
}

/// The CLI cell at `RAYON_NUM_THREADS=threads`.
pub fn threads_cell(row: &Row, threads: &str) {
    let lane = format!("cli-threads-{threads}");
    let output = row.run(&lane, &[], &[], &[("RAYON_NUM_THREADS", threads)]);
    row.assert_baseline(&lane, &output.stdout);
}

/// The `shard --workers N` cell, run under `env` (a `MOJO_HPC_CHAOS` spec
/// makes it a chaos case). Returns the coordinator's output.
pub fn shard_cell(row: &Row, workers: &str, extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut lane = format!("shard-{workers}");
    for (_, value) in env {
        lane = format!("{lane}-{value}");
    }
    let mut suffix = vec!["--workers", workers];
    suffix.extend_from_slice(extra);
    let output = row.run(&lane, &["shard"], &suffix, env);
    row.assert_baseline(&lane, &output.stdout);
    output
}

/// The serve cell, over a connection to one daemon.
pub fn serve_cell(row: &Row, client: &mut ServeClient) {
    let request = row.serve_request();
    let (header, payload) = client.request(&request);
    assert_eq!(
        str_field(&header, "status"),
        "ok",
        "{request} failed: {header:?}"
    );
    row.assert_baseline("serve", &payload);
}

/// One running `mojo-hpc serve` process bound to an ephemeral port.
pub struct Server {
    pub child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `serve --listen 127.0.0.1:0` with `env` and parses the
    /// announced address off stderr (draining the rest on a thread so a
    /// chatty server can never block on a full pipe).
    pub fn start(env: &[(&str, &str)]) -> Server {
        Server::start_with_args(&[], env)
    }

    /// [`Server::start`] with extra `serve` flags.
    pub fn start_with_args(args: &[&str], env: &[(&str, &str)]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mojo-hpc"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .envs(env.iter().copied())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mojo-hpc serve");
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = reader.read_line(&mut line).expect("read server stderr");
            assert_ne!(n, 0, "server exited before announcing its address");
            if let Some(addr) = line.trim().strip_prefix("serve: listening on ") {
                break addr.parse().expect("announced address parses");
            }
        };
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            reader.read_to_end(&mut sink).ok();
        });
        Server { child, addr }
    }

    pub fn connect(&self) -> ServeClient {
        ServeClient::connect(self.addr)
    }

    /// Sends `shutdown` and waits for the process to exit cleanly.
    pub fn shutdown(mut self) {
        let mut client = self.connect();
        let (header, _) = client.request(r#"{"cmd":"shutdown"}"#);
        assert_eq!(str_field(&header, "status"), "ok");
        let status = self.child.wait().expect("wait for server");
        assert_eq!(status.code(), Some(0), "server exit code after shutdown");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A failed test must not leak a resident server.
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// One protocol connection: write request lines, read header + payload.
pub struct ServeClient {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl ServeClient {
    pub fn connect(addr: SocketAddr) -> ServeClient {
        let stream = TcpStream::connect(addr).expect("connect to serve");
        // A deadlock guard, not a latency bound. Margin: the slowest single
        // response here is a cold full report, ~4 s in a debug build on
        // 2 vCPU, so 120 s is a ~30× margin; a hang fails the test in
        // 2 minutes instead of stalling the suite.
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("set read timeout");
        ServeClient {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends one request line and returns (header, payload bytes).
    pub fn request(&mut self, line: &str) -> (Value, Vec<u8>) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        self.writer.flush().expect("flush request");
        let mut header = String::new();
        let n = self.reader.read_line(&mut header).expect("read header");
        assert_ne!(n, 0, "server hung up instead of answering");
        let header: Value = serde_json::from_str(header.trim()).expect("header is JSON");
        let bytes = opt_field(&header, "bytes").map_or(0, |v| as_u64(v) as usize);
        let mut payload = vec![0u8; bytes];
        self.reader
            .read_exact(&mut payload)
            .expect("read payload bytes");
        (header, payload)
    }

    /// Issues `{"cmd":"stats"}` and returns the `stats` object.
    pub fn stats(&mut self) -> Value {
        let (header, _) = self.request(r#"{"cmd":"stats"}"#);
        assert_eq!(str_field(&header, "status"), "ok");
        field(&header, "stats").clone()
    }
}

pub fn opt_field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    opt_field(value, key).unwrap_or_else(|| panic!("missing field '{key}' in {value:?}"))
}

pub fn as_u64(value: &Value) -> u64 {
    match value {
        Value::U64(n) => *n,
        other => panic!("expected an integer, got {other:?}"),
    }
}

pub fn str_field<'a>(value: &'a Value, key: &str) -> &'a str {
    match field(value, key) {
        Value::Str(s) => s,
        other => panic!("expected '{key}' to be a string, got {other:?}"),
    }
}

pub fn bool_field(value: &Value, key: &str) -> bool {
    match field(value, key) {
        Value::Bool(b) => *b,
        other => panic!("expected '{key}' to be a bool, got {other:?}"),
    }
}

/// `stats.compute.computed` / `stats.cache.hits` style accessor.
pub fn counter(stats: &Value, section: &str, name: &str) -> u64 {
    as_u64(field(field(stats, section), name))
}
