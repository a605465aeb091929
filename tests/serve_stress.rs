//! Stress tests of `mojo-hpc serve`, through the real binary (DESIGN.md
//! §13): hundreds of concurrent clients must each receive payloads
//! byte-identical to the corresponding `run`/`sweep` CLI stdout, repeated
//! requests must be served out of the Params-keyed cache (hit counter up,
//! compute counter flat), identical concurrent requests must coalesce onto
//! exactly one computation (pinned via the `MOJO_HPC_SERVE_SLOW_MS` chaos
//! seam), and oversized sweeps must spill through the launcher layer while
//! keeping the same bytes.

use serde::value::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

fn mojo_hpc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mojo-hpc"))
        .args(args)
        .output()
        .expect("run mojo-hpc")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("serve-stress-scratch")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The CLI stdout of `args` — the byte-identity baseline for a serve
/// payload.
fn cli_baseline(args: &[&str]) -> Vec<u8> {
    let output = mojo_hpc(args);
    assert_eq!(
        output.status.code(),
        Some(0),
        "CLI baseline failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// One running `mojo-hpc serve` process bound to an ephemeral port.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `serve --listen 127.0.0.1:0 <extra>` with `env` and parses
    /// the announced address off stderr (draining the rest on a thread so
    /// a chatty server can never block on a full pipe).
    fn start(tag: &str, extra: &[&str], env: &[(&str, &str)]) -> Server {
        let dir = scratch(tag);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mojo-hpc"));
        cmd.arg("serve")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--scratch")
            .arg(&dir)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (key, value) in env {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().expect("spawn mojo-hpc serve");
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

    fn connect(&self) -> ServeClient {
        ServeClient::connect(self.addr)
    }

    /// Sends `shutdown` and waits for the process to exit cleanly.
    fn shutdown(mut self) {
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
struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    fn connect(addr: SocketAddr) -> ServeClient {
        let stream = TcpStream::connect(addr).expect("connect to serve");
        // A deadlock guard, not a latency bound. Margin: the slowest single
        // response here is a cold full report, ~4 s in a debug build on
        // 2 vCPU (the slowest test, `responses_match_cli_bytes_in_both_formats`,
        // takes ~8 s in all), so 120 s is a ~30× margin; a hang fails the
        // test in 2 minutes instead of stalling the suite.
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("set read timeout");
        ServeClient {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends one request line and returns (header, payload bytes).
    fn request(&mut self, line: &str) -> (Value, Vec<u8>) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        self.writer.flush().expect("flush request");
        let mut header = String::new();
        let n = self.reader.read_line(&mut header).expect("read header");
        assert_ne!(n, 0, "server hung up instead of answering");
        let header: Value = serde_json::from_str(header.trim()).expect("header is JSON");
        let bytes = match opt_field(&header, "bytes") {
            Some(v) => as_u64(v) as usize,
            None => 0,
        };
        let mut payload = vec![0u8; bytes];
        self.reader
            .read_exact(&mut payload)
            .expect("read payload bytes");
        (header, payload)
    }

    /// Issues `{"cmd":"stats"}` and returns the `stats` object.
    fn stats(&mut self) -> Value {
        let (header, _) = self.request(r#"{"cmd":"stats"}"#);
        assert_eq!(str_field(&header, "status"), "ok");
        field(&header, "stats").clone()
    }
}

fn opt_field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    opt_field(value, key).unwrap_or_else(|| panic!("missing field '{key}' in {value:?}"))
}

fn as_u64(value: &Value) -> u64 {
    match value {
        Value::U64(n) => *n,
        other => panic!("expected an integer, got {other:?}"),
    }
}

fn str_field<'a>(value: &'a Value, key: &str) -> &'a str {
    match field(value, key) {
        Value::Str(s) => s,
        other => panic!("expected '{key}' to be a string, got {other:?}"),
    }
}

fn bool_field(value: &Value, key: &str) -> bool {
    match field(value, key) {
        Value::Bool(b) => *b,
        other => panic!("expected '{key}' to be a bool, got {other:?}"),
    }
}

/// `stats.compute.computed` / `stats.cache.hits` style accessor.
fn counter(stats: &Value, section: &str, name: &str) -> u64 {
    as_u64(field(field(stats, section), name))
}

#[test]
fn responses_match_cli_bytes_in_both_formats() {
    let out = scratch("baseline-out");
    let out = out.to_str().unwrap();
    let server = Server::start("baseline", &[], &[]);
    let mut client = server.connect();
    let cases: &[(&str, Vec<&str>)] = &[
        (
            r#"{"cmd":"run","experiments":["table1"],"format":"json"}"#,
            vec!["run", "table1", "--format", "json", "--out", out],
        ),
        (
            r#"{"cmd":"run","experiments":["table1","fig5"],"format":"csv"}"#,
            vec!["run", "table1", "fig5", "--format", "csv", "--out", out],
        ),
        (
            r#"{"cmd":"run","format":"json"}"#,
            vec!["run", "--all", "--format", "json", "--out", out],
        ),
        (
            r#"{"cmd":"sweep","workload":"stencil","sizes":[16,20],"format":"json"}"#,
            vec![
                "sweep", "stencil", "--sizes", "16,20", "--format", "json", "--out", out,
            ],
        ),
        (
            r#"{"cmd":"sweep","workload":"stencil","sizes":[16],"params":{"precision":"fp32"},"format":"csv"}"#,
            vec![
                "sweep",
                "stencil",
                "--sizes",
                "16",
                "precision=fp32",
                "--format",
                "csv",
                "--out",
                out,
            ],
        ),
    ];
    for (request, cli_args) in cases {
        let (header, payload) = client.request(request);
        assert_eq!(
            str_field(&header, "status"),
            "ok",
            "request {request} failed: {header:?}"
        );
        assert_eq!(
            payload,
            cli_baseline(cli_args),
            "payload of {request} is not byte-identical to the CLI stdout"
        );
    }
    server.shutdown();
}

#[test]
fn repeated_requests_are_served_from_the_cache() {
    let server = Server::start("cache-hit", &[], &[]);
    let mut client = server.connect();
    let request = r#"{"cmd":"sweep","workload":"stencil","sizes":[16,20],"format":"json"}"#;
    let (first, body_a) = client.request(request);
    assert!(
        !bool_field(&first, "cached"),
        "first request cannot be cached"
    );
    let after_first = client.stats();
    let computed = counter(&after_first, "compute", "computed");
    let hits = counter(&after_first, "cache", "hits");
    assert!(computed >= 1);
    let (second, body_b) = client.request(request);
    assert!(
        bool_field(&second, "cached"),
        "second request must be cached"
    );
    assert_eq!(body_a, body_b, "cached payload differs from computed one");
    let after_second = client.stats();
    assert_eq!(
        counter(&after_second, "compute", "computed"),
        computed,
        "a cached request must not compute"
    );
    assert!(
        counter(&after_second, "cache", "hits") > hits,
        "the hit counter must increase"
    );
    server.shutdown();
}

#[test]
fn hundreds_of_concurrent_clients_get_identical_bytes() {
    let server = Server::start("concurrent", &[], &[]);
    // Three distinct cheap requests and their CLI baselines; 240 clients
    // round-robin over them, every one over its own connection.
    let requests: Vec<(String, Vec<u8>)> = vec![
        (
            r#"{"cmd":"run","experiments":["table1"],"format":"json"}"#.to_string(),
            cli_baseline(&[
                "run",
                "table1",
                "--format",
                "json",
                "--out",
                scratch("concurrent-a").to_str().unwrap(),
            ]),
        ),
        (
            r#"{"cmd":"sweep","workload":"stencil","sizes":[16],"format":"json"}"#.to_string(),
            cli_baseline(&[
                "sweep",
                "stencil",
                "--sizes",
                "16",
                "--format",
                "json",
                "--out",
                scratch("concurrent-b").to_str().unwrap(),
            ]),
        ),
        (
            r#"{"cmd":"sweep","workload":"stencil","sizes":[16,20],"format":"csv"}"#.to_string(),
            cli_baseline(&[
                "sweep",
                "stencil",
                "--sizes",
                "16,20",
                "--format",
                "csv",
                "--out",
                scratch("concurrent-c").to_str().unwrap(),
            ]),
        ),
    ];
    const CLIENTS: usize = 240;
    let addr = server.addr;
    let mut threads = Vec::with_capacity(CLIENTS);
    for index in 0..CLIENTS {
        let (request, expected) = requests[index % requests.len()].clone();
        threads.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr);
            let (header, payload) = client.request(&request);
            assert_eq!(str_field(&header, "status"), "ok", "client {index}");
            assert_eq!(
                payload, expected,
                "client {index}: payload differs from the CLI bytes"
            );
        }));
    }
    for thread in threads {
        thread.join().expect("client thread");
    }
    // Unit-level accounting: a one-experiment `run` is one cache unit and
    // each sweep point is one unit, so request C (sizes 16,20) is two units
    // and shares its size-16 point with request B. 240 clients round-robin
    // to 80 x (1 + 1 + 2) = 320 unit lookups over 3 distinct units; the
    // spike collapsed onto one computation per distinct unit, and every
    // other lookup was a cache hit or coalesced onto the in-flight leader.
    const DISTINCT_UNITS: u64 = 3;
    const UNIT_LOOKUPS: u64 = (CLIENTS as u64 / 3) * 4;
    let stats = server.connect().stats();
    assert_eq!(
        counter(&stats, "compute", "computed"),
        DISTINCT_UNITS,
        "exactly one computation per distinct cache unit"
    );
    assert_eq!(
        counter(&stats, "cache", "hits") + counter(&stats, "compute", "coalesced"),
        UNIT_LOOKUPS - DISTINCT_UNITS,
        "every other lookup was coalesced or served from cache"
    );
    server.shutdown();
}

#[test]
fn identical_concurrent_requests_compute_exactly_once() {
    // The slow seam holds the single computation open long enough for the
    // whole pack to pile onto the in-flight leader.
    let server = Server::start("single-flight", &[], &[("MOJO_HPC_SERVE_SLOW_MS", "500")]);
    const PACK: usize = 32;
    let request = r#"{"cmd":"sweep","workload":"stencil","sizes":[24],"format":"json"}"#;
    let addr = server.addr;
    let mut threads = Vec::with_capacity(PACK);
    for _ in 0..PACK {
        threads.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr);
            let (header, payload) = client.request(request);
            assert_eq!(str_field(&header, "status"), "ok");
            payload
        }));
    }
    let payloads: Vec<Vec<u8>> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    for payload in &payloads[1..] {
        assert_eq!(
            payload, &payloads[0],
            "coalesced payloads must be identical"
        );
    }
    let stats = server.connect().stats();
    assert_eq!(
        counter(&stats, "compute", "computed"),
        1,
        "a spike of identical requests costs exactly one computation"
    );
    assert_eq!(
        counter(&stats, "cache", "hits") + counter(&stats, "compute", "coalesced"),
        (PACK - 1) as u64
    );
    server.shutdown();
}

#[test]
fn oversized_sweeps_spill_through_the_launcher_layer() {
    let server = Server::start(
        "spill",
        &["--spill-threshold", "2", "--spill-workers", "2"],
        &[],
    );
    let mut client = server.connect();
    let request = r#"{"cmd":"sweep","workload":"stencil","sizes":[16,20,24],"format":"json"}"#;
    let (header, payload) = client.request(request);
    assert_eq!(str_field(&header, "status"), "ok");
    assert_eq!(
        payload,
        cli_baseline(&[
            "sweep",
            "stencil",
            "--sizes",
            "16,20,24",
            "--format",
            "json",
            "--out",
            scratch("spill-out").to_str().unwrap(),
        ]),
        "spilled sweep must keep the single-process bytes"
    );
    let stats = client.stats();
    assert_eq!(counter(&stats, "compute", "spilled"), 1, "{stats:?}");
    // The spilled result is cached whole: a repeat is a hit, not a redispatch.
    let (second, repeat) = client.request(request);
    assert!(bool_field(&second, "cached"));
    assert_eq!(repeat, payload);
    let stats = client.stats();
    assert_eq!(counter(&stats, "compute", "spilled"), 1);
    // Under the threshold the in-process pool serves as usual.
    let (small, _) =
        client.request(r#"{"cmd":"sweep","workload":"stencil","sizes":[16],"format":"json"}"#);
    assert_eq!(str_field(&small, "status"), "ok");
    let stats = client.stats();
    assert_eq!(counter(&stats, "compute", "spilled"), 1);
    server.shutdown();
}

#[test]
fn protocol_errors_answer_without_dropping_the_connection() {
    let server = Server::start("errors", &[], &[]);
    let mut client = server.connect();
    for bad in [
        "this is not json",
        r#"{"cmd":"launch-missiles"}"#,
        r#"{"cmd":"run","experiments":["nope"]}"#,
        r#"{"cmd":"sweep","workload":"stencil"}"#,
        r#"{"cmd":"sweep","workload":"frobnicate","sizes":[8]}"#,
        r#"{"cmd":"sweep","workload":"stencil","sizes":[2]}"#,
    ] {
        let (header, payload) = client.request(bad);
        assert_eq!(str_field(&header, "status"), "error", "request: {bad}");
        assert!(!str_field(&header, "error").is_empty());
        assert!(payload.is_empty());
    }
    // The connection survived every error and still serves real requests.
    let (header, _) = client.request(r#"{"cmd":"run","experiments":["table1"],"format":"json"}"#);
    assert_eq!(str_field(&header, "status"), "ok");
    let stats = client.stats();
    assert_eq!(as_u64(field(&stats, "errors")), 6);
    server.shutdown();
}

#[test]
fn shutdown_verb_stops_the_server() {
    let server = Server::start("shutdown", &[], &[]);
    let addr = server.addr;
    server.shutdown();
    // The port is closed: a fresh connection is refused (allow the OS a
    // moment to tear the listener down).
    // Margin: `shutdown()` has already reaped the server process, so the
    // listener is gone and the first connect normally fails at once; the
    // 50 × 100 ms poll gives the kernel 5 s. The one process-global risk is
    // another test's server binding the same ephemeral port within that
    // window, which the kernel's ephemeral-port rotation makes unlikely.
    for _ in 0..50 {
        if TcpStream::connect(addr).is_err() {
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("the listener is still accepting connections after shutdown");
}
