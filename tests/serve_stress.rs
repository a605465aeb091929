//! Stress tests of `mojo-hpc serve`, through the real binary (DESIGN.md
//! §13): every fixture row of the byte-identity matrix
//! (`tests/common/mod.rs`) must come back as the CLI's stdout bytes,
//! hundreds of concurrent clients must each receive payloads
//! byte-identical to the corresponding `run`/`sweep` CLI stdout, repeated
//! requests must be served out of the Params-keyed cache (hit counter up,
//! compute counter flat), identical concurrent requests must coalesce onto
//! exactly one computation (pinned via the `MOJO_HPC_SERVE_SLOW_MS` chaos
//! seam), overlapping multi-point sweeps sent concurrently in opposite
//! orders must compute each point once without deadlocking, hostile
//! parameters must be refused with an error reply without growing the
//! daemon, an over-long request line must be refused without growing the
//! daemon, and distinct Hartree–Fock sizes must not grow it past the memo
//! budget.

mod common;

use common::{
    as_u64, bool_field, counter, field, mojo_hpc, rows, scratch, serve_cell, str_field,
    ServeClient, Server,
};
use mojo_hpc::report::serve::MAX_REQUEST_BYTES;
use serde::value::Value;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

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

/// The byte-identity matrix's serve column: every fixture row, in both
/// formats, through one daemon.
#[test]
fn responses_match_cli_bytes_in_both_formats() {
    let server = Server::start(&[]);
    let mut client = server.connect();
    for row in rows() {
        serve_cell(&row, &mut client);
    }
    server.shutdown();
}

#[test]
fn repeated_requests_are_served_from_the_cache() {
    let server = Server::start(&[]);
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
    let server = Server::start(&[]);
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
    let server = Server::start(&[("MOJO_HPC_SERVE_SLOW_MS", "500")]);
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
fn overlapping_sweeps_in_opposite_orders_compute_each_point_once() {
    // Two clients sweep the same three points per round, one in ascending
    // and one in descending order, so a request can lead some points and
    // follow the other request's flights for the rest. A barrier sends
    // each round's two requests together, and the slow seam keeps the
    // first request's flights open while the second one claims. A wait
    // cycle between them would hang both clients until the read timeout in
    // `ServeClient::connect` (margin-commented there).
    let server = Server::start(&[("MOJO_HPC_SERVE_SLOW_MS", "50")]);
    const ROUNDS: u64 = 4;
    const POINTS: u64 = 3;
    let out = scratch("overlap-out");
    let barrier = Arc::new(Barrier::new(2));
    let mut clients = Vec::new();
    for descending in [false, true] {
        let rounds: Vec<(String, Vec<u8>)> = (0..ROUNDS)
            .map(|round| {
                let mut sizes: Vec<u64> = (0..POINTS).map(|p| 16 + 4 * (round + p)).collect();
                if descending {
                    sizes.reverse();
                }
                let list: Vec<String> = sizes.iter().map(u64::to_string).collect();
                let request = format!(
                    r#"{{"cmd":"sweep","workload":"stencil","sizes":[{}],"format":"json"}}"#,
                    list.join(",")
                );
                let expected = cli_baseline(&[
                    "sweep",
                    "stencil",
                    "--sizes",
                    &list.join(","),
                    "--format",
                    "json",
                    "--out",
                    out.to_str().unwrap(),
                ]);
                (request, expected)
            })
            .collect();
        let addr = server.addr;
        let barrier = Arc::clone(&barrier);
        clients.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr);
            for (request, expected) in rounds {
                barrier.wait();
                let (header, payload) = client.request(&request);
                assert_eq!(str_field(&header, "status"), "ok", "{request}: {header:?}");
                assert_eq!(payload, expected, "{request}: payload differs from the CLI");
            }
        }));
    }
    for client in clients {
        client.join().expect("client thread");
    }
    // Consecutive rounds share two of their three sizes, so the distinct
    // points are 16, 20, …, 16 + 4 (ROUNDS + POINTS - 2).
    let distinct = ROUNDS + POINTS - 1;
    let lookups = 2 * ROUNDS * POINTS;
    let stats = server.connect().stats();
    assert_eq!(
        counter(&stats, "compute", "computed"),
        distinct,
        "each distinct point computes once: {stats:?}"
    );
    assert_eq!(
        counter(&stats, "cache", "hits") + counter(&stats, "compute", "coalesced"),
        lookups - distinct,
        "every other point lookup was a hit or followed a flight: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn protocol_errors_answer_without_dropping_the_connection() {
    let server = Server::start(&[]);
    let mut client = server.connect();
    for bad in [
        "this is not json",
        r#"{"cmd":"launch-missiles"}"#,
        r#"{"cmd":"run","experiments":["nope"]}"#,
        r#"{"cmd":"sweep","workload":"stencil"}"#,
        r#"{"cmd":"sweep","workload":"frobnicate","sizes":[8]}"#,
        r#"{"cmd":"sweep","workload":"stencil","sizes":[2]}"#,
        r#"{"cmd":"sweep","workload":"hartree-fock-sampled","sizes":[1024],"params":{"shards":4294967296}}"#,
        r#"{"cmd":"sweep","workload":"minibude","sizes":[8],"params":{"poses":11184811}}"#,
        r#"{"cmd":"sweep","workload":"minibude","sizes":[8],"params":{"natlig":65536,"natpro":1048576}}"#,
        r#"{"cmd":5}"#,
        r#"{"cmd":"sweep","workload":"stencil","sizes":"8"}"#,
        r#"{"cmd":"sweep","workload":"stencil","sizes":[-1]}"#,
        r#"{"cmd":"sweep","workload":"stencil","sizes":[8.0]}"#,
        r#"{"cmd":"run","experiments":[]}"#,
        r#"{"cmd":"sweep","workload":"stencil","sizes":[8],"params":[1]}"#,
        r#"{"cmd":"sweep","workload":"stencil","sizes":[8],"params":{"precision":true}}"#,
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
    assert_eq!(as_u64(field(&stats, "errors")), 16);
    server.shutdown();
}

#[test]
fn an_oversized_request_line_is_refused_and_its_connection_closed() {
    let server = Server::start(&[]);
    let errors_before = as_u64(field(&server.connect().stats(), "errors"));
    // One byte over the limit and no newline: the server must answer
    // without waiting for the line to end.
    let mut client = server.connect();
    let line = vec![b'x'; MAX_REQUEST_BYTES as usize + 1];
    client
        .writer
        .write_all(&line)
        .expect("write oversized line");
    client.writer.flush().expect("flush oversized line");
    let mut header = String::new();
    client.reader.read_line(&mut header).expect("read header");
    let header: Value = serde_json::from_str(header.trim()).expect("header is JSON");
    assert_eq!(str_field(&header, "status"), "error");
    assert_eq!(
        str_field(&header, "error"),
        format!("request line exceeds {MAX_REQUEST_BYTES} bytes")
    );
    let mut rest = Vec::new();
    let n = client.reader.read_to_end(&mut rest).expect("read to EOF");
    assert_eq!(n, 0, "the connection must close after the error");
    // The daemon still serves a fresh connection and counted one error.
    let stats = server.connect().stats();
    assert_eq!(as_u64(field(&stats, "errors")), errors_before + 1);
    server.shutdown();
}

/// The resident set of process `pid` in KiB, from `/proc/<pid>/status`.
#[cfg(target_os = "linux")]
fn vm_rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

#[test]
#[cfg(target_os = "linux")]
fn rejected_keyword_values_do_not_grow_the_daemon() {
    // Every request carries a distinct 64 KiB `precision` keyword, which the
    // stencil workload rejects. A daemon that keeps each rejected value
    // (e.g. by interning it) grows by ~64 KiB per request.
    const KEYWORD_BYTES: usize = 64 * 1024;
    let server = Server::start(&[]);
    let mut client = server.connect();
    let mut reject = |i: usize| {
        let keyword = format!("{i:08}{}", "x".repeat(KEYWORD_BYTES - 8));
        let line = format!(
            r#"{{"cmd":"sweep","workload":"stencil","sizes":[16],"params":{{"precision":"{keyword}"}}}}"#
        );
        let (header, payload) = client.request(&line);
        assert_eq!(str_field(&header, "status"), "error", "request {i}");
        assert!(payload.is_empty());
    };
    // Warm the allocator's free lists before the baseline.
    for i in 0..50 {
        reject(i);
    }
    let before = vm_rss_kib(server.child.id());
    for i in 50..450 {
        reject(i);
    }
    let after = vm_rss_kib(server.child.id());
    // Margin: 400 retained keywords add 400 × 64 KiB = 25 MiB; with the
    // keywords interned the daemon grew by 25,412 KiB here. Without a leak
    // it grew by 0 KiB (3 release runs and 1 debug run, 2 vCPU): each
    // request's buffers are freed before the next one arrives on this
    // single connection. 8 MiB absorbs allocator noise and still fails a
    // leak of a third of the requests.
    let growth_kib = after.saturating_sub(before);
    assert!(
        growth_kib < 8 * 1024,
        "serve grew by {growth_kib} KiB over 400 rejected keywords ({before} -> {after} KiB)"
    );
    server.shutdown();
}

#[test]
#[cfg(target_os = "linux")]
fn distinct_sweep_points_do_not_grow_the_daemon() {
    // Every point is a distinct stencil size past the functional limit, so
    // it runs the cost model only and its skip reason names the size. The
    // cache keeps 8 entries; a daemon that also keeps each point's rendered
    // text (e.g. by interning it) grows with the number of distinct points.
    // Large batches keep the test fast: every keep-alive request pays a
    // fixed ~44 ms.
    const BATCH: u64 = 1000;
    const BATCHES: u64 = 60;
    let server = Server::start_with_args(&["--cache-entries", "8"], &[]);
    let mut client = server.connect();
    let mut sweep = |batch: u64| {
        let first = 1000 + batch * BATCH;
        let sizes: Vec<String> = (first..first + BATCH).map(|l| l.to_string()).collect();
        let line = format!(
            r#"{{"cmd":"sweep","workload":"stencil","sizes":[{}]}}"#,
            sizes.join(",")
        );
        let (header, payload) = client.request(&line);
        assert_eq!(str_field(&header, "status"), "ok", "batch {batch}");
        assert!(!bool_field(&header, "cached"), "batch {batch}");
        let text = String::from_utf8(payload).expect("payload is UTF-8");
        assert!(
            text.contains(&format!("skipped(L = {first} exceeds")),
            "batch {batch}"
        );
    };
    // Warm the pool shelves and the allocator's free lists before the
    // baseline.
    sweep(0);
    let before = vm_rss_kib(server.child.id());
    for batch in 1..=BATCHES {
        sweep(batch);
    }
    let after = vm_rss_kib(server.child.id());
    let cache_entries = counter(&client.stats(), "cache", "entries");
    assert!(cache_entries <= 8, "{cache_entries} cache entries");
    // Margin (2 vCPU): over these 60,000 points a daemon that interned each
    // point's skip reason and verification text grew by 20,612 KiB in
    // release and 20,040 KiB in debug, at every step. With pooled text it
    // grew by 1,924–4,912 KiB (3 release and 2 debug runs), nearly all of
    // it in the first 10 batches while the allocator settles, then flat.
    // 12 MiB is over twice the worst pooled run and fails the interning
    // daemon by more than 7 MiB.
    let growth_kib = after.saturating_sub(before);
    assert!(
        growth_kib < 12 * 1024,
        "serve grew by {growth_kib} KiB over {} distinct points ({before} -> {after} KiB)",
        BATCHES * BATCH
    );
    server.shutdown();
}

#[test]
#[cfg(target_os = "linux")]
fn distinct_hartree_fock_sizes_do_not_grow_the_daemon() {
    // Every size is a distinct cost-model-only Hartree–Fock point whose
    // helium system (a natoms² density plus one factor per atom pair,
    // 12·natoms² B: 38.9 MB at 1800 atoms, 87.5 MB at 2700) the memo keeps
    // for its four platforms. The ten systems add up to 617 MB; a daemon
    // whose memo keeps every one of them grows past it.
    const SIZES: [u64; 10] = [1800, 1900, 2000, 2100, 2200, 2300, 2400, 2500, 2600, 2700];
    let budget_kib = mojo_hpc::kernels::cache::MEMO_BUDGET_BYTES / 1024;
    let server = Server::start(&[]);
    let mut client = server.connect();
    let before = vm_rss_kib(server.child.id());
    let mut peak_growth_kib = 0;
    for size in SIZES {
        let (header, _) = client.request(&format!(
            r#"{{"cmd":"sweep","workload":"hartree-fock","sizes":[{size}],"format":"json"}}"#
        ));
        assert_eq!(
            str_field(&header, "status"),
            "ok",
            "size {size}: {header:?}"
        );
        peak_growth_kib = peak_growth_kib.max(vm_rss_kib(server.child.id()).saturating_sub(before));
    }
    // Margin: the helium tier keeps at most the budget (256 MiB); on top of
    // it the daemon holds the system being generated until its admission
    // evicts older ones (at most 87.5 MB here) and allocator slack. Over
    // these sizes the bounded daemon's growth peaked at 255.8–256.1 MiB and
    // a daemon that kept every system grew by 590.4–590.6 MiB (3 release
    // and 3 debug runs each, 2 vCPU). 96 MiB over the budget clears the
    // first by 95 MiB and fails the second by 238 MiB.
    assert!(
        peak_growth_kib < budget_kib + 96 * 1024,
        "serve grew by {peak_growth_kib} KiB over {} distinct Hartree–Fock sizes",
        SIZES.len()
    );
    let stats = client.stats();
    let Value::Object(memo) = field(&stats, "memo") else {
        panic!("memo is not an object: {stats:?}")
    };
    let tiers = memo
        .iter()
        .map(|(name, counters)| (name.as_str(), counters));
    for (tier, counters) in tiers.chain([("cache", field(&stats, "cache"))]) {
        assert!(
            as_u64(field(counters, "bytes")) <= as_u64(field(counters, "max_bytes")),
            "{tier} is over its byte budget: {counters:?}"
        );
    }
    assert!(
        counter(field(&stats, "memo"), "helium_system", "evictions") > 0,
        "the helium tier never reached its budget: {stats:?}"
    );
    // Every point, served out of the result cache, matches the CLI bytes.
    let list: Vec<String> = SIZES.iter().map(u64::to_string).collect();
    let (header, payload) = client.request(&format!(
        r#"{{"cmd":"sweep","workload":"hartree-fock","sizes":[{}],"format":"json"}}"#,
        list.join(",")
    ));
    assert!(bool_field(&header, "cached"), "{header:?}");
    let out = scratch("hartree-fock-sizes");
    assert_eq!(
        payload,
        cli_baseline(&[
            "sweep",
            "hartree-fock",
            "--sizes",
            &list.join(","),
            "--format",
            "json",
            "--out",
            out.to_str().unwrap(),
        ]),
        "the payload is not byte-identical to the CLI stdout"
    );
    server.shutdown();
}

#[test]
fn shutdown_verb_stops_the_server() {
    let server = Server::start(&[]);
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
