//! `mojo-hpc serve` — the always-on report service (DESIGN.md §13).
//!
//! The CLI lanes are run-to-completion: one request, one process, one
//! rendering. A deployment serving many collaborators from one expensive
//! compute source wants the opposite shape — a persistent daemon that
//! multiplexes concurrent clients, remembers what it already computed, and
//! collapses request spikes onto single computations. `serve` is that
//! daemon, built from two existing pieces:
//!
//! * **The work-stealing pool.** Each connection runs on its own thread and
//!   computes through the same `rayon`-shim pool `run`/`sweep` use. The
//!   experiments or sweep points one request still needs run in one
//!   `par_iter`, exactly as the CLI runs them.
//! * **The stable `Params` encoding.** `Params::encode()` renders a total,
//!   spec-ordered `key=value,…` string — a content address. Completed
//!   results land in a `science_kernels::cache::SingleFlight` keyed on it
//!   (plus the experiment id for registry runs), bounded by entry count and
//!   resident bytes.
//!
//! # Single-flight without waiting inside the pool
//!
//! A request resolves its cache units in four steps, and does all of the
//! flight bookkeeping on its connection thread:
//!
//! 1. take the units that are in the cache;
//! 2. claim the leadership of every missing unit no other request is
//!    computing;
//! 3. compute the claimed units in one `par_iter` of pure computations;
//! 4. publish them, and only then wait for the units other requests lead.
//!
//! No pool task ever waits on a flight. The shim's `wait_with_help` runs
//! slots from any deque, so a flight wait inside the pool could sit beneath
//! another request's claimed work and close the cross-key cycle that
//! `science_kernels::cache` describes. Because every request publishes
//! before it waits, two requests that lead each other's units never wait
//! on each other either.
//!
//! # Protocol
//!
//! Clients speak line-delimited JSON over TCP. Each request is one line:
//!
//! ```text
//! {"cmd": "run", "experiments": ["table1", "fig5"], "format": "json"}
//! {"cmd": "sweep", "workload": "stencil", "sizes": [16, 24],
//!  "params": {"precision": "fp32"}, "format": "csv"}
//! {"cmd": "stats"}
//! {"cmd": "shutdown"}
//! ```
//!
//! Every response starts with one compact JSON header line. `run` and
//! `sweep` headers carry `{"status":"ok","cached":…,"bytes":N}` and are
//! followed by exactly `N` raw payload bytes: the **same bytes** the
//! `run`/`sweep` subcommands print on stdout (omitting `experiments` runs
//! them all), so the golden fixtures double as protocol goldens. `stats`
//! returns `{"status":"ok","stats":{…}}`, `shutdown` acknowledges with
//! `{"status":"ok","shutdown":true}` and stops the server, and any failure
//! is `{"status":"error","error":"…"}`. A connection may pipeline any
//! number of requests.
//!
//! `cached` is true when every result the response needed came out of the
//! cache; identical requests computing concurrently are coalesced
//! single-flight (followers wait for the leader's result instead of
//! recomputing), counted separately in `stats`.
//!
//! The [`SERVE_SLOW_MS_ENV`] environment variable makes every computing
//! request sleep first — the chaos seam the stress suite uses to hold many
//! identical requests in flight and prove exactly one computation runs.

use crate::cli::OutputFormat;
use crate::registry::{run_experiment, ExperimentId};
use crate::report::{json_array, json_field, json_opt_field, json_str, json_u64, ExperimentReport};
use crate::sweep::{render_sweep, SweepSpec};
use rayon::prelude::*;
use science_kernels::cache::{self, Claim, SingleFlight};
use science_kernels::workload::{self, WorkloadOutput};
use serde::value::Value;
use serde::Serialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Environment variable holding a per-computation delay in milliseconds —
/// the serve-layer chaos seam (analogous to `MOJO_HPC_CHAOS` for workers).
/// A request that leads any flight sleeps this long before computing, so a
/// test can pile identical requests onto one in-flight computation.
pub const SERVE_SLOW_MS_ENV: &str = "MOJO_HPC_SERVE_SLOW_MS";

/// Default bound on cached result entries.
pub const DEFAULT_CACHE_ENTRIES: usize = 1024;

/// Bound on the cache's estimated resident bytes (64 MiB).
pub const CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Longest request line the server reads (1 MiB, not counting the
/// newline). A longer line is answered with an error and its connection is
/// closed, so a client that never sends `\n` cannot grow the daemon's memory.
pub const MAX_REQUEST_BYTES: u64 = 1024 * 1024;

/// Configuration of one `mojo-hpc serve` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address (`HOST:PORT`; port 0 binds an ephemeral port — the
    /// bound address is announced on stderr either way).
    pub listen: String,
    /// Worker-thread override applied before the pool starts.
    pub threads: Option<usize>,
    /// Maximum cached results (0 disables caching).
    pub cache_entries: usize,
}

impl ServeConfig {
    /// A configuration with every knob at its default.
    pub fn new(listen: impl Into<String>) -> ServeConfig {
        ServeConfig {
            listen: listen.into(),
            threads: None,
            cache_entries: DEFAULT_CACHE_ENTRIES,
        }
    }
}

/// A completed computation, shared cheaply between the cache, in-flight
/// waiters, and response rendering.
#[derive(Clone)]
enum CachedValue {
    /// One registry experiment's report.
    Report(Arc<ExperimentReport>),
    /// One sweep point's engine output, keyed on the point's full `Params`
    /// encoding.
    Point(Arc<WorkloadOutput>),
}

impl CachedValue {
    /// Resident bytes, for the cache's byte budget. A report is priced at
    /// its string content plus a per-row constant for struct overhead; a
    /// sweep point at its rows, their verification text and parameters.
    fn cost(&self) -> u64 {
        match self {
            CachedValue::Report(report) => {
                let tables: usize = report
                    .tables
                    .iter()
                    .map(|(name, t)| {
                        name.len()
                            + t.header.iter().map(String::len).sum::<usize>()
                            + t.rows
                                .iter()
                                .map(|r| r.iter().map(String::len).sum::<usize>() + 24)
                                .sum::<usize>()
                    })
                    .sum();
                (report.id.len() + report.title.len() + report.text.len() + tables + 64) as u64
            }
            CachedValue::Point(output) => output.resident_bytes(),
        }
    }
}

/// Shared state of a running server.
struct ServeState {
    /// The bound address (used by `shutdown` to wake the acceptor).
    addr: SocketAddr,
    /// Results keyed on `run:ID` or `point:WORKLOAD:PARAMS`. Its misses are
    /// the computations actually executed: each one led a flight.
    cache: SingleFlight<String, CachedValue>,
    /// Requests that waited on another request's in-flight computation.
    coalesced: AtomicU64,
    /// Requests handled (any verb).
    requests: AtomicU64,
    /// Requests answered with an error status.
    errors: AtomicU64,
    shutdown: AtomicBool,
    /// Pool counters at server start (`stats` reports the delta).
    pool_baseline: gpu_sim::PoolStats,
}

impl ServeState {
    fn new(config: &ServeConfig, addr: SocketAddr) -> ServeState {
        ServeState {
            cache: SingleFlight::new(config.cache_entries, CACHE_BYTES, CachedValue::cost),
            addr,
            coalesced: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            pool_baseline: gpu_sim::pool::stats(),
        }
    }
}

/// The serve-layer chaos delay, applied by single-flight leaders before
/// computing (see [`SERVE_SLOW_MS_ENV`]).
fn chaos_slow() {
    if let Some(ms) = std::env::var(SERVE_SLOW_MS_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Resolves the cache units `keys` of one request, computing each missing
/// unit with `compute(index)` exactly once across every concurrent request
/// (single-flight). The led units run in one `par_iter`; `compute` must not
/// wait on a flight. Every led unit is published before any followed unit
/// is awaited (see "Single-flight without waiting inside the pool" in the
/// module docs). Returns the values in `keys` order, and whether every one
/// came straight out of the cache.
fn resolve<F>(
    state: &ServeState,
    keys: &[String],
    compute: F,
) -> Result<(Vec<CachedValue>, bool), String>
where
    F: Fn(usize) -> Result<CachedValue, String> + Sync,
{
    let claims: Vec<_> = keys.iter().map(|key| state.cache.claim(key)).collect();
    let all_cached = claims.iter().all(|c| matches!(c, Claim::Hit(_)));
    let follows = claims.iter().filter(|c| matches!(c, Claim::Follow(_)));
    state
        .coalesced
        .fetch_add(follows.count() as u64, Ordering::SeqCst);
    let leads: Vec<usize> = (0..keys.len())
        .filter(|&i| matches!(claims[i], Claim::Lead(_)))
        .collect();
    if !leads.is_empty() {
        chaos_slow();
    }
    let mut outcomes = leads
        .par_iter()
        .map(|&i| {
            catch_unwind(AssertUnwindSafe(|| compute(i)))
                .unwrap_or_else(|_| Err("computation panicked".to_string()))
        })
        .collect::<Vec<_>>()
        .into_iter();
    let claims: Vec<_> = claims
        .into_iter()
        .map(|claim| match claim {
            Claim::Lead(lead) => {
                Claim::Follow(lead.publish(outcomes.next().expect("one outcome per lead")))
            }
            other => other,
        })
        .collect();
    let values = claims
        .into_iter()
        .map(|claim| match claim {
            Claim::Hit(value) => Ok(value),
            Claim::Follow(flight) => flight.wait(),
            Claim::Lead(_) => unreachable!("every led unit was published"),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((values, all_cached))
}

/// A parsed protocol request.
enum Request {
    /// `run`: regenerate registry experiments (all of them when the
    /// `experiments` field is absent).
    Run {
        ids: Vec<ExperimentId>,
        format: OutputFormat,
    },
    /// `sweep`: run a workload at custom sizes with parameter overrides.
    Sweep {
        workload: String,
        sizes: Vec<u64>,
        params: Vec<String>,
        format: OutputFormat,
    },
    /// `stats`: report cache / single-flight / pool counters.
    Stats,
    /// `shutdown`: acknowledge and stop the server.
    Shutdown,
}

/// Parses the optional `format` field (`json` when absent — a wire protocol
/// defaults to the machine-readable rendering). The payload bytes match the
/// CLI's stdout in the same format exactly.
fn parse_format(value: &Value) -> Result<OutputFormat, String> {
    match json_opt_field(value, "format") {
        Some(v) => OutputFormat::parse(json_str(v)?, "format"),
        None => Ok(OutputFormat::Json),
    }
}

/// Renders a `params` object's entries as the `key=value` override strings
/// [`SweepSpec::new`] consumes.
fn parse_param_overrides(value: &Value) -> Result<Vec<String>, String> {
    let Some(params) = json_opt_field(value, "params") else {
        return Ok(Vec::new());
    };
    let Value::Object(fields) = params else {
        return Err("params: expected an object of key/value pairs".to_string());
    };
    fields
        .iter()
        .map(|(key, v)| match v {
            Value::Str(s) => Ok(format!("{key}={s}")),
            Value::U64(n) => Ok(format!("{key}={n}")),
            Value::I64(n) => Ok(format!("{key}={n}")),
            other => Err(format!(
                "params.{key}: expected a string or integer, got {other:?}"
            )),
        })
        .collect()
}

/// Parses one request line.
fn parse_request(line: &str) -> Result<Request, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
    let cmd = json_str(json_field(&value, "cmd")?)?;
    match cmd {
        "run" => {
            let ids = match json_opt_field(&value, "experiments") {
                None => ExperimentId::ALL.to_vec(),
                Some(list) => {
                    let names = json_array(list)?;
                    if names.is_empty() {
                        return Err("experiments: expected at least one id".to_string());
                    }
                    names
                        .iter()
                        .map(|v| ExperimentId::from_str(json_str(v)?))
                        .collect::<Result<Vec<_>, _>>()?
                }
            };
            Ok(Request::Run {
                ids,
                format: parse_format(&value)?,
            })
        }
        "sweep" => {
            let workload = json_str(json_field(&value, "workload")?)?.to_string();
            let sizes = json_array(json_field(&value, "sizes")?)?
                .iter()
                .map(json_u64)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Sweep {
                workload,
                sizes,
                params: parse_param_overrides(&value)?,
                format: parse_format(&value)?,
            })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown cmd '{other}' (known: run, sweep, stats, shutdown)"
        )),
    }
}

/// One response: a compact JSON header line, an optional raw payload, and
/// whether the server should stop after sending it.
struct Reply {
    header: Value,
    payload: Option<String>,
    shutdown: bool,
}

impl Reply {
    fn payload(cached: bool, body: String) -> Reply {
        Reply {
            header: Value::Object(vec![
                ("status".to_string(), Value::Str("ok".to_string())),
                ("cached".to_string(), Value::Bool(cached)),
                ("bytes".to_string(), Value::U64(body.len() as u64)),
            ]),
            payload: Some(body),
            shutdown: false,
        }
    }

    fn error(message: String) -> Reply {
        Reply {
            header: Value::Object(vec![
                ("status".to_string(), Value::Str("error".to_string())),
                ("error".to_string(), Value::Str(message)),
            ]),
            payload: None,
            shutdown: false,
        }
    }
}

/// Computes a `run` response body: per-experiment reports out of the cache
/// (or computed once under single-flight), rendered exactly as
/// `mojo-hpc run … --format …` prints them on stdout.
fn run_body(
    state: &ServeState,
    ids: &[ExperimentId],
    format: OutputFormat,
) -> Result<Reply, String> {
    let keys: Vec<String> = ids
        .iter()
        .map(|id| format!("run:{}", id.as_str()))
        .collect();
    let (values, all_cached) = resolve(state, &keys, |i| {
        Ok(CachedValue::Report(Arc::new(run_experiment(ids[i]))))
    })?;
    let reports = values
        .into_iter()
        .zip(&keys)
        .map(|(value, key)| match value {
            CachedValue::Report(report) => Ok(report),
            CachedValue::Point(_) => Err(format!("cache key '{key}' holds a sweep point")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Reply::payload(all_cached, format.render(&reports, true)))
}

/// Computes a `sweep` response body. Each point is one cache unit keyed on
/// its full `Params` encoding, so overlapping sweeps share points; the
/// missing points run concurrently on the pool, as `mojo-hpc sweep` runs
/// them.
fn sweep_body(
    state: &ServeState,
    name: &str,
    sizes: &[u64],
    overrides: &[String],
    format: OutputFormat,
) -> Result<Reply, String> {
    let engine = workload::find(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (known: {})",
            workload::known_names()
        )
    })?;
    let spec = SweepSpec::new(engine, overrides, sizes.to_vec()).map_err(|e| e.to_string())?;
    let points = spec
        .sizes
        .iter()
        .map(|&size| spec.point(size))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let keys: Vec<String> = points
        .iter()
        .map(|point| format!("point:{}:{}", engine.name(), point.encode()))
        .collect();
    let (values, all_cached) = resolve(state, &keys, |i| {
        let output = engine.run(&points[i]).map_err(|e| e.to_string())?;
        Ok(CachedValue::Point(Arc::new(output)))
    })?;
    let outputs = values
        .into_iter()
        .zip(&keys)
        .map(|(value, key)| match value {
            CachedValue::Point(output) => Ok(output),
            CachedValue::Report(_) => Err(format!("cache key '{key}' holds a report")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let report = render_sweep(&spec, &outputs);
    Ok(Reply::payload(all_cached, format.render(&[report], false)))
}

/// Builds the `stats` verb's counter tree.
fn stats_value(state: &ServeState) -> Value {
    let memo = cache::memo_counters()
        .into_iter()
        .map(|(tier, counters)| (tier.to_string(), counters.to_value()))
        .collect();
    let cache = state.cache.counters();
    let compute = Value::Object(vec![
        ("computed".to_string(), Value::U64(cache.misses)),
        (
            "coalesced".to_string(),
            Value::U64(state.coalesced.load(Ordering::SeqCst)),
        ),
    ]);
    Value::Object(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        (
            "stats".to_string(),
            Value::Object(vec![
                (
                    "requests".to_string(),
                    Value::U64(state.requests.load(Ordering::SeqCst)),
                ),
                (
                    "errors".to_string(),
                    Value::U64(state.errors.load(Ordering::SeqCst)),
                ),
                ("cache".to_string(), cache.to_value()),
                ("memo".to_string(), Value::Object(memo)),
                ("compute".to_string(), compute),
                (
                    "pool".to_string(),
                    gpu_sim::pool::stats()
                        .since(&state.pool_baseline)
                        .to_value(),
                ),
            ]),
        ),
    ])
}

/// Dispatches one parsed request.
fn respond(state: &ServeState, request: Request) -> Result<Reply, String> {
    match request {
        Request::Run { ids, format } => run_body(state, &ids, format),
        Request::Sweep {
            workload,
            sizes,
            params,
            format,
        } => sweep_body(state, &workload, &sizes, &params, format),
        Request::Stats => Ok(Reply {
            header: stats_value(state),
            payload: None,
            shutdown: false,
        }),
        Request::Shutdown => Ok(Reply {
            header: Value::Object(vec![
                ("status".to_string(), Value::Str("ok".to_string())),
                ("shutdown".to_string(), Value::Bool(true)),
            ]),
            payload: None,
            shutdown: true,
        }),
    }
}

/// Handles one request line, mapping every failure to an error reply.
fn handle_request(state: &ServeState, line: &str) -> Reply {
    state.requests.fetch_add(1, Ordering::SeqCst);
    match parse_request(line).and_then(|request| respond(state, request)) {
        Ok(reply) => reply,
        Err(message) => {
            state.errors.fetch_add(1, Ordering::SeqCst);
            Reply::error(message)
        }
    }
}

/// Serves one connection: read request lines, write header + payload per
/// request, until the peer hangs up, asks for shutdown, or sends a line
/// longer than [`MAX_REQUEST_BYTES`].
fn handle_connection(state: &ServeState, stream: TcpStream) {
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(e) => {
            eprintln!("serve: cannot clone connection: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(reader);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader)
            .take(MAX_REQUEST_BYTES + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("serve: read failed: {e}");
                break;
            }
        }
        let oversized = !line.ends_with(b"\n") && line.len() as u64 > MAX_REQUEST_BYTES;
        let reply = if oversized {
            state.requests.fetch_add(1, Ordering::SeqCst);
            state.errors.fetch_add(1, Ordering::SeqCst);
            Reply::error(format!("request line exceeds {MAX_REQUEST_BYTES} bytes"))
        } else {
            let Ok(request) = std::str::from_utf8(&line) else {
                eprintln!("serve: read failed: request line is not valid UTF-8");
                break;
            };
            if request.trim().is_empty() {
                continue;
            }
            handle_request(state, request.trim())
        };
        let mut header = serde_json::to_string(&reply.header).expect("header serialises");
        header.push('\n');
        let write = writer
            .write_all(header.as_bytes())
            .and_then(|_| match &reply.payload {
                Some(body) => writer.write_all(body.as_bytes()),
                None => Ok(()),
            });
        if let Err(e) = write.and_then(|_| writer.flush()) {
            eprintln!("serve: write failed: {e}");
            break;
        }
        if oversized {
            // The rest of the line is never read. Shut the socket down
            // explicitly: the acceptor holds a clone, so dropping ours
            // would leave the connection open.
            writer.shutdown(Shutdown::Both).ok();
            break;
        }
        if reply.shutdown {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the acceptor so it observes the flag and stops.
            TcpStream::connect(state.addr).ok();
            break;
        }
    }
}

/// Runs the server until a `shutdown` request arrives. Binds `listen`,
/// announces the bound address on stderr (`serve: listening on ADDR` —
/// machine-parseable, and the only way to learn an ephemeral port), and
/// serves each connection on its own thread.
pub fn serve(config: &ServeConfig) -> Result<(), String> {
    let listener = TcpListener::bind(&config.listen)
        .map_err(|e| format!("serve: cannot bind {}: {e}", config.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("serve: cannot read the bound address: {e}"))?;
    let state = Arc::new(ServeState::new(config, addr));
    eprintln!("serve: listening on {addr}");
    let mut connections: Vec<(std::thread::JoinHandle<()>, Option<TcpStream>)> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Keep a clone of the socket so shutdown can unblock a
                // handler parked in `read_line` on an idle connection.
                let peer = stream.try_clone().ok();
                let state = Arc::clone(&state);
                connections.push((
                    std::thread::spawn(move || {
                        handle_connection(&state, stream);
                    }),
                    peer,
                ));
            }
            Err(e) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                eprintln!("serve: accept failed: {e}");
            }
        }
        // Reap finished connection threads so a long-lived server's handle
        // list doesn't grow without bound.
        connections.retain(|(handle, _)| !handle.is_finished());
    }
    // Close the read side of every still-open connection *before* joining:
    // a handler blocked in `read_line` on an idle peer sees EOF and
    // returns, while one mid-computation still gets to write its response
    // (the write side stays open). Without this the join below deadlocks
    // against any client that keeps a connection open across shutdown.
    for (_, peer) in &connections {
        if let Some(peer) = peer {
            peer.shutdown(Shutdown::Read).ok();
        }
    }
    for (handle, _) in connections {
        handle.join().ok();
    }
    eprintln!(
        "serve: shut down after {} request(s)",
        state.requests.load(Ordering::SeqCst)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: &str, text_len: usize) -> CachedValue {
        let mut report = ExperimentReport::new(id, "t");
        report.push_line("x".repeat(text_len));
        CachedValue::Report(Arc::new(report))
    }

    type Cache = SingleFlight<String, CachedValue>;

    fn cache(max_entries: usize, max_bytes: u64) -> Cache {
        SingleFlight::new(max_entries, max_bytes, CachedValue::cost)
    }

    /// Leads the flight of the cold `key` and publishes `value`.
    fn fill(cache: &Cache, key: &str, value: CachedValue) {
        match cache.claim(&key.to_string()) {
            Claim::Lead(lead) => drop(lead.publish(Ok(value))),
            _ => panic!("'{key}' is not cold"),
        }
    }

    /// The cached value of `key`. A miss leads a flight and abandons it.
    fn get(cache: &Cache, key: &str) -> Option<CachedValue> {
        match cache.claim(&key.to_string()) {
            Claim::Hit(value) => Some(value),
            _ => None,
        }
    }

    #[test]
    fn cache_tracks_hits_misses_and_lru_eviction() {
        let cache = cache(2, u64::MAX);
        assert!(get(&cache, "a").is_none());
        fill(&cache, "a", report("a", 10));
        fill(&cache, "b", report("b", 10));
        assert!(get(&cache, "a").is_some());
        // Capacity 2: filling c evicts the LRU entry, which is b.
        fill(&cache, "c", report("c", 10));
        assert!(get(&cache, "b").is_none());
        assert!(get(&cache, "a").is_some());
        assert!(get(&cache, "c").is_some());
        let counters = cache.counters();
        assert_eq!(counters.evictions, 1);
        assert_eq!(counters.hits, 3);
        // Every claim that leads is a miss: two failed gets, three fills.
        assert_eq!(counters.misses, 5);
        assert_eq!((counters.entries, counters.inserts), (2, 3));
    }

    #[test]
    fn cache_enforces_the_byte_budget() {
        let small = report("s", 10);
        let budget = small.cost() * 2 + 1;
        let cache = cache(100, budget);
        fill(&cache, "a", report("s", 10));
        fill(&cache, "b", report("s", 10));
        assert_eq!(cache.counters().evictions, 0);
        fill(&cache, "c", report("s", 10));
        assert_eq!(
            cache.counters().evictions,
            1,
            "third entry pushes bytes over budget"
        );
        // A value larger than the whole budget is not kept, and evicts
        // nothing to make room.
        fill(&cache, "huge", report("h", 10_000));
        assert!(get(&cache, "huge").is_none());
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.counters().bytes <= budget);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = cache(0, u64::MAX);
        fill(&cache, "a", report("a", 10));
        assert!(get(&cache, "a").is_none());
        assert_eq!(cache.counters().inserts, 0);
    }

    #[test]
    fn a_sweep_point_costs_its_resident_bytes() {
        use gpu_sim::pool::class_bytes;
        use science_kernels::workload::{Measurement, ParamValue};
        use std::mem::size_of;
        let engine = workload::find("stencil").expect("stencil is registered");
        let spec = SweepSpec::new(engine, &[], vec![16]).expect("valid sweep");
        let output = engine
            .run(&spec.point(16).expect("valid point"))
            .expect("the point runs");
        // Four rows (two platform pairs), each `passed(max_abs_err=…)` text
        // of 27 bytes in a 64 B block, and three parameters (l, precision,
        // block) in one block.
        assert_eq!(output.measurements.len(), 4);
        assert!(output
            .measurements
            .iter()
            .all(|m| m.verification.len() == 27));
        let rows = 4 * (size_of::<Measurement>() + 64);
        let params = class_bytes(3 * size_of::<(&str, ParamValue)>());
        assert_eq!(
            CachedValue::Point(Arc::new(output)).cost(),
            (rows + params) as u64
        );
    }

    #[test]
    fn requests_parse_and_reject() {
        assert!(matches!(
            parse_request(r#"{"cmd":"run"}"#),
            Ok(Request::Run { ids, format: OutputFormat::Json }) if ids.len() == ExperimentId::ALL.len()
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"run","experiments":["table1"],"format":"csv"}"#),
            Ok(Request::Run { ids, format: OutputFormat::Csv }) if ids.len() == 1
        ));
        let sweep = parse_request(
            r#"{"cmd":"sweep","workload":"stencil","sizes":[16,24],"params":{"precision":"fp32"}}"#,
        );
        match sweep {
            Ok(Request::Sweep {
                workload,
                sizes,
                params,
                ..
            }) => {
                assert_eq!(workload, "stencil");
                assert_eq!(sizes, vec![16, 24]);
                assert_eq!(params, vec!["precision=fp32".to_string()]);
            }
            other => panic!("expected a sweep request, got {:?}", other.is_ok()),
        }
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"cmd":"launch-missiles"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"run","experiments":[]}"#).is_err());
        assert!(parse_request(r#"{"cmd":"run","experiments":["nope"]}"#).is_err());
        assert!(parse_request(r#"{"cmd":"sweep","workload":"stencil"}"#).is_err());
        assert!(
            parse_request(r#"{"cmd":"sweep","workload":"stencil","sizes":[8],"params":3}"#)
                .is_err()
        );
        assert_eq!(
            parse_request(r#"{"cmd":"run","format":"yaml"}"#).err(),
            Some("format: expected csv or json, got 'yaml'".to_string())
        );
    }

    fn state() -> ServeState {
        let config = ServeConfig::new("127.0.0.1:0");
        ServeState::new(&config, "127.0.0.1:1".parse().expect("literal address"))
    }

    fn keys(names: &[&str]) -> Vec<String> {
        names.iter().map(|k| k.to_string()).collect()
    }

    #[test]
    fn single_flight_coalesces_identical_requests() {
        let state = Arc::new(state());
        let computations = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        for _ in 0..8 {
            let state = Arc::clone(&state);
            let computations = Arc::clone(&computations);
            threads.push(std::thread::spawn(move || {
                resolve(&state, &keys(&["k"]), |_| {
                    computations.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                    Ok(report("k", 10))
                })
                .expect("computation succeeds")
            }));
        }
        let mut cached = 0;
        for thread in threads {
            let (_, from_cache) = thread.join().expect("thread completes");
            if from_cache {
                cached += 1;
            }
        }
        // Threads that raced the in-flight window share one computation;
        // threads arriving after it completed hit the cache. Either way the
        // work ran exactly once.
        assert_eq!(computations.load(Ordering::SeqCst), 1);
        assert_eq!(state.cache.counters().misses, 1, "one leader computed");
        assert_eq!(
            state.coalesced.load(Ordering::SeqCst) + cached,
            7,
            "everyone else coalesced or hit the cache"
        );
        // A later identical request is a pure cache hit.
        let (_, from_cache) =
            resolve(&state, &keys(&["k"]), |_| panic!("must not recompute")).expect("cache hit");
        assert!(from_cache);
    }

    #[test]
    fn a_unit_named_twice_in_one_request_computes_once() {
        let state = state();
        let (values, from_cache) =
            resolve(&state, &keys(&["a", "b", "a"]), |i| Ok(report("x", i + 1)))
                .expect("computation succeeds");
        assert!(!from_cache);
        assert_eq!(state.cache.counters().misses, 2);
        // The repeat follows the request's own flight and gets its value.
        assert_eq!(values[0].cost(), values[2].cost());
        assert_ne!(values[0].cost(), values[1].cost());
        // No flight is left behind: both units are cached.
        assert!(get(&state.cache, "a").is_some() && get(&state.cache, "b").is_some());
    }

    #[test]
    fn failed_computations_are_not_cached() {
        let state = state();
        let err = resolve(&state, &keys(&["k"]), |_| Err("boom".to_string()));
        assert!(err.is_err());
        // The failure was not cached: the next request recomputes.
        let ok = resolve(&state, &keys(&["k"]), |_| Ok(report("k", 5)));
        assert!(ok.is_ok());
        assert_eq!(state.cache.counters().misses, 2);
        // Panics surface as errors, not wedged flights, and do not stop the
        // other units of the request from being published.
        let panicked = resolve(&state, &keys(&["p", "q"]), |i| {
            if i == 0 {
                panic!("kaboom")
            }
            Ok(report("q", 5))
        });
        assert!(panicked.is_err());
        // No flight is left behind: the panicked unit can be led again.
        assert!(matches!(
            state.cache.claim(&"p".to_string()),
            Claim::Lead(_)
        ));
        assert!(get(&state.cache, "q").is_some());
    }
}
