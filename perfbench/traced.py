"""The traced run: per-layer metrics.

Runs in a fresh harness process (so the tracer starts with cold memos) and
feeds the same generated inputs through the public calls of each layer. The
Rust tracer records in-process spans; this module records spans around the
calls it makes itself (worker processes, the serve session), nests the
tracer's spans under its process span, and derives every per-layer metric
from self times and counters. Spans are written to spans.json at the end.
"""

import json
import threading
import time
from contextlib import contextmanager

import inputs
import product
import stats

MEMOS = [
    "helium_system", "hartree_fock_reference", "stencil_grid", "stencil_reference",
    "minibude_deck", "minibude_reference", "jacobi_reference", "sampled_plan",
]
FAMILIES = ["stencil7", "babelstream", "minibude", "hartree_fock", "jacobi", "framestream"]
WORKLOADS = [
    "stencil", "babelstream", "minibude", "hartree-fock", "hartree-fock-sampled",
    "jacobi", "framestream",
]
EXPERIMENTS = [
    "table1", "fig2", "fig3", "table2", "fig4", "table3", "fig5", "fig6", "fig7",
    "table4", "table5",
]

# Span names whose summed self time is a per-layer metric (name + "_ms").
SPAN_LAYERS = (
    [f"kernels.cache.{m}" for m in MEMOS]
    + ["kernels.cost", "sim.timing"]
    + [f"kernels.exec.{f}.{lane}" for f in FAMILIES for lane in ("portable", "vendor")]
    + ["kernels.exec.hartree_fock_sampled"]
    + [f"kernels.workload.{w}" for w in WORKLOADS]
    + [f"report.experiment.{e}" for e in EXPERIMENTS]
    + ["report.render", "report.write", "report.sweep_render"]
    + ["report.shard.parse", "report.shard.merge"]
)

# Every per-layer metric: (name, unit, better).
PER_LAYER = [(f"{s}_ms", "ms", "lower") for s in SPAN_LAYERS] + [
    ("sim.pool.checkouts", "count", "lower"),
    ("sim.pool.hit_ratio", "ratio", "higher"),
    ("sim.pool.fresh_bytes", "bytes", "lower"),
    ("sim.pool.high_water_bytes", "bytes", "lower"),
    ("rayon.parallel_efficiency", "ratio", "higher"),
    ("report.shard.worker_ms", "ms", "lower"),
    ("report.shard.overhead_ms", "ms", "lower"),
    ("report.serve.hit_p50_ms", "ms", "lower"),
    ("report.serve.miss_p50_ms", "ms", "lower"),
    ("report.serve.miss_compute_ms", "ms", "lower"),
    ("report.serve.hit_ratio", "ratio", "higher"),
    ("report.serve.computed", "count", "lower"),
    ("report.serve.coalesced", "count", "higher"),
    ("report.serve.evictions", "count", "lower"),
    ("report.serve.cache_bytes", "bytes", "lower"),
    ("report.serve.rss_growth_mib", "MiB", "lower"),
    ("process.spawn_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
]

SPAWN_SAMPLES = 5
UNTRACED_SAMPLES = 3


class Recorder:
    """In-memory spans (name, start, end, parent) of the harness's calls."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.open = []

    def now_us(self):
        return int((time.perf_counter() - self.origin) * 1e6)

    def add(self, name, start_us, end_us, parent):
        self.spans.append(
            {"name": name, "start_us": start_us, "end_us": end_us, "parent": parent}
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name):
        index = self.add(name, self.now_us(), 0, self.open[-1] if self.open else -1)
        self.open.append(index)
        try:
            yield index
        finally:
            self.open.pop()
            self.spans[index]["end_us"] = self.now_us()

    def adopt(self, spans, parent):
        """Nests another process's spans under `parent`, shifted to its start."""
        base, offset = len(self.spans), self.spans[parent]["start_us"]
        for s in spans:
            self.add(
                s["name"],
                s["start_us"] + offset,
                s["end_us"] + offset,
                parent if s["parent"] < 0 else s["parent"] + base,
            )

    def subtree(self, root):
        """Indices of `root` and every span below it."""
        inside = {root}
        for index in range(root + 1, len(self.spans)):
            if self.spans[index]["parent"] in inside:
                inside.add(index)
        return inside


def run_tracer(run, rec, args):
    """Runs the Rust tracer in a fresh process under a `tracer process`
    span, folds its operation counts into `run.ops` and adopts its spans.
    Returns (tracer document, process span index, process wall seconds)."""
    spans_path = run.outdir / "tracer-spans.json"
    spans_path.unlink(missing_ok=True)
    with rec.span("tracer process") as index:
        proc = product.spawn(
            [str(run.tracer), *args, "--spans", str(spans_path)], run.outdir / "tracer"
        )
    ok = proc.code == 0 and spans_path.is_file()
    run.ops.check(ok, lambda: f"tracer {args[0]}: exit {proc.code}")
    doc = json.loads(spans_path.read_text()) if ok else {}
    run.ops.attempted += doc.get("attempted", 0)
    run.ops.failed += doc.get("failed", 0)
    run.ops.errors.extend(doc.get("errors", [])[:5])
    rec.adopt(doc.get("spans", []), index)
    return doc, index, proc.wall_s


def spawn_ms(run, rec):
    with rec.span("process.spawn"):
        return stats.median([run.cli.help().wall_s for _ in range(SPAWN_SAMPLES)]) * 1000.0


def pool_metrics(counters):
    checkouts = counters.get("checkouts", 0)
    return {
        "sim.pool.checkouts": checkouts,
        "sim.pool.hit_ratio": counters.get("hits", 0) / checkouts if checkouts else 0.0,
        "sim.pool.fresh_bytes": counters.get("fresh_bytes", 0),
        "sim.pool.high_water_bytes": counters.get("high_water_bytes", 0),
    }


def efficiency(serial_s, parallel_s, nproc):
    return serial_s / (nproc * parallel_s)


def trace_report(run, rec, m):
    cli = run.cli
    with rec.span("untraced run --all"):
        untraced = stats.median([cli.report(False).wall_s for _ in range(UNTRACED_SAMPLES)])
    with rec.span("run --all --threads 1"):
        serial = stats.median([cli.report(False, threads=1).wall_s for _ in range(2)])
    m["rayon.parallel_efficiency"] = efficiency(serial, untraced, run.nproc)

    # The two `--shard i/2` workers of a `shard run --all --workers 2`,
    # launched together as the coordinator launches them.
    parent = rec.open[-1]

    def worker(i, procs):
        start = rec.now_us()
        procs[i] = product.spawn(
            [str(run.binary), "run", "--all", "--format", "json", "--shard", f"{i}/2"],
            run.outdir / f"shard-{i}",
        )
        rec.add("report.shard.worker", start, rec.now_us(), parent)

    slowest = []
    for _ in range(UNTRACED_SAMPLES):
        procs = [None, None]
        threads = [threading.Thread(target=worker, args=(i, procs)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for i, proc in enumerate(procs):
            run.ops.check(proc.code == 0, lambda: f"shard worker {i}/2: exit {proc.code}")
        slowest.append(max(p.wall_s for p in procs))
    m["report.shard.worker_ms"] = stats.median(slowest) * 1000.0
    with rec.span("shard run --all"):
        shard = stats.median([cli.report(True).wall_s for _ in range(UNTRACED_SAMPLES)])
    m["report.shard.overhead_ms"] = shard * 1000.0 - m["report.shard.worker_ms"]

    files = run.outdir / "trace-files"
    args = ["report", "--out", str(files)]
    for i in range(2):
        args += ["--shard-doc", str(run.outdir / f"shard-{i}.out")]
    doc, index, wall = run_tracer(run, rec, args)
    mismatched = cli.golden_mismatches(files)
    run.ops.check(not mismatched, lambda: f"traced report files differ: {mismatched[:3]}")
    m.update(pool_metrics(doc.get("counters", {})))
    return index, wall, untraced, "median cold run --all"


def plan_lines(plan):
    return "".join(
        f"{w} {','.join(map(str, sizes))} {' '.join(overrides)}".rstrip() + "\n"
        for w, sizes, overrides in plan
    )


def trace_sweep(run, rec, m):
    cli = run.cli
    with rec.span("untraced sweep pass"):
        untraced = stats.median(
            [sum(cli.sweep_pass(run.plan, run.reference)[0].values()) for _ in range(2)]
        )
    with rec.span("sweep pass --threads 1"):
        serial = sum(cli.sweep_pass(run.plan, run.reference, threads=1)[0].values())
    m["rayon.parallel_efficiency"] = efficiency(serial, untraced, run.nproc)
    plan = run.outdir / "tracer-plan.txt"
    plan.write_text(plan_lines(run.plan))
    doc, index, wall = run_tracer(run, rec, ["sweep", "--plan", str(plan)])
    m.update(pool_metrics(doc.get("counters", {})))
    return index, wall, untraced, "median untraced sweep pass"


def trace_serve(run, rec, m):
    cli = run.cli
    with rec.span("hot set via CLI"):
        captured = {inputs.request_key(r): cli.capture(r) for r in inputs.HOT_SET}
    expected = {key: proc.stdout for key, proc in captured.items()}
    with rec.span("hot set via CLI --threads 1"):
        serial = sum(cli.capture(r, threads=1).wall_s for r in inputs.HOT_SET)
    parallel = sum(proc.wall_s for proc in captured.values())
    m["rayon.parallel_efficiency"] = efficiency(serial, parallel, run.nproc)

    with rec.span("serve setup"):
        daemon, _ = run.serve_setup(expected)
    try:
        rss_after_setup = daemon.memory_mib()[0]
        with rec.span("serve closed loop"):
            replies, _, served, (rss_end, _) = run.serve_session(daemon, expected, run.sequence)
    finally:
        daemon.stop()
    hits = [r.latency_s * 1000.0 for r in replies if r.cached]
    misses = [r.latency_s * 1000.0 for r in replies if not r.cached]
    cache = served.get("cache", {})
    compute = served.get("compute", {})
    # Served from cache, out of everything served (each miss probes the
    # cache twice, so the raw hits/misses pair would undercount).
    answered = cache.get("hits", 0) + compute.get("computed", 0) + compute.get("coalesced", 0)
    m.update({
        "report.serve.hit_p50_ms": stats.median(hits) if hits else 0.0,
        "report.serve.miss_p50_ms": stats.median(misses) if misses else 0.0,
        "report.serve.hit_ratio": cache.get("hits", 0) / answered if answered else 0.0,
        "report.serve.computed": compute.get("computed", 0),
        "report.serve.coalesced": compute.get("coalesced", 0),
        "report.serve.evictions": cache.get("evictions", 0),
        "report.serve.cache_bytes": cache.get("bytes", 0),
        "report.serve.rss_growth_mib": rss_end - rss_after_setup,
    })
    m.update(pool_metrics(served.get("pool", {})))

    # The same miss points, in process: Workload::run + render_sweep each.
    points = [
        (r["workload"], r["sizes"], [f"{k}={v}" for k, v in r["params"].items()])
        for r, hot in run.sequence
        if not hot
    ]
    plan = run.outdir / "tracer-plan.txt"
    plan.write_text(plan_lines(points))
    _, index, wall = run_tracer(run, rec, ["sweep", "--plan", str(plan)])
    per_point = []
    for i in sorted(rec.subtree(index)):
        if rec.spans[i]["name"].startswith("sweep "):
            per_point.append(sum(
                (s["end_us"] - s["start_us"]) / 1000.0
                for s in rec.spans
                if s["parent"] == i and (
                    s["name"].startswith("kernels.workload.") or s["name"] == "report.sweep_render"
                )
            ))
    m["report.serve.miss_compute_ms"] = stats.median(per_point) if per_point else 0.0
    # Untraced compute of the same points: each miss's latency above the
    # hit median (which is protocol and stall, not compute).
    floor = m["report.serve.hit_p50_ms"] / 1000.0
    untraced = sum(max(0.0, r.latency_s - floor) for r in replies if not r.cached)
    return index, wall, untraced, f"{len(misses)} miss latencies above the hit p50, summed"


TRACES = {"report": trace_report, "sweep": trace_sweep, "serve": trace_serve}


def run_traced(run):
    """Runs the workload's traced variant; returns every per-layer metric."""
    rec = Recorder()
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    with rec.span("trace"):
        m["process.spawn_ms"] = spawn_ms(run, rec)
        index, wall, untraced, untraced_label = TRACES[run.args.workload](run, rec, m)

    by_name = stats.self_time_by_name(rec.spans)
    for layer in SPAN_LAYERS:
        m[f"{layer}_ms"] = by_name.get(layer, 0.0)
    own = stats.self_times(rec.spans)
    layers = set(SPAN_LAYERS)
    m["trace.unattributed_ms"] = sum(
        own[i] for i in rec.subtree(index) if rec.spans[i]["name"] not in layers
    ) / 1000.0
    m["trace.overhead_ms"] = (wall - untraced) * 1000.0

    (run.outdir / "spans.json").write_text(json.dumps({"spans": rec.spans}) + "\n")
    print(f"trace: tracer process {wall * 1000.0:.1f} ms; untraced ({untraced_label}) "
          f"{untraced * 1000.0:.1f} ms; tracing overhead {m['trace.overhead_ms']:.1f} ms; "
          f"no layer span covers {m['trace.unattributed_ms']:.1f} ms")
    print(f"{'layer self time':<44} {'ms':>10} {'share of untraced':>18}")
    for layer in sorted(SPAN_LAYERS, key=lambda s: -m[f"{s}_ms"]):
        value = m[f"{layer}_ms"]
        if value > 0:
            print(f"{layer:<44} {value:10.3f} {value / (untraced * 1000.0):17.1%}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": m[name], "unit": units[name]} for name, _, _ in PER_LAYER}
