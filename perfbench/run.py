#!/usr/bin/env python3
"""mojo-hpc end-to-end benchmark.

    python3 perfbench/run.py --workload report|sweep|serve --seed N \
        --seconds S --trace 0|1

Builds the release `mojo-hpc` binary and the span tracer from source, runs
one workload and prints one JSON object as the last stdout line:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones (tracing off); with `--trace 1` a fresh
traced run reports the per-layer ones. Inputs, results, the environment
stamp and spans are written under perfbench/results/. See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import inputs
import product
import stats
import traced

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("report", "sweep", "serve")

# Setups per run (the median is reported as setup_s).
SETUPS = 3
# Serve requests per second of --seconds: the run's fixed request count.
SERVE_REQUESTS_PER_SECOND = 32
# Serve LRU entries; below the distinct keys of every run, so it evicts.
SERVE_CACHE_ENTRIES = 32
# Share of --seconds a workload spends on its own path; the other two paths
# get half the rest each, but never fewer operations than these.
HOME_SHARE = 0.6
MIN_REPORT_OPS = 4
MIN_SWEEP_PASSES = 5
# Serve requests per interleaving step (split across the two clients).
SERVE_BATCH = 16

# The end-to-end metrics and their units, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s", "peak_rss_mib": "MiB", "report_s": "s", "shard_report_s": "s",
    "sweep_s": "s", "serve_p50_ms": "ms", "serve_tail_ms": "ms", "serve_rps": "req/s",
}


def build():
    """Builds both binaries into $CARGO_TARGET_DIR (default .bench_build).
    Returns (mojo-hpc path, tracer path), or exits 2 without a result."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = ((ROOT / "Cargo.toml", ["--bin", "mojo-hpc"]), (BENCH / "tracer" / "Cargo.toml", []))
    for manifest, extra in builds:
        if not manifest.is_file():
            print(f"perfbench: {manifest} is missing; run from a full checkout", file=sys.stderr)
            sys.exit(2)
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(manifest)]
        cmd += extra
        try:
            code = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        except OSError as e:
            code = f"unavailable ({e})"
        if code != 0:
            print(f"perfbench: build failed ({' '.join(cmd)}: {code})", file=sys.stderr)
            sys.exit(2)
    return target / "release" / "mojo-hpc", target / "release" / "perfbench-tracer"


def environment():
    """nproc, CPU model, cache sizes, source identity and build profile."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("Cargo.*")) + sorted(
        p for d in ("src", "crates", "shims") for p in (ROOT / d).rglob("*") if p.is_file()
    ):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "build_profile": "release (lto = thin)",
        "python": platform.python_version(),
    }


class Run:
    """State shared by one workload run."""

    def __init__(self, args, binary, tracer, outdir):
        self.args = args
        self.binary = binary
        self.tracer = tracer
        self.outdir = outdir
        self.ops = product.Ops()
        self.cli = product.Cli(binary, outdir / "cli", self.ops)
        self.plan = inputs.sweep_plan(args.seed)
        self.sequence = inputs.serve_sequence(args.seed, serve_count(args.seconds, HOME_SHARE))
        self.reference = {}
        self.nproc = len(os.sched_getaffinity(0))

    def inputs_record(self):
        return {
            "seed": self.args.seed,
            "workload": self.args.workload,
            "sweep_plan": [list(p) for p in self.plan],
            "serve_requests": [dict(r, hot=h) for r, h in self.sequence],
            "serve_distinct_keys": inputs.distinct_keys(self.sequence),
            "serve_cache_entries": SERVE_CACHE_ENTRIES,
        }

    def expected_payloads(self):
        """CLI stdout for every hot request: what serve must send back."""
        return {
            inputs.request_key(r): self.cli.capture(r).stdout for r in inputs.HOT_SET
        }

    def serve_setup(self, expected):
        return product.serve_setup(
            self.binary, self.outdir / "serve-scratch", SERVE_CACHE_ENTRIES, expected, self.ops
        )

    def serve_session(self, daemon, expected, sequence):
        """One closed loop over `sequence`, then the daemon's `stats` and
        memory."""
        clients = product.Clients(daemon, expected, self.ops)
        try:
            clients.run(sequence)
        finally:
            clients.close()
        return clients.replies, clients.wall, daemon.stats(), daemon.memory_mib()


def serve_count(seconds, share):
    """The fixed serve request count of a `share` of a `seconds` run; never
    so few that the tail percentile has no ten samples beyond it."""
    return max(round(SERVE_REQUESTS_PER_SECOND * seconds * share), 4 * SERVE_BATCH)


class ReportPath:
    """One step: a cold `run --all`, then a cold `shard run --all
    --workers 2`."""

    def __init__(self, run):
        self.run = run
        self.walls = {"report_s": [], "shard_report_s": []}
        self.rss = 0.0

    def setup(self):
        start = time.perf_counter()
        self.run.cli.report(False)
        self.run.cli.report(True)
        return time.perf_counter() - start

    def step(self):
        for name, shard in (("report_s", False), ("shard_report_s", True)):
            proc = self.run.cli.report(shard)
            self.walls[name].append(proc.wall_s)
            self.rss = max(self.rss, proc.maxrss_mib)

    def enough(self):
        return len(self.walls["report_s"]) >= MIN_REPORT_OPS

    def finish(self):
        return {name: stats.median(walls) for name, walls in self.walls.items()}


class SweepPath:
    """One step: the next cold `sweep` invocation of the plan, in turn. A
    pass's wall is the sum of each invocation's median, so one slow process
    spoils one invocation's sample rather than a whole pass."""

    def __init__(self, run):
        self.run = run
        self.walls = {workload: [] for workload, _, _ in run.plan}
        self.turn = 0
        self.rss = 0.0

    def setup(self):
        start = time.perf_counter()
        self.run.cli.sweep_pass(self.run.plan, self.run.reference)
        return time.perf_counter() - start

    def step(self):
        entry = self.run.plan[self.turn % len(self.run.plan)]
        self.turn += 1
        walls, peak = self.run.cli.sweep_pass([entry], self.run.reference)
        self.walls[entry[0]].append(walls[entry[0]])
        self.rss = max(self.rss, peak)

    def enough(self):
        return min(len(w) for w in self.walls.values()) >= MIN_SWEEP_PASSES

    def finish(self):
        return {"sweep_s": sum(stats.median(w) for w in self.walls.values())}


class ServePath:
    """A resident daemon and two persistent closed-loop clients. One step
    sends the next SERVE_BATCH requests of a fixed-length sequence."""

    def __init__(self, run, count):
        self.run = run
        self.sequence = run.sequence[:count]
        self.expected = run.expected_payloads()
        self.daemon = self.clients = None
        self.sent = 0
        self.rss = 0.0

    def setup(self):
        """Replaces the daemon: spawn, `listening` line, hot set once."""
        if self.daemon is not None:
            self.daemon.stop()
        self.daemon, took = self.run.serve_setup(self.expected)
        return took

    def step(self):
        if self.clients is None:
            self.clients = product.Clients(self.daemon, self.expected, self.run.ops)
        batch = self.sequence[self.sent:self.sent + SERVE_BATCH]
        self.clients.run(batch)
        self.sent += len(batch)

    def enough(self):
        return self.sent >= len(self.sequence)

    def finish(self):
        self.clients.close()
        self.rss = self.daemon.memory_mib()[1]
        self.daemon.stop()
        replies, wall = self.clients.replies, self.clients.wall
        latencies = [r.latency_s * 1000.0 for r in replies]
        p, tail, n = stats.tail_percentile(latencies)
        print(f"serve: {n} requests, p50 {stats.median(latencies):.2f} ms, "
              f"tail p{p} of n={n} = {tail:.2f} ms, {n / wall:.1f} req/s")
        return {"serve_p50_ms": stats.median(latencies), "serve_tail_ms": tail,
                "serve_rps": n / wall}


def run_end_to_end(run):
    """Measures all three product paths, so every run reports all eight
    end-to-end metrics. The workload's own path gets HOME_SHARE of
    --seconds and each other path half the rest. Steps of the three paths
    interleave, always advancing the path furthest behind its share, so
    every metric samples the whole run rather than one stretch of it."""
    seconds, home = run.args.seconds, run.args.workload
    shares = {name: HOME_SHARE if name == home else (1 - HOME_SHARE) / 2 for name in WORKLOADS}
    paths = {
        "report": ReportPath(run),
        "sweep": SweepPath(run),
        "serve": ServePath(run, serve_count(seconds, shares["serve"])),
    }
    setups = [paths[home].setup() for _ in range(SETUPS)]
    # One discarded setup of each other path: the first processes after a
    # quiet spell run up to 1.5x slower, which would land in the samples.
    for name, path in paths.items():
        if name != home:
            path.setup()

    spent = dict.fromkeys(paths, 0.0)

    def done(name):
        path = paths[name]
        # Serve sends a fixed request count; the others fill their share.
        return path.enough() and (name == "serve" or spent[name] >= shares[name] * seconds)

    while True:
        pending = [name for name in paths if not done(name)]
        if not pending:
            break
        name = min(pending, key=lambda n: spent[n] / shares[n])
        start = time.perf_counter()
        paths[name].step()
        spent[name] += time.perf_counter() - start

    metrics = {"setup_s": stats.median(setups)}
    for path in paths.values():
        metrics.update(path.finish())
    metrics["peak_rss_mib"] = paths[home].rss
    samples = {
        "setup_s": setups,
        **paths["report"].walls,
        "sweep_invocations_s": paths["sweep"].walls,
        "serve_ms": [r.latency_s * 1000.0 for r in paths["serve"].clients.replies],
        "spent_s": spent,
    }
    (run.outdir / "samples.json").write_text(json.dumps(samples) + "\n")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    os.chdir(ROOT)

    binary, tracer = build()
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    outdir = BENCH / "results" / (
        f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    )
    outdir.mkdir(parents=True, exist_ok=True)
    run = Run(args, binary, tracer, outdir)
    (outdir / "inputs.json").write_text(json.dumps(run.inputs_record(), indent=1) + "\n")

    if args.trace:
        metrics = traced.run_traced(run)
    else:
        metrics = run_end_to_end(run)
    for error in run.ops.errors:
        print(f"FAILED: {error}")
    result = {
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": metrics,
    }
    (outdir / "result.json").write_text(json.dumps(dict(result, env=env), indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
