"""Seeded input generation: the only place the benchmark's seed is used.

The program under test receives only what these functions return. The same
seed always yields the same inputs (`tests/test_harness.py` pins that), and
every run writes them next to its results so a run can be replayed.
"""

import random

# Host-executable size windows per workload, bracketing `bench_sizes()` in
# crates/kernels. Each entry: (bench sizes, smallest, largest size that still
# executes and verifies functionally).
SWEEP_SIZES = {
    "stencil": ([64, 96, 128], 3, 192),
    "babelstream": ([1 << 20], 2, 1 << 20),
    "minibude": ([1, 4, 16], 1, 128),
    "hartree-fock": ([16, 24], 1, 48),
    "hartree-fock-sampled": ([96], 1, 1 << 16),
    "jacobi": ([8, 12, 16], 3, 32),
    "framestream": ([1 << 12, 1 << 14, 1 << 16], 2, 1 << 18),
}

# Relative jitter of each drawn size around its bench size. Small on purpose:
# a pass's cost grows with l^3 (stencil) or atoms^4 (Hartree-Fock), and the
# benchmark compares passes drawn from different seeds.
SIZE_JITTER = 0.03

# Workloads whose precision the seed draws. Stencil stays fp64: its fp32
# functional limit (l <= 40) sits below every bench size.
DRAWS_PRECISION = ("babelstream",)


def _jittered(rng, bench, lo, hi):
    low = max(lo, int(bench * (1 - SIZE_JITTER)))
    high = min(hi, max(low, int(round(bench * (1 + SIZE_JITTER)))))
    return rng.randint(low, high)


def sweep_plan(seed):
    """One `mojo-hpc sweep` invocation per registered workload.

    Returns a list of (workload, sizes, overrides). Sizes are drawn near each
    bench size; miniBUDE only accepts powers of two, so its draw picks the
    bench size or its double.
    """
    rng = random.Random(f"sweep:{seed}")
    plan = []
    for name, (bench, lo, hi) in SWEEP_SIZES.items():
        if name == "minibude":
            sizes = [b * rng.choice((1, 2)) for b in bench]
        else:
            sizes = [_jittered(rng, b, lo, hi) for b in bench]
        overrides = []
        if name in DRAWS_PRECISION:
            overrides.append("precision=" + rng.choice(("fp32", "fp64")))
        plan.append((name, sorted(set(sizes)), overrides))
    return plan


# The serve hot set: cheap registry experiments, the memo-heavy Table 4 and
# Table 5, and a few small sweep points. Fixed, not drawn.
HOT_SET = [
    {"cmd": "run", "experiments": ["table1"], "format": "json"},
    {"cmd": "run", "experiments": ["fig2"], "format": "json"},
    {"cmd": "run", "experiments": ["table3"], "format": "json"},
    {"cmd": "run", "experiments": ["fig5"], "format": "json"},
    {"cmd": "run", "experiments": ["table4"], "format": "json"},
    {"cmd": "run", "experiments": ["table5"], "format": "json"},
    {"cmd": "sweep", "workload": "stencil", "sizes": [16], "params": {}, "format": "json"},
    {"cmd": "sweep", "workload": "jacobi", "sizes": [8], "params": {}, "format": "json"},
    {"cmd": "sweep", "workload": "framestream", "sizes": [1024], "params": {}, "format": "json"},
    {"cmd": "sweep", "workload": "hartree-fock", "sizes": [6], "params": {}, "format": "json"},
]

# Share of requests drawn from the hot set; the rest are distinct sweep points.
HOT_SHARE = 0.7

# Distinct-miss families: (workload, size range, parameter choices). All of
# them compute in a few to ~30 ms, so a miss's cost barely depends on the
# draw; BabelStream (~150 ms even at n = 1024) is left out for that reason.
MISS_FAMILIES = [
    ("stencil", (8, 32), {"precision": ("fp32", "fp64")}),
    ("jacobi", (5, 14), {"iters": (100, 200, 400)}),
    ("framestream", (256, 8192), {"frames": (16, 32, 64)}),
    ("hartree-fock", (3, 12), {"ngauss": (1, 2, 3)}),
]


def request_key(request):
    """A stable identity for a request (used to keep misses distinct)."""
    params = ",".join(f"{k}={v}" for k, v in sorted(request.get("params", {}).items()))
    if request["cmd"] == "run":
        return "run:" + ",".join(request["experiments"])
    return f"sweep:{request['workload']}:{request['sizes']}:{params}"


def serve_sequence(seed, count):
    """`count` requests: about HOT_SHARE repeats from HOT_SET, the rest
    distinct single-point sweeps never seen before in the sequence.

    Returns a list of (request, is_hot).
    """
    rng = random.Random(f"serve:{seed}")
    used = {request_key(r) for r in HOT_SET}
    sequence = []
    for _ in range(count):
        if rng.random() < HOT_SHARE:
            sequence.append((rng.choice(HOT_SET), True))
            continue
        while True:
            workload, (lo, hi), choices = rng.choice(MISS_FAMILIES)
            params = {k: rng.choice(v) for k, v in choices.items()}
            request = {
                "cmd": "sweep",
                "workload": workload,
                "sizes": [rng.randint(lo, hi)],
                "params": params,
                "format": "json",
            }
            key = request_key(request)
            if key not in used:
                used.add(key)
                sequence.append((request, False))
                break
    return sequence


def distinct_keys(sequence):
    """Number of distinct serve cache keys a sequence touches (one per
    experiment of a `run`, one per sweep point)."""
    keys = set()
    for request, _ in sequence:
        if request["cmd"] == "run":
            keys.update("run:" + e for e in request["experiments"])
        else:
            keys.add(request_key(request))
    return len(keys)
