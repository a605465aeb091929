"""Order statistics and span arithmetic shared by the end-to-end and traced
runs. Pure functions, pinned by `tests/test_harness.py`."""

import math
import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """The highest whole percentile with at least `beyond` samples above it.

    Uses the nearest-rank definition: percentile p is the value at rank
    ceil(p/100 * n). Returns (p, value, n); p is None when fewer than
    `beyond` + 1 samples exist.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, ordered[rank - 1], n
    return None, None, n


def _union_length(intervals):
    total, end = 0, None
    for start, stop in sorted(intervals):
        if stop <= start:
            continue
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover. `spans` are dicts with `start_us`, `end_us` and
    `parent` (an index into `spans`, or -1). Returns a list aligned with
    `spans`."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = _union_length(
            (max(k["start_us"], span["start_us"]), min(k["end_us"], span["end_us"]))
            for k in kids
            if k["end_us"] > k["start_us"]
        )
        out.append(span["end_us"] - span["start_us"] - covered)
    return out


def self_time_by_name(spans):
    """Sum of self times per span name, in milliseconds."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + own / 1000.0
    return totals
