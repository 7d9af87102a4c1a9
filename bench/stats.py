"""Small helpers the benchmark reports through; tested on their own."""

from __future__ import annotations

import math
import time
from fractions import Fraction

MIN_BEYOND = 10


def percentile(values, q: float):
    """Nearest-rank q-quantile (0 < q < 1) of the samples, or None unless
    at least MIN_BEYOND samples lie beyond it: p50 needs 20 samples, p90
    needs 100."""
    xs = sorted(values)
    if not xs:
        return None
    rank = math.ceil(q * len(xs)) - 1
    if len(xs) - 1 - rank < MIN_BEYOND:
        return None
    return xs[rank]


def median_of_medians(groups):
    """Median over groups of each group's median: the typical time of a
    build that a run repeats, robust to one slow repetition.  None unless
    the pooled samples leave MIN_BEYOND beyond their median."""
    groups = [g for g in groups if g]
    if percentile([x for g in groups for x in g], 0.5) is None:
        return None
    return median([median(g) for g in groups])


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} out of range for attempted={attempted}")
    return failed / attempted


def compare_golden(what: str, expected, actual) -> list[str]:
    """Empty when the output equals its golden, else one line naming it."""
    if expected == actual:
        return []
    return [f"{what}: expected {expected!r}, got {actual!r}"]


def median(values):
    xs = sorted(values)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


# Time of speed_probe() on the 2-core machine the benchmark was tuned on,
# when it was quiet.  Dividing a time by speed_probe() / NOMINAL_PROBE_S
# takes out the machine's own drift, which there reached +-30% within
# minutes, far more than any bound could allow.
NOMINAL_PROBE_S = 0.008


def _probe_work():
    """Exact Gauss-Jordan on a fixed 6x6 rational system: the same kind of
    interpreter and Fraction work as the exact kernel, with none of its
    code."""
    n = 6
    m = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i)] for i in range(n)]
    for c in range(n):
        row = [v / m[c][c] for v in m[c]]
        m[c] = row
        for r in range(n):
            if r != c:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], row)]
    return m


def speed_probe() -> float:
    """Seconds for ten rounds of the fixed probe work."""
    t = time.perf_counter()
    for _ in range(10):
        _probe_work()
    return time.perf_counter() - t
