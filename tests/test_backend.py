"""The exact slack LP kernel, called directly: its optimum against the
brute-force oracle, and its answers pinned over a fixed set of runs."""

import hashlib
import random
from fractions import Fraction

import pytest

from delgraphs import backend
from delgraphs.builder import build_graph
from delgraphs.instances import generate_bounded_instance, generate_instance
from delgraphs.planarity import find_boundary_degeneracy
from delgraphs.shape import HOMOTHET, MODES, TRANSLATE
from oracle_lp import oracle_feasible


def _random_rows(rng, dim, base):
    """Integer rows (a, b, sigma) with duplicated and opposed rows mixed
    in; opposed pairs pin slabs and equalities, the degenerate cases."""
    rows = []
    for _ in range(rng.randint(1, base)):
        a = tuple(rng.randint(-3, 3) for _ in range(dim))
        b = rng.randint(-4, 4)
        rows.append((a, b, rng.choice((0, 0, 1, 2))))
        kind = rng.random()
        if kind < 0.25:
            rows.append((a, b, rng.choice((0, 1))))
        elif kind < 0.6:
            rows.append((tuple(-c for c in a), -b + rng.randint(-1, 1),
                         rng.choice((0, 0, 1))))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("dim, base, count", [(2, 4, 400), (3, 3, 150)])
def test_optimum_matches_bruteforce_oracle(dim, base, count):
    rng = random.Random(4881 + dim)
    for _ in range(count):
        rows = _random_rows(rng, dim, base)
        ok, x, s = backend.solve_slack_lp(dim, rows)
        _, best = oracle_feasible(rows, dim)
        assert ok == (best is not None), rows
        if not ok:
            assert x is None and s is None
            continue
        assert s == best, rows
        assert 0 <= s <= 1
        for a, b, sigma in rows:
            assert sum(c * v for c, v in zip(a, x)) + sigma * s <= b, (rows, x, s)


# Between them these runs reach every branch of the kernel: no Phase I,
# Phase I infeasible, the auxiliary variable still basic after Phase I,
# and s basic when Phase II starts.  The boundary scan makes 3-D LPs with
# equality pairs, where the auxiliary variable most often stays basic.
PINNED_BUILDS = [generate_instance(seed, 6, 5, TRANSLATE, Fraction(1, 3))
                 for seed in (2, 13, 19, 22, 23)]
PINNED_BUILDS.append(generate_bounded_instance(116, 5, 6, TRANSLATE))
PINNED_BOUNDARY = generate_bounded_instance(7036, 6, 4, HOMOTHET)
PINNED_CALLS = 1322
PINNED_SHA256 = "0cf117b8c251541578a8d6677c72442a186c0b753a272a90fcf41636cc03b5cb"


def test_kernel_answers_are_pinned(monkeypatch):
    digest = hashlib.sha256()
    calls = []
    solve = backend.solve_slack_lp

    def recording(dim, rows):
        answer = solve(dim, rows)
        calls.append(None)
        digest.update(repr((dim, list(rows), answer)).encode())
        return answer

    monkeypatch.setattr(backend, "solve_slack_lp", recording)
    for inst in PINNED_BUILDS:
        for mode in MODES:
            build_graph(inst.points, inst.shape, mode)
    assert find_boundary_degeneracy(PINNED_BOUNDARY.points.points,
                                    PINNED_BOUNDARY.shape) == (1, 2, 3, 5)
    assert (len(calls), digest.hexdigest()) == (PINNED_CALLS, PINNED_SHA256)
