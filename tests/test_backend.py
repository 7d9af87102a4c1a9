"""The exact slack LP kernel, called directly: its optimum against the
brute-force oracle, its answers pinned over a fixed set of runs, the
search's certified opposed-pair exit for empty cells (a proposal may
change the speed, never an answer), the reduced cells the search hands
the kernel and the whole leaf the witness solve gets, exact Phase I on
the empty LPs no pair decides, extreme data against the oracle,
witnesses that do not depend on the points the DFS probes return, and
the fraction-free pivots against a dense ``Fraction`` reference."""

import functools
import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from delgraphs import backend, builder, planarity, region, shape
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


def _clash(rows):
    """The opposed-pair table's clash over the rows as constraints; zero
    rows are left out, as no cell holds one."""
    return region.opposed_clash({}, [region.constraint(a, b, sigma > 0)
                                     for a, b, sigma in rows if any(a)])


def _answer(answer):
    """A kernel answer (ok, x, s, den), numerators over den, as the values
    it stands for: (ok, x as ``Fraction``s, s), (False, None, None) when
    empty."""
    ok, x, s, den = answer
    if not ok:
        return False, None, None
    return True, _fractions((x, den)), Fraction(s, den)


def _fractions(x):
    """A point (numerators, den) as ``Fraction``s."""
    nums, den = x
    return tuple(Fraction(v, den) for v in nums)


def _solve(dim, rows):
    return _answer(backend.solve_slack_lp(dim, rows))


@pytest.fixture
def solve():
    """``solve_slack_lp``, the simplex alone, with the exit that decides
    the rows in the cell search: "pair" when the opposed-pair table finds
    a clash ``farkas_certifies`` accepts, otherwise "exact", the kernel."""
    def run(dim, rows):
        cert = _clash(rows)
        exit = "pair" if cert and backend.farkas_certifies(*cert) else "exact"
        return _solve(dim, rows), exit
    return run


@pytest.mark.parametrize("dim, base, count", [(2, 4, 400), (3, 3, 150)])
def test_optimum_matches_bruteforce_oracle(dim, base, count):
    rng = random.Random(4881 + dim)
    for _ in range(count):
        rows = _random_rows(rng, dim, base)
        ok, x, s = _solve(dim, rows)
        _, best = oracle_feasible(rows, dim)
        assert ok == (best is not None), rows
        if not ok:
            assert x is None and s is None
            continue
        assert s == best, rows
        assert 0 <= s <= 1
        for a, b, sigma in rows:
            assert sum(c * v for c, v in zip(a, x)) + sigma * s <= b, (rows, x, s)


# Between them these runs reach every branch of the search and the
# kernel: the pair exit, and the four kernel branches that ``_run_pinned``
# counts: exact Phase I ending infeasible (the empty LPs no opposed pair
# decides, whose Farkas support has three or more rows), no Phase I, the
# auxiliary variable still basic after Phase I, and s basic when Phase II
# starts.  The boundary scan makes 3-D LPs with equality pairs.
PINNED_BUILDS = [generate_instance(seed, 6, 5, TRANSLATE, Fraction(1, 3))
                 for seed in (2, 13, 19, 22, 23)]
PINNED_BUILDS.append(generate_bounded_instance(116, 5, 6, TRANSLATE))
PINNED_BOUNDARY = generate_bounded_instance(7036, 6, 4, HOMOTHET)
# (calls, SHA-256 of every kernel call and answer) of the builds and of
# the boundary scan, pinned apart: a change to one search shows in one pin
PINNED = {
    "builds": (399, "6bef7bed69f92daa0a129f923b8e461edd9b40b36e987945b77ef91dfee4e5b3"),
    "boundary": (7, "3b12e8d58fc636ca1f47212c9e771f1f0a84b3608f5984b0ac05c7b8eb97d1ef"),
}
# The builds pin when no clash is certified: every cell then reaches the
# kernel, as the table's rows entered up to the clash, and the simplex
# finds the 905 cells the pair exit empties empty.  PINNED["builds"] is
# this log with those 905 calls left out.
UNPRUNED = {**PINNED, "builds": (
    1304, "47e6b02d78ded1b27200a98e97f8c8fd77cd403425ec0b481f39665f7d482bde")}


KERNEL_BRANCHES = ("Phase I empty", "no Phase I", "aux basic", "s basic")


def _run_pinned(monkeypatch):
    """({pin: (calls, SHA-256)}, certified exits, proposed clashes, how
    often each of ``KERNEL_BRANCHES`` is taken, the builds' edges) over the
    pinned builds and boundary scan.  Every certificate the search checks
    is accepted iff it is one."""
    log = []
    certified = []
    pairs = []
    branches = dict.fromkeys(KERNEL_BRANCHES, 0)
    aux = []  # the id Phase I gives aux, while it runs
    edges = []
    solve = backend.solve_slack_lp
    check = builder.farkas_certifies
    pair = builder.opposed_clash
    phase_one = backend._Dictionary.phase_one
    phase_two = backend._Dictionary.phase_two
    bland = backend._Dictionary.bland

    def recording(dim, rows):
        answer = solve(dim, rows)
        log.append(repr((dim, list(rows), _answer(answer))))
        return answer

    def pin():
        calls = len(log)
        digest = hashlib.sha256("".join(log).encode()).hexdigest()
        log.clear()
        return calls, digest

    def counting(rows, y):
        ok = check(rows, y)
        assert ok == (len(y) == len(rows) > 0 and _is_certificate(rows, y))
        if ok:
            certified.append(y)
        return ok

    def pairing(table, piece):
        cert = pair(table, piece)
        if cert:
            pairs.append(cert)
        return cert

    def phasing(lp):
        branches["no Phase I"] += min(lp.cols[0]) >= 0
        aux.append(len(lp.nonbasic) + len(lp.cols[0]))
        z = phase_one(lp)
        aux.pop()
        branches["Phase I empty"] += z < 0
        return z

    def optimizing(lp):
        z = bland(lp)
        branches["aux basic"] += bool(aux) and z >= 0 and aux[-1] in lp.basic
        return z

    def phasing_two(lp):
        branches["s basic"] += len(lp.nonbasic) - 1 in lp.basic
        return phase_two(lp)

    monkeypatch.setattr(backend, "solve_slack_lp", recording)
    monkeypatch.setattr(builder, "farkas_certifies", counting)
    monkeypatch.setattr(builder, "opposed_clash", pairing)
    monkeypatch.setattr(backend._Dictionary, "phase_one", phasing)
    monkeypatch.setattr(backend._Dictionary, "phase_two", phasing_two)
    monkeypatch.setattr(backend._Dictionary, "bland", optimizing)
    for inst in PINNED_BUILDS:
        for mode in MODES:
            edges.append(build_graph(inst.points, inst.shape, mode).edges)
    pins = {"builds": pin()}
    assert find_boundary_degeneracy(PINNED_BOUNDARY.points.points,
                                    PINNED_BOUNDARY.shape) == (1, 2, 3, 5)
    pins["boundary"] = pin()
    return pins, len(certified), len(pairs), branches, edges


def test_kernel_answers_are_pinned(monkeypatch):
    pins, certified, pairs, branches, _ = _run_pinned(monkeypatch)
    assert pins == PINNED
    assert certified == pairs > 0  # every proposed pair here is certified
    # exact Phase I decides the empty LPs no pair does, and the runs reach
    # every other kernel branch
    assert all(branches[name] > 0 for name in KERNEL_BRANCHES), branches


def _feasible_subset(rows):
    return [i for i, (_, b, _) in enumerate(rows) if b >= 0]  # x = 0, s = 0


def _ones(rows, ids):
    return [rows[i] for i in ids], (1,) * len(ids)


def _true_rows(wrong_y):
    """The true clash's rows with y replaced by ``wrong_y(y)``."""
    def propose(rows, cert):
        return cert and (cert[0], wrong_y(cert[1]))
    return propose


# Wrong proposals over the rows of the table and the piece: y all ones
# over no row, every row, rows that x = 0 satisfies or random rows; the
# true clash with y negated or with one weight zeroed.  None is a
# certificate on the pinned runs.
WRONG_PROPOSERS = {
    "empty": lambda rows, cert: _ones(rows, ()),
    "all-rows": lambda rows, cert: _ones(rows, range(len(rows))),
    "feasible-subset": lambda rows, cert: _ones(rows, _feasible_subset(rows)),
    "shuffled-subset": lambda rows, cert: _ones(rows, random.Random(len(rows)).sample(
        range(len(rows)), min(len(rows[0][0]) + 1, len(rows)))),
    "negated-y": _true_rows(lambda y: tuple(-v for v in y)),
    "zeroed-weight": _true_rows(lambda y: (0, *y[1:])),
}


@pytest.mark.parametrize("name", sorted(WRONG_PROPOSERS))
def test_pair_proposal_changes_no_answer(monkeypatch, name):
    """The search's clash test enters the piece as usual but proposes a
    wrong certificate: the check rejects it, the kernel decides the cell,
    and the edges and witnesses stay the same."""
    wrong = WRONG_PROPOSERS[name]

    def proposing(table, piece):
        cert = region.opposed_clash(table, piece)
        rows = [c.row for c in piece] + [c.row for c in table.values()]
        return wrong(rows, cert)

    monkeypatch.setattr(builder, "opposed_clash", proposing)
    pins, certified, pairs, _, edges = _run_pinned(monkeypatch)
    assert certified == 0 < pairs  # the check rejects every one
    assert pins == UNPRUNED  # so every cell reaches the kernel
    assert edges == _witness_edges()[:len(edges)]


def _normals(rows):
    """The distinct primitive normals of integer rows."""
    return {tuple(c // gcd(*a) for c in a) for a, _, _ in rows}


def _is_whole(leaf, cell, levels):
    """Whether ``leaf`` is ``cell`` followed by one piece of each level."""
    pos = len(cell)
    for level in levels:
        piece = next((p for p in level if leaf[pos:pos + len(p)] == p), None)
        if piece is None:
            return False
        pos += len(piece)
    return leaf[:len(cell)] == cell and pos == len(leaf)


def test_kernel_sees_reduced_cells_and_the_witness_solve_the_whole_leaf(monkeypatch):
    """On the pinned builds and boundary scan, the base and probe solves
    inside ``first_leaf`` hand the kernel one row per primitive normal, at
    most 2k + 1 rows (2k in translate mode); every leaf the search returns
    is whole, and every emitted witness is the optimizer of that leaf."""
    solve, search = backend.solve_slack_lp, builder.first_leaf
    searching, leaves, sizes, dropped = [], [], [], []
    most = witnesses = 0

    def kernel(dim, rows):
        if searching:
            assert len(_normals(rows)) == len(rows) <= most, rows
            sizes.append(len(rows))
        return solve(dim, rows)

    def leaf_of(dim, cell, levels):
        searching.append(cell)
        leaf = search(dim, cell, levels)
        searching.pop()
        if leaf is not None:
            assert _is_whole(leaf, cell, levels)
            rows = [c.row for c in leaf]
            dropped.append(len(rows) - len(_normals(rows)))
            leaves.append((dim, leaf))
        return leaf

    monkeypatch.setattr(backend, "solve_slack_lp", kernel)
    monkeypatch.setattr(builder, "first_leaf", leaf_of)
    monkeypatch.setattr(planarity, "first_leaf", leaf_of)
    for inst in PINNED_BUILDS:
        for mode in MODES:
            most = 2 * len(inst.shape.halfplanes) + (mode == HOMOTHET)
            leaves.clear()
            edges = build_graph(inst.points, inst.shape, mode).edges
            assert len(edges) == len(leaves)
            witnesses += len(edges)
            for edge, (dim, leaf) in zip(edges, leaves):
                assert edge.witness == shape.placement_at(region.feasible(dim, leaf))
    most = 2 * len(PINNED_BOUNDARY.shape.halfplanes) + 1
    assert find_boundary_degeneracy(PINNED_BOUNDARY.points.points,
                                    PINNED_BOUNDARY.shape) == (1, 2, 3, 5)
    # every kernel call of the pinned runs but the witness solves
    assert len(sizes) == PINNED["builds"][0] + PINNED["boundary"][0] - witnesses
    assert max(dropped) > 0  # the leaves hold rows their reduced cells drop


def _contradictory_pairs(rows):
    """Every support of one zero row 0 <= b < 0 or of two rows a.x <= b1,
    -t*a.x <= b2 (t > 0) with t*b1 + b2 < 0, found by brute force."""
    found = [[i] for i, (a, b, _) in enumerate(rows) if not any(a) and b < 0]
    for (i, (a1, b1, _)), (j, (a2, b2, _)) in combinations(enumerate(rows), 2):
        if (dot := sum(u * v for u, v in zip(a1, a2))) < 0:
            t = Fraction(-dot, sum(u * u for u in a1))  # a2 = -t * a1 if parallel
            if all(v == -t * u for u, v in zip(a1, a2)) and t * b1 + b2 < 0:
                found.append([i, j])
    return found


@pytest.mark.parametrize("dim, base, count", [(2, 4, 400), (3, 3, 150)])
def test_opposed_pair_finds_every_contradictory_pair(dim, base, count):
    """On the oracle test's LPs without their zero rows, entered into an
    empty table: a clash exactly when a brute-force scan finds a
    support, the clash's rows those of one support."""
    rng = random.Random(4881 + dim)
    found = 0
    for _ in range(count):
        rows = [row for row in _random_rows(rng, dim, base) if any(row[0])]
        cert = _clash(rows)
        if not (pairs := _contradictory_pairs(rows)):
            assert cert is None, rows
            continue
        found += 1
        clash_rows, y = cert
        assert sorted(r[:2] for r in clash_rows) in [
            sorted(rows[i][:2] for i in pair) for pair in pairs]
        assert _is_certificate(clash_rows, y), rows
        assert backend.farkas_certifies(*cert), rows
    assert found > 20


def test_zero_normal_rows():
    """A zero row 0 <= b, which no cell holds but the kernel takes: with
    b < 0 Phase I finds it empty, else it is no constraint."""
    rows = [((0, 0), -1, 0)]
    assert backend.farkas_certifies(rows, (1,))
    assert _solve(2, rows) == (False, None, None)
    rows = [((0, 0), 0, 1)]
    assert _solve(2, rows) == (True, (0, 0), 0)


def _zero_slack(dim, cs):
    """The optimizer of the closed cell, which asks no slack and so may
    sit on an open row's boundary, where it lies in ``cs``; otherwise the
    optimizer of the reversed rows."""
    x = region.feasible(dim, tuple(region.halfspace(*c.row[:2], False, c.scale) for c in cs))
    return x if region.contains_point(cs, x) else region.feasible(dim, cs[::-1])


# Other points of the same cell: Bland's rule on the reversed rows may
# end on another optimal vertex, and the closed cell's optimizer on the
# boundary of the cell's closure.
OTHER_POINTS = {
    "reversed-rows": lambda dim, cs: region.feasible(dim, cs[::-1]),
    "zero-slack": _zero_slack,
}
WITNESS_BUILDS = PINNED_BUILDS + [generate_bounded_instance(116, 16, 6, TRANSLATE)]


@functools.cache
def _witness_edges():
    return [build_graph(inst.points, inst.shape, mode).edges
            for inst in WITNESS_BUILDS for mode in MODES]


@pytest.mark.parametrize("name", sorted(OTHER_POINTS))
def test_other_points_change_no_witness(monkeypatch, name):
    """Each point a DFS probe returns, hint or optimizer, is replaced by
    another point of the same cell: the witnesses stay the same."""
    want = _witness_edges()
    probe = builder.feasible_with_hint
    seen = []

    def replaced(dim, cs, piece, hint):
        point = probe(dim, cs, piece, hint)
        if point is None:
            return None
        other = OTHER_POINTS[name](dim, cs)
        assert region.contains_point(cs, other), cs
        seen.append(_fractions(point) != _fractions(other))
        return other

    monkeypatch.setattr(builder, "feasible_with_hint", replaced)
    assert [build_graph(inst.points, inst.shape, mode).edges
            for inst in WITNESS_BUILDS for mode in MODES] == want
    assert sum(seen) > 10


def _dense_pivot(lp, r, e):
    """The reference pivot: it updates every entry of every column, those
    whose pivot-row entry is zero included, and divides by the pivot."""
    cols = lp.cols
    f = cols[e + 1][:]
    inv = Fraction(1) / f[r]
    for k, col in enumerate(cols):
        if k == e + 1:
            col[:] = [-g * inv for g in f]
            col[r] = inv
        else:
            v = col[r] * inv  # the pivot row's entry, divided by the pivot
            col[:] = [o - g * v for o, g in zip(col, f)]
            col[r] = v
    lp.nonbasic[e], lp.basic[r] = lp.basic[r], lp.nonbasic[e]


class _Dense(backend._Dictionary):
    """The reference dictionary: exact ``Fraction`` values (``den`` stays
    1) updated by the dense pivot, under the same Bland loop."""

    pivot = _dense_pivot

    def __init__(self, dim, rows):
        super().__init__(dim, rows)
        self.cols = [[Fraction(v) for v in col] for col in self.cols]


def _values(lp):
    """Every entry as a value, numerator / ``den``, column by column (the
    rhs first), with the bases."""
    return [[Fraction(v) / lp.den for v in col] for col in lp.cols], lp.basic, lp.nonbasic


def _row(lp, r):
    """Row r's entries over the nonbasic slots."""
    return [col[r] for col in lp.cols[1:]]


def test_fraction_free_pivot_matches_the_dense_one():
    """Integer numerators over ``den`` as values, against the dense
    ``Fraction`` reference."""
    rng = random.Random(4881)
    pivots = zeros = negative = 0
    for _ in range(120):
        dim = rng.choice((2, 3))
        rows = _random_rows(rng, dim, 4)
        obj = [rng.randint(-3, 3) for _ in range(2 * dim + 1)]
        lp, dense = backend._Dictionary(dim, rows), _Dense(dim, rows)
        for d in (lp, dense):  # an objective row
            d.cols[0].append(0)
            for c, col in zip(obj, d.cols[1:]):
                col.append(d.den * c)
        for _ in range(6):
            r = rng.randrange(len(lp.cols[0]) - 1)
            row = _row(lp, r)
            slots = [j for j, v in enumerate(row) if v != 0]
            if not slots:
                continue
            zeros += len(row) - len(slots)
            e = rng.choice(slots)
            negative += row[e] < 0
            lp.pivot(r, e)
            _dense_pivot(dense, r, e)
            pivots += 1
            assert lp.den > 0 and _values(lp) == _values(dense)
    assert pivots > 500 and zeros > pivots  # the columns only scaled or kept are exercised
    assert negative > 100  # and pivots on p < 0, whose sign the same pass applies


def test_phases_match_the_dense_reference_after_pivots():
    """Phase I and Phase II from a dictionary already pivoted, so the aux
    column, the aux objective row and the s row go in while ``den`` != 1:
    the same pivots, values and optima as the dense ``Fraction`` one."""
    rng = random.Random(16)
    appended = {"aux": 0, "s": 0}
    for _ in range(200):
        dim = rng.choice((2, 3))
        rows = _random_rows(rng, dim, 4)
        lp, dense = backend._Dictionary(dim, rows), _Dense(dim, rows)
        for _ in range(rng.randint(1, 3)):
            r = rng.randrange(len(lp.cols[0]))
            if slots := [j for j, v in enumerate(_row(lp, r)) if v != 0]:
                e = rng.choice(slots)
                lp.pivot(r, e)
                dense.pivot(r, e)
        appended["aux"] += lp.den != 1 and min(lp.cols[0]) < 0
        z = lp.phase_one()
        assert Fraction(z, lp.den) == dense.phase_one() and _values(lp) == _values(dense)
        if z < 0:
            continue
        appended["s"] += lp.den != 1
        s = lp.phase_two()
        assert Fraction(s, lp.den) == dense.phase_two(), rows
        assert lp.den > 0 and _values(lp) == _values(dense)
    assert min(appended.values()) > 20


def _dense_solve(dim, rows):
    """``solve_slack_lp`` on the dense reference, as ``_answer`` reads it."""
    lp = _Dense(dim, rows)
    if lp.phase_one() < 0:
        return False, None, None
    s = lp.phase_two()
    val = dict(zip(lp.basic, lp.cols[0]))
    return True, tuple(val.get(j, 0) - val.get(dim + j, 0) for j in range(dim)), s


def test_kernel_matches_the_dense_reference_on_the_search_lps(monkeypatch):
    """Every kernel call of both builds of a bounded instance and of its
    boundary scan, the 10- to 30-row witness LPs that ``_random_rows``
    never makes among them: the answer of the dense ``Fraction``
    reference's Bland solve."""
    calls = []
    solve = backend.solve_slack_lp

    def recording(dim, rows):
        answer = solve(dim, rows)
        calls.append((dim, list(rows), answer))
        return answer

    monkeypatch.setattr(backend, "solve_slack_lp", recording)
    inst = generate_bounded_instance(116, 8, 6, TRANSLATE)
    for mode in MODES:
        build_graph(inst.points, inst.shape, mode)
    assert find_boundary_degeneracy(inst.points.points, inst.shape) is None
    for dim, rows, answer in calls:
        assert _answer(answer) == _dense_solve(dim, rows), (dim, rows)
    assert {dim for dim, _, _ in calls} == {2, 3}
    assert sum(len(rows) >= 18 for _, rows, _ in calls) > 10
    assert any(not ok for _, _, (ok, *_) in calls)


def test_ratio_test_is_exact_beyond_float_precision():
    """Phase II's first ratio test on s sees row 0 at (K + 1) / K and the
    cap row s <= 1 at 1.  As floats both read 1.0, and the tie would go to
    row 0 (the lower basic id): another pivot, and another optimizer."""
    K = 2 ** 60
    for rows in ([((1, 0), K + 1, K), ((0, 1), 1, 0)],
                 [((K, -K), K + 1, K), ((-1, 0), 0, 0), ((0, 1), 0, 0)]):
        assert _solve(2, rows) == (True, (0, 0), 1)
        _assert_matches_oracle(2, rows)
    # a true tie with numerators above 2**53 goes to the lowest basic id
    rows = [((1, 0), K + 1, K + 1), ((0, 1), K - 1, K - 1), ((-1, -1), 0, 0)]
    assert _solve(2, rows) == (True, (0, 0), 1)
    # Phase I's first pivot makes aux, the highest id, basic in row 0, and
    # its next ratio test ties row 0 with row 1: keeping the first tied
    # row instead of the lowest basic id ends on another vertex
    rows = [((2 * K, K), -2 * K, K), ((K, 0), -K, 0)]
    assert _solve(2, rows) == (True, (-1, -1), 1)
    _assert_matches_oracle(2, rows)


@pytest.mark.parametrize("digits", [20, 60, 400])
def test_huge_data_is_decided_by_the_integer_dictionary(digits):
    """Seeded LPs with data near 10**digits, nearly parallel rows mixed
    in: the verdict, the optimal s and the cell membership of x against
    the brute-force oracle."""
    rng = random.Random(digits)
    big = 10 ** digits
    verdicts = []
    for _ in range(40):
        dim = rng.choice((2, 2, 3))
        rows = [(tuple(c * big + rng.randint(-9, 9) for c in a), b * big + rng.randint(-9, 9), sigma)
                for a, b, sigma in _random_rows(rng, dim, 3)]
        ok, x, s = _solve(dim, rows)
        nonempty, best = oracle_feasible(rows, dim)
        assert ok == (best is not None) and s == best, rows
        strict = any(sigma for _, _, sigma in rows)
        cell = ok and (s > 0 or not strict)
        assert cell == nonempty, rows
        for a, b, sigma in rows if ok else ():
            v = sum(c * xi for c, xi in zip(a, x))
            assert v + sigma * s <= b and (v < b or not cell or not sigma), rows
        verdicts.append(cell)
    assert 5 < sum(verdicts) < 35


def _is_certificate(rows, y):
    dim = len(rows[0][0])
    return (min(y) >= 0 and max(y) > 0
            and all(sum(v * a[j] for v, (a, _, _) in zip(y, rows)) == 0 for j in range(dim))
            and sum(v * b for v, (_, b, _) in zip(y, rows)) < 0)


# expected: a certificate y over every row, and the exit that decides
# the LP: two opposed rows and the rank-deficient rows leave by the pair
# exit, a triangle or a simplex by exact Phase I
RANK_DEFICIENT = [((1, 0), -1, 0), ((-1, 0), 0, 0), ((2, 0), -3, 0)]


@pytest.mark.parametrize("rows, expected", [
    ([((1, 0), -1, 0), ((-1, 0), 0, 1)], ((1, 1), "pair")),  # opposed: x <= -1, x >= 0
    ([((2, 0), -1, 0), ((-3, 0), 0, 0)], ((3, 2), "pair")),
    ([((1, 0), 0, 1), ((0, 1), 0, 0), ((-1, -1), -1, 2)], ((1, 1, 1), "exact")),
    ([((1, 0, 0), 0, 0), ((0, 1, 0), 0, 1), ((0, 0, 1), 0, 0),
      ((-1, -1, -1), -1, 1)], ((1, 1, 1, 1), "exact")),
    # three parallel rows: y is not unique, (1, 1, 0) is one
    (RANK_DEFICIENT, ((1, 1, 0), "pair")),
])
def test_farkas_certifies_accepts_a_true_certificate(solve, rows, expected):
    """``farkas_certifies`` accepts a known certificate."""
    y, exit = expected
    assert _is_certificate(rows, y)
    assert backend.farkas_certifies(rows, y)
    assert solve(len(rows[0][0]), rows) == ((False, None, None), exit)


# ids name the rows case alone, rows0 to rows5
@pytest.mark.parametrize("rows, y", [
    # y.A = 0 and y.b < 0, but a weight is negative
    ([((1, 0), -1, 0), ((0, 1), -1, 0), ((1, 1), 5, 0)], (1, 1, -1)),
    # independent rows: y.A != 0
    ([((1, 0), -1, 0), ((0, 1), -1, 0)], (1, 1)),
    ([((1, 0, 0), -1, 0), ((0, 1, 0), -1, 0), ((0, 0, 1), -1, 0), ((1, 1, 0), -1, 0)],
     (1, 1, 1, 1)),
    # y.b >= 0: a slab and a plane, both nonempty
    ([((1, 0), 1, 0), ((-1, 0), 0, 0)], (1, 1)),
    ([((1, 0), 0, 0), ((-1, 0), 0, 1)], (1, 1)),
    # y = 0 on infeasible rows: y.b = 0
    (RANK_DEFICIENT, (0, 0, 0)),
], ids=[f"rows{k}" for k in range(6)])
def test_farkas_certifies_rejects_a_non_certificate(rows, y):
    """``farkas_certifies`` rejects a y that is not a certificate."""
    assert not _is_certificate(rows, y)
    assert not backend.farkas_certifies(rows, y)


def test_farkas_certifies_matches_the_definition():
    """Seeded random y over random supports of the oracle test's rows
    against ``_is_certificate``; on half the rows with an opposed pair,
    its certificate scaled, and half of those with one weight moved by 1."""
    rng = random.Random(20)
    verdicts = []
    for _ in range(600):
        dim = rng.choice((2, 3))
        rows = _random_rows(rng, dim, 4)
        ids = rng.sample(range(len(rows)), rng.randint(1, min(3, len(rows))))
        y = [rng.choice((-1, 0, 1, 1, 2, 3)) for _ in ids]
        cert = _clash(rows)
        rows = [rows[i] for i in ids]
        if cert and rng.random() < 0.5:
            k = rng.randint(1, 3)
            rows, y = cert[0], [k * v for v in cert[1]]
            if rng.random() < 0.5:
                y[rng.randrange(len(y))] += rng.choice((-1, 1))
        want = _is_certificate(rows, y)
        assert backend.farkas_certifies(rows, y) == want, (rows, y)
        verdicts.append(want)
    assert sum(verdicts) > 30 and verdicts.count(False) > 300


def test_opposed_pair_takes_the_tightest_pair(solve):
    """The rank-deficient rows above, x <= -1, x >= 0 and 2x <= -3: the
    table keeps 2x <= -3 for the normal (1, 0), so x >= 0 clashes with
    that tightest row."""
    low, nonnegative, lower = (region.constraint(a, b) for a, b, _ in RANK_DEFICIENT)
    table = {}
    assert region.opposed_clash(table, (low, lower)) is None
    assert table[(1, 0)] is lower
    assert region.opposed_clash(table, (nonnegative,)) == (
        (nonnegative.row, lower.row), (2, 1))
    assert solve(2, RANK_DEFICIENT) == ((False, None, None), "pair")


def _assert_matches_oracle(dim, rows):
    ok, x, s = _solve(dim, rows)
    _, best = oracle_feasible(rows, dim)
    assert ok == (best is not None) and s == best


# Extreme data, decided by the integer dictionary alone and checked
# against the oracle: entries beyond float range, products of entries
# beyond it, and rows that are parallel only after rounding to floats.
H = 10 ** 200  # products of two such entries overflow a float to inf
BIG = 10 ** 400  # float() of this raises OverflowError


@pytest.mark.parametrize("dim, rows", [
    (2, [((BIG, 0), 0, 0), ((0, BIG), 0, 0), ((-BIG, -BIG), -BIG, 0)]),  # x, y <= 0, x + y >= 1
    (2, [((BIG, 0), BIG, 0), ((-BIG, 1), 0, 1)]),
])
def test_data_beyond_float_range_is_decided_by_the_kernel(solve, dim, rows):
    assert solve(dim, rows)[1] == "exact"
    _assert_matches_oracle(dim, rows)


@pytest.mark.parametrize("dim, rows", [
    (2, [((-1, H), -1, 0), ((0, 1), -1, 1), ((2 * H, H), -1, 1)]),  # empty
    (2, [((-H, 2), -1, 0), ((-1, 2 * H), -2, 0)]),  # nonempty
])
def test_products_beyond_float_range_match_the_oracle(dim, rows):
    _assert_matches_oracle(dim, rows)


def test_oracle_box_follows_the_data():
    # Every point of this LP has x_0 >= H > 2**200: a fixed box of 2**200
    # cut them all away and made the oracle call it infeasible.
    rows = [((-1, H), H, 1), ((1, -H), H, 0), ((-1, 0), -H, 1), ((-H, 1), -H, 0)]
    assert _solve(2, rows) == (True, (H + 1, Fraction(1, H)), 1)
    assert oracle_feasible(rows, 2) == (True, 1)


def test_nearly_parallel_rows_are_no_clash_and_match_the_oracle():
    # 10**17 and 10**17 + 1 round to the same float, so as floats these
    # rows are opposed and parallel; exactly they are independent.
    big = 10 ** 17
    rows = [((big, big + 1), -1, 0), ((-big - 1, -big - 2), -1, 0)]
    assert _clash(rows) is None
    # the y that cancels the first column leaves 1 in the second
    assert not backend.farkas_certifies(rows, (big + 1, big))
    _assert_matches_oracle(2, rows)
    # Rounded to floats, these rows' ratio test finds no pivot row (an
    # unbounded claim); the integer dictionary finds one.
    rows = [((-100000001, 300000001, -1), -3, 0), ((-100000001, 299999999, -2), 1, 0),
            ((-100000001, 300000000, 1), -2, 1), ((-100000000, 300000002, -1), -3, 1),
            ((99999998, 300000001, 1), 0, 0), ((-100000002, 299999999, 2), 4, 1),
            ((-99999999, 300000000, 1), -3, 0), ((-100000002, -300000002, 1), 4, 0)]
    _assert_matches_oracle(3, rows)
