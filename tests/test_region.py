import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delgraphs import backend
from delgraphs.geometry import clear_denominators
from delgraphs.region import (complement, constraint, contains_point, feasible,
                              feasible_with_hint, negate, opposed_clash)
from oracle_lp import oracle_feasible

F = Fraction


def _fractions(x):
    """A point (numerators, den) as ``Fraction``s; None stays None."""
    return x and tuple(F(v, x[1]) for v in x[0])


def feasible2(*cons):
    return _fractions(feasible(2, tuple(cons)))


def holds(c, x) -> bool:
    """Whether the rational point x satisfies constraint c, decided on
    its integer row."""
    return contains_point((c,), clear_denominators(x))


def holds_rational(a, b, strict, x) -> bool:
    """a.x <= b (< b when strict) in ``Fraction``s, the reference."""
    v = sum(ai * xi for ai, xi in zip(a, x))
    return v < b if strict else v <= b


def test_feasible_contradictory_bounds_empty():
    # x >= 0 and x <= -1
    assert feasible2(constraint((-1, 0), 0), constraint((1, 0), -1)) is None


def test_feasible_open_strip_witness_and_slack():
    # {x > 0, x < 1, y >= 0, y <= 0}: oracle-derived optimum of the slack
    # program is s = 1/2 at the unique point (1/2, 0).
    cons = [((F(-1), F(0)), F(0), True), ((F(1), F(0)), F(1), True),
            ((F(0), F(-1)), F(0), False), ((F(0), F(1)), F(0), False)]
    ora_ok, ora_slack = oracle_feasible(cons)
    assert ora_ok and ora_slack == F(1, 2)
    assert feasible2(*(constraint(a, b, s) for a, b, s in cons)) \
        == (F(1, 2), F(0))


def test_feasible_pinned_to_open_boundary_empty():
    # x <= 0, x >= 0 force x = 0 but -x < 0 requires x > 0
    assert feasible2(constraint((1, 0), 0), constraint((-1, 0), 0),
                     constraint((-1, 0), 0, True)) is None


def test_feasible_no_constraints_whole_space():
    assert feasible2() == (F(0), F(0))


def test_feasible_unbounded_region_with_strict():
    x = feasible2(constraint((0, -1), -3, True))  # y > 3
    assert x is not None and x[1] > 3


def test_feasible_equality_pair_line():
    # y == 2 as two opposing non-strict constraints
    x = feasible2(constraint((0, 1), 2), constraint((0, -1), -2))
    assert x is not None and x[1] == 2


def test_witness_round_trip_randomized():
    rng = random.Random(4242)
    for _ in range(300):
        cons = []
        for _ in range(rng.randint(1, 6)):
            a = (F(rng.randint(-4, 4), rng.randint(1, 3)),
                 F(rng.randint(-4, 4), rng.randint(1, 3)))
            if not any(a):
                a = (F(1), F(0))
            cons.append((a, F(rng.randint(-6, 6), rng.randint(1, 4)), rng.random() < 0.4))
        x = feasible2(*(constraint(*c) for c in cons))
        if x is not None:
            for c in cons:
                assert holds_rational(*c, x)


def test_feasible_matches_bruteforce_oracle():
    rng = random.Random(777)
    for _ in range(400):
        cons = []
        for _ in range(rng.randint(1, 6)):
            a = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
            if not any(a):
                a = (F(0), F(1))
            cons.append((a, F(rng.randint(-7, 7), rng.randint(1, 2)),
                         rng.random() < 0.5))
        x = feasible2(*(constraint(a, b, s) for a, b, s in cons))
        ora, _ = oracle_feasible(cons)
        assert (x is not None) == ora, cons


frac = st.fractions(min_value=-6, max_value=6, max_denominator=6)
halfplanes = st.tuples(st.tuples(frac, frac).filter(any), frac, st.booleans())


def _point_maybe_on_a_row(rows, u, v, data):
    """(u, v), or a point on the boundary line a.x == b of one of ``rows``,
    where the strict/closed distinction decides membership."""
    if rows and data.draw(st.booleans()):
        (a0, a1), b, _ = rows[data.draw(st.integers(0, len(rows) - 1))]
        return ((b - a1 * v) / a0, v) if a0 else (u, (b - a0 * u) / a1)
    return u, v


@given(st.lists(halfplanes, max_size=5), frac, frac, st.data())
def test_contains_point_agrees_with_rational_rows(rows, u, v, data):
    cons = [constraint(a, b, strict) for a, b, strict in rows]
    x = _point_maybe_on_a_row(rows, u, v, data)
    assert contains_point(tuple(cons), clear_denominators(x)) \
        == all(holds_rational(*row, x) for row in rows)


@given(st.lists(halfplanes, max_size=5), frac, frac, st.data())
def test_complement_pieces_partition_the_space(rows, u, v, data):
    cell = tuple(constraint(a, b, strict) for a, b, strict in rows)
    x = clear_denominators(_point_maybe_on_a_row(rows, u, v, data))
    pieces = (cell, *complement(cell))
    assert sum(contains_point(piece, x) for piece in pieces) == 1


def test_negate_strictness_duality():
    c = constraint((2, -3), 5)
    nc = negate(c)
    assert nc.strict and nc == constraint((-2, 3), -5, True)
    assert negate(nc) == c
    h = constraint((F(2, 3), -3), F(5, 2))  # scale 6: the strict row's sigma
    assert negate(h) == constraint((F(-2, 3), 3), F(-5, 2), True)
    assert negate(h).row == ((-4, 18), -15, 6)
    s = constraint((1, 1), 0, strict=True)
    ns = negate(s)
    assert not ns.strict
    assert negate(ns) == s


def test_negate_partitions_plane():
    c = constraint((3, -2), F(7, 3), strict=True)
    nc = negate(c)
    rng = random.Random(11)
    for _ in range(200):
        x = (F(rng.randint(-40, 40), rng.randint(1, 5)),
             F(rng.randint(-40, 40), rng.randint(1, 5)))
        assert holds(c, x) != holds(nc, x)
        assert holds(c, x) == holds_rational((3, -2), F(7, 3), True, x)


def test_zero_normal_rejected():
    with pytest.raises(ValueError):
        constraint((0, 0), 1)


def test_bad_dimension_rejected():
    with pytest.raises(ValueError):
        feasible(2, (constraint((1, 0, 0), 1),))


def test_feasible_with_hint_agrees_with_feasible():
    """A cell is a parent plus a piece, the hint a point of the parent;
    only the piece's rows are checked against it."""
    rng = random.Random(321)
    for _ in range(200):
        cons = []
        for _ in range(rng.randint(2, 7)):
            a = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            if not any(a):
                a = (F(1), F(1))
            cons.append(constraint(a, F(rng.randint(-5, 5)), rng.random() < 0.4))
        hint = ((rng.randint(-4, 4), rng.randint(-4, 4)), 2)
        cut = rng.randint(0, len(cons) - 1)
        parent = tuple(c for c in cons[:cut] if contains_point((c,), hint))
        piece = tuple(cons[cut:])
        cell = parent + piece
        point = feasible_with_hint(2, cell, piece, hint)
        if contains_point(cell, hint):
            assert point == hint
        else:  # a hint outside the cell returns exactly feasible()'s answer
            assert point == feasible(2, cell)
        assert (point is None) == (feasible(2, cell) is None)
        assert point is None or contains_point(cell, point)


@pytest.mark.parametrize("dim, cell", [
    (1, (constraint((1,), 0), constraint((-1,), 0, True))),  # x <= 0, x > 0
    (2, (constraint((1, 1), 2), constraint((-1, -1), -2, True),  # a line's open side
         constraint((1, -1), 5))),
])
def test_zero_slack_on_a_strict_row_is_empty(dim, cell):
    # The slack LP is feasible but its optimum is s = 0 on a strict row, so
    # no opposed pair contradicts and the exact simplex says empty.
    rows = [c.row for c in cell]
    assert opposed_clash({}, cell) is None
    assert backend.solve_slack_lp(dim, rows)[::2] == (True, 0)
    hint = (1,) * dim, 1
    assert not contains_point(cell, hint)
    assert feasible_with_hint(dim, cell, cell, hint) is None  # the parent is Q^dim


def _parallel_rows(rng, count):
    """Integer constraints over few normals, with ties between closed and
    strict rows and opposed rows, the cases the table decides."""
    normals = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
    cs = []
    for _ in range(count):
        a = rng.choice(normals) or (1, 0)
        if not any(a):
            a = (1, 0)
        k = rng.choice((1, 1, 2, -1))
        cs.append(constraint((k * a[0], k * a[1]), rng.randint(-3, 3), rng.random() < 0.5))
    return cs


def _points_on_and_off(rng, cs):
    """Random rational points, and points on the boundary line of each
    row, where a strict row and a closed one differ."""
    for _ in range(10):
        yield clear_denominators((F(rng.randint(-8, 8), rng.randint(1, 3)),
                                  F(rng.randint(-8, 8), rng.randint(1, 3))))
    for c in cs:
        (a0, a1), b, _ = c.row
        u = F(rng.randint(-8, 8), rng.randint(1, 3))
        yield clear_denominators(((b - a1 * u) / a0, u) if a0 else (u, (b - a0 * u) / a1))


def test_opposed_pair_table_cuts_out_the_same_cell():
    """The table's rows, one per normal, and all the rows entered hold the
    same points; a clash it reports is an empty cell, by the oracle, and
    a certificate ``farkas_certifies`` accepts."""
    rng = random.Random(21)
    clashes = kept = 0
    for _ in range(400):
        cs = _parallel_rows(rng, rng.randint(1, 6))
        table = {}
        cert = opposed_clash(table, cs)
        if cert is not None:
            clashes += 1
            assert oracle_feasible([c.row for c in cs]) == (False, None), cs
            assert backend.farkas_certifies(*cert), cs
            continue
        rows = tuple(table.values())
        kept += len(rows) < len(cs)
        for x in _points_on_and_off(rng, cs):
            assert contains_point(rows, x) == contains_point(cs, x), (cs, x)
    assert clashes > 50 and kept > 100


@pytest.mark.parametrize("order", ["closed-first", "strict-first"])
def test_opposed_pair_table_keeps_the_strict_row_at_a_tie(order):
    closed, strict = constraint((2, 0), 2), constraint((1, 0), 1, True)
    table = {}
    assert opposed_clash(table, (closed, strict)[::1 if order == "closed-first" else -1]) is None
    assert table == {(1, 0): strict}
