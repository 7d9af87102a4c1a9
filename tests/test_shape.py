import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delgraphs.geometry import (Point2, clear_denominators, inside_each, point,
                                scale_to_integers)
from delgraphs.region import contains_point, feasible
from delgraphs.shape import (HOMOTHET, POSITIVE_SCALE, TRANSLATE, ConvexShape,
                             HalfPlane, Placement, contains, contains_each,
                             integer_rows, membership_constraints, placement_at,
                             shape_from_rows)

F = Fraction


def rows_of(shape, p, mode):
    """The membership rows of the one point p."""
    return membership_constraints(integer_rows(shape), *scale_to_integers([p]), mode)[0]


def satisfied(cons, x) -> bool:
    """Whether the rational point x satisfies every constraint of cons."""
    return contains_point(cons, clear_denominators(x))

CLOSED_UNIT_SQUARE = shape_from_rows([
    (1, 0, 1, False), (-1, 0, 0, False), (0, 1, 1, False), (0, -1, 0, False)])
OPEN_UNIT_SQUARE = shape_from_rows([
    (1, 0, 1, True), (-1, 0, 0, True), (0, 1, 1, True), (0, -1, 0, True)])
EMPTY_SHAPE = shape_from_rows([(1, 0, 0, False), (-1, 0, -1, False)])


def test_contains_examples():
    ident = Placement((F(0), F(0)), F(1))
    assert contains(CLOSED_UNIT_SQUARE, ident, point(F(1, 2), F(1, 2)))
    assert contains(CLOSED_UNIT_SQUARE, ident, point(1, 1))
    assert not contains(OPEN_UNIT_SQUARE, ident, point(1, 1))
    # hand-checked homothet: t=(0,-3/2), lam=2 puts (2,0) on the x<=1 face
    w = Placement((F(0), F(-3, 2)), F(2))
    assert contains(CLOSED_UNIT_SQUARE, w, point(2, 0))


def test_placement_scale_positive():
    with pytest.raises(ValueError):
        Placement((F(0), F(0)), F(0))
    with pytest.raises(ValueError):
        Placement((F(0), F(0)), F(-1))


def test_membership_constraints_translate_square():
    # the feasible t-region for p=(0,0) is exactly [-1,0]^2
    cons = rows_of(CLOSED_UNIT_SQUARE, point(0, 0), TRANSLATE)
    inside = [(F(-1), F(0)), (F(0), F(-1)), (F(-1, 2), F(-1, 2)), (F(0), F(0))]
    outside = [(F(1, 8), F(0)), (F(0), F(-9, 8)), (F(-2), F(0)), (F(1), F(1))]
    for t in inside:
        assert satisfied(cons, t), t
    for t in outside:
        assert not satisfied(cons, t), t


def test_membership_constraints_origin_homothet():
    cons = rows_of(CLOSED_UNIT_SQUARE, point(0, 0), HOMOTHET)
    for c, h in zip(cons, CLOSED_UNIT_SQUARE.halfplanes):
        assert c.row == ((-h.a[0], -h.a[1], -h.b), 0, 0)  # a.p vanishes at the origin
        assert c.strict == h.strict


def test_membership_constraints_empty_shape_always_infeasible():
    for p in (point(0, 0), point(5, -3), point(F(1, 3), F(7, 2))):
        cons = rows_of(EMPTY_SHAPE, p, TRANSLATE)
        assert feasible(2, tuple(cons)) is None


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        rows_of(CLOSED_UNIT_SQUARE, point(0, 0), "rotate")


def test_zero_normal_halfplane_rejected():
    with pytest.raises(ValueError):
        HalfPlane((F(0), F(0)), F(1))


frac = st.fractions(min_value=-6, max_value=6, max_denominator=6)
pos_frac = st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=8)


def random_shape(rng):
    rows = []
    for _ in range(rng.randint(1, 5)):
        a = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        if not any(a):
            a = (F(1), F(-1))
        rows.append(HalfPlane(a, F(rng.randint(-4, 8), rng.randint(1, 3)),
                              rng.random() < 0.3))
    return ConvexShape(tuple(rows))


def test_contains_iff_membership_constraints():
    rng = random.Random(2024)
    for _ in range(400):
        shape = random_shape(rng)
        p = Point2(F(rng.randint(-12, 12), 2), F(rng.randint(-12, 12), 2))
        t = (F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2))
        lam = F(rng.randint(1, 8), rng.randint(1, 4))

        w_t = Placement(t, F(1))
        cons_t = rows_of(shape, p, TRANSLATE)
        assert contains(shape, w_t, p) == satisfied(cons_t, t)

        w_h = Placement(t, lam)
        cons_h = rows_of(shape, p, HOMOTHET)
        xh = (t[0], t[1], lam)
        assert contains(shape, w_h, p) == satisfied(cons_h, xh)


def test_contains_each_decides_ties_like_membership_constraints():
    """Points exactly on each placed side, closed and open, and just off
    it; the denominators of points, placement and shape are coprime."""
    rng = random.Random(4881)
    open_tie_only = closed_tie_inside = 0
    for _ in range(150):
        shape = random_shape(rng)
        t = (F(rng.randint(-20, 20), 5), F(rng.randint(-20, 20), 7))
        lam = F(rng.choice((2, 3, 4, 5, 9, 13)), 11)
        x = (*t, lam)
        pts, tied = [], []
        for h in shape.halfplanes:
            ax, ay = h.a
            foot = lam * h.b / (ax * ax + ay * ay)  # t + foot*a: a.(p - t) = lam*b
            for side in (F(0), F(1, 17), F(-1, 17)):
                s = F(rng.randint(-9, 9), 13)
                pts.append(Point2(t[0] + (foot + side) * ax - s * ay,
                                  t[1] + (foot + side) * ay + s * ax))
                tied.append(h if not side else None)
        want = [satisfied(rows_of(shape, p, HOMOTHET), x) for p in pts]
        assert contains_each(shape, Placement(t, lam), pts) == want
        grid, d = scale_to_integers(pts)
        assert contains_each(shape, Placement(t, lam), (),
                             (integer_rows(shape), grid, d)) == want
        # the placement over an unreduced denominator, as the sampler gives it
        (tx, ty, lm), e = clear_denominators(x)
        assert list(inside_each(integer_rows(shape), grid, d,
                                ((6 * tx, 6 * ty, 6 * lm), 6 * e))) == want
        # the integer form converts back to the same placement, reduced or not
        assert placement_at(clear_denominators(x)) == Placement(t, lam)
        assert placement_at(((6 * tx, 6 * ty, 6 * lm), 6 * e)) == Placement(t, lam)
        assert placement_at(clear_denominators(t)) == Placement(t)  # a translate: scale 1
        assert [contains(shape, Placement(t, lam), p) for p in pts] == want
        for p, h, inside in zip(pts, tied, want):
            others = [c for c, g in zip(rows_of(shape, p, HOMOTHET),
                                        shape.halfplanes) if g is not h]
            if h is not None and satisfied(others, x):
                open_tie_only += h.strict
                closed_tie_inside += not h.strict and inside
    # a tie on an open side is the only reason some points are outside
    assert open_tie_only and closed_tie_inside


def test_homothet_at_unit_scale_equals_translate():
    rng = random.Random(55)
    for _ in range(300):
        shape = random_shape(rng)
        p = Point2(F(rng.randint(-10, 10), 2), F(rng.randint(-10, 10), 2))
        t = (F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2))
        cons_t = rows_of(shape, p, TRANSLATE)
        cons_h = rows_of(shape, p, HOMOTHET)
        xh = (t[0], t[1], F(1))
        assert satisfied(cons_t, t) == satisfied(cons_h, xh)


@given(frac, frac, frac, frac, pos_frac)
@settings(max_examples=200)
def test_scaling_identity(px, py, tx, ty, lam):
    """contains(shape, (t, lam), p) iff the shape with bounds lam*b contains
    p under (t, 1)."""
    shape = CLOSED_UNIT_SQUARE
    scaled = ConvexShape(tuple(
        HalfPlane(h.a, lam * h.b, h.strict) for h in shape.halfplanes))
    p = Point2(px, py)
    assert contains(shape, Placement((tx, ty), lam), p) \
        == contains(scaled, Placement((tx, ty), F(1)), p)


def test_positive_scale_constraint():
    assert POSITIVE_SCALE.strict
    assert satisfied((POSITIVE_SCALE,), (F(9), F(9), F(1, 100)))
    assert not satisfied((POSITIVE_SCALE,), (F(0), F(0), F(0)))
    assert not satisfied((POSITIVE_SCALE,), (F(0), F(0), F(-1)))
