import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delgraphs import planarity, region
from delgraphs.geometry import (Point2, clear_denominators, convex_hull,
                                on_closed_segment, orient, point,
                                scale_to_integers)
from delgraphs.instances import generate_bounded_instance, generate_instance
from delgraphs.shape import (HOMOTHET, MODES, POSITIVE_SCALE, TRANSLATE,
                             ConvexShape, HalfPlane, integer_rows,
                             membership_constraints)

frac = st.fractions(min_value=-8, max_value=8, max_denominator=8)
points = st.builds(Point2, frac, frac)


def seg(ax, ay, bx, by):
    return point(ax, ay), point(bx, by)


def test_orient_examples():
    assert orient(point(0, 0), point(1, 0), point(0, 1)) == 1
    assert orient(point(0, 0), point(1, 0), point(2, 0)) == 0
    assert orient(point(0, 0), point(1, 0), point(1, -1)) == -1


@given(points, points, points)
def test_orient_antisymmetry(p, q, r):
    s = orient(p, q, r)
    assert orient(q, p, r) == -s
    assert orient(p, r, q) == -s
    assert orient(r, q, p) == -s


@given(points, points, points, frac, frac)
def test_orient_translation_invariant(p, q, r, dx, dy):
    def shift(v):
        return Point2(v.x + dx, v.y + dy)
    assert orient(shift(p), shift(q), shift(r)) == orient(p, q, r)


@given(points, points, points)
def test_orient_zero_iff_affine_combination(p, q, r):
    """Brute solve: for distinct p, q the line through them is
    {p + t*(q-p)}, and r lies on it exactly when orient vanishes."""
    vx, vy = q.x - p.x, q.y - p.y
    wx, wy = r.x - p.x, r.y - p.y
    if vx == 0 and vy == 0:
        assert orient(p, q, r) == 0  # degenerate direction, no line defined
        return
    if vx != 0:
        t = wx / vx
        solvable = wy == t * vy
    else:
        t = wy / vy
        solvable = wx == t * vx
    assert (orient(p, q, r) == 0) == solvable


def test_on_closed_segment_examples():
    s = seg(0, 0, 1, 0)
    assert on_closed_segment(point(Fraction(1, 2), 0), *s)
    assert on_closed_segment(point(0, 0), *s)
    assert not on_closed_segment(point(2, 0), *s)


def test_convex_hull_examples():
    got = convex_hull([point(0, 0), point(1, 0), point(0, 1),
                       point(Fraction(1, 4), Fraction(1, 4))])
    assert got == [point(0, 0), point(1, 0), point(0, 1)]
    assert convex_hull([point(0, 0), point(1, 0), point(2, 0)]) \
        == [point(0, 0), point(2, 0)]
    assert len(convex_hull([point(0, 0), point(2, 0), point(2, 2), point(0, 2)])) == 4
    assert convex_hull([point(3, 4)]) == [point(3, 4)]


def test_convex_hull_empty_rejected():
    with pytest.raises(ValueError):
        convex_hull([])


@given(st.lists(points, min_size=1, max_size=12))
@settings(max_examples=300)
def test_convex_hull_is_convex_and_covers(pts):
    hull = convex_hull(pts)
    if len(hull) > 2:
        m = len(hull)
        for k in range(m):
            assert orient(hull[k], hull[(k + 1) % m], hull[(k + 2) % m]) == 1
        # every input point inside or on the hull boundary
        for p in pts:
            for k in range(m):
                assert orient(hull[k], hull[(k + 1) % m], p) >= 0
    else:
        # all collinear: every point on the extreme segment
        if len(hull) == 2:
            for p in pts:
                assert on_closed_segment(p, hull[0], hull[1])


@given(st.lists(points, min_size=1, max_size=6))
def test_predicates_read_the_same_on_the_grid(pts):
    """``planarity`` runs the predicates on ``scale_to_integers``' int
    pairs: a positive uniform scaling keeps every orientation sign and
    incidence, and the hull's vertices sit at the same input positions."""
    assert tuple(point(1, 2)) == (1, 2)
    grid, _ = scale_to_integers(pts)
    for i, j, k in itertools.product(range(len(pts)), repeat=3):
        assert orient(pts[i], pts[j], pts[k]) == orient(grid[i], grid[j], grid[k])
        assert on_closed_segment(pts[i], pts[j], pts[k]) \
            == on_closed_segment(grid[i], grid[j], grid[k])
    assert [pts.index(p) for p in convex_hull(pts)] \
        == [grid.index(q) for q in convex_hull(grid)]


@given(st.lists(st.fractions(max_denominator=10 ** 6), max_size=12))
def test_clear_denominators_scales_by_the_lcm(values):
    ints, scale = clear_denominators(values)
    assert scale == lcm(*(v.denominator for v in values))
    assert len(ints) == len(values)
    for n, v in zip(ints, values):
        assert type(n) is int and n == v * scale


def test_clear_denominators_of_nothing_is_scale_1():
    assert clear_denominators([]) == ((), 1)


def _old_shape_rows(shape):
    rows = []
    for h in shape.halfplanes:
        scale = lcm(h.a[0].denominator, h.a[1].denominator, h.b.denominator)
        rows.append(((int(h.a[0] * scale), int(h.a[1] * scale), int(h.b * scale)),
                     h.strict, scale))
    return rows


def _old_scale_to_integers(points):
    scale = lcm(1, *(d for p in points for d in (p.x.denominator, p.y.denominator)))
    return [(int(p.x * scale), int(p.y * scale)) for p in points], scale


def test_integer_forms_match_the_former_inline_formulas():
    insts = [generate_instance(s, 7, 5, TRANSLATE, Fraction(1, 2)) for s in range(6)]
    insts += [generate_bounded_instance(s, 7, 5, HOMOTHET) for s in range(6)]
    for inst in insts:
        pts = list(inst.points.points)
        assert scale_to_integers(pts) == _old_scale_to_integers(pts)
        assert integer_rows(inst.shape) == _old_shape_rows(inst.shape)


def _fraction_row(coeffs, bound, strict):
    """The row by the ``Fraction`` route: the rationals cleared together,
    sigma the clearing factor on a strict row and 0 otherwise."""
    ints, scale = clear_denominators(coeffs + (bound,))
    return ints[:-1], ints[-1], scale if strict else 0


def _pair_key(row):
    a, b, _ = row
    g = gcd(*a)
    n = tuple(c // g for c in a)
    return n, tuple(-c for c in n), b, g


def _rescaled(inst, rng):
    """The same shape, each half-plane times a positive rational, so the
    normals have denominators too."""
    return ConvexShape(tuple(
        HalfPlane((h.a[0] * m, h.a[1] * m), h.b * m, h.strict)
        for h in inst.shape.halfplanes
        for m in [Fraction(rng.randint(1, 9), rng.randint(1, 9))]))


def test_integer_rows_match_the_fraction_route():
    """Every row the search makes on integers, membership rows in both
    modes, their complement pieces, the boundary scan's tight rows and
    ``POSITIVE_SCALE``, is the row of its rational form cleared by
    ``clear_denominators``, and its ``pair_key`` that row's."""
    rng = random.Random(4881)
    insts = [generate_instance(s, 7, 5, TRANSLATE, Fraction(1, 2)) for s in range(30)]
    insts += [generate_bounded_instance(s, 7, 5, HOMOTHET) for s in range(6)]
    cases = [(inst.points.points, inst.shape) for inst in insts]
    cases += [(inst.points.points, _rescaled(inst, rng)) for inst in insts[::3]]
    shapes = [shape for _, shape in cases]
    assert any(len(s.halfplanes) <= 2 for s in shapes)  # unbounded
    assert any(h.strict for s in shapes for h in s.halfplanes)
    assert max(c.denominator for p, _ in cases for q in p for c in (q.x, q.y)) == 8
    assert any(h.a[0].denominator > 1 for s in shapes for h in s.halfplanes)
    rows = 0
    for pts, shape in cases:
        grid, d = scale_to_integers(list(pts))
        for mode in MODES:
            mems = membership_constraints(integer_rows(shape), grid, d, mode)
            for p, mem in zip(pts, mems):
                negated = []
                for h, c in zip(shape.halfplanes, mem):
                    coeffs = (-h.a[0], -h.a[1]) + ((-h.b,) if mode == HOMOTHET else ())
                    bound = (h.b if mode == TRANSLATE else 0) - h.a[0] * p.x - h.a[1] * p.y
                    want = _fraction_row(coeffs, bound, h.strict)
                    assert (c.row, c.strict, c.pair_key) == (want, h.strict, _pair_key(want))
                    negated.append(_fraction_row(tuple(-v for v in coeffs), -bound,
                                                 not h.strict))
                    rows += 1
                for m, piece in enumerate(region.complement(mem)):
                    assert piece[:m] == mem[:m] and len(piece) == m + 1
                    assert (piece[m].row, piece[m].pair_key) == (
                        negated[m], _pair_key(negated[m]))
        for p, (mem, tight, _) in zip(pts, planarity._boundary_rows(shape, pts)):
            for h, c, t in zip(shape.halfplanes, mem, tight):
                if h.strict:
                    assert t is None
                    continue
                bound = h.a[0] * p.x + h.a[1] * p.y
                want = _fraction_row((h.a[0], h.a[1], h.b), bound, False)
                assert [(r.row, r.strict, r.pair_key) for r in t] == [
                    (want, False, _pair_key(want))]
    assert rows > 2000
    want = _fraction_row((Fraction(0), Fraction(0), Fraction(-1)), Fraction(0), True)
    assert (POSITIVE_SCALE.row, POSITIVE_SCALE.pair_key) == (want, _pair_key(want))
