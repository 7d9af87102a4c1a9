"""Exact planar geometry over rational coordinates.

A ``Point2`` holds ``Fraction`` coordinates, or ``int``s on the points'
common grid (``planarity`` runs ``orient``, ``on_closed_segment`` and
``convex_hull`` on those); every predicate below is an exact decision.
``clear_denominators`` and ``scale_to_integers`` give the integer forms;
the one test of points against a placed shape, ``inside_each``, runs on
the points' grid for a placement in the (numerators, den) form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


@dataclass(frozen=True, slots=True)
class Point2:
    """A point with ``Fraction`` coordinates, or ``int``s on a grid."""
    x: Fraction | int
    y: Fraction | int


def point(x, y) -> Point2:
    return Point2(Fraction(x), Fraction(y))


@dataclass(frozen=True, slots=True)
class Segment:
    a: Point2
    b: Point2

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"degenerate segment at {self.a}")


def orient(p: Point2, q: Point2, r: Point2) -> int:
    """Sign of the cross product (q-p) x (r-p).

    +1 when p,q,r make a counterclockwise turn, -1 for clockwise,
    0 when collinear.
    """
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def on_closed_segment(p: Point2, s: Segment) -> bool:
    """True iff p lies on s, endpoints included."""
    if orient(s.a, s.b, p) != 0:
        return False
    lo_x, hi_x = (s.a.x, s.b.x) if s.a.x <= s.b.x else (s.b.x, s.a.x)
    lo_y, hi_y = (s.a.y, s.b.y) if s.a.y <= s.b.y else (s.b.y, s.a.y)
    return lo_x <= p.x <= hi_x and lo_y <= p.y <= hi_y


def convex_hull(points: list[Point2]) -> list[Point2]:
    """Hull vertices in counterclockwise order, starting at the
    lexicographically smallest point; points interior to hull edges are
    dropped.  A collinear input degenerates to its two extreme points."""
    if not points:
        raise ValueError("convex_hull of empty point list")
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) == 1:
        return [Point2(*pts[0])]
    pts = [Point2(x, y) for x, y in pts]

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and orient(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def clear_denominators(values) -> tuple[tuple[int, ...], int]:
    """Scale rationals by the lcm L of their denominators.

    Returns (ints, L) with ints[k] == values[k] * L exactly; L is 1 for an
    empty input.  Every rational-to-integer step in the package goes
    through here.
    """
    values = tuple(values)
    scale = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def scale_to_integers(points: list[Point2]) -> tuple[list[tuple[int, int]], int]:
    """Map rational points onto a common integer grid.

    Returns (scaled points, L) with scaled = (x*L, y*L).  Orientation and
    incidence predicates are invariant under this positive uniform scaling,
    and plain-int arithmetic is much faster than Fraction arithmetic in the
    exhaustive planarity scans.
    """
    ints, scale = clear_denominators(c for p in points for c in (p.x, p.y))
    return list(zip(ints[0::2], ints[1::2])), scale


def inside_each(rows, grid, d, x):
    """Lazily, per grid point X/d, whether it lies in lam*C + t for x =
    ((tx, ty, lam), e), not necessarily reduced, and rows C's
    ``shape.integer_rows`` (A, B): A.(X*e - T*d) <= L*B*d, an open row's
    bound lowered by 1 (on integers v < c is v <= c - 1)."""
    (tx, ty, lam), e = x
    scale = lam * d
    for x, y in grid:
        ux, uy = x * e - tx * d, y * e - ty * d
        for (ax, ay, b), strict, _ in rows:
            if ax * ux + ay * uy > scale * b - strict:
                yield False
                break
        else:
            yield True
