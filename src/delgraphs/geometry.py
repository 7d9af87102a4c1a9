"""Exact planar geometry over rational coordinates.

A point is a pair: a ``Point2`` holds ``Fraction`` coordinates, and the
points' common grid (``scale_to_integers``) holds ``int`` pairs.
``orient``, ``on_closed_segment`` and ``convex_hull`` read any (x, y)
pair, so ``planarity`` runs them on the grid; every predicate below is
an exact decision.  ``clear_denominators`` and ``scale_to_integers``
give the integer forms; the one test of points against a placed shape,
``inside_each``, runs on the points' grid for a placement in the
(numerators, den) form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple


class Point2(NamedTuple):
    """A point with ``Fraction`` coordinates; it is its own (x, y) pair."""
    x: Fraction
    y: Fraction


def point(x, y) -> Point2:
    return Point2(Fraction(x), Fraction(y))


def orient(p, q, r) -> int:
    """Sign of the cross product (q-p) x (r-p) for (x, y) pairs.

    +1 when p,q,r make a counterclockwise turn, -1 for clockwise,
    0 when collinear.
    """
    (px, py), (qx, qy), (rx, ry) = p, q, r
    d = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def on_closed_segment(p, a, b) -> bool:
    """True iff p lies on the segment from a to b, endpoints included."""
    if orient(a, b, p) != 0:
        return False
    (px, py), (ax, ay), (bx, by) = p, a, b
    lo_x, hi_x = (ax, bx) if ax <= bx else (bx, ax)
    lo_y, hi_y = (ay, by) if ay <= by else (by, ay)
    return lo_x <= px <= hi_x and lo_y <= py <= hi_y


def convex_hull(points: list) -> list:
    """Hull vertices in counterclockwise order, starting at the
    lexicographically smallest point; points interior to hull edges are
    dropped.  A collinear input degenerates to its two extreme points.
    The vertices are input points, sorted, not copies."""
    if not points:
        raise ValueError("convex_hull of empty point list")
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts

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
    ints, scale = clear_denominators(c for p in points for c in p)
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
