"""Exact planar geometry over rational coordinates.

Every coordinate is a ``fractions.Fraction``; every predicate below is an
exact decision with no rounding anywhere.  These primitives underpin all
containment, feasibility and planarity checks in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm


@dataclass(frozen=True, slots=True)
class Point2:
    x: Fraction
    y: Fraction


def point(x, y) -> Point2:
    return Point2(Fraction(x), Fraction(y))


@dataclass(frozen=True, slots=True)
class Segment:
    a: Point2
    b: Point2

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"degenerate segment at {self.a}")


class SegmentRelation(Enum):
    DISJOINT = "disjoint"
    SHARED_ENDPOINT_ONLY = "shared-endpoint-only"
    CROSSING_OR_OVERLAPPING = "crossing-or-overlapping"


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


def segments_cross(s1: Segment, s2: Segment) -> SegmentRelation:
    """Exact classification of the intersection of two closed segments.

    SHARED_ENDPOINT_ONLY means the intersection is a single point that is
    an endpoint of both segments.  Any other nonempty intersection (proper
    crossing, T-contact at a non-endpoint, collinear overlap) is
    CROSSING_OR_OVERLAPPING.
    """
    a, b = s1.a, s1.b
    c, d = s2.a, s2.b
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)

    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        # All on one line: compare 1D intervals along the dominant axis.
        if a.x != b.x:
            key = lambda p: p.x
        else:
            key = lambda p: p.y
        lo1, hi1 = sorted((key(a), key(b)))
        lo2, hi2 = sorted((key(c), key(d)))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return SegmentRelation.DISJOINT
        if lo == hi:
            return SegmentRelation.SHARED_ENDPOINT_ONLY
        return SegmentRelation.CROSSING_OR_OVERLAPPING

    if o1 * o2 > 0 or o3 * o4 > 0:
        return SegmentRelation.DISJOINT

    # The segments are not all collinear, so if they meet at all they meet
    # in exactly one point x.  o3 == 0 means a lies on line(c,d); since the
    # two supporting lines intersect only at x, that forces x == a, and
    # symmetrically for the other three endpoints.
    if (o1 == 0 or o2 == 0) and (o3 == 0 or o4 == 0):
        return SegmentRelation.SHARED_ENDPOINT_ONLY
    return SegmentRelation.CROSSING_OR_OVERLAPPING


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
