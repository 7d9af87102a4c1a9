"""Convex template shapes and their placement-membership constraints.

A shape C is a finite intersection of open/closed half-planes; a
placement is a translation t plus a positive scale lam, and the placed
copy is lam*C + t.  Nothing requires C to be bounded, closed, nonempty
or full-dimensional: wedges, strips, lines, single points and the empty
set are all legal templates (the degenerate ones simply induce few or no
edges downstream).  Past the input all is on integers: containment and
the membership rows come from the cleared shape (``integer_rows``) and
the points' common grid (``geometry.scale_to_integers``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .geometry import Point2, clear_denominators, inside_each, scale_to_integers
from .region import LinearConstraint, halfspace

TRANSLATE = "translate"
HOMOTHET = "homothet"
MODES = (TRANSLATE, HOMOTHET)


@dataclass(frozen=True, slots=True)
class HalfPlane:
    """a.x <= b (or < b when strict)."""

    a: tuple[Fraction, Fraction]
    b: Fraction
    strict: bool = False

    def __post_init__(self):
        if self.a[0] == 0 and self.a[1] == 0:
            raise ValueError("half-plane normal must be nonzero")


@dataclass(frozen=True, slots=True)
class ConvexShape:
    halfplanes: tuple[HalfPlane, ...]


def shape_from_rows(rows) -> ConvexShape:
    """rows: iterable of (ax, ay, b, strict)."""
    return ConvexShape(tuple(
        HalfPlane((Fraction(ax), Fraction(ay)), Fraction(b), bool(strict))
        for ax, ay, b, strict in rows))


@dataclass(frozen=True, slots=True)
class Placement:
    translation: tuple[Fraction, Fraction]
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("placement scale must be positive")


def placement_at(x: tuple[tuple[int, ...], int]) -> Placement:
    """The placement at x = ((tx, ty[, lam]), den), the one integer form of
    a placement; scale 1 when x has no lam (a translate)."""
    (tx, ty, *lam), den = x
    return Placement((Fraction(tx, den), Fraction(ty, den)), *(Fraction(v, den) for v in lam))


def integer_rows(shape: ConvexShape) -> list[tuple[tuple[int, int, int], bool, int]]:
    """((ax, ay, b), strict, c) per half-plane: a.x <= b (or < b) times c,
    the lcm of its denominators, on integers."""
    return [(ints, h.strict, c) for h in shape.halfplanes
            for ints, c in [clear_denominators((h.a[0], h.a[1], h.b))]]


def contains_each(shape: ConvexShape, placement: Placement, points,
                  integers=None) -> list[bool]:
    """Exact test, per point p, for p in lam*C + t: every half-plane must
    satisfy a.(p - t) <= lam*b (strictly on open half-planes), decided by
    ``geometry.inside_each`` on ``integers``: (``integer_rows(shape)``,
    *``scale_to_integers(points)``), made here when None."""
    rows, grid, d = integers or (integer_rows(shape), *scale_to_integers(list(points)))
    x = clear_denominators((*placement.translation, placement.scale))
    return list(inside_each(rows, grid, d, x))


def contains(shape: ConvexShape, placement: Placement, p: Point2) -> bool:
    """Exact test for p in lam*C + t (``contains_each`` on the one point)."""
    return contains_each(shape, placement, (p,))[0]


def membership_constraints(rows, grid, d: int,
                           mode: str) -> list[tuple[LinearConstraint, ...]]:
    """Per grid point X/d, the constraints on the placement parameters
    under which it lies in the placed shape, for ``rows`` the shape's
    ``integer_rows`` and the points' common grid (``scale_to_integers``).

    translate: variables (tx, ty); a.(p-t) <= b becomes -a.t <= b - a.p.
    homothet: variables (tx, ty, lam); a.(p-t) <= lam*b becomes
    -a.t - b*lam <= -a.p.  The global lam > 0 constraint is the caller's
    responsibility (one per cell, not one per point).  With (a, b) = (A, B)/c
    and p = X/d the rational row times D = c*d is an integer row N; N/G,
    G = gcd(N, D), is the row clearing it gives, and D/G its scale, the
    lcm of the reduced denominators of N/D."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    out = []
    for x, y in grid:
        mem = []
        for (ax, ay, b), strict, c in rows:
            a, bound = (-ax * d, -ay * d, -b * d), -ax * x - ay * y
            if mode == TRANSLATE:  # lam = 1: the lam column moves into the bound
                a, bound = a[:2], bound - a[2]
            g = gcd(*a, bound, c * d)
            mem.append(halfspace(tuple([v // g for v in a]), bound // g, strict, c * d // g))
        out.append(tuple(mem))
    return out


POSITIVE_SCALE = halfspace((0, 0, -1), 0, True, 1)
"""lam > 0, expressed as -lam < 0; appended once per homothet cell."""
