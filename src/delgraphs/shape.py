"""Convex template shapes and their placement-membership constraints.

A shape C is a finite intersection of open/closed half-planes; a
placement is a translation t plus a positive scale lam, and the placed
copy is lam*C + t.  Nothing requires C to be bounded, closed, nonempty
or full-dimensional: wedges, strips, lines, single points and the empty
set are all legal templates (the degenerate ones simply induce few or no
edges downstream).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Point2, clear_denominators, inside_each, scale_to_integers
from .region import LinearConstraint

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


def integer_rows(shape: ConvexShape) -> list[tuple[tuple[int, int, int], bool]]:
    """((ax, ay, b), strict) per half-plane, each cleared of its own
    denominators: the same half-plane a.x <= b (or < b) on integers."""
    return [(clear_denominators((h.a[0], h.a[1], h.b))[0], h.strict)
            for h in shape.halfplanes]


def contains_each(shape: ConvexShape, placement: Placement, points) -> list[bool]:
    """Exact test, per point p, for p in lam*C + t: every half-plane must
    satisfy a.(p - t) <= lam*b (strictly on open half-planes).  Decided
    on integers by ``geometry.inside_each``, with the points on their
    common grid and the placement cleared once."""
    grid, d = scale_to_integers(list(points))
    (tx, ty, lam), e = clear_denominators((*placement.translation, placement.scale))
    return list(inside_each(integer_rows(shape), grid, d, tx, ty, lam, e))


def contains(shape: ConvexShape, placement: Placement, p: Point2) -> bool:
    """Exact test for p in lam*C + t (``contains_each`` on the one point)."""
    return contains_each(shape, placement, (p,))[0]


def membership_constraints(shape: ConvexShape, p: Point2, mode: str) -> list[LinearConstraint]:
    """Constraints on the placement parameters under which p lies in the
    placed shape.

    translate: variables (tx, ty); a.(p-t) <= b becomes -a.t <= b - a.p.
    homothet: variables (tx, ty, lam); a.(p-t) <= lam*b becomes
    -a.t - b*lam <= -a.p.  The global lam > 0 constraint is the caller's
    responsibility (one per cell, not one per point).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    out = []
    for h in shape.halfplanes:
        coeffs = (-h.a[0], -h.a[1], -h.b)
        bound = -(h.a[0] * p.x + h.a[1] * p.y)
        if mode == TRANSLATE:  # lam = 1: the lam column moves into the bound
            coeffs, bound = coeffs[:2], bound + h.b
        out.append(LinearConstraint(coeffs, bound, h.strict))
    return out


POSITIVE_SCALE = LinearConstraint(
    (Fraction(0), Fraction(0), Fraction(-1)), Fraction(0), True)
"""lam > 0, expressed as -lam < 0; appended once per homothet cell."""
