"""Convex cells of Q^d, each a tuple of linear constraints on integers,
and exact feasibility decisions with witnesses.  A constraint is an
integer row, made once (``halfspace``; ``constraint`` clears rationals),
and a point is (numerators, den), den > 0: the LP optimizer's form, and
the one integer form of a placement (``shape.placement_at``).

Feasibility is decided by maximizing a shared slack variable s over the
cell with every strict constraint tightened by s (see ``backend`` for the
LP statement): the cell is nonempty iff the LP is feasible and, when
strict constraints are present, the optimal s is positive.  The LP
optimizer's x doubles as the witness; by construction it sits strictly
inside every open half-space.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import backend
from .geometry import clear_denominators


class LinearConstraint(NamedTuple):
    """a.x <= b, or < b when strict.  ``row`` is the kernel's (a, b, sigma):
    the rational row times ``scale``, the lcm of its denominators, and
    sigma that scale on strict rows, else 0.  ``pair_key`` is (n, -n, b, g)
    for the row as g*n.x <= b, n primitive, as ``opposed_clash`` files it."""

    row: tuple[tuple[int, ...], int, int]
    strict: bool
    scale: int
    pair_key: tuple[tuple[int, ...], tuple[int, ...], int, int]


def halfspace(a: tuple[int, ...], b: int, strict: bool, scale: int) -> LinearConstraint:
    """The constraint a.x <= b (< b when strict), (a, b) its rational row
    times ``scale``, the lcm of that row's denominators."""
    g = gcd(*a)
    if not g:
        raise ValueError("constraint normal must be nonzero")
    n = tuple([c // g for c in a])
    return LinearConstraint((a, b, scale if strict else 0), strict, scale,
                            (n, tuple([-c for c in n]), b, g))


def constraint(coeffs, bound, strict=False) -> LinearConstraint:
    """coeffs.x <= bound (< bound when strict) over rationals, cleared once."""
    ints, scale = clear_denominators([Fraction(v) for v in (*coeffs, bound)])
    return halfspace(ints[:-1], ints[-1], strict, scale)


def negate(c: LinearConstraint) -> LinearConstraint:
    """Complement half-space: not(a.x <= b) is a.x > b, i.e. -a.x < -b,
    and not(a.x < b) is -a.x <= -b.  Strictness flips; the scale stays."""
    a, b, _ = c.row
    return halfspace(tuple([-v for v in a]), -b, not c.strict, c.scale)


def complement(cs) -> tuple[tuple[LinearConstraint, ...], ...]:
    """Disjoint pieces covering the outside of cell ``cs``: rows < m, row m negated."""
    return tuple(cs[:m] + (negate(c),) for m, c in enumerate(cs))


def contains_point(constraints, x: tuple[tuple[int, ...], int]) -> bool:
    """Exact membership test of x = (numerators, den) in the cell cut out
    by ``constraints``: a.nums <= b*den, strictly on strict rows."""
    nums, d = x
    for c in constraints:
        a, b, sigma = c.row
        v = sum([ai * xi for ai, xi in zip(a, nums)])
        bd = b * d
        if v > bd or (sigma and v == bd):
            return False
    return True


def feasible(dim: int, constraints) -> tuple[tuple[int, ...], int] | None:
    """Exact emptiness decision for the cell of Q^dim cut out by the tuple
    ``constraints``: None when it is empty, otherwise the slack LP's
    optimizer (numerators, den), strictly inside all its open half-spaces."""
    if any(len(c.row[0]) != dim for c in constraints):
        raise ValueError("constraint dimension mismatch")
    ok, x, s, den = backend.solve_slack_lp(dim, [c.row for c in constraints])
    if not ok or (s == 0 and any(c.strict for c in constraints)):
        return None
    return x, den


def opposed_clash(table: dict, piece):
    """Enter the rows of ``piece`` into ``table`` and return the first
    opposed pair that empties the cell, as the Farkas certificate
    (rows, y) for ``backend.farkas_certifies``, or None.

    ``table`` maps each primitive normal n to the row c, g*n.x <= b, that
    has the least b/g of the rows entered, strict at a tie: c implies the
    others, so the table's values cut out the same cell.  Rows
    g1*n.x <= b1 and -g2*n.x <= b2 with g2*b1 + g1*b2 < 0 contradict, with
    y = (g2, g1) (Schrijver 1986, section 7), and only if the tightest rows
    of n and -n do; so if the table held no such pair, checking each new
    row against the tightest opposite finds any the piece brings.  In the
    edge search every point's row for one side of the shape has the same
    normal, so most empty cells are empty along one direction."""
    for c in piece:
        n, opposite, b, g = c.pair_key
        old = table.get(n)
        if old is None or (d := b * old.pair_key[3] - old.pair_key[2] * g) < 0 or (
                d == 0 and c.strict):
            table[n] = c
        if (o := table.get(opposite)) and (og := o.pair_key[3]) * b + g * o.pair_key[2] < 0:
            return (c.row, o.row), (og, g)
    return None


def feasible_with_hint(dim: int, cell, piece, hint) -> tuple[tuple[int, ...], int] | None:
    """``hint`` if it lies in ``piece``: a point of the parent cell, it then
    lies in the parent cut by ``piece``, the cell the rows ``cell`` cut
    out.  Otherwise ``feasible(dim, cell)``."""
    if contains_point(piece, hint):
        return hint
    return feasible(dim, cell)
