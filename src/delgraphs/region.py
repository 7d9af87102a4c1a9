"""Convex cells of Q^d, each a tuple of linear constraints with
strictness flags, and exact feasibility decisions with witnesses.

Feasibility is decided by maximizing a shared slack variable s over the
cell with every strict constraint tightened by s (see ``backend`` for the
LP statement): the cell is nonempty iff the LP is feasible and, when
strict constraints are present, the optimal s is positive.  The LP
optimizer's x doubles as the witness; by construction it sits strictly
inside every open half-space, so downstream membership checks on it are
plain exact comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import backend
from .geometry import clear_denominators


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . x <= bound, or < bound when strict."""

    coeffs: tuple[Fraction, ...]
    bound: Fraction
    strict: bool = False

    def __post_init__(self):
        if not any(self.coeffs):
            raise ValueError("constraint normal must be nonzero")

    def satisfied_by(self, x: tuple[Fraction, ...]) -> bool:
        v = sum(c * xi for c, xi in zip(self.coeffs, x))
        return v < self.bound if self.strict else v <= self.bound

    @cached_property
    def row(self) -> tuple[tuple[int, ...], int, int]:
        """Denominator-cleared (a, b, sigma): a.x <= b scaled by the
        clearing factor, sigma that factor on strict rows and 0 otherwise."""
        ints, scale = clear_denominators(self.coeffs + (self.bound,))
        return ints[:-1], ints[-1], scale if self.strict else 0

    @cached_property
    def pair_key(self) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        """(n, -n, b, g) for ``row`` read as g*n.x <= b, n primitive: what
        the opposed-pair table (``opposed_clash``) files and compares rows by."""
        a, b, _ = self.row
        g = gcd(*a)
        n = tuple([c // g for c in a])
        return n, tuple([-c for c in n]), b, g


def constraint(coeffs, bound, strict=False) -> LinearConstraint:
    return LinearConstraint(tuple(Fraction(c) for c in coeffs), Fraction(bound), strict)


def negate(c: LinearConstraint) -> LinearConstraint:
    """Complement half-space: not(a.x <= b) is a.x > b, i.e. -a.x < -b,
    and not(a.x < b) is -a.x <= -b.  Strictness flips."""
    return LinearConstraint(tuple(-v for v in c.coeffs), -c.bound, not c.strict)


def complement(cs) -> tuple[tuple[LinearConstraint, ...], ...]:
    """Disjoint pieces covering the outside of cell ``cs``: rows < m, row m negated."""
    return tuple(cs[:m] + (negate(c),) for m, c in enumerate(cs))


def contains_point(constraints, x: tuple[Fraction, ...]) -> bool:
    """Exact membership test of x in the cell cut out by ``constraints``,
    on the denominator-cleared rows."""
    nums, d = clear_denominators(x)
    for c in constraints:
        a, b, sigma = c.row
        v = sum(ai * xi for ai, xi in zip(a, nums))
        bd = b * d
        if v > bd or (sigma and v == bd):
            return False
    return True


def feasible(dim: int, constraints) -> tuple[Fraction, ...] | None:
    """Exact emptiness decision for the cell of Q^dim cut out by the tuple
    ``constraints``: None when it is empty, otherwise the slack LP's
    optimizer, a witness strictly inside all of its open half-spaces."""
    if any(len(c.coeffs) != dim for c in constraints):
        raise ValueError("constraint dimension mismatch")
    ok, x, s = backend.solve_slack_lp(dim, [c.row for c in constraints])
    if not ok or (s == 0 and any(c.strict for c in constraints)):
        return None
    return x


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


def feasible_with_hint(dim: int, cell, piece, hint) -> tuple[Fraction, ...] | None:
    """``hint`` if it lies in ``piece``: a point of the parent cell, it then
    lies in the parent cut by ``piece``, the cell the rows ``cell`` cut
    out.  Otherwise ``feasible(dim, cell)``."""
    if contains_point(piece, hint):
        return hint
    return feasible(dim, cell)
