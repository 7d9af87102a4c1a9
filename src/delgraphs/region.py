"""Convex subsets of Q^2 or Q^3 cut out by linear constraints with
strictness flags, exact feasibility decisions, and convex set difference.

Feasibility is decided by maximizing a shared slack variable s over the
region with every strict constraint tightened by s (see ``backend`` for the
LP statement): the region is nonempty iff the LP is feasible and, when
strict constraints are present, the optimal s is positive.  The LP
optimizer's x doubles as the witness; by construction it sits strictly
inside every open half-space, so downstream membership checks on it are
plain exact comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def slack_at(self, x: tuple[Fraction, ...]) -> Fraction:
        return self.bound - sum(c * xi for c, xi in zip(self.coeffs, x))


def constraint(coeffs, bound, strict=False) -> LinearConstraint:
    return LinearConstraint(tuple(Fraction(c) for c in coeffs), Fraction(bound), strict)


def negate(c: LinearConstraint) -> LinearConstraint:
    """Complement half-space: not(a.x <= b) is a.x > b, i.e. -a.x < -b,
    and not(a.x < b) is -a.x <= -b.  Strictness flips."""
    return LinearConstraint(tuple(-v for v in c.coeffs), -c.bound, not c.strict)


@dataclass(frozen=True)
class ConvexRegion:
    dimension: int
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError(f"unsupported dimension {self.dimension}")
        for c in self.constraints:
            if len(c.coeffs) != self.dimension:
                raise ValueError("constraint dimension mismatch")

    def with_constraints(self, extra) -> "ConvexRegion":
        return ConvexRegion(self.dimension, self.constraints + tuple(extra))

    def contains_point(self, x: tuple[Fraction, ...]) -> bool:
        return all(c.satisfied_by(x) for c in self.constraints)


@dataclass(frozen=True)
class FeasibilityResult:
    nonempty: bool
    witness: tuple[Fraction, ...] | None = None
    slack: Fraction | None = None

    def __bool__(self) -> bool:
        return self.nonempty


_EMPTY = FeasibilityResult(False)


def _int_row(c: LinearConstraint):
    """Denominator-cleared (a, b, sigma) with sigma the clearing factor on
    strict rows (0 otherwise), memoized on the constraint object."""
    row = getattr(c, "_cached_int_row", None)
    if row is None:
        ints, scale = clear_denominators(c.coeffs + (c.bound,))
        row = (ints[:-1], ints[-1], scale if c.strict else 0, scale)
        object.__setattr__(c, "_cached_int_row", row)
    return row


def _integer_rows(region: ConvexRegion):
    return [_int_row(c)[:3] for c in region.constraints]


def _hint_satisfies(region: ConvexRegion, hint) -> bool:
    """contains_point() on denominator-cleared integers."""
    nums, d = clear_denominators(hint)
    for c in region.constraints:
        a, b, sigma, _ = _int_row(c)
        v = sum(ai * xi for ai, xi in zip(a, nums))
        bd = b * d
        if v > bd or (sigma and v == bd):
            return False
    return True


def feasible(region: ConvexRegion) -> FeasibilityResult:
    """Exact emptiness decision with a witness strictly inside all open
    half-spaces whenever the region is nonempty."""
    ok, x, s = backend.solve_slack_lp(region.dimension, _integer_rows(region))
    if not ok:
        return _EMPTY
    has_strict = any(c.strict for c in region.constraints)
    if has_strict and s == 0:
        return _EMPTY
    x = tuple(Fraction(v) for v in x)
    slack = None
    if has_strict:
        slack = min(c.slack_at(x) for c in region.constraints if c.strict)
    return FeasibilityResult(True, x, slack)


def feasible_with_hint(region: ConvexRegion, hint) -> FeasibilityResult:
    """Like feasible(), but first tests a candidate interior point; a valid
    hint certifies nonemptiness without a solve.  Pruning decisions are
    identical either way; hints never replace a witness that callers emit."""
    if hint is not None and _hint_satisfies(region, hint):
        return FeasibilityResult(True, tuple(hint), None)
    return feasible(region)


def subtract(cells: list[ConvexRegion], hole: list[LinearConstraint]) -> list[ConvexRegion]:
    """Disjoint convex decomposition of (union of cells) minus the convex
    set ``intersection of hole constraints``.

    For hole constraints H1..Hk each input cell K is split into
    K & ~H1,  K & H1 & ~H2,  ...,  K & H1 & ... & H_{k-1} & ~Hk,
    in that order; cells that test empty are pruned eagerly.
    """
    if not hole:
        raise ValueError("hole must have at least one constraint")
    dim = cells[0].dimension if cells else len(hole[0].coeffs)
    for c in hole:
        if len(c.coeffs) != dim:
            raise ValueError("hole constraint dimension mismatch")
    negations = [negate(h) for h in hole]
    out = []
    for cell in cells:
        if cell.dimension != dim:
            raise ValueError("cell dimension mismatch")
        prefix: list[LinearConstraint] = []
        for h, neg in zip(hole, negations):
            piece = cell.with_constraints(prefix + [neg])
            if feasible(piece):
                out.append(piece)
            prefix.append(h)
    return out
