"""Brute-force feasibility oracle for 2D and 3D constraint systems.

Deliberately shares no code with the production solver: it enumerates
candidate vertices of the slack program

    maximize s  s.t.  a_i.x + sigma_i * s <= b_i,  0 <= s <= 1,  |x_j| <= B

(sigma_i > 0 on strict rows, 0 on the rest) by solving every
(dim+1)x(dim+1) subsystem of tight constraints with Cramer's rule and
taking the best feasible candidate.  The box bound B is far beyond any
vertex coordinate reachable from small rational inputs, so boxing never
changes the answer; it only guarantees the optimum sits at an
enumerable vertex.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

BOX = 2 ** 200


def oracle_feasible(constraints, dim=2):
    """constraints: iterable of (coeffs (len dim), bound, sigma), the row
    coeffs.x + sigma*s <= bound; sigma > 0 marks a strict row, and a bool
    reads as 1 or 0.  Returns (nonempty, best_slack_or_None), where
    best_slack is the optimum of the slack program and None when that
    program is infeasible."""
    rows = []  # integer (c_1, ..., c_dim, c_s, b) meaning c.x + c_s*s <= b
    has_strict = False
    for coeffs, bound, sigma in constraints:
        row = [Fraction(c) for c in coeffs] + [Fraction(sigma), Fraction(bound)]
        scale = lcm(*(v.denominator for v in row))
        rows.append(tuple(int(v * scale) for v in row))
        has_strict = has_strict or sigma > 0
    zero = (0,) * dim
    rows.append(zero + (1, 1))   # s <= 1
    rows.append(zero + (-1, 0))  # s >= 0
    for j in range(dim):
        unit = [0] * (dim + 1)
        unit[j] = 1
        rows.append(tuple(unit) + (BOX,))
        rows.append(tuple(-u for u in unit) + (BOX,))

    best = None
    for tight in combinations(rows, dim + 1):
        vertex = _solve(tight)
        if vertex is None:
            continue
        nums, det = vertex  # the point nums / det, det > 0
        s = Fraction(nums[-1], det)
        if best is not None and s <= best:
            continue
        if all(sum(c * n for c, n in zip(row, nums)) <= row[-1] * det for row in rows):
            best = s
    if best is None:
        return False, None
    if has_strict:
        return best > 0, best
    return True, best


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** k * m[0][k] * _det([r[:k] + r[k + 1:] for r in m[1:]])
               for k in range(len(m)) if m[0][k])


def _solve(tight):
    """The point where every row of ``tight`` holds with equality, by
    Cramer's rule, as (numerators, positive denominator); None when the
    rows are dependent."""
    a = [row[:-1] for row in tight]
    det = _det(a)
    if det == 0:
        return None
    sign = 1 if det > 0 else -1
    nums = tuple(sign * _det([r[:k] + (row[-1],) + r[k + 1:] for r, row in zip(a, tight)])
                 for k in range(len(a)))
    return nums, sign * det
