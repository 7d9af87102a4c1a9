"""The exact kernels: the slack-maximizing simplex and the
placement-sampling sweep.  Every number in the LP kernel is an integer;
the sweep draws integer placements and ``geometry.inside_each`` decides
each one.

The LP solved here, for constraint rows ``a.x (<|<=) b`` over x in Q^dim:

    maximize s
    subject to  a_i.x + sigma_i * s <= b_i   (sigma_i > 0 on strict rows)
                a_i.x              <= b_i    (non-strict rows)
                0 <= s <= 1

Rows arrive with integer data; sigma_i carries the row's denominator-
clearing factor so the feasible (x, s) set is exactly that of the
unscaled problem.  The dictionary simplex below uses Bland's rule with
ties broken by lowest variable index, so it cannot cycle and is fully
deterministic.

Dictionary convention: row i of ``tab``/``rhs`` reads
``basic_i = (rhs_i - tab_i . nonbasic) / den``.  The objective is the
last row, stored the same way, so its coefficients are kept negated: a
slot may enter while ``tab[-1]`` is negative there, and every pivot
updates the objective with the other rows.  One Bland loop serves both
phases.  Phase I appends an auxiliary column of -1s and maximizes -aux.
If aux is still basic at its end, its row has a nonzero entry on some
nonbasic slot: each row is ``y . [A | I | -1]`` for some multipliers y,
every slack column is still present, so a row reading ``aux = rhs``
alone would force y = 0.

The dictionary is fraction-free (Edmonds 1967, Bareiss 1968): its
entries are integer numerators over one shared ``den`` > 0, 1 at the
start.  A pivot on p = tab[r][e] takes each other row's slot j to
``(tab_ij*p - f*tab_rj) // den`` (f = tab_ie) and its slot e to -f, the
pivot row's slot e to ``den``, and then ``den`` to p, negating every
numerator when p < 0.  Each division is exact: ``den`` is, up to sign,
the determinant of the basis matrix B over the integer data, and each
numerator is det(B) times an entry of B^-1 times the data, a minor by
Cramer's rule.  Rows and columns appended later (the aux column, the
Phase I and Phase II objectives) go in times ``den``.  As ``den`` > 0,
every sign test reads the same on numerators as on values, and a ratio
rhs_i / tab_ie does not depend on ``den``.  Ratios are compared by
cross-multiplication, rhs_i / tab_ie < rhs_r / tab_re iff
rhs_i*tab_re < rhs_r*tab_ie as both tab entries are positive, so every
pivot and every answer is that of the same simplex over ``Fraction``
values.

Farkas certificates: integer y >= 0 over rows S with y.A_S = 0 and
y.b_S < 0 prove the LP infeasible, for any (x, s >= 0) would give
0 <= s * y.sigma_S = y.(A_S x + sigma_S s) <= y.b_S < 0, as sigma >= 0.
``farkas_certifies(rows, y)`` checks one over exactly the rows it is
given.  The cell search proposes two-row ones, each clash (rows, y) of
its opposed-pair table (``region.opposed_clash``), before any LP reaches
the kernel, so ``solve_slack_lp`` is the simplex alone: Phase I decides
every empty LP it is given and Phase II returns the optimizer.
"""

from __future__ import annotations

from .geometry import inside_each
from .rng import SplitMix64


def backend_name() -> str:
    return "python"


class LPError(RuntimeError):
    """Internal simplex invariant violated (never expected on valid input)."""


class _Dictionary:
    """The slack LP as a fraction-free simplex dictionary: integer
    numerators over one shared ``den`` > 0."""

    def __init__(self, dim, rows):
        nvar = 2 * dim + 1  # x_j split into u_j - v_j, plus the slack s
        self.den = 1
        # row i: coefficients over nonbasic slots
        self.tab = [[*a, *(-c for c in a), sigma] for a, _, sigma in rows]
        self.rhs = [b for _, b, _ in rows]
        self.tab.append([0] * (nvar - 1) + [1])  # cap row: s <= 1
        self.rhs.append(1)
        self.nonbasic = list(range(nvar))
        self.basic = list(range(nvar, nvar + len(self.tab)))

    def lowest(self, slots):
        # Bland's rule: the slot holding the lowest variable id, or -1
        return min(slots, key=self.nonbasic.__getitem__, default=-1)

    def pivot(self, r, e):
        """Pivot on p = tab[r][e]: p becomes den, and every division is
        exact."""
        tab, rhs, den = self.tab, self.rhs, self.den
        row = tab[r]
        p = row[e]
        for i, other in enumerate(tab):
            if i == r:
                continue
            if f := other[e]:
                other[:] = [(o * p - f * v) // den for o, v in zip(other, row)]
                other[e] = -f
            elif p != den:
                other[:] = [o * p // den for o in other]
            rhs[i] = (rhs[i] * p - f * rhs[r]) // den
        row[e], self.den = den, abs(p)
        if p < 0:  # keep den > 0
            for other in tab:
                other[:] = [-v for v in other]
            rhs[:] = [-v for v in rhs]
        self.nonbasic[e], self.basic[r] = self.basic[r], self.nonbasic[e]

    def bland(self):
        """Maximize the objective tab[-1] (stored negated) and return its
        optimum (its numerator)."""
        tab, rhs, basic = self.tab, self.rhs, self.basic
        obj = tab[-1]
        while (e := self.lowest(j for j in range(len(obj)) if obj[j] < 0)) >= 0:
            cands = [i for i in range(len(tab) - 1) if tab[i][e] > 0]
            if not cands:
                raise LPError("objective unbounded; the s <= 1 cap should prevent this")
            r = cands[0]  # the least rhs_i / tab_ie; ties to the lowest basic id
            for i in cands[1:]:
                d = rhs[i] * tab[r][e] - rhs[r] * tab[i][e]
                if d < 0 or (d == 0 and basic[i] < basic[r]):
                    r = i
            self.pivot(r, e)
        return rhs[-1]

    def phase_one(self):
        """Phase I: return the optimum of -aux, 0 when no rhs is negative.
        Unless it is negative, aux then leaves the dictionary."""
        tab, rhs, nonbasic, den = self.tab, self.rhs, self.nonbasic, self.den
        worst = min(range(len(tab)), key=rhs.__getitem__)
        if rhs[worst] >= 0:
            return 0
        nvar, aux_id = len(nonbasic), len(nonbasic) + len(tab)
        for row in tab:
            row.append(-den)
        nonbasic.append(aux_id)
        tab.append([0] * nvar + [den])
        rhs.append(0)
        self.pivot(worst, nvar)  # aux enters on the first row of least rhs
        z = self.bland()
        if z < 0:
            return z
        del tab[-1], rhs[-1]
        if aux_id in self.basic:
            r = self.basic.index(aux_id)
            e = self.lowest(j for j in range(len(nonbasic)) if tab[r][j] != 0)
            if e < 0:
                raise LPError("auxiliary row vanished on every nonbasic slot")
            self.pivot(r, e)
        slot = nonbasic.index(aux_id)
        del nonbasic[slot]
        for row in tab:
            del row[slot]
        return z

    def phase_two(self):
        """Phase II: maximize the slack s from the feasible dictionary
        Phase I left, and return its optimum (its numerator)."""
        s_id = len(self.nonbasic) - 1  # s, the last of the 2 * dim + 1 variables
        if s_id in self.basic:
            r = self.basic.index(s_id)
            self.tab.append(list(self.tab[r]))
            self.rhs.append(self.rhs[r])
        else:
            self.tab.append([-(v == s_id) * self.den for v in self.nonbasic])
            self.rhs.append(0)
        return self.bland()


def farkas_certifies(rows, y) -> bool:
    """True iff y >= 0, one weight per row of ``rows``, has y.b < 0 and
    y.A = 0, which proves the LP infeasible (see the module docstring)."""
    if not rows or len(y) != len(rows) or min(y) < 0:
        return False
    weighted = [(v * b, *[v * c for c in a]) for v, (a, b, _) in zip(y, rows)]
    yb, *ya = map(sum, zip(*weighted))
    return yb < 0 and not any(ya)


def solve_slack_lp(dim, rows):
    """Maximize the strict-constraint slack over integer rows.

    rows: sequence of (a: tuple of int, b: int, sigma: int >= 0).
    Returns (lp_feasible, x, s, den): the exact Bland optimizer (x, s) of
    a feasible LP as integer numerators over the dictionary's ``den`` > 0,
    x a tuple and s one numerator; (False, None, None, None) when empty.
    """
    lp = _Dictionary(dim, rows)
    if lp.phase_one() < 0:
        return False, None, None, None
    s = lp.phase_two()
    val = dict(zip(lp.basic, lp.rhs))
    x = tuple([val.get(j, 0) - val.get(dim + j, 0) for j in range(dim)])
    return True, x, s, lp.den


# ---------------------------------------------------------------------------
# Sampling sweep: random placements tested for containing exactly one pair.
# ---------------------------------------------------------------------------

def sample_pair_search(shape_rows, points, i, j, homothet, window, trials, seed):
    """Search random placements for one containing exactly points i and j.

    shape_rows: ``shape.integer_rows``.  points: (grid, d) from
    ``geometry.scale_to_integers``.  window: (lox, hix, loy, hiy) integer
    translation bounds.  Returns (trial_index, x) or None, x the hit in
    the (numerators, den) form of ``geometry.inside_each``, unreduced:
    the drawn t = (tx, ty)/t_den and lam = lam_num/lam_den over one
    denominator, x = ((tx*lam_den, ty*lam_den, lam_num*t_den),
    t_den*lam_den).  p_i and p_j come first, so a placement that misses
    one of them stops there.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    lox, hix, loy, hiy = window
    gen = SplitMix64(seed)
    grid, d = points
    grid = [grid[i], grid[j], *(p for k, p in enumerate(grid) if k != i and k != j)]
    for trial in range(trials):
        t_den = 1 + gen.below(32)
        tx = lox * t_den + gen.below((hix - lox) * t_den + 1)
        ty = loy * t_den + gen.below((hiy - loy) * t_den + 1)
        if homothet:
            exp = gen.below(8) - 4  # lam in [2^-4, 2^3 * 15/8]
            mant = 8 + gen.below(8)
            if exp >= 0:
                lam_num, lam_den = mant << exp, 8
            else:
                lam_num, lam_den = mant, 8 << (-exp)
        else:
            lam_num, lam_den = 1, 1
        x = (tx * lam_den, ty * lam_den, lam_num * t_den), t_den * lam_den
        inside = inside_each(shape_rows, grid, d, x)
        if next(inside) and next(inside) and not any(inside):
            return trial, x
    return None
