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

Dictionary convention: ``cols[0]`` is the rhs and ``cols[1 + k]`` slot
k's column, so row i reads ``basic_i = (rhs_i - row_i . nonbasic) / den``.
The objective is the last row, the last entry of every column, kept
negated: a slot may enter while its column ends negative, and every
pivot updates the objective with the other rows.  One Bland loop serves
both phases.  Phase I appends an auxiliary column of -1s and maximizes
-aux.  If aux is still basic at its end, its row has a nonzero entry on
some nonbasic slot: each row is ``y . [A | I | -1]`` for some
multipliers y, every slack column is still present, so a row reading
``aux = rhs`` alone would force y = 0.

The dictionary is fraction-free (Edmonds 1967, Bareiss 1968): its
entries are integer numerators over one shared ``den`` > 0, 1 at the
start.  A pivot on p = cols[1 + e][r], with g = sign(p) times that
column, passes once over each other column (the rhs too) as its row-r
entry v needs: row i goes to ``(o*|p| - g_i*v) // den`` and row r to
sign(p)*v.  At v = 0 that is the scale ``o*|p| // den``, and nothing at
|p| = den.  The pivot column goes to -g, sign(p)*den in row r, and
``den`` to |p| > 0.  Each division is exact, the scale's too as the
same update: ``den`` is, up to sign, the determinant of the basis
matrix B over the integer data, and each numerator is det(B) times an
entry of B^-1 times the data, a minor by Cramer's rule.  Rows and
columns appended later (the aux column, the Phase I and Phase II
objectives) go in times ``den``.  As ``den`` > 0, every sign test reads
the same on numerators as on values, and a ratio rhs_i / col_i does not
depend on ``den``.  Ratios are compared by cross-multiplication, as
both col entries are positive, so every pivot and every answer is that
of the same simplex over ``Fraction`` values.

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
    """The slack LP as a fraction-free simplex dictionary stored by
    columns: integer numerators over one shared ``den`` > 0."""

    def __init__(self, dim, rows):
        nvar = 2 * dim + 1  # x_j split into u_j - v_j, plus the slack s
        self.den = 1
        # the rhs, then slot k's column; the last row is the cap s <= 1
        xs = [[a[j] for a, _, _ in rows] for j in range(dim)]
        self.cols = [[b for _, b, _ in rows] + [1], *(c + [0] for c in xs),
                     *([-v for v in c] + [0] for c in xs), [s for *_, s in rows] + [1]]
        self.nonbasic = list(range(nvar))
        self.basic = list(range(nvar, nvar + len(rows) + 1))

    def lowest(self, slots):
        # Bland's rule: the slot holding the lowest variable id, or -1
        return min(slots, key=self.nonbasic.__getitem__, default=-1)

    def pivot(self, r, e):
        """Pivot on p = cols[1 + e][r]: p becomes den, every division is
        exact, and each column is rewritten only as its row-r entry needs."""
        cols, den, c = self.cols, self.den, e + 1
        f = cols[c]
        p = f[r]
        q = abs(p)
        if p > 0:  # g = sign(p) * f; the new pivot column is -g, den at r
            g, new = f, [-v for v in f]
            new[r] = den
        else:
            g, new = [-v for v in f], f
            new[r] = -den
        g[r] = q - new[r]  # which takes row r of every column to sign(p) * v
        for k, col in enumerate(cols):
            if k == c:
                continue
            if v := col[r]:
                cols[k] = [(o * q - h * v) // den for o, h in zip(col, g)]
            elif q != den:
                cols[k] = [o * q // den for o in col]
        cols[c], self.den = new, q
        self.nonbasic[e], self.basic[r] = self.basic[r], self.nonbasic[e]

    def bland(self):
        """Maximize the objective, the last row (stored negated), and
        return its optimum (its numerator)."""
        cols, basic = self.cols, self.basic
        slots = range(len(cols) - 1)
        while (e := self.lowest(j for j in slots if cols[j + 1][-1] < 0)) >= 0:
            rhs, col = cols[0], cols[e + 1]
            r = -1  # the least rhs_i / col_i over col_i > 0; ties to the lowest basic id
            for i in range(len(col) - 1):
                if (t := col[i]) <= 0:
                    continue
                d = rhs[i] * col[r] - rhs[r] * t if r >= 0 else -1
                if d < 0 or d == 0 and basic[i] < basic[r]:
                    r = i
            if r < 0:
                raise LPError("objective unbounded; the s <= 1 cap should prevent this")
            self.pivot(r, e)
        return cols[0][-1]

    def phase_one(self):
        """Phase I: return the optimum of -aux, 0 when no rhs is negative.
        Unless it is negative, aux then leaves the dictionary."""
        cols, nonbasic, den = self.cols, self.nonbasic, self.den
        rhs = cols[0]
        m = len(rhs)
        worst = min(range(m), key=rhs.__getitem__)
        if rhs[worst] >= 0:
            return 0
        nvar, aux_id = len(nonbasic), len(nonbasic) + m
        for col in cols:
            col.append(0)  # the objective row, -aux
        cols.append([-den] * m + [den])
        nonbasic.append(aux_id)
        self.pivot(worst, nvar)  # aux enters on the first row of least rhs
        z = self.bland()
        if z < 0:
            return z
        for col in cols:
            del col[-1]
        if aux_id in self.basic:
            r = self.basic.index(aux_id)
            e = self.lowest(j for j in range(len(nonbasic)) if cols[j + 1][r] != 0)
            if e < 0:
                raise LPError("auxiliary row vanished on every nonbasic slot")
            self.pivot(r, e)
        slot = nonbasic.index(aux_id)
        del nonbasic[slot], cols[slot + 1]
        return z

    def phase_two(self):
        """Phase II: maximize the slack s from the feasible dictionary
        Phase I left, and return its optimum (its numerator)."""
        cols = self.cols
        s_id = len(self.nonbasic) - 1  # s, the last of the 2 * dim + 1 variables
        if s_id in self.basic:
            r = self.basic.index(s_id)
            for col in cols:
                col.append(col[r])
        else:
            cols[0].append(0)
            for v, col in zip(self.nonbasic, cols[1:]):
                col.append(-(v == s_id) * self.den)
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
    val = dict(zip(lp.basic, lp.cols[0]))
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
