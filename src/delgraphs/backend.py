"""The exact kernels: the slack-maximizing simplex and the
placement-sampling sweep.  All arithmetic is exact rational.

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
``basic_i = rhs_i - tab_i . nonbasic``.  The objective is the last row,
stored the same way, so ``z = rhs[-1] - tab[-1] . nonbasic`` keeps its
coefficients negated: a slot may enter while ``tab[-1]`` is negative there,
and every pivot updates the objective with the other rows.  One Bland loop
serves both phases.  Phase I appends an auxiliary column of -1s and
maximizes -aux.  If aux is still basic at its end, its row has a nonzero
entry on some nonbasic slot: each row is ``y . [A | I | -1]`` for some
multipliers y, every slack column is still present, so a row reading
``aux = rhs`` alone would force y = 0.
"""

from __future__ import annotations

from fractions import Fraction

from .rng import SplitMix64

_ZERO = Fraction(0)
_ONE = Fraction(1)


def backend_name() -> str:
    return "python"


class LPError(RuntimeError):
    """Internal simplex invariant violated (never expected on valid input)."""


def solve_slack_lp(dim, rows):
    """Maximize the strict-constraint slack over integer rows.

    rows: sequence of (a: tuple of int, b: int, sigma: int).
    Returns (lp_feasible, x: tuple of Fraction or None, s: Fraction or None).
    """
    nvar = 2 * dim + 1  # x_j split into u_j - v_j, plus the slack s
    s_id = 2 * dim

    tab = []  # row i: coefficients over nonbasic slots
    rhs = []
    for a, b, sigma in rows:
        row = [Fraction(c) for c in a]
        tab.append(row + [-c for c in row] + [Fraction(sigma)])
        rhs.append(Fraction(b))
    tab.append([_ZERO] * s_id + [_ONE])  # cap row: s <= 1
    rhs.append(_ONE)

    m = len(tab)
    nonbasic = list(range(nvar))
    basic = list(range(nvar, nvar + m))

    def lowest(slots):
        # Bland's rule: the slot holding the lowest variable id, or -1
        return min(slots, key=nonbasic.__getitem__, default=-1)

    def pivot(r, e):
        inv = 1 / tab[r][e]
        row = tab[r]
        for j in range(len(row)):
            row[j] = row[j] * inv
        row[e] = inv
        rhs[r] = rhs[r] * inv
        for i in range(len(tab)):
            if i == r:
                continue
            f = tab[i][e]
            if f == 0:
                continue
            other = tab[i]
            for j in range(len(row)):
                other[j] = other[j] - f * row[j]
            other[e] = -f * inv
            rhs[i] = rhs[i] - f * rhs[r]
        nonbasic[e], basic[r] = basic[r], nonbasic[e]

    def bland():
        # maximize the objective tab[-1] (stored negated); return its optimum
        obj = tab[-1]
        while (e := lowest(j for j in range(len(obj)) if obj[j] < 0)) >= 0:
            r = -1
            for i in range(len(tab) - 1):
                coef = tab[i][e]
                if coef > 0:
                    ratio = rhs[i] / coef
                    if r < 0 or ratio < best or (ratio == best and basic[i] < basic[r]):
                        best = ratio
                        r = i
            if r < 0:
                raise LPError("objective unbounded; the s <= 1 cap should prevent this")
            pivot(r, e)
        return rhs[-1]

    # Phase I: entering aux on the first row with the least rhs makes every rhs >= 0.
    worst = min(range(m), key=rhs.__getitem__)
    if rhs[worst] < 0:
        aux_id = nvar + m
        for row in tab:
            row.append(Fraction(-1))
        nonbasic.append(aux_id)
        tab.append([_ZERO] * nvar + [_ONE])
        rhs.append(_ZERO)
        pivot(worst, nvar)
        if bland() < 0:
            return False, None, None
        del tab[-1], rhs[-1]
        if aux_id in basic:
            r = basic.index(aux_id)
            e = lowest(j for j in range(len(nonbasic)) if tab[r][j] != 0)
            if e < 0:
                raise LPError("auxiliary row vanished on every nonbasic slot")
            pivot(r, e)
        slot = nonbasic.index(aux_id)
        del nonbasic[slot]
        for row in tab:
            del row[slot]

    # Phase II: maximize s in the current dictionary.
    if s_id in basic:
        r = basic.index(s_id)
        tab.append(list(tab[r]))
        rhs.append(rhs[r])
    else:
        tab.append([-_ONE if v == s_id else _ZERO for v in nonbasic])
        rhs.append(_ZERO)
    s = bland()

    val = dict(zip(basic, rhs))
    x = tuple(val.get(j, _ZERO) - val.get(dim + j, _ZERO) for j in range(dim))
    return True, x, s


# ---------------------------------------------------------------------------
# Sampling sweep: random placements tested for containing exactly one pair.
# ---------------------------------------------------------------------------

def sample_pair_search(shape_rows, points, i, j, homothet, window, trials, seed):
    """Search random placements for one containing exactly points i and j.

    shape_rows: ((ax, ay, b), strict) with integer data (denominators cleared
    per row).  points: (px, py, pd) integer triples, pd > 0 the shared
    denominator.  window: (lox, hix, loy, hiy) integer translation bounds.
    Returns (trial_index, tx_num, ty_num, t_den, lam_num, lam_den) or None.

    A placement (t, lam) contains p iff for every row
    a.(p - t) <= lam*b (strict rows: <).  With t = (Tx/Td, Ty/Td) and
    lam = Ln/Ld, clearing denominators gives the integer test
        b*Ln*Td*pd - Ld*(ax*(px*Td - Tx*pd) + ay*(py*Td - Ty*pd))  >= 0
    (> 0 on strict rows).
    """
    lox, hix, loy, hiy = window
    gen = SplitMix64(seed)
    n = len(points)
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

        ok = True
        count = 0
        for k in range(n):
            if _contained_int(shape_rows, points[k], tx, ty, t_den, lam_num, lam_den):
                if k != i and k != j:
                    ok = False
                    break
                count += 1
            elif k == i or k == j:
                ok = False
                break
        if ok and count == 2:
            return trial, tx, ty, t_den, lam_num, lam_den
    return None


def _contained_int(shape_rows, pt, tx, ty, t_den, lam_num, lam_den):
    px, py, pd = pt
    for (ax, ay, b), strict in shape_rows:
        v = (b * lam_num * t_den * pd
             - lam_den * (ax * (px * t_den - tx * pd) + ay * (py * t_den - ty * pd)))
        if v < 0 or (strict and v == 0):
            return False
    return True
