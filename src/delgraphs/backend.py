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
        row += [-c for c in row[:dim]]
        row.append(Fraction(sigma))
        tab.append(row)
        rhs.append(Fraction(b))
    # cap row: s <= 1
    cap = [_ZERO] * nvar
    cap[s_id] = _ONE
    tab.append(cap)
    rhs.append(_ONE)

    m = len(tab)
    nonbasic = list(range(nvar))
    basic = [nvar + i for i in range(m)]

    def pivot(r, e):
        piv = tab[r][e]
        inv = 1 / piv
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

    def bland(obj, obj0):
        # obj: coefficients over nonbasic slots; returns final (obj, obj0)
        while True:
            e = -1
            e_id = None
            for j in range(len(nonbasic)):
                if obj[j] > 0 and (e_id is None or nonbasic[j] < e_id):
                    e = j
                    e_id = nonbasic[j]
            if e < 0:
                return obj, obj0
            r = -1
            best = None
            r_id = None
            for i in range(len(tab)):
                coef = tab[i][e]
                if coef > 0:
                    ratio = rhs[i] / coef
                    if best is None or ratio < best or (ratio == best and basic[i] < r_id):
                        best = ratio
                        r = i
                        r_id = basic[i]
            if r < 0:
                raise LPError("objective unbounded; the s <= 1 cap should prevent this")
            f = obj[e]
            pivot(r, e)
            row = tab[r]
            for j in range(len(obj)):
                obj[j] = obj[j] - f * row[j]
            obj[e] = -f * row[e]
            obj0 = obj0 + f * rhs[r]

    # Phase I: if some rhs is negative, bring in the auxiliary variable.
    worst = 0
    for i in range(1, m):
        if rhs[i] < rhs[worst]:
            worst = i
    if rhs[worst] < 0:
        aux_id = nvar + m
        for row in tab:
            row.append(Fraction(-1))
        nonbasic.append(aux_id)
        obj = [_ZERO] * len(nonbasic)
        obj[-1] = Fraction(-1)
        obj0 = _ZERO
        # special first pivot makes every rhs nonnegative
        e = len(nonbasic) - 1
        r = worst
        for i in range(m):
            if rhs[i] < rhs[r] or (rhs[i] == rhs[r] and basic[i] < basic[r]):
                r = i
        f = obj[e]
        pivot(r, e)
        row = tab[r]
        for j in range(len(obj)):
            obj[j] = obj[j] - f * row[j]
        obj[e] = -f * tab[r][e]
        obj0 = obj0 + f * rhs[r]

        obj, obj0 = bland(obj, obj0)
        if obj0 < 0:
            return False, None, None
        if aux_id in basic:
            r = basic.index(aux_id)
            e = -1
            e_id = None
            for j in range(len(nonbasic)):
                if tab[r][j] != 0 and (e_id is None or nonbasic[j] < e_id):
                    e = j
                    e_id = nonbasic[j]
            if e < 0:
                # row reads aux = 0 with no dependence: drop it
                del tab[r], rhs[r], basic[r]
            else:
                pivot(r, e)
        slot = nonbasic.index(aux_id)
        del nonbasic[slot]
        for row in tab:
            del row[slot]

    # Phase II: maximize s in the current dictionary.
    obj = [_ZERO] * len(nonbasic)
    obj0 = _ZERO
    if s_id in basic:
        r = basic.index(s_id)
        obj = [-c for c in tab[r]]
        obj0 = rhs[r]
    else:
        obj[nonbasic.index(s_id)] = _ONE
    obj, obj0 = bland(obj, obj0)

    val = {}
    for i, vid in enumerate(basic):
        val[vid] = rhs[i]
    x = tuple(val.get(j, _ZERO) - val.get(dim + j, _ZERO) for j in range(dim))
    return True, x, obj0


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
