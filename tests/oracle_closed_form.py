"""Closed-form edge oracle for shapes whose placements reach an
upward-closed set of offsets.

Deliberately shares no code with the production builder, region or LP
kernel.  Write the shape as C = {x : a_k.x <= b_k} (strict or not) and
u(p) = (a_k.p)_k.  The placed copy lam*C + t contains p iff
u(p) <= c componentwise, strictly on open rows, at the offset vector
c = lam*b + A t.  When the reachable offsets form an upward-closed set
holding c* = max(u(p_i), u(p_j)), the pair (i, j) is an edge iff no
third point r has u(r) <= c*: such an r lies in every placement that
holds both endpoints, and otherwise c* raised a little on the open rows
holds p_i and p_j and no other point.  The reachable set is all of R^k
for one half-plane and for a wedge (two independent normals), in both
modes; for a triangle in homothet mode it is {c : w.c > 0}, w > 0 the
positive relation w.A = 0 with w.b > 0, and w.c* >= w.u(p_i) = 0 with
equality only when p_i = p_j.
"""

from __future__ import annotations

from itertools import combinations


def _det2(p, q):
    return p[0] * q[1] - p[1] * q[0]


def closed_form_applies(halfplanes, homothet: bool) -> bool:
    """halfplanes: ((ax, ay), b, strict) triples.  True for one
    half-plane, a wedge, or (homothet only) a nonempty triangle."""
    normals = [a for a, _, _ in halfplanes]
    if len(normals) == 1:
        return True
    if len(normals) == 2:
        return _det2(*normals) != 0
    if len(normals) == 3 and homothet:
        a1, a2, a3 = normals
        w = (_det2(a2, a3), _det2(a3, a1), _det2(a1, a2))  # w.A = 0
        if min(w) < 0:
            w = tuple(-v for v in w)
        return min(w) > 0 and sum(v * b for v, (_, b, _) in zip(w, halfplanes)) > 0
    return False


def closed_form_edges(points, halfplanes, homothet: bool) -> set[tuple[int, int]]:
    """Edge pairs (i < j) of the translate (``homothet`` False) or homothet
    graph of ``points`` ((x, y) pairs) under the shape ``halfplanes``."""
    if not closed_form_applies(halfplanes, homothet):
        raise ValueError("no closed form for this shape and mode")
    u = [tuple(ax * x + ay * y for (ax, ay), _, _ in halfplanes) for x, y in points]
    edges = set()
    for i, j in combinations(range(len(points)), 2):
        top = [max(v, w) for v, w in zip(u[i], u[j])]
        if not any(all(v <= t for v, t in zip(u[r], top))
                   for r in range(len(points)) if r != i and r != j):
            edges.add((i, j))
    return edges
