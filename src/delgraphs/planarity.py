"""Plane-graph verification of straight-line drawings, the triangulation
edge-count check, and exact degeneracy diagnostics.

A drawing is a plane graph when (1) no vertex lies on a non-incident
edge and (2) edges meet only at shared endpoints.  Both conditions are
checked exhaustively and exactly; to keep the all-pairs scans cheap the
rational coordinates are first mapped onto a common integer grid, which
preserves every orientation and incidence predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations

from .geometry import (Point2, Segment, SegmentRelation, convex_hull,
                       on_closed_segment, scale_to_integers, segments_cross)
from .region import LinearConstraint, feasible
from .builder import GeometricGraph, first_leaf
from .shape import HOMOTHET, POSITIVE_SCALE, ConvexShape, membership_constraints

IndexEdge = tuple[int, int]


@dataclass(frozen=True)
class PlanarityReport:
    condition1_violations: tuple[tuple[int, IndexEdge], ...]
    condition2_violations: tuple[tuple[IndexEdge, IndexEdge], ...]

    @property
    def is_plane(self) -> bool:
        return not self.condition1_violations and not self.condition2_violations


def verify_plane(g: GeometricGraph) -> PlanarityReport:
    """Exhaustive exact check of both plane-graph conditions."""
    scaled, _ = scale_to_integers(list(g.points.points))
    pts = [Point2(x, y) for x, y in scaled]
    edges = [(e.i, e.j) for e in g.edges]
    segs = {(i, j): Segment(pts[i], pts[j]) for i, j in edges}

    cond1 = []
    for v in range(len(pts)):
        for (i, j) in edges:
            if v == i or v == j:
                continue
            if on_closed_segment(pts[v], segs[(i, j)]):
                cond1.append((v, (i, j)))

    cond2 = []
    for e1, e2 in combinations(edges, 2):
        if len({e1[0], e1[1], e2[0], e2[1]}) == 2:
            continue  # cannot happen with deduplicated edges, kept defensive
        rel = segments_cross(segs[e1], segs[e2])
        if rel is SegmentRelation.CROSSING_OR_OVERLAPPING:
            cond2.append((e1, e2))

    return PlanarityReport(tuple(cond1), tuple(cond2))


@dataclass(frozen=True)
class TriangulationReport:
    """Edge counts of a plane drawing against two triangulation counts.

    ``matches`` compares with 3n - 3 - h (h = ``hull_size``), the count of
    a triangulation of the point set.  A polygonal shape need not reach
    it: a convex-hull pair can be a true non-edge.  ``triangulated`` is
    the verdict: the graph is connected and has 3n - 3 - k edges
    (k = ``outer_size``, the outer-face walk length), which holds exactly
    when every bounded face is a triangle.  ``outer_size`` is 0 for a
    disconnected graph; both verdicts are False when not applicable.
    """
    applicable: bool
    edge_count: int
    hull_size: int
    expected_count: int
    matches: bool
    outer_size: int
    connected: bool
    triangulated: bool


def triangulation_check(g: GeometricGraph) -> TriangulationReport:
    """Compare the edge count of a plane drawing against 3n - 3 - h, the
    convex-hull count, and against 3n - 3 - k, the outer-face count (see
    ``TriangulationReport``).  Undefined for n < 3 or fully collinear
    sets, reported as not applicable."""
    n = len(g.points)
    e = len(g.edges)
    scaled, _ = scale_to_integers(list(g.points.points))
    connected, k = _outer_face_walk(scaled, [(ed.i, ed.j) for ed in g.edges])
    if n < 3:
        return TriangulationReport(False, e, 0, 0, False, k, connected, False)
    hull = convex_hull([Point2(x, y) for x, y in scaled])
    h = len(hull)
    if h <= 2:
        return TriangulationReport(False, e, h, 0, False, k, connected, False)
    expected = 3 * n - 3 - h
    return TriangulationReport(True, e, h, expected, e == expected, k,
                               connected, connected and e == 3 * n - 3 - k)


def _half(d: tuple[int, int]) -> int:
    """0 for directions at angles [0, pi), 1 for [pi, 2 pi)."""
    return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1


def _ccw_cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Exact counterclockwise order of nonzero integer directions,
    starting at angle 0: half-plane first, then the cross product."""
    if _half(a) != _half(b):
        return _half(a) - _half(b)
    cross = a[0] * b[1] - a[1] * b[0]
    return (cross < 0) - (cross > 0)


def _outer_face_walk(pts: list[tuple[int, int]],
                     edges: list[IndexEdge]) -> tuple[bool, int]:
    """(connected, k) for a plane straight-line drawing on integer
    points, where k is the length of the closed walk around the outer
    face, a bridge counted once per side; k is 0 when not connected.

    Neighbours are kept in counterclockwise order.  Entering v from u,
    the walk leaves along the neighbour next clockwise from u, which
    keeps the current face on its left.  It starts at the lowest vertex
    v0 in (x, y) order: the ray from v0 towards -x meets nothing, so the
    dart from v0 to its neighbour first clockwise from that ray has the
    outer face on its left.
    """
    n = len(pts)
    if n == 0:
        return True, 0
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    reached = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) < n:
        return False, 0
    slot = {}
    for v in range(n):
        vx, vy = pts[v]
        adj[v].sort(key=cmp_to_key(lambda a, b: _ccw_cmp(
            (pts[a][0] - vx, pts[a][1] - vy), (pts[b][0] - vx, pts[b][1] - vy))))
        for idx, w in enumerate(adj[v]):
            slot[v, w] = idx
    v0 = min(range(n), key=pts.__getitem__)
    if not adj[v0]:
        return True, 0  # a single vertex
    # -x is the first direction of half 1 and no neighbour of v0 lies on
    # it, so its clockwise predecessor follows the neighbours in half 0
    upper = sum(1 for w in adj[v0]
                if _half((pts[w][0] - pts[v0][0], pts[w][1] - pts[v0][1])) == 0)
    start = (v0, adj[v0][upper - 1])
    u, v = start
    k = 0
    while True:
        k += 1
        u, v = v, adj[v][slot[v, u] - 1]
        if (u, v) == start:
            return True, k


# ---------------------------------------------------------------------------
# Degeneracy diagnostics
# ---------------------------------------------------------------------------

def collinear_triples(points) -> list[tuple[int, int, int]]:
    scaled, _ = scale_to_integers(list(points))
    out = []
    for i, j, k in combinations(range(len(scaled)), 3):
        (ax, ay), (bx, by), (cx, cy) = scaled[i], scaled[j], scaled[k]
        if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
            out.append((i, j, k))
    return out


def on_common_homothet_boundary(points, shape: ConvexShape,
                                indices) -> bool:
    """Exact test whether all the chosen points lie on the boundary of a
    single homothet of a closed full-dimensional shape.

    A point sits on the placed boundary iff it is inside and at least one
    half-plane is tight, so the search assigns one tight half-plane per
    point and decides the equality-tightened system by LP, pruning
    assignment prefixes as soon as they go infeasible.  The search is
    ``builder.first_leaf``: a prefix's point that also satisfies the next
    tight row decides that assignment without an LP, which lowers the LP
    count and never changes the answer.

    Before any LP, exact dot products rule out most assignments.  If p is
    tight on the half-plane a.x <= b of C, then a.(p - t) = lam*b while
    every other chosen point q is inside, a.(q - t) <= lam*b; hence
    a.q <= a.p.  A strict half-plane is never tight (its row a.(p - t) <
    lam*b contradicts equality).  So p may take a half-plane only if it is
    closed and p maximises a over the chosen points, ties included.  Each
    assignment this drops is one the LP would find empty, so the answer
    is unchanged; a point left with no half-plane decides False at once.
    """
    if not shape.halfplanes:
        return False
    chosen = [points[idx] for idx in indices]
    mems = [membership_constraints(shape, p, HOMOTHET) for p in chosen]
    allowed: list[list[tuple[LinearConstraint]]] = [[] for _ in chosen]
    for hi, h in enumerate(shape.halfplanes):
        if h.strict:
            continue
        dots = [h.a[0] * p.x + h.a[1] * p.y for p in chosen]
        top = max(dots, default=0)
        for pi, d in enumerate(dots):
            if d == top:  # c with its reversed closed row pins a.x == b
                c = mems[pi][hi]
                allowed[pi].append(
                    (LinearConstraint(tuple(-v for v in c.coeffs), -c.bound),))
    if not all(allowed):
        return False
    base = (POSITIVE_SCALE, *(c for m in mems for c in m))
    x = feasible(3, base)
    return x is not None and first_leaf(3, base, allowed, x) is not None


def find_boundary_degeneracy(points, shape: ConvexShape) -> tuple[int, ...] | None:
    """First 4-point subset (lexicographic) on a common homothet boundary,
    or None.  Used to trace triangulation-count misses back to the
    degeneracy that legitimately excuses them."""
    for quad in combinations(range(len(points)), 4):
        if on_common_homothet_boundary(points, shape, quad):
            return quad
    return None
