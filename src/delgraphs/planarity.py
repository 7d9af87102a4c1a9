"""Plane-graph verification of straight-line drawings, the triangulation
face check, and exact degeneracy diagnostics, all on integers: the
points go on their common grid of int pairs, which preserves every
orientation and incidence predicate, so ``geometry``'s predicates run on
the grid as they are, and the boundary scan's rows are made from it and
the cleared shape (``shape.membership_constraints``).

A drawing is a plane graph when (1) no vertex lies on a non-incident
edge and (2) edges meet only at shared endpoints, both checked
exhaustively.  Two edges that meet without crossing properly meet at an
endpoint of one of them, on the other edge; so condition 2 is the proper
crossings plus the pairs a condition-1 incidence at an endpoint links.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .geometry import convex_hull, on_closed_segment, orient, scale_to_integers
from .region import LinearConstraint, feasible, halfspace  # noqa: F401  (tracing wraps feasible)
from .builder import GeometricGraph, first_leaf
from .shape import (HOMOTHET, POSITIVE_SCALE, ConvexShape, integer_rows,
                    membership_constraints)

IndexEdge = tuple[int, int]


@dataclass(frozen=True)
class PlanarityReport:
    condition1_violations: tuple[tuple[int, IndexEdge], ...]
    condition2_violations: tuple[tuple[IndexEdge, IndexEdge], ...]

    @property
    def is_plane(self) -> bool:
        return not self.condition1_violations and not self.condition2_violations


def verify_plane(g: GeometricGraph) -> PlanarityReport:
    """Exhaustive exact check of both plane-graph conditions.

    Two edges that meet but do not cross properly (strictly opposite
    orientation signs both ways) meet at an endpoint of one of them: a
    zero sign between non-collinear edges puts that endpoint at the
    meeting point, and a collinear overlap ends at endpoints.  The points
    are distinct, so that endpoint is shared or is a condition-1
    incidence; condition 2 lists the proper crossings and the pairs
    condition 1 links.
    """
    pts, _ = scale_to_integers(list(g.points.points))
    edges = [(e.i, e.j) for e in g.edges]
    cond1 = []
    for v in range(len(pts)):
        for e in edges:
            if v not in e and on_closed_segment(pts[v], pts[e[0]], pts[e[1]]):
                cond1.append((v, e))
    linked = {p for v, f in cond1 for e in edges if v in e
              for p in ((e, f), (f, e))}
    cond2 = []
    for e, f in combinations(edges, 2):
        a, b, c, d = pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]]
        if (e, f) in linked or (orient(a, b, c) * orient(a, b, d) < 0
                                and orient(c, d, a) * orient(c, d, b) < 0):
            cond2.append((e, f))
    return PlanarityReport(tuple(cond1), tuple(cond2))


@dataclass(frozen=True)
class TriangulationReport:
    """Triangulation verdicts for a plane drawing, applicable when the
    points' convex hull has h > 2 vertices (n >= 3, not all collinear).

    ``matches``: the edge count is 3n - 3 - h, the count of a
    triangulation of the point set.  A polygonal shape need not reach
    it: a convex-hull pair can be a true non-edge.  ``triangulated`` is
    the verdict: the graph is connected with every bounded face a
    triangle (Euler: E - n + 1 empty 3-cycles).  Both are False when not
    applicable.
    """
    applicable: bool
    matches: bool
    triangulated: bool


def triangulation_check(g: GeometricGraph) -> TriangulationReport:
    """The ``TriangulationReport`` of a plane drawing: the hull count
    3n - 3 - h and the empty-triangle face test, each decided only when
    h > 2 (h = 0 for n < 3)."""
    pts, _ = scale_to_integers(list(g.points.points))
    n, e = len(pts), len(g.edges)
    h = len(convex_hull(pts)) if n >= 3 else 0
    applicable = h > 2
    return TriangulationReport(
        applicable, applicable and e == 3 * n - 3 - h,
        applicable and _faces_are_triangles(pts, [(ed.i, ed.j) for ed in g.edges]))


def _faces_are_triangles(pts: list[tuple[int, int]], edges: list[IndexEdge]) -> bool:
    """Whether a plane straight-line drawing is connected with every
    bounded face a triangle.

    A connected plane drawing has E - n + 1 bounded faces (Euler).  A
    3-cycle with no point strictly inside bounds one of them, since no
    edge can enter it, and a triangular face is such a 3-cycle; so the
    faces are all triangles iff there are E - n + 1 empty 3-cycles.
    """
    adj: list[set[int]] = [set() for _ in pts]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    stack = [0] if pts else []
    reached = set(stack)
    while stack:
        for w in adj[stack.pop()] - reached:
            reached.add(w)
            stack.append(w)
    if len(reached) < len(pts):
        return False
    empty = 0
    for i, a in enumerate(pts):
        for j in adj[i]:
            for k in adj[i] & adj[j]:
                if i < j < k:
                    b, c = pts[j], pts[k]
                    empty += not any(
                        orient(a, b, p) == orient(b, c, p) == orient(c, a, p) != 0
                        for p in pts)
    return empty == len(edges) - len(pts) + 1


# ---------------------------------------------------------------------------
# Degeneracy diagnostics
# ---------------------------------------------------------------------------

def collinear_triples(points) -> list[tuple[int, int, int]]:
    pts, _ = scale_to_integers(list(points))
    return [(i, j, k) for i, j, k in combinations(range(len(pts)), 3)
            if orient(pts[i], pts[j], pts[k]) == 0]


def _boundary_rows(shape: ConvexShape, points) -> list[tuple]:
    """Per point: its homothet membership rows, the one-row piece pinning
    a.x == b for each half-plane (its closed row reversed; None when
    open), and its dot products a.p on integers, each half-plane's
    scaled by one positive factor so they compare as a.p does."""
    rows = integer_rows(shape)
    grid, d = scale_to_integers(list(points))
    out = []
    for mem, (x, y) in zip(membership_constraints(rows, grid, d, HOMOTHET), grid):
        tight = [None if c.strict else
                 (halfspace(tuple([-v for v in c.row[0]]), -c.row[1], False, c.scale),)
                 for c in mem]
        out.append((mem, tight, [ax * x + ay * y for (ax, ay, _), _, _ in rows]))
    return out


def on_common_homothet_boundary(shape: ConvexShape, chosen: list[tuple]) -> bool:
    """Exact test whether all the chosen points, given by their
    ``_boundary_rows`` entries, lie on the boundary of a single homothet
    of a closed full-dimensional shape.

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
    allowed: list[list[tuple[LinearConstraint]]] = [[] for _ in chosen]
    for hi, h in enumerate(shape.halfplanes):
        if h.strict:
            continue
        top = max((dots[hi] for _, _, dots in chosen), default=0)
        for pi, (_, tight, dots) in enumerate(chosen):
            if dots[hi] == top:
                allowed[pi].append(tight[hi])
    if not all(allowed):
        return False
    base = (POSITIVE_SCALE, *(c for mem, _, _ in chosen for c in mem))
    return first_leaf(3, base, allowed) is not None


def find_boundary_degeneracy(points, shape: ConvexShape) -> tuple[int, ...] | None:
    """First 4-point subset (lexicographic) on a common homothet boundary,
    or None.  Used to trace triangulation-count misses back to the
    degeneracy that legitimately excuses them.  Each point's rows are
    made once per scan and shared by every quad's search."""
    rows = _boundary_rows(shape, points)
    for quad in combinations(range(len(points)), 4):
        if on_common_homothet_boundary(shape, [rows[k] for k in quad]):
            return quad
    return None
