import itertools
import random
from enum import Enum
from fractions import Fraction

import pytest

from delgraphs import backend, planarity
from delgraphs.builder import Edge, GeometricGraph, PointSet, build_graph
from delgraphs.geometry import (convex_hull, on_closed_segment, orient, point,
                                scale_to_integers)
from delgraphs.instances import generate_bounded_instance, generate_instance
from delgraphs.planarity import (collinear_triples, find_boundary_degeneracy,
                                 on_common_homothet_boundary,
                                 triangulation_check, verify_plane)
from delgraphs.region import constraint, feasible
from delgraphs.shape import (HOMOTHET, POSITIVE_SCALE, TRANSLATE, Placement,
                             shape_from_rows)

F = Fraction

CLOSED_UNIT_SQUARE = shape_from_rows([
    (1, 0, 1, False), (-1, 0, 0, False), (0, 1, 1, False), (0, -1, 0, False)])
SQUARE_CORNERS = PointSet((point(0, 0), point(2, 0), point(0, 2), point(2, 2)))
W = Placement((F(0), F(0)), F(1))


def drawing(points, edges):
    return GeometricGraph(points, CLOSED_UNIT_SQUARE, HOMOTHET,
                          tuple(Edge(i, j, W) for i, j in edges))


def test_four_cycle_is_plane():
    g = drawing(SQUARE_CORNERS, [(0, 1), (0, 2), (1, 3), (2, 3)])
    rep = verify_plane(g)
    assert rep.is_plane
    assert rep.condition1_violations == () and rep.condition2_violations == ()


def test_k4_diagonals_flagged():
    g = drawing(SQUARE_CORNERS, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (1, 2)])
    rep = verify_plane(g)
    assert not rep.is_plane
    assert ((0, 3), (1, 2)) in rep.condition2_violations


def test_vertex_interior_to_edge_flagged():
    P = PointSet((point(0, 0), point(1, 0), point(2, 0)))
    rep = verify_plane(drawing(P, [(0, 2)]))
    assert rep.condition1_violations == ((1, (0, 2)),)
    assert not rep.is_plane


def test_shared_endpoints_are_fine():
    P = PointSet((point(0, 0), point(1, 0), point(1, 1), point(0, 1)))
    star = drawing(P, [(0, 1), (0, 2), (0, 3)])
    assert verify_plane(star).is_plane


def test_rational_coordinates_handled_exactly():
    # exact midpoint of a nearly-unit-slope segment: on the segment,
    # so condition 1 must fire
    top = F(10**12 + 1, 10**12)
    P_on = PointSet((point(0, 0), point(1, top), point(F(1, 2), top / 2)))
    rep = verify_plane(drawing(P_on, [(0, 1)]))
    assert not rep.is_plane
    assert rep.condition1_violations == ((2, (0, 1)),)
    # displaced by 1/(2*10^12): off the segment, far below float resolution
    P_off = PointSet((point(0, 0), point(1, top),
                      point(F(1, 2), top / 2 - F(1, 2 * 10**12))))
    assert verify_plane(drawing(P_off, [(0, 1)])).is_plane


@pytest.mark.parametrize("coords,edges,cond1,cond2", [
    ([(0, 0), (2, 2), (0, 2), (2, 0)], [(0, 1), (2, 3)], (), (((0, 1), (2, 3)),)),
    ([(0, 0), (2, 0), (1, 0), (1, 1)], [(0, 1), (2, 3)],
     ((2, (0, 1)),), (((0, 1), (2, 3)),)),
    ([(0, 0), (2, 0), (1, 0), (3, 0)], [(0, 1), (2, 3)],
     ((1, (2, 3)), (2, (0, 1))), (((0, 1), (2, 3)),)),
    ([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)], (), ()),
    ([(0, 0), (0, 1), (0, 3)], [(0, 1), (1, 2)], (), ()),
    ([(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 1), (2, 3)], (), ()),
    ([(0, 0), (1, 0), (1, 1)], [(0, 1), (1, 2)], (), ()),
    ([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1), (2, 3)], (), ()),
    ([(0, 0), (1, 1)], [(0, 1), (0, 1)], (), ()),
    ([(0, 0), (2, 2), (1, 1), (5, 0)], [(0, 1), (2, 3)],
     ((2, (0, 1)),), (((0, 1), (2, 3)),)),
], ids=["proper-crossing", "t-contact", "collinear-overlap",
        "collinear-shared-endpoint", "vertical-collinear-shared-endpoint",
        "collinear-disjoint", "shared-endpoint-at-an-angle", "disjoint",
        "repeated-edge", "endpoint-inside-not-collinear"])
def test_two_edge_drawings(coords, edges, cond1, cond2):
    P = PointSet(tuple(point(x, y) for x, y in coords))
    rep = verify_plane(drawing(P, edges))
    assert rep.condition1_violations == cond1
    assert rep.condition2_violations == cond2


class SegmentRelation(Enum):
    DISJOINT = "disjoint"
    SHARED_ENDPOINT_ONLY = "shared-endpoint-only"
    CROSSING_OR_OVERLAPPING = "crossing-or-overlapping"


def segments_cross(s1, s2) -> SegmentRelation:
    """Exact classification of the intersection of two closed segments.

    Each segment is its two endpoints, (x, y) pairs.  SHARED_ENDPOINT_ONLY
    means the intersection is a single point that is an endpoint of both
    segments.  Any other nonempty intersection (proper
    crossing, T-contact at a non-endpoint, collinear overlap) is
    CROSSING_OR_OVERLAPPING.
    """
    a, b = s1
    c, d = s2
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)

    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        # All on one line: compare 1D intervals along the dominant axis.
        if a[0] != b[0]:
            key = lambda p: p[0]
        else:
            key = lambda p: p[1]
        lo1, hi1 = sorted((key(a), key(b)))
        lo2, hi2 = sorted((key(c), key(d)))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return SegmentRelation.DISJOINT
        if lo == hi:
            return SegmentRelation.SHARED_ENDPOINT_ONLY
        return SegmentRelation.CROSSING_OR_OVERLAPPING

    if o1 * o2 > 0 or o3 * o4 > 0:
        return SegmentRelation.DISJOINT

    # The segments are not all collinear, so if they meet at all they meet
    # in exactly one point x.  o3 == 0 means a lies on line(c,d); since the
    # two supporting lines intersect only at x, that forces x == a, and
    # symmetrically for the other three endpoints.
    if (o1 == 0 or o2 == 0) and (o3 == 0 or o4 == 0):
        return SegmentRelation.SHARED_ENDPOINT_ONLY
    return SegmentRelation.CROSSING_OR_OVERLAPPING


def plane_by_segment_classifier(g):
    """Reference plane check: condition 1 as ``verify_plane`` states it,
    condition 2 from the three-way classifier above on every edge pair
    with two distinct endpoint sets."""
    pts, _ = scale_to_integers(list(g.points.points))
    edges = [(e.i, e.j) for e in g.edges]
    segs = {(i, j): (pts[i], pts[j]) for i, j in edges}
    cond1 = [(v, (i, j)) for v in range(len(pts)) for (i, j) in edges
             if v != i and v != j and on_closed_segment(pts[v], *segs[(i, j)])]
    cond2 = [(e1, e2) for e1, e2 in itertools.combinations(edges, 2)
             if len({*e1, *e2}) > 2 and segments_cross(segs[e1], segs[e2])
             is SegmentRelation.CROSSING_OR_OVERLAPPING]
    return tuple(cond1), tuple(cond2)


def test_condition2_agrees_with_the_segment_classifier():
    rng = random.Random(13)
    crossed = 0
    for _ in range(3000):
        k = rng.randint(3, 5)
        grid = list(itertools.product(range(k), repeat=2))
        P = PointSet(tuple(point(x, y) for x, y in rng.sample(grid, rng.randint(2, 8))))
        keep = rng.choice((0.25, 0.5, 0.75, 1.0))
        edges = [e for e in itertools.combinations(range(len(P)), 2)
                 if rng.random() < keep]
        g = drawing(P, edges)
        rep = verify_plane(g)
        want = plane_by_segment_classifier(g)
        assert (rep.condition1_violations, rep.condition2_violations) == want, \
            (P, edges)
        crossed += bool(want[1])
    assert crossed >= 1000


def test_verify_plane_monotone_under_edge_removal():
    for seed in range(6):
        inst = generate_instance(3000 + seed, 7, 5, TRANSLATE, F(1, 4))
        g = build_graph(inst.points, inst.shape, HOMOTHET)
        assert verify_plane(g).is_plane
        for drop in range(len(g.edges)):
            sub = GeometricGraph(g.points, g.shape, g.mode,
                                 g.edges[:drop] + g.edges[drop + 1:])
            assert verify_plane(sub).is_plane


def test_triangulation_square_corners_mismatch():
    g = build_graph(SQUARE_CORNERS, CLOSED_UNIT_SQUARE, HOMOTHET)
    rep = triangulation_check(g)
    assert rep.applicable
    h = len(convex_hull(list(SQUARE_CORNERS.points)))
    assert len(g.edges) == 4 and h == 4
    assert 3 * 4 - 3 - h == 5 and not rep.matches
    assert not rep.triangulated


def test_triangulation_three_generic_points():
    P = PointSet((point(0, 0), point(3, 1), point(1, F(5, 2))))
    g = build_graph(P, CLOSED_UNIT_SQUARE, HOMOTHET)
    rep = triangulation_check(g)
    assert rep.applicable and len(g.edges) == 3
    assert 3 * 3 - 3 - len(convex_hull(list(P.points))) == 3 and rep.matches


def test_triangulation_not_applicable():
    # n < 3 and collinear sets; from n = 1 on, these graphs are connected
    # with no bounded face, so the face test alone would pass them
    for coords in [[], [(0, 0)], [(0, 0), (1, 1)], [(0, 0), (1, 0), (3, 0)]]:
        P = PointSet(tuple(point(x, y) for x, y in coords))
        rep = triangulation_check(build_graph(P, CLOSED_UNIT_SQUARE, HOMOTHET))
        assert not rep.applicable, coords
        assert not rep.matches and not rep.triangulated, coords


def test_collinear_triples():
    pts = (point(0, 0), point(1, 1), point(2, 2), point(0, 1))
    assert collinear_triples(pts) == [(0, 1, 2)]
    assert collinear_triples((point(0, 0), point(1, 0), point(0, 1))) == []


def test_square_corners_are_boundary_degenerate(monkeypatch):
    # all four corners lie on the boundary of the 2x scaled unit square;
    # two corners tie on each side, and both may be tight there
    calls = count_feasible_calls(monkeypatch)
    assert boundary(SQUARE_CORNERS.points, CLOSED_UNIT_SQUARE, (0, 1, 2, 3))
    assert calls  # the counter sees the search's LPs
    assert find_boundary_degeneracy(SQUARE_CORNERS.points,
                                    CLOSED_UNIT_SQUARE) == (0, 1, 2, 3)


def test_generic_points_not_boundary_degenerate():
    pts = (point(0, 0), point(3, 1), point(1, F(5, 2)), point(F(7, 3), F(8, 3)))
    assert find_boundary_degeneracy(pts, CLOSED_UNIT_SQUARE) is None


def boundary(points, shape, quad) -> bool:
    """``on_common_homothet_boundary`` on the chosen points' rows."""
    rows = planarity._boundary_rows(shape, points)
    return on_common_homothet_boundary(shape, [rows[k] for k in quad])


def boundary_by_all_assignments(points, shape, quad) -> bool:
    """Reference for on_common_homothet_boundary with no pre-filter: some
    choice of one tight half-plane per point leaves the homothet system
    nonempty.  All k^len(quad) choices are tried; a choice whose prefix
    is already empty is skipped, since more rows cannot make it nonempty.
    The rows are made here from the rationals: p is in the homothet iff
    -a.t - b*lam <= -a.p, and tight on a side iff also a.t + b*lam <= a.p."""
    def dot(h, p):
        return h.a[0] * p.x + h.a[1] * p.y

    mems = [[constraint((-h.a[0], -h.a[1], -h.b), -dot(h, points[i]), h.strict)
             for h in shape.halfplanes] for i in quad]
    tights = [[constraint((h.a[0], h.a[1], h.b), dot(h, points[i]))
               for h in shape.halfplanes] for i in quad]
    rows = (POSITIVE_SCALE,) + tuple(c for m in mems for c in m)

    def search(cell, depth):
        if feasible(3, cell) is None:
            return False
        return depth == len(mems) or any(
            search(cell + (t,), depth + 1) for t in tights[depth])

    return bool(shape.halfplanes) and search(rows, 0)


def boundary_cases():
    """30 unbounded 5-point and 10 bounded 6-point homothet instances."""
    cases = [generate_instance(4000 + s, 5, 4, HOMOTHET, F(1, 3))
             for s in range(30)]
    return cases + [generate_bounded_instance(7000 + s, 6, 4, HOMOTHET)
                    for s in range(10)]


def test_boundary_filter_agrees_with_all_assignments():
    cases = boundary_cases()
    assert any(h.strict for inst in cases for h in inst.shape.halfplanes)
    positives = decided = 0
    for inst in cases:
        pts = inst.points.points
        for quad in itertools.combinations(range(len(pts)), 4):
            want = boundary_by_all_assignments(pts, inst.shape, quad)
            assert boundary(pts, inst.shape, quad) == want, \
                (inst.seed, quad)
            positives += want
            decided += 1
    assert decided == 30 * 5 + 10 * 15
    assert positives >= 1  # seed 7002 has a boundary degeneracy


def test_boundary_scan_agrees_with_quad_by_quad_tests():
    found = 0
    for inst in boundary_cases():
        pts = inst.points.points
        want = next((quad for quad in itertools.combinations(range(len(pts)), 4)
                     if boundary(pts, inst.shape, quad)), None)
        assert find_boundary_degeneracy(pts, inst.shape) == want, inst.seed
        found += want is not None
    assert found >= 1


def test_boundary_scan_makes_each_points_rows_once(monkeypatch):
    pts = (point(0, 0), point(3, 1), point(1, F(5, 2)), point(F(7, 3), F(8, 3)),
           point(5, F(7, 2)), point(-2, F(9, 2)))
    made, quads = [], []
    rows_of, test = planarity.membership_constraints, planarity.on_common_homothet_boundary
    monkeypatch.setattr(planarity, "membership_constraints",
                        lambda *args: made.extend(args[1]) or rows_of(*args))
    monkeypatch.setattr(planarity, "on_common_homothet_boundary",
                        lambda *args: quads.append(args[1]) or test(*args))
    assert find_boundary_degeneracy(pts, CLOSED_UNIT_SQUARE) is None
    assert len(quads) == 15  # no quad is degenerate, so every one is tried
    assert made == scale_to_integers(list(pts))[0]  # 6 row builds, not 4 per quad


def count_feasible_calls(monkeypatch) -> list:
    """Record every LP the kernel solves, whichever module asks for it."""
    calls = []
    solve = backend.solve_slack_lp

    def counted(dim, rows):
        calls.append(rows)
        return solve(dim, rows)

    monkeypatch.setattr(backend, "solve_slack_lp", counted)
    return calls


def test_point_inside_the_triangle_decides_without_an_lp(monkeypatch):
    calls = count_feasible_calls(monkeypatch)
    pts = (point(0, 0), point(6, 0), point(0, 6), point(1, 1))
    assert not boundary(pts, CLOSED_UNIT_SQUARE, (0, 1, 2, 3))
    assert calls == []


def test_open_square_makes_no_point_tight(monkeypatch):
    open_square = shape_from_rows([
        (1, 0, 1, True), (-1, 0, 0, True), (0, 1, 1, True), (0, -1, 0, True)])
    calls = count_feasible_calls(monkeypatch)
    for quad in [(0,), (0, 1, 2, 3)]:
        assert not boundary(SQUARE_CORNERS.points, open_square, quad)
    assert calls == []


def test_triangulation_on_generic_bounded_instances():
    matched = checked = 0
    for seed in range(25):
        inst = generate_bounded_instance(7000 + seed, 6, 4, HOMOTHET)
        if collinear_triples(inst.points.points):
            continue
        g = build_graph(inst.points, inst.shape, HOMOTHET)
        rep = triangulation_check(g)
        if not rep.applicable:
            continue
        checked += 1
        if rep.triangulated:
            matched += 1
        else:
            assert find_boundary_degeneracy(inst.points.points, inst.shape) \
                is not None
    assert checked >= 15
    assert matched >= checked * 3 // 4


CONCAVE = [(0, 0), (2, 1), (4, 0), (2, 4)]  # (2, 1) is a reflex corner
CONCAVE_CYCLE = [(0, 1), (1, 2), (2, 3), (0, 3)]


@pytest.mark.parametrize("coords,edges,triangulated", [
    ([(0, 0), (6, 0), (0, 6), (1, 1)],
     [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)], True),
    ([(0, 0), (2, 0), (0, 2), (2, 2)],
     [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)], True),
    ([(0, 0), (1, 1), (2, 0)], [(0, 1), (1, 2)], True),  # no bounded face
    ([(0, 0), (4, 0), (0, 4), (5, 5)], [(0, 1), (0, 2), (1, 2), (1, 3)], True),
    (CONCAVE, CONCAVE_CYCLE, False),  # the bounded face is a quadrilateral
    (CONCAVE, CONCAVE_CYCLE + [(1, 3)], True),
    # one triangular face, but not connected
    ([(0, 0), (4, 0), (0, 4), (9, 9)], [(0, 1), (0, 2), (1, 2)], False),
], ids=["triangle-centre", "square-diagonal", "path", "triangle-pendant",
        "concave", "concave-split", "disconnected"])
def test_outer_face_walk(coords, edges, triangulated):
    g = drawing(PointSet(tuple(point(x, y) for x, y in coords)), edges)
    rep = triangulation_check(g)
    assert rep.applicable and len(g.edges) == len(edges)
    assert rep.triangulated == triangulated


def greedy_plane_drawing(rng, P) -> list[tuple[int, int]]:
    """A maximal plane drawing on ``P``: every segment in random order,
    kept if the drawing with it stays plane."""
    pairs = list(itertools.combinations(range(len(P)), 2))
    rng.shuffle(pairs)
    edges = []
    for e in pairs:
        if verify_plane(drawing(P, edges + [e])).is_plane:
            edges.append(e)
    return edges


def test_triangulated_verdict_on_maximal_plane_drawings():
    # A maximal plane drawing triangulates its points, so every bounded
    # face is a triangle.  Removing an edge with points strictly on both
    # sides of its line merges two triangles; removing a hull edge merges
    # one triangle into the outer face and leaves a triangulated drawing.
    rng = random.Random(12)
    grid = list(itertools.product(range(5), repeat=2))
    drawings = removals = merged = 0
    for _ in range(400):
        P = PointSet(tuple(point(x, y) for x, y in rng.sample(grid, rng.randint(3, 8))))
        edges = greedy_plane_drawing(rng, P)
        rep = triangulation_check(drawing(P, edges))
        if not rep.applicable:
            continue
        assert rep.triangulated, (P, edges)
        drawings += 1
        for i, j in edges:
            interior = {-1, 1} <= {orient(P[i], P[j], p) for p in P.points}
            rest = [e for e in edges if e != (i, j)]
            assert triangulation_check(drawing(P, rest)).triangulated \
                == (not interior), (P, edges, (i, j))
            removals += 1
            merged += interior
    assert drawings >= 350 and removals >= 3000 and merged >= 1000


def test_seed_7003_hull_pair_is_a_true_non_edge():
    inst = generate_bounded_instance(7003, 6, 4, HOMOTHET)
    pts = inst.points.points
    g = build_graph(inst.points, inst.shape, HOMOTHET)
    hull = [pts.index(p) for p in convex_hull(list(pts))]
    hull_pairs = {tuple(sorted(p)) for p in zip(hull, hull[1:] + hull[:1])}
    assert (0, 4) in hull_pairs and (0, 4) not in g.edge_pairs()
    assert len(hull) == 5
    rep = triangulation_check(g)
    assert not rep.matches and rep.triangulated

    # Independent of the exact simplex: a homothet lam*C + t holding p0 and
    # p4 and no other point puts each other point beyond some half-plane
    # of C.  For every choice of those half-planes, maximise the margin s
    # by which the placement meets all of its conditions (s <= lam keeps
    # the scale positive; lam <= 1000 bounds the LP far past the points).
    linprog = pytest.importorskip("scipy.optimize").linprog
    rows = [(float(h.a[0]), float(h.a[1]), float(h.b))
            for h in inst.shape.halfplanes]
    xy = [(float(p.x), float(p.y)) for p in pts]
    others = [r for r in range(len(pts)) if r not in (0, 4)]
    assert len(rows) == 4 and len(others) == 4
    best = []
    for choice in itertools.product(range(len(rows)), repeat=len(others)):
        a_ub, b_ub = [], []  # variables tx, ty, lam, s
        for p in (0, 4):  # a.(p - t) <= lam*b - s
            for ax, ay, b in rows:
                a_ub.append([-ax, -ay, -b, 1])
                b_ub.append(-(ax * xy[p][0] + ay * xy[p][1]))
        for r, h in zip(others, choice):  # a.(r - t) >= lam*b + s
            ax, ay, b = rows[h]
            a_ub.append([ax, ay, b, 1])
            b_ub.append(ax * xy[r][0] + ay * xy[r][1])
        a_ub.append([0, 0, -1, 1])
        b_ub.append(0)
        res = linprog([0, 0, 0, -1], A_ub=a_ub, b_ub=b_ub,
                      bounds=[(None, None), (None, None), (None, 1000),
                              (None, None)])
        assert res.status == 0
        best.append(-res.fun)
    assert len(best) == 4 ** 4 and max(best) < -0.5
