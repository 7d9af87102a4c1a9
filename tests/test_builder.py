import dataclasses
import math
import random
import sys
from fractions import Fraction

import pytest

from delgraphs import builder, geometry, planarity, region, shape
from delgraphs.builder import (Edge, GeometricGraph, PointSet,
                               WitnessVerificationError, build_graph,
                               edge_feasible, is_subgraph, verify_witness)
from delgraphs.geometry import point
from delgraphs.instances import generate_bounded_instance, generate_instance, sampled_edges
from delgraphs.planarity import find_boundary_degeneracy
from delgraphs.shape import HOMOTHET, TRANSLATE, Placement, contains, shape_from_rows
from oracle_closed_form import closed_form_applies, closed_form_edges

F = Fraction

CLOSED_UNIT_SQUARE = shape_from_rows([
    (1, 0, 1, False), (-1, 0, 0, False), (0, 1, 1, False), (0, -1, 0, False)])
EMPTY_SHAPE = shape_from_rows([(1, 0, 0, False), (-1, 0, -1, False)])

SQUARE_CORNERS = PointSet((point(0, 0), point(2, 0), point(0, 2), point(2, 2)))


def test_points_must_be_distinct():
    with pytest.raises(ValueError):
        PointSet((point(0, 0), point(0, 0)))


def test_edge_feasible_two_points_in_square():
    P = PointSet((point(0, 0), point(F(1, 2), F(1, 2))))
    w = edge_feasible(P, CLOSED_UNIT_SQUARE, 0, 1, TRANSLATE)
    assert w is not None
    assert contains(CLOSED_UNIT_SQUARE, w, P[0])
    assert contains(CLOSED_UNIT_SQUARE, w, P[1])


def test_edge_feasible_collinear_middle_blocks():
    P = PointSet((point(0, 0), point(F(1, 2), 0), point(1, 0)))
    assert edge_feasible(P, CLOSED_UNIT_SQUARE, 0, 2, TRANSLATE) is None
    assert edge_feasible(P, CLOSED_UNIT_SQUARE, 0, 2, HOMOTHET) is None
    assert edge_feasible(P, CLOSED_UNIT_SQUARE, 0, 1, TRANSLATE) is not None


def test_edge_feasible_square_corners_homothet():
    # side pairs admit homothets, diagonals cannot: any axis-aligned square
    # containing two opposite corners contains all four points
    assert edge_feasible(SQUARE_CORNERS, CLOSED_UNIT_SQUARE, 0, 1, HOMOTHET) is not None
    assert edge_feasible(SQUARE_CORNERS, CLOSED_UNIT_SQUARE, 0, 3, HOMOTHET) is None
    assert edge_feasible(SQUARE_CORNERS, CLOSED_UNIT_SQUARE, 1, 2, HOMOTHET) is None


# the pair 0, 1 and 1,098 far points on a row
FAR_ROW = PointSet((point(0, 0), point(F(1, 2), 0), *(point(10 * k, 0) for k in range(2, 1100))))


def test_edge_feasible_searches_deeper_than_the_recursion_limit():
    """The DFS enters one level per other point, more levels than
    Python's recursion limit."""
    P = FAR_ROW
    assert len(P) > sys.getrecursionlimit()
    w = edge_feasible(P, CLOSED_UNIT_SQUARE, 0, 1, TRANSLATE)
    assert w is not None and verify_witness(P, CLOSED_UNIT_SQUARE, 0, 1, w)


def test_hint_checks_read_rows_linear_in_n(monkeypatch):
    """Each level checks its hint against the piece it adds, not the
    whole cell, so the rows read grow linearly with the points (a check
    of every row of each cell reads about 612k here)."""
    read = []
    check = region.contains_point

    def counting(cs, x):
        read.append(len(cs))
        return check(cs, x)

    monkeypatch.setattr(region, "contains_point", counting)
    assert edge_feasible(FAR_ROW, CLOSED_UNIT_SQUARE, 0, 1, TRANSLATE) is not None
    assert len(read) == len(FAR_ROW) - 2  # one hint check per level
    assert sum(read) <= 4 * len(FAR_ROW)


def test_edge_feasible_same_index_rejected():
    with pytest.raises(ValueError):
        edge_feasible(SQUARE_CORNERS, CLOSED_UNIT_SQUARE, 1, 1, TRANSLATE)
    # an index outside 0..n-1 is rejected too, not read from the other end
    inst = generate_bounded_instance(5, 5, 4, HOMOTHET)
    assert edge_feasible(inst.points, inst.shape, 0, 1, HOMOTHET) is not None
    for i, j in ((-5, 1), (0, 6), (-1, 0), (0, 5)):
        with pytest.raises(ValueError):
            edge_feasible(inst.points, inst.shape, i, j, HOMOTHET)


def test_edge_feasible_rechecks_its_witness(monkeypatch):
    monkeypatch.setattr(builder, "verify_witness", lambda *args: False)
    with pytest.raises(WitnessVerificationError):
        edge_feasible(SQUARE_CORNERS, CLOSED_UNIT_SQUARE, 0, 1, HOMOTHET)


# the closed unit square with its right side x < 1 open
RIGHT_OPEN_SQUARE = shape_from_rows([
    (1, 0, 1, True), (-1, 0, 0, False), (0, 1, 1, False), (0, -1, 0, False)])


@pytest.mark.parametrize("witness, valid", [
    (Placement((F(0), F(0))), True),
    (Placement((F(0), F(0)), F(3)), False),  # also holds the third point (2, 0)
    (Placement((F(1, 4), F(0))), False),  # misses the endpoint (0, 0)
    (Placement((F(-1, 2), F(0))), False),  # (1/2, 0) on the open side's line
])
def test_verify_witness_rejects_bad_placements(witness, valid):
    P = PointSet((point(0, 0), point(F(1, 2), 0), point(2, 0)))
    assert verify_witness(P, RIGHT_OPEN_SQUARE, 0, 1, witness) is valid


def test_verify_witness_reads_no_search_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("the re-check read the search's rows")

    P = PointSet((point(0, 0), point(F(1, 2), 0), point(2, 0)))
    integers = builder._membership_tables(P, RIGHT_OPEN_SQUARE, TRANSLATE)[0]
    for module in (builder, shape):
        monkeypatch.setattr(module, "membership_constraints", refuse)
    for module in (region, shape):
        monkeypatch.setattr(module, "halfspace", refuse)
    monkeypatch.setattr(region.LinearConstraint, "__new__", refuse)
    for args in ((), (integers,)):  # alone, and on the build's integer forms
        assert verify_witness(P, RIGHT_OPEN_SQUARE, 0, 1, Placement((F(0), F(0))), *args)
        assert not verify_witness(P, RIGHT_OPEN_SQUARE, 0, 2, Placement((F(0), F(0))), *args)


FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__")


def test_search_does_no_fraction_arithmetic(monkeypatch):
    """Builds and a boundary scan run on integers: no ``Fraction`` is
    added, subtracted, multiplied, divided or negated.  Denominators are
    cleared once per half-plane of the shape, once for the points' grid
    and once per witness placement."""
    builds = [generate_instance(9, 8, 5, TRANSLATE, F(1, 3)),
              generate_bounded_instance(116, 8, 6, TRANSLATE)]
    scan = generate_bounded_instance(7036, 6, 4, HOMOTHET)
    assert any(h.strict for h in builds[0].shape.halfplanes)
    ops, cleared = [], []
    for name in FRACTION_OPS:
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, name=name, op=op: ops.append(name) or op(*args))
    clear = shape.clear_denominators
    for module in (geometry, region, shape):
        monkeypatch.setattr(module, "clear_denominators",
                            lambda values: cleared.append(values) or clear(values))
    want = 0
    for inst in builds:
        for mode in (TRANSLATE, HOMOTHET):
            edges = build_graph(inst.points, inst.shape, mode).edges
            want += len(inst.shape.halfplanes) + 1 + len(edges)
            assert edges
    assert find_boundary_degeneracy(scan.points.points, scan.shape) == (1, 2, 3, 5)
    want += len(scan.shape.halfplanes) + 1
    assert ops == []
    assert len(cleared) == want


def test_build_graph_single_point():
    g = build_graph(PointSet((point(0, 0),)), CLOSED_UNIT_SQUARE, TRANSLATE)
    assert len(g.points) == 1 and g.edges == ()


def test_build_graph_empty_shape_no_edges():
    g = build_graph(SQUARE_CORNERS, EMPTY_SHAPE, HOMOTHET)
    assert g.edges == ()


def test_build_graph_square_corners_is_four_cycle():
    g = build_graph(SQUARE_CORNERS, CLOSED_UNIT_SQUARE, HOMOTHET)
    assert g.edge_pairs() == {(0, 1), (0, 2), (1, 3), (2, 3)}
    # one-sided sampling cross-check: sampled edges are a subset
    inst = _as_instance(SQUARE_CORNERS, CLOSED_UNIT_SQUARE, HOMOTHET)
    assert sampled_edges(inst, 3000, 7) <= g.edge_pairs()


def _as_instance(points, shape, mode):
    from delgraphs.instances import Instance
    return Instance(points, shape, mode)


def test_witness_soundness_on_random_instances():
    for seed in range(12):
        inst = generate_instance(seed, 6, 4, TRANSLATE, F(1, 4))
        for mode in (TRANSLATE, HOMOTHET):
            g = build_graph(inst.points, inst.shape, mode)
            for e in g.edges:
                assert verify_witness(inst.points, inst.shape, e.i, e.j, e.witness)
                # exactly two containments among all points
                hits = [k for k in range(len(inst.points))
                        if contains(inst.shape, e.witness, inst.points[k])]
                assert hits == [e.i, e.j]


def test_translate_subgraph_of_homothet():
    for seed in range(15):
        inst = generate_instance(100 + seed, 7, 5, TRANSLATE, F(1, 4))
        gt = build_graph(inst.points, inst.shape, TRANSLATE)
        gst = build_graph(inst.points, inst.shape, HOMOTHET)
        assert is_subgraph(gt, gst)


def test_translate_witnesses_have_unit_scale():
    inst = generate_instance(9, 6, 4, TRANSLATE, F(0))
    g = build_graph(inst.points, inst.shape, TRANSLATE)
    assert g.edges, "expected at least one edge in this fixture"
    assert all(e.witness.scale == 1 for e in g.edges)


def test_build_graph_deterministic():
    inst = generate_instance(77, 7, 5, TRANSLATE, F(1, 4))
    for mode in (TRANSLATE, HOMOTHET):
        g1 = build_graph(inst.points, inst.shape, mode)
        g2 = build_graph(inst.points, inst.shape, mode)
        assert g1 == g2  # includes witnesses


def test_edges_sorted_and_unique():
    inst = generate_instance(5, 8, 5, TRANSLATE, F(0))
    g = build_graph(inst.points, inst.shape, HOMOTHET)
    pairs = [(e.i, e.j) for e in g.edges]
    assert pairs == sorted(set(pairs))
    assert all(i < j for i, j in pairs)


def test_sampling_oracle_one_sided_on_random_instances():
    for seed in (3, 4, 5):
        inst = generate_instance(1000 + seed, 5, 4, TRANSLATE, F(0))
        for mode in (TRANSLATE, HOMOTHET):
            g = build_graph(inst.points, inst.shape, mode)
            found = sampled_edges(dataclasses.replace(inst, mode=mode), 2000, seed)
            assert found <= g.edge_pairs()


def test_is_subgraph_reflexive_and_negative_control():
    g = build_graph(SQUARE_CORNERS, CLOSED_UNIT_SQUARE, HOMOTHET)
    assert is_subgraph(g, g)
    fake = Placement((F(0), F(0)), F(1))
    g_extra = GeometricGraph(g.points, g.shape, g.mode,
                             g.edges + (Edge(0, 3, fake),))
    assert not is_subgraph(g_extra, g)
    assert is_subgraph(g, g_extra)


def test_is_subgraph_mismatched_points_rejected():
    g1 = build_graph(SQUARE_CORNERS, CLOSED_UNIT_SQUARE, HOMOTHET)
    other = PointSet((point(0, 0), point(1, 1)))
    g2 = build_graph(other, CLOSED_UNIT_SQUARE, HOMOTHET)
    with pytest.raises(ValueError):
        is_subgraph(g1, g2)


def _closed_form_cases():
    """Seeded (kind, points, rows) for one half-plane, wedges and
    triangles, strict and closed rows mixed; points on a coarse rational
    grid, so ties in a.p and points on a shape's boundary lines occur."""
    rng = random.Random(4881)

    def coord():
        return F(rng.randint(-6, 6), rng.choice((1, 2, 3)))

    def normal():
        a = (0, 0)
        while a == (0, 0):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
        return a

    cases = []
    for kind, count, k in (("half-plane", 30, 1), ("wedge", 30, 2), ("triangle", 40, 3)):
        while sum(c[0] == kind for c in cases) < count:
            rows = [(*normal(), F(rng.randint(-4, 4), rng.choice((1, 2))),
                     rng.random() < 0.4) for _ in range(k)]
            halfplanes = [((ax, ay), b, strict) for ax, ay, b, strict in rows]
            if not closed_form_applies(halfplanes, True):
                continue
            n, pts = rng.randint(4, 8), set()
            while len(pts) < n:
                pts.add((coord(), coord()))
            cases.append((kind, sorted(pts), rows))
    return cases


def test_build_graph_matches_the_closed_form_oracle():
    """One half-plane and wedges in both modes, triangles in homothet mode:
    the shapes whose placements reach an upward-closed set of offsets,
    where ``oracle_closed_form`` decides every pair without an LP."""
    builds = edges = 0
    for kind, pts, rows in _closed_form_cases():
        points = PointSet(tuple(point(x, y) for x, y in pts))
        shape = shape_from_rows(rows)
        halfplanes = [((ax, ay), b, strict) for ax, ay, b, strict in rows]
        for mode in (HOMOTHET,) if kind == "triangle" else (TRANSLATE, HOMOTHET):
            want = closed_form_edges(pts, halfplanes, mode == HOMOTHET)
            assert build_graph(points, shape, mode).edge_pairs() == want, (kind, pts, rows, mode)
            builds += 1
            edges += len(want)
    assert builds == 2 * 30 + 2 * 30 + 40 and edges > builds
    assert not closed_form_applies([((1, 0), 1, False), ((-1, 0), 1, False)], True)  # strip
    assert not closed_form_applies([((1, 0), 1, False), ((0, 1), 1, False),
                                    ((-1, -1), 1, False)], False)  # translate triangle


def _big_rational(rng):
    return F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9))


def _affine_image(inst, rng):
    """The instance under a seeded rational affine map y = Mx + v with
    large denominators: the points mapped, each row a.x <= b of the
    shape mapped to (a M^-1).y <= b, so a placement t + lam*C holds p
    iff M t + v + lam*(M C) holds M p + v."""
    while True:
        m = [[_big_rational(rng) for _ in range(2)] for _ in range(2)]
        if det := m[0][0] * m[1][1] - m[0][1] * m[1][0]:
            break
    inv = [[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]]
    v = (_big_rational(rng), _big_rational(rng))
    points = PointSet(tuple(point(m[0][0] * p.x + m[0][1] * p.y + v[0],
                                  m[1][0] * p.x + m[1][1] * p.y + v[1]) for p in inst.points))
    rows = [(h.a[0] * inv[0][0] + h.a[1] * inv[1][0], h.a[0] * inv[0][1] + h.a[1] * inv[1][1],
             h.b, h.strict) for h in inst.shape.halfplanes]
    return points, shape_from_rows(rows)


def _cone(shape):
    return shape_from_rows([(*h.a, 0, h.strict) for h in shape.halfplanes])


def test_graphs_are_invariant_under_rational_affine_maps():
    """Metamorphic relations, exact and oracle-free: the affine image of an
    instance has the same graphs in both modes, and a cone (every b = 0)
    has its translate graph equal to its homothet graph."""
    rng = random.Random(1012)
    cones = 0
    for seed in range(16):
        inst = generate_instance(7000 + seed, 6, 4, TRANSLATE, F(1, 3))
        points, shape = _affine_image(inst, rng)
        for mode in (TRANSLATE, HOMOTHET):
            assert (build_graph(points, shape, mode).edge_pairs()
                    == build_graph(inst.points, inst.shape, mode).edge_pairs()), (seed, mode)
        for pts, cone in ((inst.points, _cone(inst.shape)), (points, _cone(shape))):
            translate = build_graph(pts, cone, TRANSLATE).edge_pairs()
            assert translate == build_graph(pts, cone, HOMOTHET).edge_pairs(), seed
            cones += bool(translate)
    assert cones > 12


def test_graphs_are_invariant_under_moving_the_shape():
    """Metamorphic relations on the shape alone: C -> mu*C + v (rational
    mu > 0) rewrites each row a.x <= b as a.x <= mu*b + a.v and keeps
    the family of homothets, so the homothet graph; C -> C + v keeps the
    family of translates, so the translate graph.  As a control, scaling
    does change some translate graphs."""
    rng = random.Random(4881)
    nonempty = scaled = 0
    for seed in range(12):
        inst = generate_instance(7100 + seed, 6, 4, TRANSLATE, F(1, 3))
        mu = abs(_big_rational(rng)) or F(1)
        v = (_big_rational(rng), _big_rational(rng))

        def edges(scale, mode):
            shape = shape_from_rows([(*h.a, scale * h.b + h.a[0] * v[0] + h.a[1] * v[1], h.strict)
                                     for h in inst.shape.halfplanes])
            return build_graph(inst.points, shape, mode).edge_pairs()

        want = {mode: build_graph(inst.points, inst.shape, mode).edge_pairs()
                for mode in (HOMOTHET, TRANSLATE)}
        assert edges(mu, HOMOTHET) == want[HOMOTHET], seed
        assert edges(1, TRANSLATE) == want[TRANSLATE], seed
        nonempty += bool(want[HOMOTHET]) + bool(want[TRANSLATE])
        scaled += edges(mu, TRANSLATE) != want[TRANSLATE]
    assert nonempty > 16 and scaled > 1


def _kernel_pair(cs) -> bool:
    """The opposed-pair exit as the kernel took it on the whole cell: the
    tightest rows of some normal and of its opposite contradict."""
    least = {}
    for c in cs:
        a, b, _ = c.row
        g = math.gcd(*a)
        n = tuple(v // g for v in a)
        if n not in least or b * least[n][1] < least[n][0] * g:
            least[n] = b, g
    return any(g2 * b1 + g1 * b2 < 0 for n, (b1, g1) in least.items()
               for b2, g2 in [least.get(tuple(-v for v in n), (0, 0))])


def _whole_cell_feasible(dim, cs):
    return None if _kernel_pair(cs) else region.feasible(dim, cs)


def _whole_cell_first_leaf(dim, cell, levels):
    """The search that hands every cell whole to the kernel: the hint
    checked against every row of the child, then the pair exit on every
    row, then the simplex."""
    hint = _whole_cell_feasible(dim, cell)
    if hint is None:
        return None
    if not levels:
        return cell
    stack = [(cell, hint, iter(levels[0]))]
    while stack:
        cell, hint, pieces = stack[-1]
        piece = next(pieces, None)
        if piece is None:
            stack.pop()
            continue
        sub = cell + piece
        probe = hint if region.contains_point(sub, hint) else _whole_cell_feasible(dim, sub)
        if probe is not None:
            if len(stack) == len(levels):
                return sub
            stack.append((sub, probe, iter(levels[len(stack)])))
    return None


def _search_answers():
    edges = []
    for seed in range(60):
        inst = generate_instance(300 + seed, 3 + seed % 6, 1 + seed % 7, TRANSLATE,
                                 (F(0), F(1, 4), F(1))[seed % 3])
        for mode in (TRANSLATE, HOMOTHET):
            edges.append(build_graph(inst.points, inst.shape, mode).edges)
    inst = generate_bounded_instance(116, 16, 6, TRANSLATE)
    for mode in (TRANSLATE, HOMOTHET):
        edges.append(build_graph(inst.points, inst.shape, mode).edges)
    quads = [find_boundary_degeneracy(inst.points.points, inst.shape)
             for inst in (generate_bounded_instance(7000 + seed, 6, 4, HOMOTHET)
                          for seed in range(20))]
    return edges, quads


def test_search_matches_the_whole_cell_search(monkeypatch):
    """The per-level table and the hint check on the piece against the
    search that hands each cell whole to the kernel: the same edges and
    witnesses on 60 fuzz instances in both modes and on the n = 16
    bounded build, and the same boundary quadruples."""
    edges, quads = _search_answers()
    assert sum(map(len, edges)) > 400 and 0 < quads.count(None) < len(quads)
    monkeypatch.setattr(builder, "first_leaf", _whole_cell_first_leaf)
    monkeypatch.setattr(planarity, "first_leaf", _whole_cell_first_leaf)
    assert _search_answers() == (edges, quads)
