from fractions import Fraction

from delgraphs.builder import Edge, GeometricGraph, PointSet, build_graph
from delgraphs.geometry import point
from delgraphs.shape import HOMOTHET, Placement, shape_from_rows
from delgraphs.svgout import _fmt, render_svg

F = Fraction

SQ = shape_from_rows([(1, 0, 1, False), (-1, 0, 0, False),
                      (0, 1, 1, False), (0, -1, 0, False)])


def test_single_point_one_circle():
    g = GeometricGraph(PointSet((point(3, 4),)), SQ, HOMOTHET, ())
    svg = render_svg(g)
    assert svg.count("<circle") == 1
    assert svg.count("<line") == 0
    assert svg.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg


def test_no_points_no_circles():
    svg = render_svg(GeometricGraph(PointSet(()), SQ, HOMOTHET, ()))
    assert svg.count("<circle") == 0
    assert 'viewBox="-1.000000 -1.000000 2.000000 2.000000"' in svg


def test_four_cycle_counts():
    P = PointSet((point(0, 0), point(2, 0), point(0, 2), point(2, 2)))
    g = build_graph(P, SQ, HOMOTHET)
    svg = render_svg(g)
    assert svg.count("<line") == 4
    assert svg.count("<circle") == 4


def test_crossing_rendered_verbatim():
    P = PointSet((point(0, 0), point(2, 0), point(0, 2), point(2, 2)))
    w = Placement((F(0), F(0)), F(1))
    g = GeometricGraph(P, SQ, HOMOTHET, (Edge(0, 3, w), Edge(1, 2, w)))
    svg = render_svg(g)
    assert svg.count("<line") == 2  # rendering never filters


def test_deterministic_output():
    P = PointSet((point(0, 0), point(F(5, 3), F(-7, 4))))
    g = build_graph(P, SQ, HOMOTHET)
    assert render_svg(g) == render_svg(g)


def test_coordinates_round_on_the_exact_rational():
    """Six decimals of the rational itself, with its sign, exact ties to
    even."""
    assert _fmt(F(-1, 3)) == "-0.333333" and _fmt(F(-2, 3)) == "-0.666667"
    assert _fmt(F(1, 2 * 10 ** 6)) == "0.000000" and _fmt(F(3, 2 * 10 ** 6)) == "0.000002"
