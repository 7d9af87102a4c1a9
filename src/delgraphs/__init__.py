"""Exact construction and verification of translate graphs and homothet
(generalized Delaunay) graphs of planar point sets.

Everything is computed in exact rational arithmetic: edges carry witness
placements that re-verify by direct membership tests, and the plane-graph
checks are exhaustive exact scans.
"""

from .backend import backend_name
from .builder import (Edge, GeometricGraph, PointSet, WitnessVerificationError,
                      build_graph, edge_feasible, is_subgraph, verify_witness)
from .geometry import Point2, convex_hull, on_closed_segment, orient, point
from .instances import (Instance, ParseError, emit_instance,
                        generate_bounded_instance, generate_instance,
                        parse_instance, sample_witness_search, sampled_edges)
from .planarity import (PlanarityReport, TriangulationReport,
                        collinear_triples, find_boundary_degeneracy,
                        triangulation_check, verify_plane)
from .region import LinearConstraint, constraint, feasible, negate
from .shape import (HOMOTHET, TRANSLATE, ConvexShape, HalfPlane, Placement,
                    contains, membership_constraints, shape_from_rows)
from .svgout import render_svg

__version__ = "0.1.0"

__all__ = [
    "Edge", "GeometricGraph", "PointSet", "WitnessVerificationError",
    "build_graph", "edge_feasible", "is_subgraph", "verify_witness",
    "Point2", "convex_hull", "on_closed_segment", "orient", "point",
    "Instance", "ParseError", "emit_instance", "generate_bounded_instance",
    "generate_instance", "parse_instance", "sample_witness_search",
    "sampled_edges",
    "PlanarityReport", "TriangulationReport", "collinear_triples",
    "find_boundary_degeneracy", "triangulation_check", "verify_plane",
    "LinearConstraint", "constraint", "feasible", "negate",
    "HOMOTHET", "TRANSLATE", "ConvexShape", "HalfPlane", "Placement",
    "contains", "membership_constraints", "shape_from_rows",
    "render_svg", "backend_name",
    "__version__",
]
