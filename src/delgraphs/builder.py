"""Construction of translate graphs and homothet (generalized Delaunay)
graphs with a verified witness placement per edge.

A pair {p_i, p_j} is an edge iff some placed copy of the shape contains
p_i and p_j and no other point of P.  The search runs in placement
parameter space: the placements containing both endpoints form a convex
region, each other point r carves out the convex "hole" of placements
containing r, and the edge exists iff the base region minus all holes is
nonempty.  Holes are cut away in ascending point order and the
resulting disjoint cells are scanned in generation order, the base
region the one cell of the first level; each cell is tested only on the
piece it adds to its parent, and the kernel decides it on the reduced
cell, one row per primitive normal.  Only the witness solve sees the
whole leaf: it is a fresh solve of the first cell that survives, so it
is deterministic.  This search, ``first_leaf``, also runs the boundary
test ``planarity.on_common_homothet_boundary``.

A build clears the shape and grids the points once, makes every row from
those and re-checks each witness on them; points are the kernel's
numerators over ``den``, and ``Fraction``s only in an emitted witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import farkas_certifies
from .geometry import Point2, scale_to_integers
from .region import complement, feasible, feasible_with_hint, opposed_clash
from .shape import (HOMOTHET, POSITIVE_SCALE, ConvexShape, Placement, contains_each,
                    integer_rows, membership_constraints, placement_at)


class WitnessVerificationError(AssertionError):
    """An emitted witness failed its own membership re-check, or the leaf
    it comes from re-solved empty.  This is an internal invariant
    violation, never a data error."""


@dataclass(frozen=True, slots=True)
class PointSet:
    points: tuple[Point2, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i) -> Point2:
        return self.points[i]


@dataclass(frozen=True, slots=True)
class Edge:
    i: int
    j: int
    witness: Placement


@dataclass(frozen=True, slots=True)
class GeometricGraph:
    points: PointSet
    shape: ConvexShape
    mode: str
    edges: tuple[Edge, ...]

    def edge_pairs(self) -> set[tuple[int, int]]:
        return {(e.i, e.j) for e in self.edges}


def _membership_tables(points: PointSet, shape: ConvexShape, mode: str):
    """The build's integer forms, made once: (``integer_rows(shape)``,
    grid, d) for the witness re-check, and per point its membership rows
    and the disjoint pieces of their complement for every pair search."""
    integers = (integer_rows(shape), *scale_to_integers(list(points.points)))
    mems = membership_constraints(*integers, mode)
    return integers, mems, [complement(mem) for mem in mems]


def first_leaf(dim: int, cell: tuple, levels) -> tuple | None:
    """First nonempty ``cell + piece_1 + ... + piece_d`` in depth-first
    order, piece_l one of the constraint tuples of ``levels[l - 1]``, or
    None.  ``cell`` is the one piece of level 0.

    A child is its nonempty parent with one piece added.  The piece's rows
    go into a copy of the parent's opposed-pair table
    (``region.opposed_clash``), so a pair that empties the child needs no
    LP; else the point that proved the parent nonempty is checked on the
    piece's rows; else the kernel decides on the table's rows, the
    tightest of each primitive normal, which cut out the same cell.  The
    base cell enters an empty table and, with no parent point, goes to the
    kernel.  The leaf is returned whole, but its point is a hint or the
    optimizer of a reduced cell: emit only a fresh solve of the whole
    leaf."""
    levels = ((cell,), *levels)
    stack = [((), {}, None, iter(levels[0]))]  # one entry per level entered
    while stack:
        cell, table, hint, pieces = stack[-1]
        piece = next(pieces, None)
        if piece is None:
            stack.pop()
            continue
        clash = opposed_clash(sub_table := dict(table), piece)
        if clash is not None and farkas_certifies(*clash):
            continue
        rows = tuple(sub_table.values())
        probe = (feasible(dim, rows) if hint is None
                 else feasible_with_hint(dim, rows, piece, hint))
        if probe is not None:
            sub = cell + piece
            if len(stack) == len(levels):
                return sub
            stack.append((sub, sub_table, probe, iter(levels[len(stack)])))
    return None


def _edge_search(points: PointSet, shape: ConvexShape, i: int, j: int,
                 mode: str, integers, mems, outside) -> Placement | None:
    """The witness of edge (i, j), re-checked by direct containment, or
    None; raises ``WitnessVerificationError`` if the leaf re-solves empty
    or the re-check fails."""
    base = (*mems[i], *mems[j])
    dim = 2
    if mode == HOMOTHET:
        base += (POSITIVE_SCALE,)
        dim = 3
    levels = [outside[k] for k in range(len(mems)) if k != i and k != j]
    leaf = first_leaf(dim, base, levels)
    if leaf is None:
        return None
    final = feasible(dim, leaf)
    if final is None:  # the leaf was proved nonempty on the way down
        raise WitnessVerificationError(f"leaf of edge ({i},{j}) re-solves empty")
    w = placement_at(final)
    if not verify_witness(points, shape, i, j, w, integers):
        raise WitnessVerificationError(
            f"witness for edge ({i},{j}) fails membership re-check: "
            f"t={w.translation} scale={w.scale}")
    return w


def edge_feasible(points: PointSet, shape: ConvexShape, i: int, j: int,
                  mode: str) -> Placement | None:
    """Witness placement containing exactly {p_i, p_j} among P, or None.

    The hole of each excluded point r (in ascending r) splits every
    surviving cell along its constraints in order; the first cell that
    survives every hole supplies the witness via a fresh feasibility
    solve, whose optimizer lies strictly inside all open constraints.
    The witness is re-checked by direct containment before it is returned.
    """
    if not 0 <= min(i, j) < max(i, j) < len(points):
        raise ValueError(f"need distinct i, j in range({len(points)}): ({i}, {j})")
    i, j = min(i, j), max(i, j)
    return _edge_search(points, shape, i, j, mode, *_membership_tables(points, shape, mode))


def verify_witness(points: PointSet, shape: ConvexShape, i: int, j: int,
                   w: Placement, integers=None) -> bool:
    """Direct membership re-check: the placed shape must contain exactly
    the two endpoints among all of P.  Decided on integers by
    ``shape.contains_each``, independent of the search's rows, on the
    build's ``integers`` (None: made here)."""
    flags = contains_each(shape, w, points.points, integers)
    return {k for k, inside in enumerate(flags) if inside} == {i, j}


def build_graph(points: PointSet, shape: ConvexShape, mode: str) -> GeometricGraph:
    """All-pairs edge search; every emitted edge re-verifies its witness
    by direct containment before being admitted."""
    edges = []
    n = len(points)
    tables = _membership_tables(points, shape, mode)
    for i in range(n):
        for j in range(i + 1, n):
            w = _edge_search(points, shape, i, j, mode, *tables)
            if w is not None:
                edges.append(Edge(i, j, w))
    return GeometricGraph(points, shape, mode, tuple(edges))


def is_subgraph(g1: GeometricGraph, g2: GeometricGraph) -> bool:
    """True iff every edge of g1 is an edge of g2.  Requires both graphs
    to be over the same point set and shape."""
    if g1.points != g2.points or g1.shape != g2.shape:
        raise ValueError("graphs must share point set and shape")
    return g1.edge_pairs() <= g2.edge_pairs()
