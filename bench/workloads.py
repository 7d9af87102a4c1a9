"""The three benchmark workloads.

A workload turns the run seed into inputs, processes them one unit at a
time (a unit is the smallest block after which the time box may stop),
and checks every output after the timed section.  Every call into the
program goes through the ``delgraphs.cli`` namespace, where the traced
run finds and wraps the names.

verify-deep and triangulate-generic draw from a fixed panel of base
instances made by the program's own generator.  For every pass over the
panel the seed picks, per instance, a symmetry of the square grid and an
integer shift of the points.  Translate and homothet graphs do not
change when one invertible linear map is applied to points and shape,
or when the points are shifted, so the expected outputs are known for
every seed.  The seed changes the coordinates, and with them the numbers
the exact kernel pivots on, but not the order of the search.  Fresh
random instances of these sizes, or a relabelling of the points, change
the cost of an instance two- to fourfold, which a run of a few passes
cannot average out.

fuzz-mixed calls ``cli.run_fuzz`` as the CLI does, on a fixed cycle of
fuzz seeds.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from delgraphs import builder, cli, instances
from delgraphs.builder import PointSet
from delgraphs.geometry import Point2
from delgraphs.shape import HOMOTHET, MODES, TRANSLATE, ConvexShape, HalfPlane

import stats


@dataclass
class Op:
    """One operation: its input, its output, and what the checks found."""

    item: object  # a Variant or a FuzzChunk
    ops: int
    output: object = None
    error: str | None = None
    problems: list = field(default_factory=list)
    program_failures: int = 0

    @property
    def failed_ops(self) -> int:
        """A raise or a wrong output fails every operation of the item; a
        violation the program reports fails the operations it names."""
        if self.error or self.problems:
            return self.ops
        return min(self.program_failures, self.ops)


@dataclass(frozen=True)
class Variant:
    """A base panel instance under a seeded symmetry."""

    base: int
    points: PointSet
    shape: ConvexShape


def edge_list(g) -> list[list[int]]:
    return [[e.i, e.j] for e in g.edges]


def transform(base: int, points: PointSet, shape: ConvexShape,
              rng: random.Random) -> Variant:
    """Apply a signed axis permutation L to points and shape and shift the
    points by a small integer vector.  Because L^-T = L for a signed
    permutation, a.p <= b becomes (L a).(L p) <= b."""
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    swap = rng.random() < 0.5

    def lin(x, y):
        if swap:
            x, y = y, x
        return sx * x, sy * y

    vx, vy = rng.randint(-3, 3), rng.randint(-3, 3)
    pts = [Point2(*(c + d for c, d in zip(lin(p.x, p.y), (vx, vy))))
           for p in points.points]
    hps = [HalfPlane(lin(*h.a), h.b, h.strict) for h in shape.halfplanes]
    return Variant(base, PointSet(tuple(pts)), ConvexShape(tuple(hps)))


def warm_up():
    """One small build per mode, so first-call costs land in set-up."""
    inst = instances.generate_bounded_instance(0, 4, 4, TRANSLATE)
    for mode in MODES:
        builder.build_graph(inst.points, inst.shape, mode)


class PanelWorkload:
    """A fixed panel of base instances; unit u is one pass over the whole
    panel, each instance under its own seeded transform."""

    cycle = 1  # units that cover every input once

    def __init__(self, seed: int, goldens: dict):
        self.seed = seed
        self.goldens = goldens
        self.panel: list[tuple[PointSet, ConvexShape]] = []

    def op_count(self, item) -> int:
        return 1

    def key(self, item) -> int:
        return item.base

    def unit_inputs(self, u: int) -> list[Variant]:
        rng = random.Random(f"{self.name}/{self.seed}/{u}")
        return [transform(i, pts, shape, rng)
                for i, (pts, shape) in enumerate(self.panel)]


class VerifyDeep(PanelWorkload):
    """The work of ``delgraphs verify``: both builds, the plane check of
    each, and translate-subset-of-homothet, on bounded closed shapes."""

    name = "verify-deep"
    trace_units = 2
    reaches = ("pure.lp", "region.feasible", "region.feasible_with_hint",
               "builder.build_graph", "builder.verify_witness",
               "builder.is_subgraph", "planarity.verify_plane")
    N_POINTS = 6
    N_HALFPLANES = 6
    PANEL_SEEDS = tuple(range(1000, 1008))

    def prepare(self):
        for s in self.PANEL_SEEDS:
            inst = instances.generate_bounded_instance(
                s, self.N_POINTS, self.N_HALFPLANES, TRANSLATE)
            self.panel.append((inst.points, inst.shape))
        warm_up()

    def run(self, v: Variant):
        g = {m: cli.build_graph(v.points, v.shape, m) for m in MODES}
        plane = {m: cli.verify_plane(g[m]).is_plane for m in MODES}
        return g, plane, cli.is_subgraph(g[TRANSLATE], g[HOMOTHET])

    def check(self, op: Op):
        v = op.item
        g, plane, subset = op.output
        expected = self.goldens["verify-deep"][v.base]
        for m in MODES:
            op.problems += stats.compare_golden(
                f"{m} edges of panel {v.base}", expected[m], edge_list(g[m]))
            for e in g[m].edges:
                if not builder.verify_witness(v.points, v.shape, e.i, e.j, e.witness):
                    op.problems.append(f"{m} witness of ({e.i},{e.j}) fails re-check")
                if m == TRANSLATE and e.witness.scale != 1:
                    op.problems.append(f"translate witness of ({e.i},{e.j}) "
                                       f"has scale {e.witness.scale}")
            if not plane[m]:
                op.program_failures += 1
        if not subset:
            op.program_failures += 1

    def golden_of(self, op: Op):
        g, _, _ = op.output
        return {m: edge_list(g[m]) for m in MODES}


class TriangulateGeneric(PanelWorkload):
    """One trial of ``cli.run_triangulate_check`` per panel instance:
    genericity check, homothet build, edge-count check, and the boundary
    degeneracy scan on a miss."""

    name = "triangulate-generic"
    trace_units = 3
    reaches = ("pure.lp", "region.feasible", "region.feasible_with_hint",
               "builder.build_graph", "builder.verify_witness",
               "planarity.collinear_triples", "planarity.triangulation_check",
               "planarity.find_boundary_degeneracy", "planarity.boundary_test")
    PANEL_SIZE = 8
    N_POINTS = 6
    HALFPLANES = (3, 4, 5)
    RESAMPLE_ATTEMPTS = 50

    def prepare(self):
        for i in range(self.PANEL_SIZE):
            k = self.HALFPLANES[i % len(self.HALFPLANES)]
            for attempt in range(self.RESAMPLE_ATTEMPTS):
                inst = instances.generate_bounded_instance(
                    2000 + 100 * i + attempt, self.N_POINTS, k, HOMOTHET)
                if not cli.collinear_triples(inst.points.points):
                    break
            else:
                raise RuntimeError(f"no generic instance for panel slot {i}")
            self.panel.append((inst.points, inst.shape))
        warm_up()

    def run(self, v: Variant):
        generic = not cli.collinear_triples(v.points.points)
        g = cli.build_graph(v.points, v.shape, HOMOTHET)
        rep = cli.triangulation_check(g)
        if not rep.applicable:
            return generic, "not-applicable"
        if rep.matches:
            return generic, "match"
        if cli.find_boundary_degeneracy(v.points.points, v.shape) is not None:
            return generic, "miss-excused"
        return generic, "miss-unexplained"

    def check(self, op: Op):
        generic, outcome = op.output
        if not generic:
            op.problems.append("transformed instance has a collinear triple")
        op.problems += stats.compare_golden(
            f"outcome of panel {op.item.base}",
            self.goldens["triangulate-generic"][op.item.base], outcome)
        if outcome == "miss-unexplained":
            op.program_failures += 1

    def golden_of(self, op: Op):
        return op.output[1]


@dataclass(frozen=True)
class FuzzChunk:
    slot: int
    seed: int
    trials: int


_SUMMARY = re.compile(
    r"fuzz trials=(\d+) seed=(\d+) .*\n"
    r"edges translate=(\d+) homothet=(\d+) max-homothet=(\d+)\n"
    r"degenerate-instances=(\d+)/(\d+)\n"
    r"sampling checked=(\d+) confirmed-translate=(\d+)/(\d+) "
    r"confirmed-homothet=(\d+)/(\d+)\n"
    r"violations=(\d+)\n$")


def parse_fuzz_summary(text: str):
    m = _SUMMARY.fullmatch(text)
    return tuple(int(v) for v in m.groups()) if m else None


class FuzzMixed:
    """``cli.run_fuzz`` in chunks of 25 trials (the CLI's sampling
    cadence, so trial 0 of each chunk goes to the oracle), mixed open
    fraction and at most 7 half-planes as the CLI defaults, at most 5
    points.  The chunks form a fixed cycle of PANEL_SIZE fuzz seeds, and
    the run seed picks where in the cycle a run starts.  Fresh fuzz seeds
    per run spread instances_per_s and build_s.p50 by 20-45% between
    seeds: a run holds only about 500 trials of a heavy-tailed mix."""

    name = "fuzz-mixed"
    reaches = ("pure.lp", "pure.sample", "region.feasible",
               "region.feasible_with_hint", "builder.build_graph",
               "builder.verify_witness", "builder.is_subgraph",
               "planarity.verify_plane", "planarity.collinear_triples",
               "instances.generate", "instances.sampled_edges", "cli.run_fuzz")
    TRIALS = cli.SAMPLING_SUBSAMPLE
    MAX_POINTS = 5
    MAX_HALFPLANES = 7
    PANEL_SIZE = cycle = 12
    trace_units = 10

    def __init__(self, seed: int, goldens: dict):
        self.seed = seed
        self.goldens = goldens
        self.offset = random.Random(f"{self.name}/{seed}").randrange(self.PANEL_SIZE)

    def prepare(self):
        warm_up()

    def op_count(self, chunk: FuzzChunk) -> int:
        return chunk.trials

    def key(self, chunk: FuzzChunk) -> int:
        return chunk.slot

    def unit_inputs(self, u: int):
        slot = (self.offset + u) % self.PANEL_SIZE
        return [FuzzChunk(slot, random.Random(f"{self.name}/chunk/{slot}")
                          .getrandbits(63), self.TRIALS)]

    def run(self, chunk: FuzzChunk):
        return cli.run_fuzz(chunk.trials, chunk.seed, self.MAX_POINTS,
                            self.MAX_HALFPLANES, None)

    def check(self, op: Op):
        summary, violations = op.output
        fields = parse_fuzz_summary(summary)
        if fields is None:
            op.problems.append(f"unparsable fuzz summary: {summary!r}")
            return
        (trials, seed, _, _, _, degenerate, trials2, _,
         conf_t, built_t, conf_h, built_h, n_viol) = fields
        if (trials, seed, trials2) != (op.item.trials, op.item.seed, op.item.trials):
            op.problems.append("fuzz summary names the wrong trials or seed")
        if degenerate > trials or conf_t > built_t or conf_h > built_h:
            op.problems.append(f"inconsistent fuzz summary: {summary!r}")
        if n_viol != len(violations):
            op.problems.append("violation count differs from the summary")
        op.problems += stats.compare_golden(
            f"fuzz chunk {op.item.slot} summary",
            self.goldens["fuzz-mixed"][op.item.slot], summary)
        op.program_failures = len({inst.seed for _, inst, _ in violations})

    def golden_of(self, op: Op):
        return op.output[0]



WORKLOADS = {w.name: w for w in (VerifyDeep, FuzzMixed, TriangulateGeneric)}
