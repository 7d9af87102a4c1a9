"""Per-layer tracing from outside the program.

The traced run replaces names in the program's modules with wrappers,
at the module where callers look the name up (``builder`` calls
``feasible``, not ``region.feasible``, so both are wrapped).  Each
wrapper opens a span; a span's self time is its duration minus that of
the spans opened inside it, and layer counters are taken as the spans
close.  Layers are the program's modules.

A wrap point the program no longer has, or one a workload is expected to
reach but never does, is reported by name, and every metric that needs
it is left out rather than reported wrong.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

from stats import percentile

# (module, name looked up there, span)
WRAP_POINTS = (
    ("backend", "solve_slack_lp", "pure.lp"),
    ("backend", "sample_pair_search", "pure.sample"),
    ("region", "feasible", "region.feasible"),
    ("builder", "feasible", "region.feasible"),
    ("planarity", "feasible", "region.feasible"),
    ("builder", "feasible_with_hint", "region.feasible_with_hint"),
    ("builder", "verify_witness", "builder.verify_witness"),
    ("cli", "build_graph", "builder.build_graph"),
    ("cli", "is_subgraph", "builder.is_subgraph"),
    ("cli", "verify_plane", "planarity.verify_plane"),
    ("cli", "collinear_triples", "planarity.collinear_triples"),
    ("cli", "triangulation_check", "planarity.triangulation_check"),
    ("cli", "find_boundary_degeneracy", "planarity.find_boundary_degeneracy"),
    ("planarity", "on_common_homothet_boundary", "planarity.boundary_test"),
    ("cli", "generate_instance", "instances.generate"),
    ("cli", "sampled_edges", "instances.sampled_edges"),
    ("cli", "run_fuzz", "cli.run_fuzz"),
)

REGION_SPANS = ("region.feasible", "region.feasible_with_hint")

# metric -> spans it is computed from
METRIC_SPANS = {
    "pure.lp_calls": ("pure.lp",),
    "pure.lp_s": ("pure.lp",),
    "pure.lp_us.p50": ("pure.lp",),
    "pure.lp_us.p90": ("pure.lp",),
    "pure.lp_rows.mean": ("pure.lp",),
    "pure.lp_infeasible_frac": ("pure.lp",),
    "pure.share": ("pure.lp",),
    "pure.sample_calls": ("pure.sample",),
    "pure.sample_trials_per_s": ("pure.sample",),
    "region.feasible_calls": ("region.feasible",),
    "region.self_s": REGION_SPANS + ("pure.lp",),
    "region.hint_calls": ("region.feasible_with_hint",),
    "region.hint_hit_frac": REGION_SPANS,
    "region.empty_frac": REGION_SPANS,
    "builder.build_calls": ("builder.build_graph",),
    "builder.pairs": ("builder.build_graph",),
    "builder.edges": ("builder.build_graph",),
    "builder.lp_per_pair": ("builder.build_graph", "pure.lp"),
    "builder.verify_witness_s": ("builder.verify_witness",),
    "builder.self_s": ("builder.build_graph", "builder.verify_witness") + REGION_SPANS,
    "planarity.verify_plane_s": ("planarity.verify_plane",),
    "planarity.collinear_s": ("planarity.collinear_triples",),
    "planarity.triangulation_check_s": ("planarity.triangulation_check",),
    "planarity.degeneracy_calls": ("planarity.find_boundary_degeneracy",),
    "planarity.degeneracy_s": ("planarity.find_boundary_degeneracy",),
    "planarity.boundary_tests": ("planarity.boundary_test",),
    "planarity.boundary_lp_calls": ("planarity.find_boundary_degeneracy", "pure.lp"),
    "planarity.miss_unexplained": ("planarity.find_boundary_degeneracy",),
    "instances.generate_s": ("instances.generate",),
    "instances.sampled_edges_s": ("instances.sampled_edges",),
    "instances.oracle_confirm_frac": ("cli.run_fuzz",),
    "cli.self_s": ("cli.run_fuzz",),
    "trace.overhead_frac": (),
}


class Tracer:
    """Spans and counters for one traced pass.  ``clock`` is injectable
    so the self-time arithmetic can be tested without timing anything."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open spans: [name, start, child time]
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.within = Counter()  # kernel calls made inside an open span of a name
        self.lp_us: list[float] = []
        self.lp_rows = 0
        self.lp_infeasible = 0
        self.sample_trials = 0
        self.hint_solves = 0
        self.decisions = 0
        self.empty = 0
        self.pairs = 0
        self.edges = 0
        self.unexplained = 0
        self.missing: list[tuple[str, str]] = []  # (wrap point, span)
        self._installed: list[tuple] = []

    def enter(self, name: str):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, child = self.stack.pop()
        dur = self.clock() - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name: str, fn):
        on_exit = getattr(self, "_on_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.exit()
            if on_exit is not None:
                on_exit(args, result, dur)
            return result

        return traced

    # counters taken as spans close --------------------------------------

    def _on_pure_lp(self, args, result, dur):
        self.lp_us.append(dur * 1e6)
        self.lp_rows += len(args[1])
        self.lp_infeasible += not result[0]
        for name in {frame[0] for frame in self.stack}:
            self.within[name] += 1

    def _on_pure_sample(self, args, result, dur):
        self.sample_trials += args[6] if result is None else result[0] + 1

    def _region_decision(self, result):
        if self.parent() not in REGION_SPANS:
            self.decisions += 1
            self.empty += not result

    def _on_region_feasible(self, args, result, dur):
        if self.parent() == "region.feasible_with_hint":
            self.hint_solves += 1
        self._region_decision(result)

    def _on_region_feasible_with_hint(self, args, result, dur):
        self._region_decision(result)

    def _on_builder_build_graph(self, args, result, dur):
        n = len(args[0])
        self.pairs += n * (n - 1) // 2
        self.edges += len(result.edges)

    def _on_planarity_find_boundary_degeneracy(self, args, result, dur):
        self.unexplained += result is None

    # installation --------------------------------------------------------

    def install(self):
        for module, attr, name in WRAP_POINTS:
            try:
                mod = importlib.import_module(f"delgraphs.{module}")
            except ModuleNotFoundError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append((f"delgraphs.{module}.{attr}", name))
                continue
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def lost_spans(self, reached: tuple[str, ...]) -> dict[str, str]:
        """Span -> why it is lost: a wrap point is gone, or the workload
        should reach the span and never did."""
        lost = {name: f"{where} is gone" for where, name in self.missing}
        for name in reached:
            if name not in lost and not self.calls[name]:
                lost[name] = f"{name} was never reached"
        return lost

    # metrics -------------------------------------------------------------

    def metrics(self, wall_s: float, traced_over_untraced: float,
                fuzz_confirm: tuple[int, int] | None) -> dict[str, float | None]:
        c, t = self.calls, self.total
        lp_calls = c["pure.lp"]
        hint_calls = c["region.feasible_with_hint"]
        p50 = percentile(self.lp_us, 0.5)
        p90 = percentile(self.lp_us, 0.9)
        return {
            "pure.lp_calls": lp_calls,
            "pure.lp_s": t["pure.lp"],
            "pure.lp_us.p50": p50,
            "pure.lp_us.p90": p90,
            "pure.lp_rows.mean": self.lp_rows / lp_calls if lp_calls else 0.0,
            "pure.lp_infeasible_frac": self.lp_infeasible / lp_calls if lp_calls else 0.0,
            "pure.share": t["pure.lp"] / wall_s,
            "pure.sample_calls": c["pure.sample"],
            "pure.sample_trials_per_s":
                self.sample_trials / t["pure.sample"] if c["pure.sample"] else 0.0,
            "region.feasible_calls": c["region.feasible"],
            "region.self_s": sum(self.self_time[s] for s in REGION_SPANS),
            "region.hint_calls": hint_calls,
            "region.hint_hit_frac":
                (hint_calls - self.hint_solves) / hint_calls if hint_calls else 0.0,
            "region.empty_frac": self.empty / self.decisions if self.decisions else 0.0,
            "builder.build_calls": c["builder.build_graph"],
            "builder.pairs": self.pairs,
            "builder.edges": self.edges,
            "builder.lp_per_pair":
                self.within["builder.build_graph"] / self.pairs if self.pairs else 0.0,
            "builder.verify_witness_s": t["builder.verify_witness"],
            "builder.self_s": self.self_time["builder.build_graph"],
            "planarity.verify_plane_s": t["planarity.verify_plane"],
            "planarity.collinear_s": t["planarity.collinear_triples"],
            "planarity.triangulation_check_s": t["planarity.triangulation_check"],
            "planarity.degeneracy_calls": c["planarity.find_boundary_degeneracy"],
            "planarity.degeneracy_s": t["planarity.find_boundary_degeneracy"],
            "planarity.boundary_tests": c["planarity.boundary_test"],
            "planarity.boundary_lp_calls": self.within["planarity.find_boundary_degeneracy"],
            "planarity.miss_unexplained": self.unexplained,
            "instances.generate_s": t["instances.generate"],
            "instances.sampled_edges_s": t["instances.sampled_edges"],
            "instances.oracle_confirm_frac":
                fuzz_confirm[0] / fuzz_confirm[1] if fuzz_confirm and fuzz_confirm[1] else 0.0,
            "cli.self_s": self.self_time["cli.run_fuzz"],
            "trace.overhead_frac": traced_over_untraced - 1.0,
        }
