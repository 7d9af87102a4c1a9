"""Tests of the benchmark's own helpers; no timing is involved."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import stats  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Op, edge_list, transform  # noqa: E402

from delgraphs import build_graph, generate_bounded_instance  # noqa: E402
from delgraphs.shape import MODES, TRANSLATE  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(19), 0.5) is None
    assert stats.percentile(range(20), 0.5) == 9
    assert stats.percentile(range(99), 0.9) is None
    assert stats.percentile(range(100), 0.9) == 89
    assert stats.percentile([], 0.5) is None


def test_median_of_medians_is_robust_to_one_slow_repetition():
    groups = [[1.0, 1.1, 9.0], [2.0, 2.1, 2.2], [3.0, 30.0, 3.1]] * 3
    assert stats.median_of_medians(groups) == 2.1
    assert stats.median_of_medians([[1.0, 2.0]] * 9) is None  # 18 samples
    assert stats.median_of_medians([[1.0, 2.0]] * 10) == 1.5


def test_failed_frac_counts_against_attempted():
    assert stats.failed_frac(0, 4) == 0
    assert stats.failed_frac(3, 4) == 0.75
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(5, 4)


def test_op_failures_wrong_output_fails_all_reported_violation_fails_named():
    assert Op("chunk", 25).failed_ops == 0
    assert Op("chunk", 25, program_failures=2).failed_ops == 2
    assert Op("chunk", 25, program_failures=2, problems=["x"]).failed_ops == 25
    assert Op("trial", 1, program_failures=3).failed_ops == 1
    assert Op("trial", 1, error="Traceback").failed_ops == 1


def test_compare_golden_names_the_mismatch():
    assert stats.compare_golden("edges", [[0, 1]], [[0, 1]]) == []
    (line,) = stats.compare_golden("edges", [[0, 1]], [[0, 2]])
    assert line.startswith("edges: expected [[0, 1]], got [[0, 2]]")


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 9.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))

    def child():
        return "c"

    def parent():
        return inner() + inner()

    inner = tr.wrap("child", child)
    outer = tr.wrap("parent", parent)
    assert outer() == "cc"
    assert tr.total["parent"] == 10.0
    assert tr.total["child"] == 3.0 + 4.0
    assert tr.self_time["parent"] == 10.0 - 7.0
    assert tr.self_time["child"] == 7.0
    assert tr.calls == {"parent": 1, "child": 2}


def test_lost_spans_name_the_gone_and_the_unreached():
    tr = Tracer()
    tr.missing.append(("delgraphs.backend.solve_slack_lp", "pure.lp"))
    tr.calls["builder.build_graph"] = 3
    lost = tr.lost_spans(("pure.lp", "builder.build_graph", "cli.run_fuzz"))
    assert lost == {"pure.lp": "delgraphs.backend.solve_slack_lp is gone",
                    "cli.run_fuzz": "cli.run_fuzz was never reached"}


def test_install_and_uninstall_restore_the_program():
    from delgraphs import backend, cli

    before = (backend.solve_slack_lp, cli.build_graph)
    tr = Tracer()
    tr.install()
    try:
        assert backend.solve_slack_lp is not before[0]
        assert not tr.missing
    finally:
        tr.uninstall()
    assert (backend.solve_slack_lp, cli.build_graph) == before


def test_transform_keeps_both_graphs():
    import random

    inst = generate_bounded_instance(5, 5, 4, TRANSLATE)
    rng = random.Random(3)
    for _ in range(3):
        v = transform(0, inst.points, inst.shape, rng)
        assert v.points != inst.points
        for mode in MODES:
            assert (edge_list(build_graph(v.points, v.shape, mode))
                    == edge_list(build_graph(inst.points, inst.shape, mode)))
    assert all(isinstance(p.x, Fraction) for p in v.points.points)
