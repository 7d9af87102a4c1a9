"""Benchmark of delgraphs: one workload in one single-threaded process.

    python3 bench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0

--trace 0 runs the workload untraced, one unit after another until the
timed total is as near --seconds as whole units allow, and prints the
end-to-end metrics in nominal seconds (see stats.speed_probe).
--trace 1 runs a fixed number of units twice, untraced and then traced,
and prints the per-layer metrics and the tracing overhead; the counts
repeat exactly for a seed.  Either way every output is checked after the
timed section.  Metric names and units come from BENCHMARK.json.  The
lines before the last one print every metric with its unit, the
environment and any problem; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7


def import_program():
    """Import delgraphs from this checkout, catching import-time warnings
    so they land in the environment record and not in the output."""
    if not (SRC / "delgraphs" / "__init__.py").is_file():
        sys.exit(f"bench: no delgraphs package under {SRC}")
    sys.path.insert(0, str(SRC))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        import delgraphs
    return delgraphs, [f"{w.category.__name__}: {w.message}" for w in caught]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    with open(BENCH / "goldens.json", encoding="utf-8") as fh:
        goldens = json.load(fh)
    return contract, goldens


def run_units(wl, Op, units=None, seconds=None, builds=None):
    """Run units 0, 1, ... until `units` are done, or until one more unit
    of average length would end further from `seconds` than stopping now
    does.  A speed probe runs before every item and after the last one;
    the probes around an item turn its seconds into nominal seconds.
    Returns the ops and, per unit, (operations, seconds, nominal
    seconds), and the nominal seconds of each build, keyed by item and
    build order within it.  `builds` is the list the build timer appends
    to.  Input generation and probes sit outside the timed part."""
    ops, per_unit, build_times = [], [], {}
    while True:
        items = wl.unit_inputs(len(per_unit))
        dt = nominal = 0.0
        probe = stats.speed_probe()
        for item in items:
            first_build = len(builds) if builds is not None else 0
            op = Op(item, wl.op_count(item))
            t = time.perf_counter()
            try:
                op.output = wl.run(item)
            except Exception:
                op.error = traceback.format_exc()
            item_s = time.perf_counter() - t
            ops.append(op)
            after = stats.speed_probe()
            scale = 2 * stats.NOMINAL_PROBE_S / (probe + after)
            probe = after
            dt += item_s
            nominal += item_s * scale
            if builds is not None:
                for j, d in enumerate(builds[first_build:]):
                    build_times.setdefault((wl.key(item), j), []).append(d * scale)
        per_unit.append((sum(wl.op_count(item) for item in items), dt, nominal))
        timed = sum(d for _, d, _ in per_unit)
        if len(per_unit) == units or (
                seconds is not None and timed * (1 + 0.5 / len(per_unit)) >= seconds):
            return ops, per_unit, build_times


def check_all(wl, ops):
    for op in ops:
        if op.error:
            continue
        try:
            wl.check(op)
        except Exception:
            op.problems.append("check raised: " + traceback.format_exc())


def time_builds(cli, durations):
    """Time each cli.build_graph call; returns the undo, or None when the
    name is gone.  This one wrapper is all the untraced run adds."""
    fn = getattr(cli, "build_graph", None)
    if fn is None:
        return None

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - t)

    cli.build_graph = timed
    return lambda: setattr(cli, "build_graph", fn)


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds and nominal seconds of fresh processes that import,
    generate and warm up.  No timeout: with one, subprocess polls the
    child in steps of up to 50 ms, which would quantize these times."""
    raw, nominal = [], []
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    probe = stats.speed_probe()
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t)
        after = stats.speed_probe()
        nominal.append(raw[-1] * 2 * stats.NOMINAL_PROBE_S / (probe + after))
        probe = after
    return raw, nominal


def fuzz_confirm(ops):
    from workloads import parse_fuzz_summary
    found = built = 0
    for op in ops:
        fields = op.output and parse_fuzz_summary(op.output[0])
        if fields:
            found += fields[8] + fields[10]
            built += fields[9] + fields[11]
    return found, built


def report(listed, values, reasons, extra, correct, attempted, failed):
    """Print each metric with its unit, then the JSON result line."""
    metrics = {}
    for m in listed:
        name, unit = m["name"], m["unit"]
        value = values.get(name)
        if value is None:
            why = reasons.get(name, "not measured")
            print(f"absent {name}: {why}")
            print(f"bench: metric {name} absent: {why}", file=sys.stderr)
            continue
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    contract, goldens = load_contract()
    delgraphs, import_warnings = import_program()
    from delgraphs import cli
    from tracing import METRIC_SPANS, Tracer
    from workloads import WORKLOADS, Op

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, goldens)
    wl.prepare()
    wl.unit_inputs(0)  # input generation belongs to set-up
    if args.setup_only:
        return 0

    env = {"commit": git_commit(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "backend": delgraphs.backend_name(),
           "import_warnings": import_warnings, "workload": args.workload,
           "seed": args.seed, "trace": args.trace}
    print("env " + json.dumps(env))

    values, reasons, extra = {}, {}, {}
    if args.trace:
        ops0, units0, _ = run_units(wl, Op, units=wl.trace_units)
        tracer = Tracer()
        tracer.install()
        try:
            ops1, units1, _ = run_units(wl, Op, units=wl.trace_units)
        finally:
            tracer.uninstall()
        untraced_s = sum(nominal for _, _, nominal in units0)
        traced_s = sum(nominal for _, _, nominal in units1)
        ops = ops0 + ops1
        check_all(wl, ops)
        confirm = fuzz_confirm(ops1) if args.workload == "fuzz-mixed" else None
        values = tracer.metrics(sum(dt for _, dt, _ in units1), traced_s / untraced_s, confirm)
        lost = tracer.lost_spans(wl.reaches)
        for metric, spans in METRIC_SPANS.items():
            gone = [lost[s] for s in spans if s in lost]
            if gone:
                values[metric] = None
                reasons[metric] = "; ".join(gone)
        for metric in ("pure.lp_us.p50", "pure.lp_us.p90"):
            reasons.setdefault(metric, "fewer than ten samples beyond the percentile")
        extra["trace.units"] = (len(units1), "count")
        extra["trace.untraced_nominal_s"] = (untraced_s, "s")
        extra["trace.traced_nominal_s"] = (traced_s, "s")
    else:
        durations = []
        undo = time_builds(cli, durations)
        try:
            ops, per_unit, build_times = run_units(wl, Op, seconds=args.seconds,
                                                   builds=durations)
        finally:
            if undo:
                undo()
        check_all(wl, ops)
        setups_raw, setups = setup_times(args.workload, args.seed)
        timed_s = sum(dt for _, dt, _ in per_unit)
        # whole cycles only, so every run rates the same inputs
        cycles = per_unit[:len(per_unit) // wl.cycle * wl.cycle] or per_unit
        values = {
            "setup_s": stats.median(setups),
            "instances_per_s": (sum(n for n, _, _ in cycles)
                                / sum(nominal for _, _, nominal in cycles)),
            "build_s.p50": stats.median_of_medians(build_times.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        reasons["build_s.p50"] = ("cli.build_graph is gone" if undo is None else
                                  f"{len(durations)} builds leave fewer than ten beyond the median")
        extra["build_s.samples"] = (len(durations), "count")
        p90 = stats.percentile([d for ds in build_times.values() for d in ds], 0.9)
        if p90 is not None:
            extra["build_s.p90"] = (p90, "s")
        extra["instances_per_s.raw"] = (sum(op.ops for op in ops) / timed_s, "1/s")
        extra["setup_s.raw"] = (stats.median(setups_raw), "s")
        extra["speed.scale"] = (sum(nom for _, _, nom in per_unit) / timed_s, "frac")
        extra["timed_s"] = (timed_s, "s")
        extra["units"] = (len(per_unit), "count")

    attempted = sum(op.ops for op in ops)
    failed = sum(op.failed_ops for op in ops)
    extra["failed_frac"] = (stats.failed_frac(failed, attempted), "frac")
    correct = not any(op.error or op.problems for op in ops)
    for op in ops:
        for line in ([op.error] if op.error else []) + op.problems:
            print(f"bench: {args.workload}: {line}", file=sys.stderr)
    report(contract["per_layer" if args.trace else "end_to_end"], values,
           reasons, extra, correct, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
