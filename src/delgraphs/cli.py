"""Command-line surface: build, verify, fuzz, triangulate-check.

Exit codes: 0 success, 1 usage or parse error, 2 theorem violation
detected.  Fuzz summaries go to stdout and are byte-reproducible for a
fixed seed; wall-clock timing goes to stderr so reproducibility survives.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from fractions import Fraction

from .builder import WitnessVerificationError, build_graph, is_subgraph
from .instances import (Instance, ParseError, emit_instance,
                        generate_bounded_instance, generate_instance,
                        parse_instance, parse_rational, sampled_edges)
from .planarity import (collinear_triples, find_boundary_degeneracy,
                        triangulation_check, verify_plane)
from .rng import SplitMix64, derive_seed
from .shape import HOMOTHET, MODES, TRANSLATE
from .svgout import render_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _count(minimum: int):
    """argparse type: an integer >= minimum."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _probability(text: str) -> Fraction:
    """argparse type: a rational p/q in [0, 1]."""
    try:
        value = parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _read_instance(path: str) -> Instance:
    """Read and parse an instance file.  ``OSError`` and ``ParseError``
    (also raised for text that is not UTF-8) propagate to ``main()``,
    which reports them with the path and returns exit code 1."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(str(exc)) from None
    return parse_instance(text)


def _witness_lines(g) -> str:
    out = []
    for e in g.edges:
        t = e.witness.translation
        out.append(f"{e.i} {e.j} {t[0]} {t[1]} {e.witness.scale}")
    return "\n".join(out) + ("\n" if out else "")


def _dump_violation(kind: str, inst: Instance, detail: str = ""):
    print(f"VIOLATION {kind}")
    if detail:
        print(detail)
    print("--- instance ---")
    sys.stdout.write(emit_instance(inst))
    print("--- end instance ---")


def cmd_build(args) -> int:
    inst = _read_instance(args.input)
    mode = args.mode or inst.mode
    g = build_graph(inst.points, inst.shape, mode)
    for e in g.edges:
        print(e.i, e.j)
    if args.witnesses:
        with open(args.witnesses, "w", encoding="utf-8") as fh:
            fh.write(_witness_lines(g))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(g))
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _read_instance(args.input)
    modes = [args.mode] if args.mode else list(MODES)
    rc = EXIT_OK
    graphs = {}
    for mode in MODES:
        try:
            graphs[mode] = build_graph(inst.points, inst.shape, mode)
        except WitnessVerificationError as exc:
            _dump_violation(f"witness-{mode}",
                            dataclasses.replace(inst, mode=mode), str(exc))
            return EXIT_VIOLATION
    for mode in modes:
        rep = verify_plane(graphs[mode])
        if rep.is_plane:
            print(f"plane {mode} ok edges={len(graphs[mode].edges)}")
        else:
            rc = EXIT_VIOLATION
            _dump_violation(
                f"plane-{mode}", dataclasses.replace(inst, mode=mode),
                f"condition1={list(rep.condition1_violations)} "
                f"condition2={list(rep.condition2_violations)}")
    if is_subgraph(graphs[TRANSLATE], graphs[HOMOTHET]):
        print("subset ok")
    else:
        rc = EXIT_VIOLATION
        missing = graphs[TRANSLATE].edge_pairs() - graphs[HOMOTHET].edge_pairs()
        _dump_violation("subset", inst, f"translate-only edges: {sorted(missing)}")
    return rc


OPEN_FRACTION_CYCLE = (Fraction(0), Fraction(1, 4), Fraction(1))
SAMPLING_SUBSAMPLE = 25
SAMPLING_TRIALS = 300


def run_fuzz(trials: int, seed: int, max_points: int, max_halfplanes: int,
             open_fraction: Fraction | None):
    """Shared fuzz driver; returns (summary_text, violations).  Printing is
    separated from computation so tests can compare summaries byte-wise."""
    violations = []
    edges_t = edges_st = 0
    max_edges_st = 0
    degenerate = 0
    sampling_checked = 0
    confirmed = {TRANSLATE: [0, 0], HOMOTHET: [0, 0]}  # found, total built

    for t in range(trials):
        params = SplitMix64(derive_seed(seed, t))
        n = 1 + params.below(max_points)
        k = 1 + params.below(max_halfplanes)
        of = open_fraction if open_fraction is not None else OPEN_FRACTION_CYCLE[t % 3]
        inst = generate_instance(params.next_u64(), n, k, TRANSLATE, of)

        try:
            g = {m: build_graph(inst.points, inst.shape, m) for m in MODES}
        except WitnessVerificationError as exc:
            violations.append(("witness", inst, str(exc)))
            continue
        edges_t += len(g[TRANSLATE].edges)
        edges_st += len(g[HOMOTHET].edges)
        max_edges_st = max(max_edges_st, len(g[HOMOTHET].edges))
        if collinear_triples(inst.points.points):
            degenerate += 1

        for mode in MODES:
            rep = verify_plane(g[mode])
            if not rep.is_plane:
                violations.append((
                    f"plane-{mode}", dataclasses.replace(inst, mode=mode),
                    f"condition1={list(rep.condition1_violations)} "
                    f"condition2={list(rep.condition2_violations)}"))
        if not is_subgraph(g[TRANSLATE], g[HOMOTHET]):
            missing = g[TRANSLATE].edge_pairs() - g[HOMOTHET].edge_pairs()
            violations.append(("subset", inst, f"translate-only edges: {sorted(missing)}"))

        if t % SAMPLING_SUBSAMPLE == 0:
            sampling_checked += 1
            for mode in MODES:
                found = sampled_edges(dataclasses.replace(inst, mode=mode),
                                      SAMPLING_TRIALS, derive_seed(seed, 10 ** 9 + t))
                built = g[mode].edge_pairs()
                extra = found - built
                if extra:
                    violations.append((
                        f"oracle-{mode}", dataclasses.replace(inst, mode=mode),
                        f"sampled edges missing from build: {sorted(extra)}"))
                confirmed[mode][0] += len(found & built)
                confirmed[mode][1] += len(built)

    of_text = "mixed" if open_fraction is None else str(open_fraction)
    lines = [
        f"fuzz trials={trials} seed={seed} max-points={max_points} "
        f"max-halfplanes={max_halfplanes} open-fraction={of_text}",
        f"edges translate={edges_t} homothet={edges_st} max-homothet={max_edges_st}",
        f"degenerate-instances={degenerate}/{trials}",
        f"sampling checked={sampling_checked} "
        f"confirmed-translate={confirmed[TRANSLATE][0]}/{confirmed[TRANSLATE][1]} "
        f"confirmed-homothet={confirmed[HOMOTHET][0]}/{confirmed[HOMOTHET][1]}",
        f"violations={len(violations)}",
    ]
    return "\n".join(lines) + "\n", violations


def cmd_fuzz(args) -> int:
    t0 = time.perf_counter()
    summary, violations = run_fuzz(args.trials, args.seed, args.max_points,
                                   args.max_halfplanes, args.open_fraction)
    for kind, inst, detail in violations:
        _dump_violation(kind, inst, detail)
    sys.stdout.write(summary)
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_OK


RESAMPLE_ATTEMPTS = 50


def run_triangulate_check(trials: int, seed: int):
    """Returns (summary_text, unexplained_misses).

    ``matches=`` counts trials whose homothet graph is ``triangulated``:
    connected with every bounded face a triangle (the outer-face count,
    see ``planarity.TriangulationReport``).  The convex-hull count
    ``matches`` is not used, since a polygonal shape need not reach it.
    A miss is excused by a 4-point boundary degeneracy."""
    applicable = matches = excused = unexplained = 0
    for t in range(trials):
        params = SplitMix64(derive_seed(seed, t))
        n = 4 + params.below(7)
        k = 3 + params.below(5)
        inst = None
        for attempt in range(RESAMPLE_ATTEMPTS):
            cand = generate_bounded_instance(
                derive_seed(params.next_u64(), attempt), n, k, HOMOTHET)
            if not collinear_triples(cand.points.points):
                inst = cand
                break
        if inst is None:
            continue
        g = build_graph(inst.points, inst.shape, HOMOTHET)
        rep = triangulation_check(g)
        if not rep.applicable:
            continue
        applicable += 1
        if rep.triangulated:
            matches += 1
        elif find_boundary_degeneracy(inst.points.points, inst.shape) is not None:
            excused += 1
        else:
            unexplained += 1
    lines = [
        f"triangulate-check trials={trials} seed={seed}",
        f"applicable={applicable} matches={matches} "
        f"miss-excused={excused} miss-unexplained={unexplained}",
    ]
    return "\n".join(lines) + "\n", unexplained


def cmd_triangulate_check(args) -> int:
    t0 = time.perf_counter()
    summary, unexplained = run_triangulate_check(args.trials, args.seed)
    sys.stdout.write(summary)
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_VIOLATION if unexplained else EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(prog="delgraphs",
                     description="translate/homothet graph builder and "
                                 "plane-graph verifier over exact rationals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a graph and print its edge list")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--svg", help="write an SVG drawing here")
    p.add_argument("--witnesses", help="write per-edge witness lines here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify planarity and the subset relation")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=MODES,
                   help="restrict the planarity check to one mode")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="randomized theorem verification")
    p.add_argument("--trials", type=_count(0), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-points", type=_count(1), default=10)
    p.add_argument("--max-halfplanes", type=_count(1), default=7)
    p.add_argument("--open-fraction", type=_probability,
                   help="fixed strictness probability p/q; default cycles 0, 1/4, 1")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("triangulate-check",
                       help="count generic bounded homothet graphs whose "
                            "bounded faces are all triangles",
                       description="matches= counts graphs with E = 3n-3-k "
                                   "edges, k the outer-face walk length, "
                                   "i.e. every bounded face a triangle.  The "
                                   "convex-hull count 3n-3-h is not used: a "
                                   "polygonal shape need not reach it.  "
                                   "Exit 2 on a miss that no 4-point "
                                   "boundary degeneracy excuses.")
    p.add_argument("--trials", type=_count(0), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_triangulate_check)

    args = parser.parse_args(argv)
    source = getattr(args, "input", None)
    try:
        return args.func(args)
    except ParseError as exc:
        where = f"{source}: " if source else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        verb = "read" if exc.filename == source else "write"
        print(f"error: cannot {verb} {exc.filename}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
