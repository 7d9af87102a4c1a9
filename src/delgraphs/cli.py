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
from .instances import (_UNSIGNED_RE, Instance, ParseError, _decimal,
                        emit_instance, generate_bounded_instance,
                        generate_instance, parse_instance, parse_rational,
                        sampled_edges)
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
    """argparse type: an integer >= minimum, written in ASCII digits alone,
    as in instance files."""
    def parse(text: str) -> int:
        if not _UNSIGNED_RE.fullmatch(text):
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        try:
            value = _decimal(text, None)
        except ParseError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _seed(text: str) -> int:
    """argparse type: an integer in [0, 2**64), the seeds ``derive_seed``
    tells apart."""
    value = _count(0)(text)
    if value >> 64:
        raise argparse.ArgumentTypeError(f"must be < 2**64, got {value}")
    return value


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
    """Read and parse a UTF-8 instance file, skipping a leading BOM.
    ``OSError`` and ``ParseError`` (also raised for non-UTF-8 text) go to
    ``main()``, which reports them with the path and returns exit code 1."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc)) from None
    except OSError as exc:  # a failed read names no file
        exc.filename = path
        raise
    return parse_instance(text)


def _witness_lines(g) -> str:
    return "".join(f"{e.i} {e.j} {e.witness.translation[0]} {e.witness.translation[1]} "
                   f"{e.witness.scale}\n" for e in g.edges)


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
    try:
        g = build_graph(inst.points, inst.shape, mode)
    except WitnessVerificationError as exc:
        _dump_violation(f"witness-{mode}", dataclasses.replace(inst, mode=mode), str(exc))
        return EXIT_VIOLATION
    # the files first: a path that cannot be written ends the run with
    # exit 1 before any edge reaches stdout
    for path, render in ((args.witnesses, _witness_lines), (args.svg, render_svg)):
        if path:
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(render(g))
            except OSError as exc:  # a failed write or flush names no file
                exc.filename = path
                raise
    for e in g.edges:
        print(e.i, e.j)
    return EXIT_OK


def check_claims(inst: Instance, plane_modes=MODES):
    """(graphs, violations) of the paper's claims on ``inst``: plane per
    mode in ``plane_modes``, translate within homothet.  Violations are
    (kind, instance, detail); a witness failure ends the check early."""
    graphs = {}
    for mode in MODES:
        try:
            graphs[mode] = build_graph(inst.points, inst.shape, mode)
        except WitnessVerificationError as exc:
            return graphs, [(f"witness-{mode}",
                             dataclasses.replace(inst, mode=mode), str(exc))]
    violations = []
    for mode in plane_modes:
        rep = verify_plane(graphs[mode])
        if not rep.is_plane:
            violations.append((
                f"plane-{mode}", dataclasses.replace(inst, mode=mode),
                f"condition1={list(rep.condition1_violations)} "
                f"condition2={list(rep.condition2_violations)}"))
    if not is_subgraph(graphs[TRANSLATE], graphs[HOMOTHET]):
        missing = graphs[TRANSLATE].edge_pairs() - graphs[HOMOTHET].edge_pairs()
        violations.append(("subset", inst, f"translate-only edges: {sorted(missing)}"))
    return graphs, violations


def cmd_verify(args) -> int:
    inst = _read_instance(args.input)
    modes = [args.mode] if args.mode else list(MODES)
    graphs, violations = check_claims(inst, modes)
    if len(graphs) < len(MODES):
        _dump_violation(*violations[0])
        return EXIT_VIOLATION
    found = {v[0]: v for v in violations}
    ok_lines = [(f"plane-{m}", f"plane {m} ok edges={len(graphs[m].edges)}")
              for m in modes] + [("subset", "subset ok")]
    for kind, line in ok_lines:
        if kind in found:
            _dump_violation(*found[kind])
        else:
            print(line)
    return EXIT_VIOLATION if violations else EXIT_OK


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

        g, found = check_claims(inst)
        violations += found
        if len(g) < len(MODES):
            continue
        edges_t += len(g[TRANSLATE].edges)
        edges_st += len(g[HOMOTHET].edges)
        max_edges_st = max(max_edges_st, len(g[HOMOTHET].edges))
        if collinear_triples(inst.points.points):
            degenerate += 1

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


def _report(t0: float, summary: str, violations, misses: int = 0) -> int:
    """Violations, then the summary, to stdout; the time since ``t0`` to stderr."""
    for violation in violations:
        _dump_violation(*violation)
    sys.stdout.write(summary)
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_VIOLATION if violations or misses else EXIT_OK


def cmd_fuzz(args) -> int:
    t0 = time.perf_counter()
    return _report(t0, *run_fuzz(args.trials, args.seed, args.max_points,
                                 args.max_halfplanes, args.open_fraction))


RESAMPLE_ATTEMPTS = 50


def run_triangulate_check(trials: int, seed: int):
    """Returns (summary_text, unexplained_misses, violations); a witness
    failure is a violation as in ``run_fuzz``, and its trial is skipped.

    ``matches=`` counts trials whose homothet graph is ``triangulated``:
    connected with every bounded face a triangle (Euler: E - n + 1 empty
    3-cycles, see ``planarity.TriangulationReport``).  The convex-hull count
    ``matches`` is not used, since a polygonal shape need not reach it.
    A miss is excused by a 4-point boundary degeneracy."""
    applicable = matches = excused = unexplained = 0
    violations = []
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
        try:
            g = build_graph(inst.points, inst.shape, HOMOTHET)
        except WitnessVerificationError as exc:
            violations.append((f"witness-{HOMOTHET}", inst, str(exc)))
            continue
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
    return "\n".join(lines) + "\n", unexplained, violations


def cmd_triangulate_check(args) -> int:
    t0 = time.perf_counter()
    summary, unexplained, violations = run_triangulate_check(args.trials, args.seed)
    return _report(t0, summary, violations, unexplained)


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
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--max-points", type=_count(1), default=10)
    p.add_argument("--max-halfplanes", type=_count(1), default=7)
    p.add_argument("--open-fraction", type=_probability,
                   help="fixed strictness probability p/q; default cycles 0, 1/4, 1")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("triangulate-check",
                       help="count generic bounded homothet graphs with "
                            "every bounded face a triangle (Euler: E-n+1 "
                            "empty 3-cycles)",
                       description="matches= counts connected graphs with "
                                   "every bounded face a triangle (Euler: "
                                   "E-n+1 empty 3-cycles).  The "
                                   "convex-hull count 3n-3-h is not used: a "
                                   "polygonal shape need not reach it.  "
                                   "Exit 2 on a miss that no 4-point "
                                   "boundary degeneracy excuses.")
    p.add_argument("--trials", type=_count(0), required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=cmd_triangulate_check)

    args = parser.parse_args(argv)
    source = getattr(args, "input", None)
    try:
        return args.func(args)
    except ParseError as exc:
        where = f"{source}: " if source else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # only a write to stdout names no file
        name = "standard output" if exc.filename is None else exc.filename
        verb = "read" if name == source else "write"
        print(f"error: cannot {verb} {name}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
