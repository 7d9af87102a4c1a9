"""Instance files, the seeded instance generator, and the sampling oracle.

The on-disk format is line-oriented text with exact "p/q" rationals so
fixtures diff cleanly and round-trip bit-exactly:

    # comment lines and blank lines are ignored
    mode translate|homothet
    seed 12345                  (optional provenance of generated instances)
    shape K
    ax ay b strict|closed       (K half-plane lines: ax*x + ay*y <= b)
    points N
    x y                         (N point lines)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, floor

from . import backend
from .builder import PointSet
from .geometry import Point2, scale_to_integers
from .rng import MASK64, SplitMix64, derive_seed, rational_in_window
from .shape import (HOMOTHET, MODES, ConvexShape, HalfPlane, Placement, integer_rows,
                    placement_at)


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}{message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Instance:
    points: PointSet
    shape: ConvexShape
    mode: str
    seed: int | None = None


# ASCII digits only: int() also reads other scripts' digits, which
# emit_instance would write back as ASCII, breaking the round trip
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_UNSIGNED_RE = re.compile(r"[0-9]+")


def _decimal(text: str, line_no: int | None) -> int:
    """int() of a decimal string; int() refuses more digits than
    sys.get_int_max_str_digits() (4300 by default)."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer of {len(text)} characters is too long",
                         line_no) from None


def parse_rational(text: str, line_no: int | None = None) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"malformed rational {text!r}", line_no)
    if "/" in text:
        num, den = text.split("/")
        if _decimal(den, line_no) == 0:
            raise ParseError(f"zero denominator in {text!r}", line_no)
        return Fraction(_decimal(num, line_no), _decimal(den, line_no))
    return Fraction(_decimal(text, line_no))


def parse_instance(text: str) -> Instance:
    lines = []  # (line_no, tokens)
    # split as open() does: splitlines() also splits at \x0b, \x0c, \x1c-\x1e, U+0085, U+2028/9
    for no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((no, body.split()))
    pos = 0

    def next_line(expect: str):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of input, expected {expect}")
        no, toks = lines[pos]
        pos += 1
        return no, toks

    no, toks = next_line("'mode'")
    if toks[0] != "mode" or len(toks) != 2:
        raise ParseError("expected 'mode translate|homothet'", no)
    mode = toks[1]
    if mode not in MODES:
        raise ParseError(f"unknown mode {mode!r}", no)

    seed = None
    no, toks = next_line("'seed' or 'shape'")
    if toks[0] == "seed":
        if len(toks) != 2 or not _UNSIGNED_RE.fullmatch(toks[1]):
            raise ParseError("expected 'seed <unsigned integer>'", no)
        seed = _decimal(toks[1], no)
        if seed >= 1 << 64:
            raise ParseError("seed exceeds 64 bits", no)
        no, toks = next_line("'shape'")

    if toks[0] != "shape" or len(toks) != 2 or not _UNSIGNED_RE.fullmatch(toks[1]):
        raise ParseError("expected 'shape <count>'", no)
    k = _decimal(toks[1], no)
    halfplanes = []
    for _ in range(k):
        no, toks = next_line("half-plane line")
        if len(toks) != 4 or toks[3] not in ("strict", "closed"):
            raise ParseError("expected half-plane line 'ax ay b strict|closed'", no)
        ax = parse_rational(toks[0], no)
        ay = parse_rational(toks[1], no)
        b = parse_rational(toks[2], no)
        if ax == 0 and ay == 0:
            raise ParseError("half-plane normal must be nonzero", no)
        halfplanes.append(HalfPlane((ax, ay), b, toks[3] == "strict"))

    no, toks = next_line("'points'")
    if toks[0] != "points" or len(toks) != 2 or not _UNSIGNED_RE.fullmatch(toks[1]):
        raise ParseError("expected 'points <count>'", no)
    n = _decimal(toks[1], no)
    pts = []
    seen = set()
    for _ in range(n):
        no, toks = next_line("point line")
        if len(toks) != 2:
            raise ParseError("expected 'x y'", no)
        p = Point2(parse_rational(toks[0], no), parse_rational(toks[1], no))
        if p in seen:
            raise ParseError(f"duplicate point {toks[0]} {toks[1]}", no)
        seen.add(p)
        pts.append(p)
    if pos < len(lines):
        raise ParseError("trailing content", lines[pos][0])

    return Instance(PointSet(tuple(pts)), ConvexShape(tuple(halfplanes)), mode, seed)


def emit_instance(inst: Instance) -> str:
    out = [f"mode {inst.mode}"]
    if inst.seed is not None:
        out.append(f"seed {inst.seed}")
    out.append(f"shape {len(inst.shape.halfplanes)}")
    for h in inst.shape.halfplanes:
        kind = "strict" if h.strict else "closed"
        out.append(f"{h.a[0]} {h.a[1]} {h.b} {kind}")
    out.append(f"points {len(inst.points)}")
    for p in inst.points.points:
        out.append(f"{p.x} {p.y}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------

# Integer direction vectors on a coarse angular grid, in angular order.
DIRECTION_GRID = (
    (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
    (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1),
)

POINT_WINDOW = (-8, 8)
POINT_MAX_DEN = 8
OFFSET_WINDOW = (-6, 12)
OFFSET_MAX_DEN = 4


def _sample_points(gen: SplitMix64, n: int) -> PointSet:
    pts: list[Point2] = []
    seen = set()
    lo, hi = POINT_WINDOW
    guard = 0
    while len(pts) < n:
        p = Point2(rational_in_window(gen, lo, hi, POINT_MAX_DEN),
                   rational_in_window(gen, lo, hi, POINT_MAX_DEN))
        if p not in seen:
            seen.add(p)
            pts.append(p)
        guard += 1
        if guard > 1000 * n + 1000:
            raise RuntimeError("point sampling stalled; window too small for n")
    return PointSet(tuple(pts))


def _directions(gen: SplitMix64, chosen: list[tuple[int, int]],
                draws: int) -> list[tuple[int, int]]:
    """``chosen`` extended by ``draws`` draws from ``DIRECTION_GRID``,
    each kept if it is new."""
    for _ in range(draws):
        d = DIRECTION_GRID[gen.below(len(DIRECTION_GRID))]
        if d not in chosen:
            chosen.append(d)
    return chosen


def generate_instance(seed: int, n: int, k: int, mode: str,
                      open_fraction: Fraction) -> Instance:
    """Deterministic fuzz instance for a seed.

    Roughly one seed in ten intentionally drops boundedness by using at
    most two half-planes; every half-plane is independently marked strict
    with probability open_fraction.  Points are distinct small-denominator
    rationals in the fixed window, which makes collinearity and boundary
    contact genuinely reachable.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    open_fraction = Fraction(open_fraction)
    if not 0 <= open_fraction <= 1:
        raise ValueError("open_fraction must be in [0, 1]")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    gen = SplitMix64(seed)

    k_eff = 1 + gen.below(2) if gen.below(10) == 0 else k
    halfplanes = []
    for d in _directions(gen, [], k_eff):
        b = rational_in_window(gen, *OFFSET_WINDOW, OFFSET_MAX_DEN)
        strict = gen.chance(open_fraction.numerator, open_fraction.denominator)
        halfplanes.append(HalfPlane((Fraction(d[0]), Fraction(d[1])), b, strict))

    points = _sample_points(gen, n)
    return Instance(points, ConvexShape(tuple(halfplanes)), mode, seed)


def generate_bounded_instance(seed: int, n: int, k: int, mode: str) -> Instance:
    """Closed, bounded, full-dimensional shape variant (k >= 3): three
    anchor directions roughly 120 degrees apart guarantee boundedness, the
    strictly positive offsets guarantee an interior."""
    if n < 1 or k < 3:
        raise ValueError("need n >= 1 and k >= 3")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    gen = SplitMix64(seed)

    g = len(DIRECTION_GRID)
    r = gen.below(g)
    anchors = [DIRECTION_GRID[(r + s) % g] for s in (0, 5, 11)]
    halfplanes = []
    for d in _directions(gen, anchors, k - 3):
        b = rational_in_window(gen, 1, 10, OFFSET_MAX_DEN)
        halfplanes.append(HalfPlane((Fraction(d[0]), Fraction(d[1])), b, False))

    points = _sample_points(gen, n)
    return Instance(points, ConvexShape(tuple(halfplanes)), mode, seed)


# ---------------------------------------------------------------------------
# Sampling oracle
# ---------------------------------------------------------------------------

def translation_window(points: PointSet) -> tuple[int, int, int, int]:
    """Integer translation bounds: the points' bounding box (the origin
    when there are none) padded by one full spread (at least 1) per side."""
    xs = [p.x for p in points.points]
    ys = [p.y for p in points.points]
    lox, hix = floor(min(xs, default=0)), ceil(max(xs, default=0))
    loy, hiy = floor(min(ys, default=0)), ceil(max(ys, default=0))
    pad = max(hix - lox, hiy - loy, 1)
    return lox - pad, hix + pad, loy - pad, hiy + pad


def sample_witness_search(inst: Instance, i: int, j: int, trials: int,
                          seed: int) -> Placement | None:
    """One-sided randomized oracle: random placements until one contains
    exactly {p_i, p_j}; None when the budget runs out.  Positive answers
    are proofs (the caller can re-verify them); negative answers are only
    statistical evidence."""
    if not 0 <= min(i, j) < max(i, j) < len(inst.points):
        raise ValueError(f"need distinct i, j in range({len(inst.points)}): ({i}, {j})")
    hit = backend.sample_pair_search(
        integer_rows(inst.shape), scale_to_integers(list(inst.points.points)),
        i, j, inst.mode == HOMOTHET, translation_window(inst.points),
        trials, seed)
    return None if hit is None else placement_at(hit[1])


def sampled_edges(inst: Instance, per_pair_trials: int, seed: int) -> set[tuple[int, int]]:
    """Pairs confirmed by ``sample_witness_search``'s sweep on integer forms
    made once, each pair on its own derived stream (order-independent)."""
    if per_pair_trials < 1:
        raise ValueError("need trials >= 1")
    rows, points = integer_rows(inst.shape), scale_to_integers(list(inst.points.points))
    homothet, window = inst.mode == HOMOTHET, translation_window(inst.points)
    return {(a, b) for k, (a, b) in enumerate(combinations(range(len(inst.points)), 2))
            if backend.sample_pair_search(rows, points, a, b, homothet, window,
                                          per_pair_trials, derive_seed(seed, k)) is not None}
