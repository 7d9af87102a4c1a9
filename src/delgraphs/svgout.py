"""Deterministic SVG 1.1 rendering of graph drawings: points and edges.

Rendering is presentation only: rationals are formatted to 6 decimal
places for display, never used in any decision, and drawings are emitted
verbatim (a crossing graph renders its crossing).
"""

from __future__ import annotations

from fractions import Fraction

from .builder import GeometricGraph

_PAD = Fraction(1, 5)  # 20% viewport padding


def _fmt(v) -> str:
    q = round(v * 10**6)  # exact on the rational, ties to even
    return f"{'-' if q < 0 else ''}{abs(q) // 10**6}.{abs(q) % 10**6:06d}"


def _viewport(points):
    # an empty point set gets the box of a single point at the origin
    xs = [p.x for p in points] or [Fraction(0)]
    ys = [p.y for p in points] or [Fraction(0)]
    lox, hix = min(xs), max(xs)
    loy, hiy = min(ys), max(ys)
    w = hix - lox
    h = hiy - loy
    pad_x = w * _PAD if w else Fraction(1)
    pad_y = h * _PAD if h else Fraction(1)
    pad = max(pad_x, pad_y)
    return lox - pad, loy - pad, hix + pad, hiy + pad


def render_svg(g: GeometricGraph) -> str:
    """Points as circles, edges as segments."""
    pts = list(g.points.points)
    lox, loy, hix, hiy = _viewport(pts)
    width = hix - lox
    height = hiy - loy
    r = max(width, height) * Fraction(1, 80)
    stroke = max(width, height) * Fraction(1, 200)

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(lox)} {_fmt(loy)} {_fmt(width)} {_fmt(height)}">')
    # flip y so the drawing appears in the usual orientation
    out.append(f'<g transform="translate(0 {_fmt(loy + hiy)}) scale(1 -1)">')

    for e in g.edges:
        p, q = pts[e.i], pts[e.j]
        out.append(f'<line x1="{_fmt(p.x)}" y1="{_fmt(p.y)}" '
                   f'x2="{_fmt(q.x)}" y2="{_fmt(q.y)}" '
                   f'stroke="#bf616a" stroke-width="{_fmt(stroke)}"/>')

    for p in pts:
        out.append(f'<circle cx="{_fmt(p.x)}" cy="{_fmt(p.y)}" r="{_fmt(r)}" '
                   f'fill="#2e3440"/>')

    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
