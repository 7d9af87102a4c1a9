"""Deterministic SVG 1.1 rendering of graph drawings.

Rendering is presentation only: rationals are formatted to 6 decimal
places for display, never used in any decision, and drawings are emitted
verbatim (a crossing graph renders its crossing).
"""

from __future__ import annotations

from fractions import Fraction

from .builder import GeometricGraph
from .shape import Placement

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


def _clip_halfplane(poly, a, bound):
    """Sutherland-Hodgman step: keep the side a.x <= bound (exact)."""
    if not poly:
        return []
    out = []
    n = len(poly)
    for idx in range(n):
        p = poly[idx]
        q = poly[(idx + 1) % n]
        vp = a[0] * p[0] + a[1] * p[1] - bound
        vq = a[0] * q[0] + a[1] * q[1] - bound
        if vp <= 0:
            out.append(p)
            if vq > 0:
                t = vp / (vp - vq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        elif vq <= 0:
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _placed_shape_polygon(shape, placement: Placement, box):
    """Placed shape clipped to the viewport box; strictness is ignored for
    drawing purposes.  Empty result means nothing visible."""
    lox, loy, hix, hiy = box
    poly = [(lox, loy), (hix, loy), (hix, hiy), (lox, hiy)]
    tx, ty = placement.translation
    lam = placement.scale
    for h in shape.halfplanes:
        # a.(x - t) <= lam*b  ==  a.x <= lam*b + a.t
        bound = lam * h.b + h.a[0] * tx + h.a[1] * ty
        poly = _clip_halfplane(poly, h.a, bound)
        if not poly:
            return []
    return poly


def render_svg(g: GeometricGraph, witness: Placement | None = None) -> str:
    """Points as circles, edges as segments, optional placed-shape overlay."""
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

    if witness is not None:
        poly = _placed_shape_polygon(g.shape, witness, (lox, loy, hix, hiy))
        if poly:
            coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in poly)
            out.append(f'<polygon points="{coords}" fill="#88c0d0" '
                       f'fill-opacity="0.35" stroke="#5e81ac" '
                       f'stroke-width="{_fmt(stroke)}"/>')

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
