"""Presentation-only SVG plots of maps. Nothing reads these back.

Fixed 800x800 canvas with 40px margins and a flipped y axis.  Linear
pieces contribute their exact endpoints, read from the map's breakpoint
table; quadratic pieces are sampled at 256 points.  A coordinate
MARGIN + SPAN * n/d is formatted to three decimals from one correctly
rounded integer division, (MARGIN * d + SPAN * n) / d, with no rational
arithmetic; that is the float of the exact coordinate, so repeated
renders of the same map are byte-identical on either scalar backend.
"""
from __future__ import annotations

from pathlib import Path

from .exact import CurveMap
from .rational import ONE, Q, ZERO

__all__ = ["render_svg", "write_svg"]

SIZE = 800
MARGIN = 40
SPAN = SIZE - 2 * MARGIN
QUAD_SAMPLES = 256


def _px(x: Q) -> str:
    n, d = int(x.numerator), int(x.denominator)
    return f"{(MARGIN * d + SPAN * n) / d:.3f}"


def _py(y: Q) -> str:
    n, d = int(y.numerator), int(y.denominator)
    return f"{((SIZE - MARGIN) * d - SPAN * n) / d:.3f}"


def _plot_points(f: CurveMap):
    points = []
    values = f._values
    for i, p in enumerate(f.pieces):
        if p.is_affine:
            pts = ((p.domain.lo, values[i]), (p.domain.hi, values[i + 1]))
        else:
            w = p.domain.width
            xs = (p.domain.lo + w * Q(j, QUAD_SAMPLES - 1) for j in range(QUAD_SAMPLES))
            pts = [(x, p.value_at(x)) for x in xs]
        for pt in pts:
            if not points or points[-1] != pt:
                points.append(pt)
    return points


def render_svg(f: CurveMap) -> str:
    path = " ".join(
        f"{'M' if i == 0 else 'L'} {_px(x)} {_py(y)}"
        for i, (x, y) in enumerate(_plot_points(f))
    )
    frame = (
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{SPAN}" height="{SPAN}" '
        'fill="white" stroke="#444" stroke-width="1"/>'
    )
    diagonal = (
        f'<line x1="{_px(ZERO)}" y1="{_py(ZERO)}" x2="{_px(ONE)}" y2="{_py(ONE)}" '
        'stroke="#bbb" stroke-width="1" stroke-dasharray="4 4"/>'
    )
    curve = f'<path d="{path}" fill="none" stroke="#1a5fb4" stroke-width="2"/>'
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">\n'
        f"  {frame}\n  {diagonal}\n  {curve}\n</svg>\n"
    )


def write_svg(f: CurveMap, path) -> None:
    Path(path).write_text(render_svg(f), encoding="ascii")
