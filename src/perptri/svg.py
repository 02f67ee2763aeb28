"""Handwritten SVG rendering of a derived-triangle construction.

No plotting dependency: the document is assembled from f-strings.  A figure
is drawn in its source's frame (`geom.frame`: A at the origin, scaled by
2**-exp), so it depends only on the triangle's shape.  Geometry is emitted
with the y-axis flipped (SVG y grows downward) so figures keep the
conventional mathematical orientation, and the viewBox is auto-fitted
around all six vertices with a 10% margin.
"""

from __future__ import annotations

import math
from pathlib import Path

from .construction import DerivedConstruction
from .geom import Point2


def _fmt(value: float) -> str:
    return f"{value + 0.0:.6g}"


def _flip(p: Point2) -> tuple[float, float]:
    return p.x, -p.y


def _label(
    text: str, anchor: tuple[float, float], away_from: tuple[float, float], size: float
) -> str:
    """A vertex label nudged away from the figure's interior."""
    dx = anchor[0] - away_from[0]
    dy = anchor[1] - away_from[1]
    norm = math.hypot(dx, dy)
    x = anchor[0] + 0.05 * size * dx / norm
    y = anchor[1] + 0.05 * size * dy / norm
    return (
        f'<text class="vertex-label" x="{_fmt(x)}" y="{_fmt(y)}" '
        f'text-anchor="middle" dominant-baseline="middle">{text}</text>'
    )


def _dashed_line(
    anchor: tuple[float, float],
    through: list[tuple[float, float]],
    size: float,
) -> str:
    """A construction line drawn past every point it is known to pass through."""
    far = max(through, key=lambda p: math.hypot(p[0] - anchor[0], p[1] - anchor[1]))
    dx, dy = far[0] - anchor[0], far[1] - anchor[1]
    norm = math.hypot(dx, dy)
    ux, uy = dx / norm, dy / norm
    ts = [0.0] + [
        (p[0] - anchor[0]) * ux + (p[1] - anchor[1]) * uy for p in through
    ]
    lo = min(ts) - 0.18 * size
    hi = max(ts) + 0.18 * size
    x1, y1 = anchor[0] + lo * ux, anchor[1] + lo * uy
    x2, y2 = anchor[0] + hi * ux, anchor[1] + hi * uy
    return (
        f'<line class="construction" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
        f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
    )


def _triangle_path(cls: str, pts: list[tuple[float, float]]) -> str:
    coords = " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts)
    return f'<path class="{cls}" d="M {coords} Z"/>'


def _phi_arc(d: DerivedConstruction, b: tuple[float, float], size: float) -> str:
    """Arc at vertex B (flipped, A at the origin) from the AB direction to its rotation by phi."""
    norm = d.source.frame_metrics.gamma
    ux, uy = b[0] / norm, -b[1] / norm
    c, s = math.cos(d.phi), math.sin(d.phi)
    vx, vy = c * ux - s * uy, s * ux + c * uy
    r = 0.12 * size
    # y-flip turns the mathematically counterclockwise sweep into sweep-flag 0.
    start = (b[0] + r * ux, b[1] - r * uy)
    end = (b[0] + r * vx, b[1] - r * vy)
    mid = (b[0] + 1.45 * r * (ux + vx) / 2.0, b[1] - 1.45 * r * (uy + vy) / 2.0)
    deg = math.degrees(d.phi)
    return (
        f'<path class="phi-arc" d="M {_fmt(start[0])} {_fmt(start[1])} '
        f'A {_fmt(r)} {_fmt(r)} 0 0 0 {_fmt(end[0])} {_fmt(end[1])}"/>'
        f'<text class="phi-label" x="{_fmt(mid[0])}" y="{_fmt(mid[1])}" '
        f'text-anchor="middle" dominant-baseline="middle">φ = {_fmt(deg)}°</text>'
    )


def svg_document(d: DerivedConstruction) -> str:
    """The complete SVG document for one construction, drawn in its source's frame."""
    _, bx, by, gx, gy = d.source.frame
    src = [(0.0, 0.0), (bx, -by), (gx, -gy)]
    der = [_flip(p) for p in (d.ap_rel, d.bp_rel, d.gp_rel)]
    pts = src + der

    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    width = max(xs) - min(xs)
    height = max(ys) - min(ys)
    size = max(width, height)
    margin = 0.10 * size
    vb = (min(xs) - margin, min(ys) - margin, width + 2 * margin, height + 2 * margin)

    src_centroid = (sum(p[0] for p in src) / 3.0, sum(p[1] for p in src) / 3.0)
    der_centroid = (sum(p[0] for p in der) / 3.0, sum(p[1] for p in der) / 3.0)

    gp_text = "Γ′ = B" if d.gamma_prime_on_b else "Γ′"

    b_flip, g_flip, a_flip = src[1], src[2], src[0]
    lines = [
        _dashed_line(b_flip, [der[0], der[2]], size),   # through B: A', Gamma'
        _dashed_line(g_flip, [der[0], der[1]], size),   # through Gamma: A', B'
        _dashed_line(a_flip, [der[1], der[2]], size),   # through A: B', Gamma'
    ]

    labels = [
        _label("A", src[0], src_centroid, size),
        _label("B", src[1], src_centroid, size),
        _label("Γ", src[2], src_centroid, size),
        _label("A′", der[0], der_centroid, size),
        _label("B′", der[1], der_centroid, size),
        _label(gp_text, der[2], der_centroid, size),
    ]

    stroke = 0.008 * size
    font = 0.05 * size
    dash = f"{_fmt(0.02 * size)} {_fmt(0.015 * size)}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}" '
        f'width="760" height="{_fmt(760 * vb[3] / vb[2])}">',
        f'<style>text{{font: {_fmt(font)}px sans-serif; fill: #1a1a2e;}}'
        f".construction{{stroke: #8a8a9e; stroke-width: {_fmt(0.6 * stroke)}; "
        f"stroke-dasharray: {dash};}}"
        f".triangle-source{{fill: #4a90d9; fill-opacity: 0.25; "
        f"stroke: #2a5a99; stroke-width: {_fmt(stroke)};}}"
        f".triangle-derived{{fill: none; stroke: #c0392b; "
        f"stroke-width: {_fmt(stroke)};}}"
        f".phi-arc{{fill: none; stroke: #27ae60; stroke-width: {_fmt(0.8 * stroke)};}}"
        f"</style>",
        *lines,
        _triangle_path("triangle-source", src),
        _triangle_path("triangle-derived", der),
        _phi_arc(d, src[1], size),
        *labels,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def render_svg(d: DerivedConstruction, path) -> None:
    """Write the construction figure to `path` as a standalone SVG file."""
    Path(path).write_text(svg_document(d), encoding="utf-8")
