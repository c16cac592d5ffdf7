"""Deterministic SVG rendering of edge sets on the 2m-gon.

Vertices sit on a regular polygon inside a fixed 512x512 viewBox, vertex 0 at
the top, labels advancing with the drawing angle. Output is a pure function
of the arguments: same arguments, same bytes. Styles are a small named
palette so composite figures (a blocker over a dotted background, a bold
witness path) stay legible in black and white.
"""

from __future__ import annotations

import math
from typing import Sequence

from .geometry import Context, Edge, direction

__all__ = ["render_svg"]

SIZE = 512
CENTER = SIZE / 2
RADIUS = 210.0
LABEL_RADIUS = RADIUS + 22.0

STYLES = {
    "solid": 'stroke="#000000" stroke-width="2"',
    "bold": 'stroke="#000000" stroke-width="4"',
    "dotted": 'stroke="#888888" stroke-width="1" stroke-dasharray="2,4"',
    "punctured": 'stroke="#000000" stroke-width="2" stroke-dasharray="8,5"',
}


def _vertex_xy(v: int, n: int, radius: float) -> tuple[float, float]:
    theta = -math.pi / 2 + 2 * math.pi * v / n
    return CENTER + radius * math.cos(theta), CENTER + radius * math.sin(theta)


def render_svg(
    m: int, layers: Sequence[tuple[Sequence[Edge], str]], show_labels: bool = True, highlight_angles: bool = False
) -> str:
    """Render (edges, style) layers on the 2m-gon to an SVG 1.1 document string.

    Layers are drawn in the order given, and each layer's edges in its order.
    """
    ctx = Context(m)
    n = ctx.n
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>',
    ]

    for li, (edges, style) in enumerate(layers):
        if style not in STYLES:
            raise ValueError(f"unknown style {style!r}, expected one of {sorted(STYLES)}")
        for e in edges:
            if not (0 <= e.a < n and 0 <= e.b < n):
                raise ValueError(f"layer {li} uses vertex labels outside 0..{n - 1}; mixed m?")
        out.append("<g>")
        for e in edges:
            x1, y1 = _vertex_xy(e.a, n, RADIUS)
            x2, y2 = _vertex_xy(e.b, n, RADIUS)
            out.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {STYLES[style]}/>')
            if highlight_angles:
                mx, my = (x1 + x2) / 2, (y1 + y2) / 2
                out.append(
                    f'<text x="{mx:.2f}" y="{my:.2f}" font-size="9" fill="#cc0000" '
                    f'text-anchor="middle">{direction(e, ctx)}</text>'
                )
        out.append("</g>")

    for v in range(n):
        x, y = _vertex_xy(v, n, RADIUS)
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#000000"/>')
        if show_labels:
            lx, ly = _vertex_xy(v, n, LABEL_RADIUS)
            out.append(
                f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="14" text-anchor="middle" '
                f'dominant-baseline="middle">{v}</text>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
