"""Deterministic SVG figures: a polygon on the lattice grid, its width-sized
square, and optionally the circumscribing hexagon.

Byte-stable output for fixed input: fixed 40 px lattice pitch, 30% polygon
fill opacity, 6-3 dash pattern for the hexagon.  The drawing has one grid
dot per lattice point of its box, so a box side over ``MAX_SIDE`` lattice
units is rejected before anything is drawn.
"""

from __future__ import annotations

from typing import Optional

from .classify import hexagon
from .core import OutOfRange, Polygon, lattice_points
from .width import lattice_width

PITCH = 40
MARGIN = 1  # lattice units around the drawing
MAX_SIDE = 200  # lattice units, margins included: at most 201^2 grid dots


def render_figure(p: Polygon, hexagon_l: Optional[int] = None) -> str:
    """SVG drawing of p with grid dots, its lattice points marked, the
    width-sized square outlined, and (optionally) the dashed hexagon."""
    d = lattice_width(p).width
    shapes = [p.vertices, ((0, 0), (d, d))]
    hex_poly = None
    if hexagon_l is not None:
        hex_poly = hexagon(d, hexagon_l)
        shapes.append(hex_poly.vertices)
    xs = [x for shape in shapes for x, _ in shape]
    ys = [y for shape in shapes for _, y in shape]
    x_lo, x_hi = min(xs) - MARGIN, max(xs) + MARGIN
    y_lo, y_hi = min(ys) - MARGIN, max(ys) + MARGIN
    side = max(x_hi - x_lo, y_hi - y_lo)
    if side > MAX_SIDE:
        raise OutOfRange(f"the drawing box side {side} exceeds {MAX_SIDE} lattice units")

    def px(q):
        return (q[0] - x_lo) * PITCH, (y_hi - q[1]) * PITCH

    def points(qs):
        return " ".join(f"{x},{y}" for x, y in map(px, qs))

    width = (x_hi - x_lo) * PITCH
    height = (y_hi - y_lo) * PITCH
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for gx in range(x_lo, x_hi + 1):
        for gy in range(y_lo, y_hi + 1):
            cx, cy = px((gx, gy))
            out.append(
                f'<circle class="grid" cx="{cx}" cy="{cy}" r="2" fill="#c8c8c8"/>'
            )
    sq = points(((0, 0), (d, 0), (d, d), (0, d)))
    out.append(
        f'<polygon class="square" points="{sq}" fill="none" stroke="#888888" stroke-width="1.5"/>'
    )
    if hex_poly is not None:
        hx = points(hex_poly.vertices)
        out.append(
            f'<polygon class="hexagon" points="{hx}" fill="none" stroke="#cc3333" '
            f'stroke-width="2" stroke-dasharray="6 3"/>'
        )
    body = points(p.vertices)
    tag = "polygon" if len(p.vertices) >= 3 else "polyline"
    out.append(
        f'<{tag} class="shape" points="{body}" fill="#3366cc" fill-opacity="0.3" '
        f'stroke="#3366cc" stroke-width="2"/>'
    )
    for q in sorted(lattice_points(p)):
        cx, cy = px(q)
        out.append(
            f'<circle class="latpt" cx="{cx}" cy="{cy}" r="4" fill="#222222"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
