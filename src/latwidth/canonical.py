"""Canonical forms under unimodular equivalence, and equivalence testing.

Every equivalence class gets one distinguished vertex sequence: for each
vertex, each incident edge, and each orientation of the polygon, there is a
unique orientation-preserving lattice map that sends the vertex to the
origin, the edge direction to (1, 0), and the polygon into the upper half
plane, with the leftover shear pinned by reducing the other edge direction
at that vertex.  The canonical form is the lexicographically smallest of the
resulting 4n vertex sequences, so it is the same for every polygon in the
class and doubles as a dictionary key.

Every candidate sequence starts at (0, 0), so only the candidates with the
smallest second vertex can win, and that vertex has a closed form.  For the
outgoing edge of lattice length g it is (g, 0): the edge direction goes to
(1, 0).  For the incoming edge, let e and f be the primitive incoming and
outgoing directions, g the lattice length of the outgoing edge, and
s*ex + t*ey = 1.  Before its shear, the map has the rows (s, t) and
(-ey, ex), so it sends f to (a0, b0) with a0 = s*fx + t*fy and
b0 = cross(e, f) > 0; the shear x -> x - k*y with k = a0 // b0 then leaves
(a0 mod b0, b0), and the second vertex is g times that.  Another solution
(s, t) adds a multiple of (-ey, ex), which changes a0 by a multiple of b0
and leaves a0 mod b0 alone.  The sheared linear part has the rows
(s + k*ey, t - k*ex) and (-ey, ex), and the outgoing candidate is the same
computation with e the outgoing and f the reversed incoming direction.  So
one gcd and one extended gcd per edge price all 4n candidates.  Full
sequences are built only for the candidates that tie on the second vertex,
in plain integers, and the composed map only for the winner.  Ties keep the
earliest candidate in the order (orientation, vertex, outgoing before
incoming edge), which fixes the map ``classify`` prints as its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional

from .core import (
    IDENTITY_MAP,
    Polygon,
    UnimodularMap,
    Vec,
    _xgcd,
    apply_map,
    compose_maps,
    invert_map,
    make_primitive,
    polygon_from_cycle,
    sub,
)

_MIRROR = UnimodularMap(1, 0, 0, -1)


@dataclass(frozen=True)
class CanonicalForm:
    """Distinguished representative of an equivalence class, starting at (0,0)."""

    vertices: tuple[Vec, ...]

    @cached_property
    def byte_key(self) -> str:
        return ",".join(str(c) for v in self.vertices for c in v)


def _matrix_sending_to_x_axis(e: Vec) -> UnimodularMap:
    # determinant +1 matrix with A e = (1, 0); rows (s, t) and (-ey, ex)
    g, s, t = _xgcd(e[0], e[1])
    if abs(g) != 1:
        raise ValueError(f"{e} is not a primitive vector")
    if g < 0:
        s, t = -s, -t
    return UnimodularMap(s, t, -e[1], e[0])


def _candidates(q: Polygon) -> list[tuple[Vec, tuple[int, int, int, int]]]:
    """For every vertex i of q, the outgoing edge before the incoming one:
    the image of the vertex after i under the candidate's normalizing map,
    and the map's linear part (a11, a12, a21, a22), in the closed form of
    the module docstring.  The map itself sends vertex i to (0, 0)."""
    vs = q.vertices
    n = len(vs)
    edges = []  # primitive direction, lattice length and (s, t) of each outgoing edge
    for i in range(n):
        (ax, ay), (bx, by) = vs[i], vs[(i + 1) % n]
        g = gcd(bx - ax, by - ay)
        ex, ey = (bx - ax) // g, (by - ay) // g
        r, s, t = _xgcd(ex, ey)  # r = +-1
        edges.append((ex, ey, g, r * s, r * t))
    out = []
    for i in range(n):
        px, py, _, ps, pt = edges[i - 1]
        nx, ny, g, ns, nt = edges[i]
        b0 = px * ny - py * nx
        if b0 <= 0:
            raise ValueError(f"{vs[i]} is not a convex counterclockwise corner")
        # outgoing: e = (nx, ny), f = (-px, -py), and cross(e, f) = b0
        k = -(ns * px + nt * py) // b0
        out.append(((g, 0), (ns + k * ny, nt - k * nx, -ny, nx)))
        # incoming: e = (px, py), f = (nx, ny)
        a0 = ps * nx + pt * ny
        k = a0 // b0
        out.append(((g * (a0 - k * b0), g * b0), (ps + k * py, pt - k * px, -py, px)))
    return out


def _mirrored(p: Polygon) -> Polygon:
    # the image under (x, y) -> (x, -y): reversing the order restores the
    # counterclockwise cycle
    return polygon_from_cycle([(x, -y) for x, y in reversed(p.vertices)])


def _canonical_with_map(p: Polygon) -> tuple[CanonicalForm, UnimodularMap]:
    if p.dimension == 0:
        x, y = p.vertices[0]
        return CanonicalForm(((0, 0),)), UnimodularMap(1, 0, 0, 1, -x, -y)
    if p.dimension == 1:
        a, b = p.vertices
        seg = sub(b, a)
        length = gcd(abs(seg[0]), abs(seg[1]))
        m = _matrix_sending_to_x_axis(make_primitive(seg))
        ix, iy = m.apply(a)
        full = UnimodularMap(m.a11, m.a12, m.a21, m.a22, -ix, -iy)
        return CanonicalForm(((0, 0), (length, 0))), full
    orientations = ((IDENTITY_MAP, p), (_MIRROR, _mirrored(p)))
    rows = [_candidates(q) for _, q in orientations]
    smallest = min(second for row in rows for second, _ in row)
    # every candidate has n vertices, so comparing vertex by vertex orders
    # them as their flattened coordinates would; ties keep the first
    best = None
    for (pre, q), row in zip(orientations, rows):
        vs = q.vertices
        for c, (second, matrix) in enumerate(row):
            if second != smallest:
                continue
            a11, a12, a21, a22 = matrix
            vx, vy = vs[c // 2]
            seq = tuple(
                (a11 * (x - vx) + a12 * (y - vy), a21 * (x - vx) + a22 * (y - vy))
                for x, y in vs[c // 2:] + vs[:c // 2]
            )
            if best is None or seq < best[0]:
                best = (seq, matrix, (vx, vy), pre)
    seq, (a11, a12, a21, a22), (vx, vy), pre = best
    m = UnimodularMap(a11, a12, a21, a22, -(a11 * vx + a12 * vy), -(a21 * vx + a22 * vy))
    return CanonicalForm(seq), compose_maps(m, pre)


def canonical_form(p: Polygon) -> CanonicalForm:
    """The class-invariant vertex sequence for p."""
    return _canonical_with_map(p)[0]


def are_equivalent(p: Polygon, q: Polygon) -> Optional[UnimodularMap]:
    """A unimodular map taking p onto q, or None when no such map exists."""
    fp, mp = _canonical_with_map(p)
    fq, mq = _canonical_with_map(q)
    if fp.vertices != fq.vertices:
        return None
    witness = compose_maps(invert_map(mq), mp)
    if apply_map(witness, p) != q:
        raise RuntimeError("equal canonical forms but the witness map misses q")
    return witness
