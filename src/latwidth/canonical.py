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
computation with e the outgoing and f the reversed incoming direction.
The sheared rows do not depend on the solution (s, t) either: adding
m*(-ey, ex) to (s, t) raises k by m and leaves (s + k*ey, t - k*ex) as it
was.

The mirror image under (x, y) -> (x, -y) runs the cycle backwards, so its
edges are p's edges in reverse order, each mirrored and reversed: the edge
(ex, ey) of lattice length g becomes (-ex, ey) with the same g, and
(-s)*(-ex) + t*ey = 1.  Since the sheared rows do not depend on which
solution is used, the mirror's table read off p's gives exactly the
candidates its own gcds would give.  So one gcd and one extended gcd per
edge of p price all 4n candidates.

The candidates that tie on the second vertex are then told apart one
vertex position at a time.  At position j each survivor's j-th vertex is
computed, and only those equal to the smallest stay.  Every sequence has n
vertices, and the survivors agree up to position j - 1, so after position j
they are exactly the candidates whose first j + 1 vertices form the
smallest prefix.  The filter stops when one is left, and only that one gets
its full sequence, in plain integers, and its map.  The filter keeps the
survivors in candidate order, so when several candidates give the same
sequence it keeps the earliest in the order (orientation, vertex, outgoing
before incoming edge), as a comparison of full sequences would.  That
fixes the map ``classify`` prints as its witness.  ``canonical_form``
needs no map and composes none.
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


def _orientations(p: Polygon) -> tuple[tuple[tuple[Vec, ...], list, UnimodularMap], ...]:
    """The vertex cycle of p and of its mirror image under (x, y) -> (x, -y),
    each with its edge table and the map from p.  Both cycles start at their
    smallest vertex, as ``Polygon`` does.  Row i of a table is edge i, from
    vertex i to vertex i + 1: its primitive direction (ex, ey), its lattice
    length g, and (s, t) with s*ex + t*ey = 1.  The mirror's table is read
    off p's, as the module docstring shows."""
    vs = p.vertices
    n = len(vs)
    edges = []
    for i in range(n):
        (ax, ay), (bx, by) = vs[i], vs[(i + 1) % n]
        g = gcd(bx - ax, by - ay)
        ex, ey = (bx - ax) // g, (by - ay) // g
        r, s, t = _xgcd(ex, ey)  # r = +-1
        edges.append((ex, ey, g, r * s, r * t))
    # the mirror runs the cycle backwards, from the image of vertex m
    m = min(range(n), key=lambda i: (vs[i][0], -vs[i][1]))
    mirrored = tuple((x, -y) for x, y in (vs[(m - j) % n] for j in range(n)))
    mirrored_edges = [
        (-ex, ey, g, -s, t) for ex, ey, g, s, t in (edges[(m - j - 1) % n] for j in range(n))
    ]
    return (vs, edges, IDENTITY_MAP), (mirrored, mirrored_edges, _MIRROR)


def _candidates(edges: list[tuple[int, int, int, int, int]]) -> list[tuple[Vec, tuple[int, int, int, int]]]:
    """For every vertex i of the cycle with this edge table, the outgoing
    edge before the incoming one: the image of the vertex after i under
    the candidate's normalizing map, and the map's linear part
    (a11, a12, a21, a22), in the closed form of the module docstring.  The
    map itself sends vertex i to (0, 0)."""
    out = []
    for i in range(len(edges)):
        px, py, _, ps, pt = edges[i - 1]
        nx, ny, g, ns, nt = edges[i]
        b0 = px * ny - py * nx
        if b0 <= 0:
            raise ValueError(f"vertex {i} of the cycle is not a convex counterclockwise corner")
        # outgoing: e = (nx, ny), f = (-px, -py), and cross(e, f) = b0
        k = -(ns * px + nt * py) // b0
        out.append(((g, 0), (ns + k * ny, nt - k * nx, -ny, nx)))
        # incoming: e = (px, py), f = (nx, ny)
        a0 = ps * nx + pt * ny
        k = a0 // b0
        out.append(((g * (a0 - k * b0), g * b0), (ps + k * py, pt - k * px, -py, px)))
    return out


def _smallest_candidate(p: Polygon):
    """The smallest candidate sequence of a 2-dimensional p, with the linear
    part of its normalizing map, the vertex that map sends to the origin,
    and the orientation's map from p; the first such candidate on a full
    tie."""
    tied = []
    smallest = None
    for vs, edges, pre in _orientations(p):
        for c, (second, matrix) in enumerate(_candidates(edges)):
            if smallest is None or second < smallest:
                smallest, tied = second, []
            if second == smallest:
                tied.append((matrix, vs, c // 2, pre))
    n = len(p.vertices)
    for j in range(2, n):
        if len(tied) == 1:
            break
        images = []
        for (a11, a12, a21, a22), vs, i, _ in tied:
            (vx, vy), (x, y) = vs[i], vs[(i + j) % n]
            images.append((a11 * (x - vx) + a12 * (y - vy), a21 * (x - vx) + a22 * (y - vy)))
        low = min(images)
        tied = [candidate for candidate, image in zip(tied, images) if image == low]
    (a11, a12, a21, a22), vs, i, pre = tied[0]
    vx, vy = vs[i]
    seq = tuple(
        (a11 * (x - vx) + a12 * (y - vy), a21 * (x - vx) + a22 * (y - vy))
        for x, y in vs[i:] + vs[:i]
    )
    return seq, (a11, a12, a21, a22), (vx, vy), pre


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
    seq, (a11, a12, a21, a22), (vx, vy), pre = _smallest_candidate(p)
    m = UnimodularMap(a11, a12, a21, a22, -(a11 * vx + a12 * vy), -(a21 * vx + a22 * vy))
    return CanonicalForm(seq), compose_maps(m, pre)


def canonical_form(p: Polygon) -> CanonicalForm:
    """The class-invariant vertex sequence for p."""
    if p.dimension == 2:
        return CanonicalForm(_smallest_candidate(p)[0])
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
