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
smallest second vertex can win.  Each of the 4n maps is applied to the next
vertex alone; full sequences, and the composed map, are built only for the
candidates that tie on it.  Ties keep the earliest candidate in the order
(orientation, vertex, outgoing before incoming edge), which fixes the map
``classify`` prints as its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
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


def _normalizing_map(q: Polygon, i: int, outgoing: bool) -> UnimodularMap:
    """The unique det +1 map for vertex i of q and one incident edge: vertex to
    (0,0), edge direction to (1,0), shear reduced against the other edge."""
    vs = q.vertices
    n = len(vs)
    v = vs[i]
    if outgoing:
        e = make_primitive(sub(vs[(i + 1) % n], v))
        f = make_primitive(sub(vs[(i - 1) % n], v))
    else:
        e = make_primitive(sub(v, vs[(i - 1) % n]))
        f = make_primitive(sub(vs[(i + 1) % n], v))
    base = _matrix_sending_to_x_axis(e)
    a0, b0 = base.apply(f)
    if b0 <= 0:
        raise ValueError(f"{v} is not a convex counterclockwise corner")
    t = a0 // b0
    shear = UnimodularMap(1, -t, 0, 1)
    m = compose_maps(shear, base)
    ix, iy = m.apply(v)
    return UnimodularMap(m.a11, m.a12, m.a21, m.a22, -ix, -iy)


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
    n = len(p.vertices)
    candidates = []
    for pre, q in ((IDENTITY_MAP, p), (_MIRROR, _mirrored(p))):
        for i in range(n):
            following = q.vertices[(i + 1) % n]
            for outgoing in (True, False):
                m = _normalizing_map(q, i, outgoing)
                candidates.append((m.apply(following), q, i, m, pre))
    second = min(c[0] for c in candidates)
    # every candidate has n vertices, so comparing vertex by vertex orders
    # them as their flattened coordinates would; ties keep the first
    best = None
    for following, q, i, m, pre in candidates:
        if following == second:
            seq = tuple(m.apply(q.vertices[(i + j) % n]) for j in range(n))
            if best is None or seq < best[0]:
                best = (seq, m, pre)
    best_seq, m, pre = best
    return CanonicalForm(best_seq), compose_maps(m, pre)


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
