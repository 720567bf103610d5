"""Lattice width, width directions, and lattice size with respect to the
unit square.

The width of a polygon in a primitive direction v is the spread of the dot
products <P, v> over the polygon.  The global width minimizes over all
primitive directions; the scan is finite because any v with small width
pairs to small values against two independent vertex differences u1, u2,
which confines v to a parallelogram that we walk in (``<v,u1>``, ``<v,u2>``)
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from math import gcd
from typing import Iterator, Optional

from .core import (
    Polygon,
    UnimodularMap,
    Vec,
    ZeroVector,
    cross,
    dot,
    make_primitive,
    sub,
    translation,
)


@dataclass(frozen=True)
class WidthResult:
    """Lattice width together with all width directions (one of v, -v each)."""

    width: int
    directions: tuple[Vec, ...]


@dataclass(frozen=True)
class SizeResult:
    """Lattice size w.r.t. the unit square, with a witness map into size*[0,1]^2."""

    size: int
    witness: UnimodularMap


def width_in_direction(p: Polygon, v: Vec) -> int:
    """Spread of <P, v> over the polygon's vertices (v nonzero; primitive
    directions are the canonical inputs, but any integer vector works)."""
    if v == (0, 0):
        raise ZeroVector("width direction must be nonzero")
    vx, vy = v
    products = [x * vx + y * vy for x, y in p.vertices]
    return max(products) - min(products)


def normalize_sign(v: Vec) -> Vec:
    """The representative of {v, -v} with x > 0, or x = 0 and y > 0."""
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return (-v[0], -v[1])
    return v


def _direction_order(a: Vec, b: Vec) -> int:
    # sign-normalized directions sorted by angle in [0, 360): the y >= 0 group
    # (angles 0..90) precedes the y < 0 group (angles 270..360); within a
    # group the cross product decides.
    ga = 0 if a[1] >= 0 else 1
    gb = 0 if b[1] >= 0 else 1
    if ga != gb:
        return ga - gb
    c = cross(a, b)
    return -1 if c > 0 else (1 if c < 0 else 0)


def sort_directions(dirs) -> tuple[Vec, ...]:
    return tuple(sorted(dirs, key=cmp_to_key(_direction_order)))


def iter_region_directions(u1: Vec, u2: Vec, bound: int) -> Iterator[Vec]:
    """Primitive sign-normalized v with ``|<v,u1>| <= bound`` and
    ``|<v,u2>| <= bound``, for independent u1, u2.

    Walks the coefficient pairs (c1, c2) = (<v,u1>, <v,u2>) over half the
    square (the other half yields the opposite vectors) and inverts the 2x2
    system exactly; each region vector appears exactly once, in a fixed order.
    """
    det = cross(u1, u2)
    if det == 0:
        raise ValueError("u1 and u2 must be linearly independent")
    u1x, u1y = u1
    u2x, u2y = u2
    for c1 in range(0, bound + 1):
        c2_start = 1 if c1 == 0 else -bound
        for c2 in range(c2_start, bound + 1):
            nx = c1 * u2y - c2 * u1y
            ny = c2 * u1x - c1 * u2x
            if nx % det or ny % det:
                continue
            vx, vy = nx // det, ny // det
            if gcd(abs(vx), abs(vy)) != 1:
                continue
            yield normalize_sign((vx, vy))


def _axis_widths(p: Polygon) -> tuple[int, int]:
    xs = [v[0] for v in p.vertices]
    ys = [v[1] for v in p.vertices]
    return max(xs) - min(xs), max(ys) - min(ys)


def _corner_difference_vectors(p: Polygon) -> tuple[Vec, Vec]:
    # the two edge vectors at the starting (lexicographically smallest)
    # vertex; independent for any 2-dimensional polygon
    vs = p.vertices
    return sub(vs[1], vs[0]), sub(vs[-1], vs[0])


def iter_narrow_directions(p: Polygon, bound: int) -> Iterator[Vec]:
    """Primitive sign-normalized directions v with ``width_p(v) <= bound``
    for a 2-dimensional p, in the fixed region order.

    Every difference u of two points of p has ``|<v,u>| <= width_p(v)``, in
    particular the two corner edge vectors u1, u2.  So every such v lies in
    the region scanned by ``iter_region_directions(u1, u2, bound)``, and the
    scan costs O(bound^2) candidates whatever the size of p's coordinates.
    """
    u1, u2 = _corner_difference_vectors(p)
    for v in iter_region_directions(u1, u2, bound):
        if width_in_direction(p, v) <= bound:
            yield v


def _segment_normal(p: Polygon) -> Vec:
    e = make_primitive(sub(p.vertices[1], p.vertices[0]))
    return normalize_sign((-e[1], e[0]))


def lattice_width(p: Polygon) -> WidthResult:
    """Global lattice width with the complete set of width directions.

    A point has width 0 and no directions; a segment has width 0 with the
    single primitive direction orthogonal to it.
    """
    if p.dimension == 0:
        return WidthResult(0, ())
    if p.dimension == 1:
        return WidthResult(0, (_segment_normal(p),))

    wx, wy = _axis_widths(p)
    upper = min(wx, wy)
    u1, u2 = _corner_difference_vectors(p)
    best = upper
    argmin: list[Vec] = []
    for v in iter_region_directions(u1, u2, upper):
        w = width_in_direction(p, v)
        if w < best:
            best = w
            argmin = [v]
        elif w == best:
            argmin.append(v)
    return WidthResult(best, sort_directions(argmin))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _witness_from_rows(p: Polygon, v: Vec, w: Vec) -> UnimodularMap:
    # rows v, w become the new coordinate functionals; shift minima to 0
    mx = min(dot(vertex, v) for vertex in p.vertices)
    my = min(dot(vertex, w) for vertex in p.vertices)
    return UnimodularMap(v[0], v[1], w[0], w[1], -mx, -my)


def lattice_size_square(p: Polygon) -> SizeResult:
    """Smallest s such that a unimodular image of p fits in [0, s]^2.

    p fits in [0,s]^2 exactly when some lattice basis (v, w) has both widths
    at most s; s runs from the lattice width up to the bounding-box value,
    and for each s the candidate directions are scanned in increasing
    (|x|, |y|) order so ties resolve deterministically.
    """
    if p.dimension == 0:
        vtx = p.vertices[0]
        return SizeResult(0, translation((-vtx[0], -vtx[1])))
    if p.dimension == 1:
        a, b = p.vertices
        seg = sub(b, a)
        length = gcd(abs(seg[0]), abs(seg[1]))
        e = make_primitive(seg)
        _, s, t = _xgcd(e[0], e[1])
        return SizeResult(length, _witness_from_rows(p, (-e[1], e[0]), (s, t)))

    wx, wy = _axis_widths(p)
    start = lattice_width(p).width
    for s in range(start, max(wx, wy) + 1):
        candidates = list(iter_narrow_directions(p, s))
        candidates.sort(key=lambda v: (abs(v[0]), abs(v[1]), v))
        for v in candidates:
            for w in candidates:
                if abs(cross(v, w)) == 1:
                    return SizeResult(s, _witness_from_rows(p, v, w))
    raise AssertionError("unreachable: the bounding-box basis always fits")


def embed_in_square(p: Polygon) -> Optional[UnimodularMap]:
    """A unimodular map taking p into [0, d]^2 for d = lattice width, or None
    when the lattice size exceeds the width."""
    d = lattice_width(p).width
    result = lattice_size_square(p)
    return result.witness if result.size == d else None
