"""Exact integer primitives for 2D lattice geometry.

Points and directions are plain ``(x, y)`` integer tuples.  A polygon is the
convex hull of finitely many lattice points, stored as its counterclockwise
vertex cycle; 0- and 1-dimensional hulls are first-class values.  All
arithmetic is exact (Python integers), every operation is a pure function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

Vec = tuple[int, int]


class ZeroVector(ValueError):
    """Raised when a direction is requested for the zero vector."""


class EmptyInput(ValueError):
    """Raised when a hull of no points is requested."""


class NotUnimodular(ValueError):
    """Raised for integer maps whose matrix determinant is not +-1."""


class NotAVertex(ValueError):
    """Raised when a vertex operation names a non-vertex point."""


class OutOfRange(ValueError):
    """Raised for parameters outside their documented range."""


class ParamOutOfRange(OutOfRange):
    """Raised for classification parameters outside the family's range."""


def make_primitive(v: Vec) -> Vec:
    """Scale a nonzero integer vector down to the primitive vector with the
    same orientation."""
    x, y = v
    if x == 0 and y == 0:
        raise ZeroVector("the zero vector has no direction")
    g = gcd(abs(x), abs(y))
    return (x // g, y // g)


def cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1]


def sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


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


@dataclass(frozen=True)
class Polygon:
    """Convex lattice polygon as a counterclockwise vertex cycle.

    The cycle starts at the lexicographically smallest vertex, contains no
    three consecutive collinear points, and lists exactly the extreme points.
    Use :func:`convex_hull` to build one from arbitrary points; the raw
    constructor trusts its input.
    """

    vertices: tuple[Vec, ...]

    @property
    def dimension(self) -> int:
        return min(len(self.vertices) - 1, 2)

    def edges(self) -> list[tuple[Vec, Vec]]:
        """Directed edges of the cycle (both orientations for a segment)."""
        n = len(self.vertices)
        if n == 1:
            return []
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]


def polygon_from_cycle(cycle: Sequence[Vec]) -> Polygon:
    """The Polygon of a counterclockwise cycle of extreme points, rotated to
    start at its smallest vertex; the cycle is trusted as it is."""
    vs = tuple(cycle)
    k = vs.index(min(vs))
    return Polygon(vs[k:] + vs[:k])


def convex_hull(points: Iterable[Vec]) -> Polygon:
    """Convex hull of lattice points, as a Polygon.

    Monotone chain with strict turns, so collinear non-extreme points are
    dropped.  Degenerate inputs yield a single point or a two-vertex segment.
    """
    pts = sorted(set((int(x), int(y)) for x, y in points))
    if not pts:
        raise EmptyInput("need at least one point")
    if len(pts) == 1:
        return Polygon((pts[0],))

    def chain(seq):
        # cross(b - a, p - a) <= 0 for the last two points a, b, written out
        out = []
        for p in seq:
            px, py = p
            while len(out) > 1:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    if len(lower) == 2 and len(upper) == 2:
        return Polygon((pts[0], pts[-1]))
    # drop each chain's last point (it starts the other chain)
    return Polygon(tuple(lower[:-1] + upper[:-1]))


def doubled_area(p: Polygon) -> int:
    """Twice the Euclidean area (shoelace); 0 iff the polygon is degenerate."""
    vs = p.vertices
    n = len(vs)
    if n < 3:
        return 0
    s = 0
    for i in range(n):
        ax, ay = vs[i]
        bx, by = vs[(i + 1) % n]
        s += ax * by - ay * bx
    return s  # counterclockwise cycle, so the sum is already nonnegative


def lattice_points(p: Polygon) -> frozenset[Vec]:
    """All lattice points inside or on p, column by column.

    On the counterclockwise cycle, edges running right (dx > 0) form the
    lower chain and edges running left (dx < 0) the upper chain.  Walking
    each edge over its x-span gives, per column x, the exact integer
    interval ceil(lower boundary) .. floor(upper boundary) in integer
    arithmetic, so the work is O(x-extent + vertex count + #points)."""
    vs = p.vertices
    if len(vs) == 1:
        return frozenset(vs)
    if len(vs) == 2:
        (ax, ay), (bx, by) = vs
        g = gcd(abs(bx - ax), abs(by - ay))
        sx, sy = (bx - ax) // g, (by - ay) // g
        return frozenset((ax + k * sx, ay + k * sy) for k in range(g + 1))
    x0 = vs[0][0]  # the cycle starts at the lexicographically smallest vertex
    extent = max(v[0] for v in vs) - x0 + 1
    low = [0] * extent
    high = [0] * extent
    for (ax, ay), (bx, by) in p.edges():
        dx, dy = bx - ax, by - ay
        if dx > 0:  # lower chain: y >= ay + dy (x - ax) / dx
            for x in range(ax, bx + 1):
                low[x - x0] = ay - (-dy * (x - ax) // dx)
        elif dx < 0:  # upper chain: y <= ay + dy (x - ax) / dx
            for x in range(bx, ax + 1):
                high[x - x0] = ay + dy * (x - ax) // dx
    return frozenset(
        (x0 + i, y) for i in range(extent) for y in range(low[i], high[i] + 1)
    )


def boundary_point_count(p: Polygon) -> int:
    """Number of lattice points on the boundary (sum of edge gcds)."""
    vs = p.vertices
    if len(vs) == 1:
        return 1
    if len(vs) == 2:
        d = sub(vs[1], vs[0])
        return gcd(abs(d[0]), abs(d[1])) + 1
    total = 0
    for a, b in p.edges():
        d = sub(b, a)
        total += gcd(abs(d[0]), abs(d[1]))
    return total


def lattice_point_count(p: Polygon) -> int:
    """Number of lattice points inside or on p, by Pick's theorem
    2A = 2I + B - 2 for polygons; points and segments have no interior."""
    if p.dimension < 2:
        return boundary_point_count(p)
    return (doubled_area(p) + boundary_point_count(p)) // 2 + 1


@dataclass(frozen=True)
class UnimodularMap:
    """Affine lattice automorphism x -> Ax + b with det A = +-1."""

    a11: int
    a12: int
    a21: int
    a22: int
    bx: int = 0
    by: int = 0

    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def is_valid(self) -> bool:
        return abs(self.det()) == 1

    def apply(self, q: Vec) -> Vec:
        x, y = q
        return (self.a11 * x + self.a12 * y + self.bx, self.a21 * x + self.a22 * y + self.by)


IDENTITY_MAP = UnimodularMap(1, 0, 0, 1, 0, 0)


def apply_map(m: UnimodularMap, p: Polygon) -> Polygon:
    """Image polygon under a unimodular map, re-normalized to the canonical
    counterclockwise cycle."""
    if not m.is_valid():
        raise NotUnimodular(f"matrix determinant is {m.det()}")
    return convex_hull(m.apply(v) for v in p.vertices)


def invert_map(m: UnimodularMap) -> UnimodularMap:
    """The inverse lattice automorphism."""
    if not m.is_valid():
        raise NotUnimodular(f"matrix determinant is {m.det()}")
    d = m.det()
    # inverse of [[a11,a12],[a21,a22]] is adj/det; det is +-1 so adj*det works
    i11, i12 = m.a22 * d, -m.a12 * d
    i21, i22 = -m.a21 * d, m.a11 * d
    return UnimodularMap(i11, i12, i21, i22, -(i11 * m.bx + i12 * m.by), -(i21 * m.bx + i22 * m.by))


def compose_maps(outer: UnimodularMap, inner: UnimodularMap) -> UnimodularMap:
    """The map sending x to outer(inner(x))."""
    return UnimodularMap(
        outer.a11 * inner.a11 + outer.a12 * inner.a21,
        outer.a11 * inner.a12 + outer.a12 * inner.a22,
        outer.a21 * inner.a11 + outer.a22 * inner.a21,
        outer.a21 * inner.a12 + outer.a22 * inner.a22,
        outer.a11 * inner.bx + outer.a12 * inner.by + outer.bx,
        outer.a21 * inner.bx + outer.a22 * inner.by + outer.by,
    )


def translation(t: Vec) -> UnimodularMap:
    return UnimodularMap(1, 0, 0, 1, t[0], t[1])


# --- polygon text format -----------------------------------------------------
#
# {"vertices": [[x, y], ...]} -- the reader accepts any point list and takes
# the hull; the writer emits the canonical counterclockwise cycle.


def polygon_to_json(p: Polygon) -> str:
    return json.dumps({"vertices": [list(v) for v in p.vertices]})


def polygon_from_json(text: str) -> Polygon:
    data = json.loads(text)
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError('expected an object with a "vertices" key')
    raw = data["vertices"]
    if not isinstance(raw, list) or not raw:
        raise ValueError('"vertices" must be a non-empty list of [x, y] pairs')
    pts = []
    for entry in raw:
        # type(c) is int: JSON true/false load as bool, a subclass of int
        if not (isinstance(entry, list) and len(entry) == 2 and all(type(c) is int for c in entry)):
            raise ValueError(f"bad vertex entry: {entry!r}")
        pts.append((entry[0], entry[1]))
    return convex_hull(pts)
