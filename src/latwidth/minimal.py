"""Vertex deletion, the minimality criterion, and the exceptional triangle
conv{(0,0),(1,d),(d,1)}.

A polygon is minimal when removing any single vertex (from its full set of
lattice points) strictly decreases the lattice width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    NotAVertex,
    OutOfRange,
    Polygon,
    Vec,
    convex_hull,
    lattice_points,
    polygon_from_cycle,
)
from .width import _reduced_basis, _standard_reduction


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of the vertex-deletion criterion."""

    is_minimal: bool
    offending_vertex: Optional[Vec]
    width: int


def drop_vertex(p: Polygon, vertex: Vec) -> Polygon:
    """Hull of all lattice points of p except the given vertex.

    Corner-triangle lemma: with prev and next the neighbours of the vertex
    in the cycle, p = conv(V - {vertex}) u T for the triangle
    T = conv(prev, vertex, next), since cutting p along the diagonal
    prev--next leaves exactly T on the vertex's side.  Every lattice point
    of p other than the vertex therefore lies in conv(V - {vertex}) or in
    T, and the result is the hull of the remaining vertices plus the
    lattice points of T other than the vertex.  Only T is enumerated, never
    the whole of p.

    Only the points of T are hulled.  Their hull S, the "sail", lies in T and
    has the edge prev--next, so its counterclockwise arc from prev to next
    is the part of the boundary on the vertex's side of the diagonal.  The
    result is the untouched vertices next, ..., prev followed by that arc.
    For a triangle p the untouched vertices are next and prev alone, so
    the result is S.  For more vertices, at prev the arc leaves inside the
    cone of T, which turns strictly left of the edge into prev (next lies
    strictly left of that edge line), and likewise at next, so the spliced
    cycle is convex with no straight corner.
    """
    vs = p.vertices
    if vertex not in vs:
        raise NotAVertex(f"{vertex} is not a vertex of the polygon")
    n = len(vs)
    i = vs.index(vertex)
    prev, nxt = vs[i - 1], vs[(i + 1) % n]
    if n < 3:
        # a point or a segment: the neighbours coincide
        triangle = convex_hull((prev, vertex, nxt))
        return convex_hull((lattice_points(triangle) | set(vs)) - {vertex})
    # three consecutive vertices of the cycle: counterclockwise and not
    # collinear, so only the rotation to the smallest vertex is missing
    triangle = polygon_from_cycle((prev, vertex, nxt))
    s = convex_hull(lattice_points(triangle) - {vertex}).vertices
    k = s.index(prev)
    s = s[k:] + s[:k]
    return polygon_from_cycle(vs[i + 1:] + vs[:i] + s[1:s.index(nxt)])


def _cleared(vs: tuple[Vec, ...], basis: tuple[Vec, int, Vec, int]) -> set[Vec]:
    """The vertices of the cycle vs at which <., u> has a strict local
    maximum or minimum, both neighbours strictly lower or both strictly
    higher, for a width direction u of the reduced basis (b1, d, b2, n2):
    b1, and b2 when n2 = d.

    One pass per direction walks the cycle from its last vertex, carrying
    the heights a and b of the two vertices before the current one, so the
    vertex u of height b is tested against both neighbours without a list
    of heights."""
    b1, d, b2, n2 = basis
    found = set()
    for ux, uy in (b1, b2) if n2 == d else (b1,):
        x, y = vs[-2]
        a = x * ux + y * uy
        u = vs[-1]
        b = u[0] * ux + u[1] * uy
        for v in vs:
            x, y = v
            c = x * ux + y * uy
            if (a < b > c) or (a > b < c):
                found.add(u)
            a, b, u = b, c, v
    return found


def is_minimal(p: Polygon) -> MinimalityReport:
    """Vertex criterion: minimal iff every vertex deletion loses width.

    Points are minimal (width 0); segments never are (deleting an endpoint
    keeps width 0).  When several vertices offend, the lexicographically
    smallest is reported: vertices are tried in sorted order and the test
    stops at the first offender.

    A remainder R = drop_vertex(p, v) lies inside p, so its width is at
    most d = width(p), and v offends exactly when R still has width d.
    Let (b1, b2) be p's reduced basis, with n2 = N(b2); b1 is a width
    direction, and so is b2 when n2 = d.

    - Cleared: if <., u> has a strict local maximum (or minimum) at v along
      the cycle for such a width direction u, then on a convex cycle v is
      the only point of p on that supporting line, every other lattice
      point of p is at least 1 inside it, so R has u-width <= d - 1 and v
      does not offend.
    - When n2 > d, every vertex that is not cleared offends.  Suppose R
      has width < d in some direction w.  If N_p(w) = d, then w = +-b1,
      the only width direction, and v is alone on one of p's supporting
      lines for w, so v is a strict extremum of b1 and was cleared.  If
      N_p(w) >= d + 1, the deletion narrowed p by at least 2, and by the
      paper's lemma (acceptance criterion 6 checks it on every polygon of
      width d <= 4) p is equivalent to conv{(0,0),(1,d),(d,1)}, whose
      lambda2 is d, against n2 > d.

    Only when n2 = d does a vertex that is not cleared need a width.  For
    four or more vertices, the cycle Q without v is strictly convex, and Q
    is inside R, so N_Q(w) <= N_R(w) for every w; if Q still has width d,
    so has R, and v offends.  Otherwise R is built by ``drop_vertex``.  A
    point or segment remainder has width 0 < d.  For a 2-dimensional R or
    Q the width is N(b1) of its reduced basis, and v offends when that is
    still d.  Q's reduction starts from p's reduced basis: Q differs from
    p by one corner, so that basis is nearly reduced for it and only a few
    rounds are needed.  When Q has width less than d, R's reduction starts
    from Q's reduced basis (c1, c2); any lattice basis is a valid start
    (see ``_reduced_basis``).  R differs from Q only by part of one corner
    triangle, so (c1, c2) is nearly reduced for R in turn.  A triangle p
    has no Q, and R starts from p's reduced basis.
    """
    if p.dimension == 0:
        return MinimalityReport(True, None, 0)
    if p.dimension == 1:
        return MinimalityReport(False, p.vertices[0], 0)
    basis = _standard_reduction(p)
    b1, d, b2, n2 = basis
    vs = p.vertices
    cleared = _cleared(vs, basis)
    for v in sorted(vs):
        if v in cleared:
            continue
        if n2 > d:
            return MinimalityReport(False, v, d)
        start = (b1, b2)
        if len(vs) > 3:
            i = vs.index(v)
            c1, m1, c2, _ = _reduced_basis(polygon_from_cycle(vs[:i] + vs[i + 1:]), (b1, b2))
            if m1 >= d:
                return MinimalityReport(False, v, d)
            start = (c1, c2)
        remainder = drop_vertex(p, v)
        if remainder.dimension == 2 and _reduced_basis(remainder, start)[1] >= d:
            return MinimalityReport(False, v, d)
    return MinimalityReport(True, None, d)


def upsilon(d: int) -> Polygon:
    """The triangle conv{(0,0),(1,d),(d,1)} of lattice width d, for d >= 2.

    At d = 1 the formula collapses to a segment, so it is rejected.
    """
    if d < 2:
        raise OutOfRange("the triangle degenerates for d < 2")
    return convex_hull([(0, 0), (1, d), (d, 1)])

