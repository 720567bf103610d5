"""Lattice width, width directions, and lattice size with respect to the
unit square.

The width of a polygon p in a direction v is the spread N(v) of the dot
products <P, v> over the polygon.  For a 2-dimensional p, N is a norm on the
plane, and the two numbers this module computes are the successive minima
of the lattice Z^2 under that norm: the lattice width is the first, lambda1,
and the lattice size with respect to the unit square is the second, lambda2
(p fits in [0, s]^2 after a unimodular map exactly when some lattice basis
has both widths at most s).  Both are read off a basis reduced for N by
generalized Gauss reduction (Kaib & Schnorr, J. Algorithms 1996; for the
plane, Eisenbrand & Laue, Math. Program. 2005), which needs a number of
rounds logarithmic in the coordinate size and O(log C) norm evaluations per
round, whatever the shape of p.

Bounded questions are answered from the same reduced basis.  Whether
lambda1 is at most b is a comparison of N(b1) with b; for a polygon inside
p, such as p with a vertex deleted, the reduction starts from p's reduced
basis and needs few rounds.  The width directions are among ten fixed
combinations of b1 and b2, and the size witness adds two bisections along
one row of the basis, so neither lists directions, whatever the size of
p's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from math import gcd

from .core import (
    Polygon,
    UnimodularMap,
    Vec,
    ZeroVector,
    _xgcd,
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
    directions are the canonical inputs, but any integer vector works).

    One pass over the vertices keeps the running lowest and highest product
    and builds no list: this is the width norm N that every reduction
    evaluates, and for the few vertices of a typical polygon a temporary
    list and calls to ``max`` and ``min`` would cost more than the
    arithmetic."""
    vx, vy = v
    if not (vx or vy):
        raise ZeroVector("width direction must be nonzero")
    vs = p.vertices
    x, y = vs[0]
    lo = hi = x * vx + y * vy
    for x, y in vs:
        h = x * vx + y * vy
        if h < lo:
            lo = h
        elif h > hi:
            hi = h
    return hi - lo


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


def _segment_normal(p: Polygon) -> Vec:
    e = make_primitive(sub(p.vertices[1], p.vertices[0]))
    return normalize_sign((-e[1], e[0]))


def _first(pred, lo: int, hi: int) -> int:
    """The smallest x in [lo, hi] with pred(x), for a predicate that is
    false and then true on [lo, hi].  pred(hi) is taken as true and never
    evaluated; bisection makes O(log(hi - lo)) evaluations of pred."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _reduced_basis(
    p: Polygon, start: tuple[Vec, Vec] = ((1, 0), (0, 1))
) -> tuple[Vec, int, Vec, int]:
    """A lattice basis (b1, b2) reduced for the width norm N of a
    2-dimensional p, with n1 = N(b1) and n2 = N(b2).

    Generalized Gauss reduction: start from the lattice basis ``start``
    (by default (1,0), (0,1)) ordered so that N(b1) <= N(b2), replace b2 by
    b2 - mu*b1 for the mu minimizing N, and swap while N(b2) < N(b1); each
    swap lowers N(b1), so the loop ends.  The result has
    N(b1) <= N(b2) <= N(b2 + k*b1) for every integer k, so it attains both
    successive minima: a lattice vector v = a*b1 + c*b2 with c = 0 is a
    multiple of b1, and with c != 0 it has N(v) >= N(b2) (for |c| >= 2 take
    k nearest a/c; then
    N(v) >= |c|*N(b2 + k*b1) - |a - c*k|*N(b1) >= |c|*N(b2)/2).  Hence
    lambda1 = n1 and lambda2 = n2.

    The step.  f(mu) = N(b2 - mu*b1) is convex, and
    f(mu) >= |mu|*n1 - n2 by the triangle inequality, so every minimizer
    has |mu| <= 2*n2/n1.  When neither f(1) nor f(-1) beats f(0) = n2, the
    step is mu = 0, b2 is already reduced against b1, and the loop ends.
    Otherwise the smallest minimizer on the improving side of that bracket
    is the first mu there with f(mu + 1) >= f(mu), found by ``_first``.

    Nothing in the argument depends on the start, so any lattice basis
    will do; one that is already nearly reduced for N, such as the reduced
    basis of a polygon containing p, saves most of the rounds.
    """
    b1, b2 = start
    n1, n2 = width_in_direction(p, b1), width_in_direction(p, b2)
    if n2 < n1:
        b1, n1, b2, n2 = b2, n2, b1, n1
    while True:
        def f(mu: int) -> int:
            return width_in_direction(p, (b2[0] - mu * b1[0], b2[1] - mu * b1[1]))

        if f(1) < n2:
            lo, hi = 1, 2 * n2 // n1
        elif f(-1) < n2:
            lo, hi = -(2 * n2 // n1), -1
        else:
            break
        mu = _first(lambda x: f(x + 1) >= f(x), lo, hi)
        # the right side is evaluated first, so f(mu) still reads the old b2
        b2, n2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1]), f(mu)
        if n2 >= n1:
            break
        b1, n1, b2, n2 = b2, n2, b1, n1
    return b1, n1, b2, n2


@lru_cache(maxsize=1)
def _standard_reduction(p: Polygon) -> tuple[Vec, int, Vec, int]:
    """``_reduced_basis(p)`` from the standard basis, kept for the last
    polygon asked about.  ``width`` asks for the width and then the size of
    one polygon, and the brute-force search filters a polygon by its width
    and then runs ``is_minimal`` on it; each pair reads off the same basis,
    so the polygon is reduced once."""
    return _reduced_basis(p)


# (c, a) of the candidates c*b2 + a*b1 that can tie b1 when n1 = n2
_TIE_CANDIDATES = tuple((1, a) for a in range(-2, 3)) + tuple((2, a) for a in (-3, -1, 1, 3))


def _width_directions(p: Polygon, basis: tuple[Vec, int, Vec, int]) -> list[Vec]:
    """The sign-normalized width directions of a 2-dimensional p from a
    reduced basis (b1, n1, b2, n2) of it, b1 first; see ``lattice_width``."""
    b1, n1, b2, n2 = basis
    found = [normalize_sign(b1)]
    if n2 == n1:
        for c, a in _TIE_CANDIDATES:
            v = (c * b2[0] + a * b1[0], c * b2[1] + a * b1[1])
            if width_in_direction(p, v) == n1:
                found.append(normalize_sign(v))
    return found


def lattice_width(p: Polygon) -> WidthResult:
    """Global lattice width with the complete set of width directions.

    A point has width 0 and no directions; a segment has width 0 with the
    single primitive direction orthogonal to it.

    For a 2-dimensional p, a reduced basis (b1, n1, b2, n2) of the width
    norm N gives the width lambda1 = n1.  When n2 > n1, b1 is the only
    width direction: a second would be independent of b1 and make
    lambda2 = lambda1.  When n2 = n1, every other width direction is, up to
    sign, v = a*b1 + c*b2 with c >= 1.  The reduced basis gives
    N(v) >= c*n2/2 (see ``_reduced_basis``), so c <= 2, and the triangle
    inequality on a*b1 = v - c*b2 gives |a|*n1 <= n1 + c*n2, so
    |a| <= 1 + c.  With v primitive, that leaves ten candidates: b1,
    b2 + a*b1 for |a| <= 2, and 2*b2 + a*b1 for a in {+-1, +-3}.
    ``_width_directions`` keeps those of width n1.  At most four survive
    (Draisma, McAllister & Nill 2012).
    """
    if p.dimension == 0:
        return WidthResult(0, ())
    if p.dimension == 1:
        return WidthResult(0, (_segment_normal(p),))

    basis = _standard_reduction(p)
    return WidthResult(basis[1], sort_directions(_width_directions(p, basis)))


def _size_key(v: Vec) -> tuple:
    return abs(v[0]), abs(v[1]), v


def _witness_from_rows(p: Polygon, v: Vec, w: Vec) -> UnimodularMap:
    # rows v, w become the new coordinate functionals; shift minima to 0
    mx = min(dot(vertex, v) for vertex in p.vertices)
    my = min(dot(vertex, w) for vertex in p.vertices)
    return UnimodularMap(v[0], v[1], w[0], w[1], -mx, -my)


def lattice_size_square(p: Polygon) -> SizeResult:
    """Smallest s such that a unimodular image of p fits in [0, s]^2.

    p fits in [0,s]^2 exactly when some lattice basis (v, w) has both widths
    at most s.  In the plane the two successive minima of the width norm are
    attained by a basis, so for a 2-dimensional p the size is lambda2 = n2
    of the reduced basis (b1, n1, b2, n2).  The witness rows are v, the
    first direction of width at most lambda2 in increasing (|x|, |y|, v)
    order, and w, the first with |det(v, w)| = 1, so ties resolve
    deterministically.  Such a w exists: one of b1, b2, say u, is
    independent of v, the triangle conv(0, v, u) lies in {N <= lambda2},
    and the cell on its primitive edge [0, v] of any unimodular
    triangulation of it is conv(0, v, w) with |det(v, w)| = 1.

    When n2 = n1, the directions of width at most lambda2 are the width
    directions.  When n2 > n1, they are b1 and the b2 + a*b1 with a in one
    interval [lo, hi] around 0, whose ends two bisections find.  No other
    row has any: 2*b2 + a*b1 with a odd is 2*(b2 + k*b1) +- b1, of width at
    least 2*n2 - n1 > n2, and rows c >= 3 have width at least 3*n2/2.  Each
    coordinate of b2 + a*b1 is linear in a, so the row's smallest key, at
    some a0, lies at lo, at hi or next to the zero of a coordinate; the
    candidates are b1 and the rows at and next to those points.  They hold
    w: det(b1, row(a)) = +-1 for every a, and det(row(a0), row(a)) is
    (a0 - a)*det(b1, b2), so when v = row(a0), w is b1 or row(a0 +- 1).
    """
    if p.dimension == 0:
        vtx = p.vertices[0]
        return SizeResult(0, translation((-vtx[0], -vtx[1])))
    if p.dimension == 1:
        a, b = p.vertices
        e = make_primitive(sub(b, a))
        _, s, t = _xgcd(e[0], e[1])
        size = gcd(b[0] - a[0], b[1] - a[1])
        return SizeResult(size, _witness_from_rows(p, (-e[1], e[0]), (s, t)))

    basis = _standard_reduction(p)
    b1, n1, b2, n2 = basis
    if n2 == n1:
        candidates = _width_directions(p, basis)
    else:
        def row(a: int) -> Vec:
            return normalize_sign((b2[0] + a * b1[0], b2[1] + a * b1[1]))

        def f(a: int) -> int:
            return width_in_direction(p, row(a))

        reach = 2 * n2 // n1
        lo = _first(lambda a: f(a) <= n2, -reach, 0)
        hi = _first(lambda a: f(a) > n2, 0, reach + 1) - 1
        zeros = [-b2[i] // b1[i] for i in (0, 1) if b1[i]]
        near = {lo, hi} | {min(max(a, lo), hi) for z in zeros for a in (z, z + 1)}
        candidates = [normalize_sign(b1)] + [
            row(a + s) for a in near for s in (-1, 0, 1) if lo <= a + s <= hi
        ]
    candidates.sort(key=_size_key)
    v = candidates[0]
    w = next(w for w in candidates if abs(cross(v, w)) == 1)
    return SizeResult(n2, _witness_from_rows(p, v, w))
