"""Shared generators and independent oracles for the test suite."""

import functools
import random

import numpy as np
import pytest

from latwidth import (
    EnumerationStats,
    MinimalClass,
    MinimalityReport,
    Polygon,
    SizeResult,
    UnimodularMap,
    WidthResult,
    apply_map,
    canonical_form,
    compose_maps,
    convex_hull,
    doubled_area,
    drop_vertex,
    enumerate_minimal,
    generate,
    hexagon,
    is_minimal,
    iter_full_width_polygons,
    iter_type_params,
    lattice_point_count,
    lattice_width,
    width_in_direction,
)
from math import gcd

from latwidth.canonical import _MIRROR, _matrix_sending_to_x_axis
from latwidth.classify import _family_points
from latwidth.core import IDENTITY_MAP, NotAVertex, _xgcd, cross, lattice_points, make_primitive, polygon_from_cycle, sub
from latwidth.width import _reduced_basis, _witness_from_rows, normalize_sign, sort_directions


def random_polygon(rng: random.Random, span: int = 8, points: int = 6) -> Polygon:
    """Hull of a handful of random lattice points; always 2-dimensional."""
    while True:
        pts = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(points)]
        p = convex_hull(pts)
        if p.dimension == 2:
            return p


_SHEAR_UP = lambda k: UnimodularMap(1, k, 0, 1)
_SHEAR_LO = lambda k: UnimodularMap(1, 0, k, 1)
_SWAP = UnimodularMap(0, 1, 1, 0)
_FLIP = UnimodularMap(1, 0, 0, -1)


def random_unimodular(rng: random.Random, magnitude: int = 10) -> UnimodularMap:
    """Random short product of shears, swaps and flips with all matrix entries
    bounded by the magnitude, plus a random translation."""
    while True:
        m = UnimodularMap(1, 0, 0, 1)
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(4)
            if kind == 0:
                m = compose_maps(_SHEAR_UP(rng.randint(-3, 3)), m)
            elif kind == 1:
                m = compose_maps(_SHEAR_LO(rng.randint(-3, 3)), m)
            elif kind == 2:
                m = compose_maps(_SWAP, m)
            else:
                m = compose_maps(_FLIP, m)
        entries = (m.a11, m.a12, m.a21, m.a22)
        if all(abs(e) <= magnitude for e in entries):
            return UnimodularMap(
                m.a11, m.a12, m.a21, m.a22,
                rng.randint(-magnitude, magnitude), rng.randint(-magnitude, magnitude),
            )


def naive_lattice_width(p: Polygon, factor: int = 4):
    """Vectorized exhaustive scan over every primitive direction with both
    coordinates bounded by factor * max(axis widths); independent of the
    library's bounded-region argument."""
    verts = np.array(p.vertices, dtype=np.int64)
    wx = int(verts[:, 0].max() - verts[:, 0].min())
    wy = int(verts[:, 1].max() - verts[:, 1].min())
    bound = factor * max(wx, wy)
    ax = np.arange(-bound, bound + 1, dtype=np.int64)
    vx, vy = np.meshgrid(ax, ax, indexing="ij")
    vx, vy = vx.ravel(), vy.ravel()
    keep = (np.gcd(np.abs(vx), np.abs(vy)) == 1) & ((vx > 0) | ((vx == 0) & (vy > 0)))
    vx, vy = vx[keep], vy[keep]
    dots = np.outer(vx, verts[:, 0]) + np.outer(vy, verts[:, 1])
    widths = dots.max(axis=1) - dots.min(axis=1)
    best = int(widths.min())
    idx = np.nonzero(widths == best)[0]
    return best, {(int(vx[i]), int(vy[i])) for i in idx}


def spread_oracle(p: Polygon, v) -> int:
    """The spread of <P, v> over the vertices from a list of every product
    and ``max`` and ``min``; the reference for the one-pass
    ``width_in_direction``."""
    products = [x * v[0] + y * v[1] for x, y in p.vertices]
    return max(products) - min(products)


def _smallest_minimizer(f, lo: int, hi: int) -> int:
    # the smallest minimizer of a convex integer f on [lo, hi]: a binary
    # search on the sign of f(x + 1) - f(x), nondecreasing in x
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid + 1) >= f(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _best_step(p: Polygon, b1, n1: int, b2, n2: int) -> int:
    # an integer mu minimizing N(b2 - mu*b1), searched on the improving
    # side of |mu| <= 2*n2/n1, and 0 when neither neighbour beats n2
    def f(mu: int) -> int:
        return width_in_direction(p, (b2[0] - mu * b1[0], b2[1] - mu * b1[1]))

    if f(1) < n2:
        return _smallest_minimizer(f, 1, 2 * n2 // n1)
    if f(-1) < n2:
        return _smallest_minimizer(f, -(2 * n2 // n1), -1)
    return 0


def reduction_oracle(p: Polygon, start=((1, 0), (0, 1))):
    """Generalized Gauss reduction with the step found by its own function
    and N(b2) evaluated again after each step; the reference for the loop
    of ``_reduced_basis``, which takes the step and its norm from one
    search."""
    b1, b2 = start
    n1, n2 = width_in_direction(p, b1), width_in_direction(p, b2)
    if n2 < n1:
        b1, n1, b2, n2 = b2, n2, b1, n1
    while True:
        mu = _best_step(p, b1, n1, b2, n2)
        if mu:
            b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
            n2 = width_in_direction(p, b2)
        if n2 >= n1:
            break
        b1, n1, b2, n2 = b2, n2, b1, n1
    return b1, n1, b2, n2


def _last_within(f, a: int, hi: int, bound: int) -> int:
    # the largest x in [a, hi] with f(x) <= bound, for f nondecreasing on
    # [a, hi] and f(a) <= bound: doubling steps from a, then bisection
    step = 1
    while a + step <= hi and f(a + step) <= bound:
        a += step
        step *= 2
    beyond = min(a + step, hi + 1)
    while beyond - a > 1:
        mid = (a + beyond) // 2
        if f(mid) <= bound:
            a = mid
        else:
            beyond = mid
    return a


def listing_oracle(p: Polygon, basis, bound: int) -> list:
    """The directions of width at most the bound from a reduced basis, row
    by row, with each end of a row found by galloping out from the row's
    minimizer, sorted by (|x|, |y|, v); at the bound lambda1 the reference
    for the width directions, and at lambda2 for the size witness."""
    b1, n1, b2, n2 = basis
    found = [normalize_sign(b1)] if n1 <= bound else []
    for c in range(1 if n2 <= bound else 2, 2 * bound // n2 + 1):
        def f(a: int) -> int:
            return width_in_direction(p, (a * b1[0] + c * b2[0], a * b1[1] + c * b2[1]))

        reach = (bound + c * n2) // n1
        m = 0 if c == 1 else _smallest_minimizer(f, -c, c)
        if f(m) > bound:
            continue
        first = -_last_within(lambda a: f(-a), -m, reach, bound)
        last = _last_within(f, m, reach, bound)
        found.extend(
            normalize_sign((a * b1[0] + c * b2[0], a * b1[1] + c * b2[1]))
            for a in range(first, last + 1)
            if gcd(a, c) == 1
        )
    return sorted(found, key=lambda v: (abs(v[0]), abs(v[1]), v))


def _axis_widths(p: Polygon) -> tuple[int, int]:
    xs = [v[0] for v in p.vertices]
    ys = [v[1] for v in p.vertices]
    return max(xs) - min(xs), max(ys) - min(ys)


def iter_region_directions(u1, u2, bound: int):
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


def _corner_difference_vectors(p: Polygon):
    # the two edge vectors at the starting (lexicographically smallest)
    # vertex; independent for any 2-dimensional polygon
    vs = p.vertices
    return sub(vs[1], vs[0]), sub(vs[-1], vs[0])


def region_scan_directions(p: Polygon, bound: int) -> list:
    """Primitive sign-normalized directions of width at most the bound for a
    2-dimensional p, sorted by (|x|, |y|, v).  Every difference u of two
    points of p has ``|<v,u>| <= width_p(v)``, in particular the two corner
    edge vectors, so the region they bound holds every such v: O(bound^2)
    candidates.  The reference for the reduced-basis listing."""
    u1, u2 = _corner_difference_vectors(p)
    found = [v for v in iter_region_directions(u1, u2, bound) if width_in_direction(p, v) <= bound]
    return sorted(found, key=lambda v: (abs(v[0]), abs(v[1]), v))


def region_scan_width(p: Polygon) -> WidthResult:
    """Lattice width of a 2-dimensional p by walking every direction of the
    region that the smaller bounding-box side bounds: O(min side^2)
    candidates.  The reference for the reduced-basis ``lattice_width``."""
    upper = min(_axis_widths(p))
    u1, u2 = _corner_difference_vectors(p)
    best = upper
    argmin = []
    for v in iter_region_directions(u1, u2, upper):
        w = width_in_direction(p, v)
        if w < best:
            best = w
            argmin = [v]
        elif w == best:
            argmin.append(v)
    return WidthResult(best, sort_directions(argmin))


def region_scan_size(p: Polygon) -> SizeResult:
    """Lattice size of a 2-dimensional p by trying s = width, width + 1, ...
    until two directions of width at most s form a basis; the witness is
    the first such pair in (|x|, |y|, v) order.  The reference for the
    reduced-basis ``lattice_size_square``."""
    for s in range(region_scan_width(p).width, max(_axis_widths(p)) + 1):
        candidates = region_scan_directions(p, s)
        for v in candidates:
            for w in candidates:
                if abs(cross(v, w)) == 1:
                    return SizeResult(s, _witness_from_rows(p, v, w))
    raise AssertionError("the bounding-box basis always fits")


def normalizing_map(q: Polygon, i: int, outgoing: bool) -> UnimodularMap:
    """The unique det +1 map for vertex i of q and one incident edge: vertex
    to (0,0), edge direction to (1,0), shear reduced against the other
    edge, composed from a base map and a shear.  The reference for the
    closed-form candidates of ``_canonical_with_map``."""
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
    assert b0 > 0, f"{v} is not a convex counterclockwise corner"
    m = compose_maps(UnimodularMap(1, -(a0 // b0), 0, 1), base)
    ix, iy = m.apply(v)
    return UnimodularMap(m.a11, m.a12, m.a21, m.a22, -ix, -iy)


def candidate_forms(p: Polygon) -> list:
    """All 4 * vertex-count (vertex sequence, map) candidates of a
    2-dimensional polygon, each built in full, in the order mirror flag,
    vertex, outgoing before incoming edge.  The smallest sequence, first on
    ties, is the canonical form and its map: the reference for the pruned
    search of ``_canonical_with_map``."""
    out = []
    for pre in (IDENTITY_MAP, _MIRROR):
        q = apply_map(pre, p)
        n = len(q.vertices)
        for i in range(n):
            for outgoing in (True, False):
                m = normalizing_map(q, i, outgoing)
                seq = tuple(m.apply(q.vertices[(i + j) % n]) for j in range(n))
                out.append((seq, compose_maps(m, pre)))
    return out


def canonical_oracle(p: Polygon):
    """The canonical form and map of a 2-dimensional polygon by the search
    that ``_canonical_with_map`` made before it filtered ties vertex by
    vertex: price every candidate's second vertex in closed form, with its
    own gcd and extended gcd per edge of p and of p's mirror image, then
    build the full sequence of every candidate with the smallest second
    vertex and keep the first smallest.  The reference for the tie filter
    and for the mirror edge table taken from p's."""
    orientations = []
    for pre in (IDENTITY_MAP, _MIRROR):
        vs = apply_map(pre, p).vertices
        n = len(vs)
        edges = []
        for i in range(n):
            (ax, ay), (bx, by) = vs[i], vs[(i + 1) % n]
            g = gcd(bx - ax, by - ay)
            ex, ey = (bx - ax) // g, (by - ay) // g
            r, s, t = _xgcd(ex, ey)
            edges.append((ex, ey, g, r * s, r * t))
        row = []
        for i in range(n):
            px, py, _, ps, pt = edges[i - 1]
            nx, ny, g, ns, nt = edges[i]
            b0 = px * ny - py * nx
            k = -(ns * px + nt * py) // b0
            row.append(((g, 0), (ns + k * ny, nt - k * nx, -ny, nx)))
            a0 = ps * nx + pt * ny
            k = a0 // b0
            row.append(((g * (a0 - k * b0), g * b0), (ps + k * py, pt - k * px, -py, px)))
        orientations.append((pre, vs, row))
    smallest = min(second for _, _, row in orientations for second, _ in row)
    best = None
    for pre, vs, row in orientations:
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
    return seq, compose_maps(m, pre)


def enumerate_minimal_oracle(d: int):
    """The family-driven enumeration without the orbit walk: every tuple is
    generated and keyed by a fresh ``canonical_form``.  The reference for
    ``enumerate_minimal_with_stats``."""
    stats = EnumerationStats.empty()
    classes = {}
    for params in iter_type_params(d):
        stats.generated[params.tag] += 1
        poly = generate(params)
        form = canonical_form(poly)
        key = form.byte_key
        if key in classes:
            stats.duplicates[params.tag] += 1
            continue
        report = is_minimal(poly)
        if not report.is_minimal:
            stats.non_minimal[params.tag] += 1
            continue
        if report.width != d:
            stats.wrong_width[params.tag] += 1
            continue
        classes[key] = MinimalClass(
            form, params, lattice_point_count(poly), doubled_area(poly)
        )
    ordered = sorted(classes.values(), key=lambda c: (c.point_count, c.key))
    return tuple(ordered), stats


def point_key(points, d: int) -> int:
    """The bit set over [0, d]^2 of a set of points in it, bit x*(d+1) + y
    for (x, y); repeated points count once, and different sets get
    different keys."""
    w = d + 1
    key = 0
    for x, y in points:
        key |= 1 << (x * w + y)
    return key


def orbit_keys(points, d: int) -> set:
    """The ``point_key``s of the images of the point set under the 8
    symmetries of [0, d]^2: (x, y) -> (x or d - x, y or d - y), optionally
    swapped.

    The point (x, y) has the bit i = x*(d+1) + y, its reflection (x, d - y)
    the bit j = x*(d+1) + d - y, and the half turn (d - x, d - y) sends the
    bit i to last - i, with last = (d+1)^2 - 1.  So one pass over the set
    and one over its swap give all 8 keys: each set, its reflection, and
    the half turns of both."""
    w = d + 1
    last = w * w - 1
    keys = set()
    for image in (points, [(y, x) for x, y in points]):
        same = turned = reflected = reflected_turned = 0
        for x, y in image:
            i, j = x * w + y, x * w + d - y
            same |= 1 << i
            turned |= 1 << (last - i)
            reflected |= 1 << j
            reflected_turned |= 1 << (last - j)
        keys.update((same, turned, reflected, reflected_turned))
    return keys


def hexagon_rotation(points, d: int, l: int) -> list:
    """The images of the points under rho_l(x, y) = (d - y, x - y + d - l),
    the lattice rotation of order 3 that maps the hexagon (d, l) onto
    itself."""
    return [(d - y, x - y + d - l) for x, y in points]


def keyed_orbits(d: int) -> dict:
    """For each family tuple (tag, values) of width d, the set of family
    tuples whose formula points are an image of its own, or of their
    ``hexagon_rotation`` images for T3..T5, under a symmetry of the square:
    the tuples whose ``point_key`` is among those images' ``orbit_keys``.
    The reference for ``classify._orbit``."""
    tuples = [(t.tag, tuple(value for _, value in t.values)) for t in iter_type_params(d)]
    points = {(tag, values): _family_points(tag, d, values) for tag, values in tuples}
    by_key = {point_key(points[t], d): t for t in tuples}
    if len(by_key) != len(tuples):
        raise ValueError(f"two tuples of width {d} share their formula points")
    orbits = {}
    for tag, values in tuples:
        images = [points[tag, values]]
        if tag in ("T3", "T4", "T5"):
            images.append(hexagon_rotation(images[0], d, values[0]))
            images.append(hexagon_rotation(images[1], d, values[0]))
        keys = set().union(*(orbit_keys(image, d) for image in images))
        orbits[tag, values] = {by_key[key] for key in keys if key in by_key}
    return orbits


def naive_lattice_points(p: Polygon) -> frozenset:
    """Vectorized bounding-box scan with a half-plane test per edge at every
    box point; the exhaustive reference for lattice_points."""
    verts = np.array(p.vertices, dtype=np.int64)
    (x0, y0), (x1, y1) = verts.min(axis=0), verts.max(axis=0)
    qx, qy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1), indexing="ij")
    qx, qy = qx.ravel(), qy.ravel()
    keep = np.ones(qx.shape, dtype=bool)
    if len(verts) == 2:
        (ax, ay), (bx, by) = verts
        keep &= (bx - ax) * (qy - ay) - (by - ay) * (qx - ax) == 0
    elif len(verts) > 2:
        for (ax, ay), (bx, by) in zip(verts, np.roll(verts, -1, axis=0)):
            keep &= (bx - ax) * (qy - ay) - (by - ay) * (qx - ax) >= 0
    return frozenset(zip(qx[keep].tolist(), qy[keep].tolist()))


def hull_oracle(points) -> Polygon:
    """Monotone chain with strict turns written with ``sub`` and ``cross``;
    the reference for the inlined chain of ``convex_hull``."""
    pts = sorted(set((int(x), int(y)) for x, y in points))
    if len(pts) == 1:
        return Polygon((pts[0],))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) > 1 and cross(sub(out[-1], out[-2]), sub(p, out[-2])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    if len(lower) == 2 and len(upper) == 2:
        return Polygon((pts[0], pts[-1]))
    return Polygon(tuple(lower[:-1] + upper[:-1]))


def drop_vertex_oracle(p: Polygon, vertex) -> Polygon:
    """Hull of the other vertices of p and of the lattice points of the
    corner triangle conv(prev, vertex, next) other than the vertex, hulled
    together; the reference for the spliced ``drop_vertex``."""
    vs = p.vertices
    if vertex not in vs:
        raise NotAVertex(vertex)
    i = vs.index(vertex)
    corner = (vs[i - 1], vertex, vs[(i + 1) % len(vs)])
    triangle = convex_hull(corner) if len(vs) < 3 else polygon_from_cycle(corner)
    return convex_hull((lattice_points(triangle) | set(vs)) - {vertex})


def is_minimal_oracle(p: Polygon) -> MinimalityReport:
    """The vertex criterion without certificates: every vertex, in sorted
    order, goes through ``drop_vertex``, and its remainder is reduced from
    p's reduced basis; the first offender is reported.  The reference for
    the certificate-first loop of ``is_minimal``."""
    if p.dimension == 0:
        return MinimalityReport(True, None, 0)
    if p.dimension == 1:
        return MinimalityReport(False, p.vertices[0], 0)
    b1, d, b2, _ = _reduced_basis(p)
    for v in sorted(p.vertices):
        remainder = drop_vertex(p, v)
        if remainder.dimension == 2 and _reduced_basis(remainder, (b1, b2))[1] >= d:
            return MinimalityReport(False, v, d)
    return MinimalityReport(True, None, d)


def cleared_oracle(vs, basis) -> set:
    """The vertices i of the cycle vs whose heights h[i - 1], h[i],
    h[(i + 1) % n] along b1, and along b2 when N(b2) = N(b1), make a strict
    local maximum or minimum, read from a list of heights by index; the
    reference for the carried-heights scan of ``minimal._cleared``."""
    b1, d, b2, n2 = basis
    n = len(vs)
    found = set()
    for ux, uy in (b1, b2) if n2 == d else (b1,):
        h = [x * ux + y * uy for x, y in vs]
        for i in range(n):
            a, b, c = h[i - 1], h[i], h[(i + 1) % n]
            if (a < b > c) or (a > b < c):
                found.add(vs[i])
    return found


def upsilon_lemma_witness(p: Polygon):
    """A pair (vertex, direction v) of a 2-dimensional p of width d whose
    deletion leaves a polygon narrower than d in direction v and narrower
    than p by more than one, or None.  By the paper's lemma only images of
    conv{(0,0),(1,d),(d,1)} have one.

    Vertices are tried in cycle order; each remainder comes from
    ``drop_vertex``, and its directions of width at most d - 1 from the
    region scan (for a segment remainder, its one direction of width 0), in
    (|x|, |y|, v) order, so the first hit is deterministic."""
    d = lattice_width(p).width
    for vertex in p.vertices:
        remainder = drop_vertex(p, vertex)
        if remainder.dimension == 0:
            continue
        if remainder.dimension == 1:
            candidates = lattice_width(remainder).directions
        else:
            candidates = region_scan_directions(remainder, d - 1)
        for v in candidates:
            if width_in_direction(remainder, v) < width_in_direction(p, v) - 1:
                return vertex, v
    return None


def _contains_point(p: Polygon, q) -> bool:
    # whether q lies inside or on the boundary of p
    vs = p.vertices
    if len(vs) == 1:
        return q == vs[0]
    if len(vs) == 2:
        a, b = vs
        if cross(sub(b, a), sub(q, a)) != 0:
            return False
        return (
            min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= q[1] <= max(a[1], b[1])
        )
    return all(cross(sub(b, a), sub(q, a)) >= 0 for a, b in p.edges())


@functools.cache
def _hexagon_and_sides(d: int, l: int) -> tuple:
    h = hexagon(d, l)
    return h, [Polygon(tuple(sorted(side))) for side in h.edges()]


def inscription_oracle(p: Polygon, d: int, l: int) -> bool:
    """Whether every vertex of p is in the hull ``hexagon(d, l)`` and each
    edge of that hull, as a closed segment, holds a vertex of p; the
    reference for the six inequalities of ``is_inscribed_in_hexagon``."""
    h, sides = _hexagon_and_sides(d, l)
    if not all(_contains_point(h, v) for v in p.vertices):
        return False
    return all(any(_contains_point(side, q) for q in p.vertices) for side in sides)


def random_hull(rng: random.Random, span: int = 8) -> Polygon:
    """Hull of one to seven random lattice points: a point, a segment or a
    polygon."""
    count = rng.randint(1, 7)
    return convex_hull(
        (rng.randint(-span, span), rng.randint(-span, span)) for _ in range(count)
    )


def random_large_image(rng: random.Random, p: Polygon, side: int = 120) -> Polygon:
    """Image of p under a random unimodular map with a translation in the
    hundreds, keeping both bounding-box sides at most the given side."""
    while True:
        m = random_unimodular(rng, magnitude=40)
        m = UnimodularMap(
            m.a11, m.a12, m.a21, m.a22, rng.randint(-900, 900), rng.randint(-900, 900)
        )
        q = apply_map(m, p)
        xs = [v[0] for v in q.vertices]
        ys = [v[1] for v in q.vertices]
        if max(xs) - min(xs) <= side and max(ys) - min(ys) <= side:
            return q


@pytest.fixture
def rng():
    return random.Random(0x1A77)


def deletion_corpus(rng: random.Random) -> list:
    """Random points, segments and polygons, and a few large images."""
    shapes = [random_hull(rng, span=6) for _ in range(300)]
    shapes += [random_polygon(rng, span=4, points=rng.randint(3, 6)) for _ in range(300)]
    shapes += [random_large_image(rng, random_hull(rng, span=3), side=60) for _ in range(30)]
    return shapes


@pytest.fixture(scope="session")
def universe():
    """The brute-force universe of each width d = 1..4: 5, 68, 794 and 8,157
    polygons, 9,024 in all, built once per test session."""
    return {d: tuple(iter_full_width_polygons(d)) for d in range(1, 5)}


@pytest.fixture(scope="module")
def minimality_corpus(universe):
    # the 9,024 polygons of the d <= 4 universe, the 4,211 width-8 tuples,
    # the deletion corpus, and large images of every class of width <= 4
    rng = random.Random(0x1A77)
    polygons = [p for d in range(1, 5) for p in universe[d]]
    polygons += [generate(t) for t in iter_type_params(8)]
    polygons += deletion_corpus(rng)
    for d in range(5):
        for cls in enumerate_minimal(d):
            base = convex_hull(cls.canonical.vertices)
            polygons += [random_large_image(rng, base) for _ in range(3)]
    return polygons
