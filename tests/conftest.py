"""Shared generators and independent oracles for the test suite."""

import random

import numpy as np
import pytest

from latwidth import (
    Polygon,
    SizeResult,
    UnimodularMap,
    WidthResult,
    apply_map,
    compose_maps,
    convex_hull,
    width_in_direction,
)
from latwidth.core import cross
from latwidth.width import (
    _corner_difference_vectors,
    _witness_from_rows,
    iter_narrow_directions,
    iter_region_directions,
    sort_directions,
)


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


def _axis_widths(p: Polygon) -> tuple[int, int]:
    xs = [v[0] for v in p.vertices]
    ys = [v[1] for v in p.vertices]
    return max(xs) - min(xs), max(ys) - min(ys)


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
        candidates = sorted(
            iter_narrow_directions(p, s), key=lambda v: (abs(v[0]), abs(v[1]), v)
        )
        for v in candidates:
            for w in candidates:
                if abs(cross(v, w)) == 1:
                    return SizeResult(s, _witness_from_rows(p, v, w))
    raise AssertionError("the bounding-box basis always fits")


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
