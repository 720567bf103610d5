import random

import pytest

from latwidth import (
    EmptyInput,
    MinimalityReport,
    OutOfRange,
    NotAVertex,
    apply_map,
    convex_hull,
    drop_vertex,
    generate,
    is_minimal,
    iter_type_params,
    lattice_points,
    lattice_width,
    upsilon,
    width_in_direction,
)
from latwidth.core import cross, polygon_from_cycle
import latwidth.minimal as minimal_module
from latwidth.minimal import _cleared
from latwidth.width import _reduced_basis
from conftest import (
    cleared_oracle,
    deletion_corpus,
    drop_vertex_oracle,
    is_minimal_oracle,
    naive_lattice_points,
    random_hull,
    random_polygon,
    random_unimodular,
    upsilon_lemma_witness,
)

SIMPLEX = convex_hull([(0, 0), (1, 0), (0, 1)])
SQUARE = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_drop_vertex_examples():
    tri = convex_hull([(0, 0), (2, 0), (0, 2)])
    assert drop_vertex(tri, (2, 0)).vertices == ((0, 0), (1, 0), (1, 1), (0, 2))
    assert drop_vertex(SIMPLEX, (1, 0)).vertices == ((0, 0), (0, 1))
    assert drop_vertex(SQUARE, (1, 1)).vertices == ((0, 0), (1, 0), (0, 1))


def test_drop_vertex_requires_a_vertex():
    with pytest.raises(NotAVertex):
        drop_vertex(SQUARE, (2, 2))
    with pytest.raises(NotAVertex):
        # a lattice point that is not a vertex does not qualify either
        drop_vertex(convex_hull([(0, 0), (2, 0), (0, 2)]), (1, 0))


def test_is_minimal_examples():
    assert is_minimal(SIMPLEX) == (True, None, 1) or is_minimal(SIMPLEX).is_minimal
    rep = is_minimal(SQUARE)
    assert not rep.is_minimal
    assert rep.offending_vertex == (0, 0)
    assert rep.width == 1
    assert is_minimal(upsilon(3)).is_minimal


def test_degenerate_minimality():
    assert is_minimal(convex_hull([(4, 4)])).is_minimal
    rep = is_minimal(convex_hull([(2, 1), (0, 0)]))
    assert not rep.is_minimal
    assert rep.offending_vertex == (0, 0)


def test_vertex_criterion_matches_direct_definition(rng):
    # direct definition: every proper lattice subpolygon is strictly narrower,
    # brute-forced over all subsets of the lattice points (small instances)
    checked = 0
    while checked < 500:
        p = random_polygon(rng, span=3, points=4)
        pts = sorted(lattice_points(p))
        if len(pts) > 12:
            continue
        checked += 1
        d = lattice_width(p).width
        cache = {}
        direct = True
        for mask in range(1, 1 << len(pts)):
            sub = [pts[i] for i in range(len(pts)) if mask >> i & 1]
            h = convex_hull(sub)
            if h.vertices == p.vertices:
                continue
            w = cache.get(h.vertices)
            if w is None:
                w = lattice_width(h).width
                cache[h.vertices] = w
            if w >= d:
                direct = False
                break
        assert direct == is_minimal(p).is_minimal, p.vertices


def test_dropping_never_gains_width(rng):
    for _ in range(300):
        p = random_polygon(rng, span=5, points=5)
        d = lattice_width(p).width
        for v in p.vertices:
            assert lattice_width(drop_vertex(p, v)).width <= d


def test_minimality_is_equivalence_invariant(rng):
    for _ in range(200):
        p = random_polygon(rng, span=5, points=5)
        m = random_unimodular(rng)
        assert is_minimal(apply_map(m, p)).is_minimal == is_minimal(p).is_minimal


def test_drop_vertex_matches_the_box_scan(rng):
    for p in deletion_corpus(rng):
        points = naive_lattice_points(p)
        for v in p.vertices:
            if p.dimension == 0:
                with pytest.raises(EmptyInput):
                    drop_vertex(p, v)
            else:
                assert drop_vertex(p, v) == convex_hull(points - {v}), (p.vertices, v)


def test_spliced_drop_vertex_matches_the_corner_triangle_hull(rng, universe):
    # every vertex of the 9,024 polygons of the d <= 4 universe, of the
    # 4,211 width-8 tuples, and of random points, segments, triangles and
    # quadrilaterals
    polygons = [p for d in range(1, 5) for p in universe[d]]
    polygons += [generate(t) for t in iter_type_params(8)]
    shapes = {1: 0, 2: 0, 3: 0, 4: 0}
    while min(shapes.values()) < 300:
        p = random_hull(rng, span=6)
        if len(p.vertices) in shapes:
            shapes[len(p.vertices)] += 1
            polygons.append(p)
    for p in polygons:
        for v in p.vertices:
            if p.dimension == 0:
                with pytest.raises(EmptyInput):
                    drop_vertex(p, v)
            else:
                assert drop_vertex(p, v) == drop_vertex_oracle(p, v), (p.vertices, v)


def test_minimality_report_matches_the_all_vertices_definition(rng):
    # the definition: delete each vertex from the full lattice point set,
    # take the full lattice width of every remainder, report the smallest
    # offender
    for p in deletion_corpus(rng):
        if p.dimension == 0:
            expected = MinimalityReport(True, None, 0)
        else:
            d = lattice_width(p).width
            points = naive_lattice_points(p)
            offenders = [
                v for v in p.vertices
                if lattice_width(convex_hull(points - {v})).width >= d
            ]
            expected = MinimalityReport(not offenders, min(offenders, default=None), d)
        assert is_minimal(p) == expected, p.vertices


def test_minimality_report_matches_the_drop_every_vertex_loop(minimality_corpus):
    for p in minimality_corpus:
        assert is_minimal(p) == is_minimal_oracle(p), p.vertices


@pytest.fixture(scope="module")
def hull_corpus():
    # 20,000 random hulls, most of them with N(b2) > d, and k times a
    # triangle whose middle vertex along b1 is not cleared
    rng = random.Random(0x21C0)
    polygons = [random_hull(rng, span=10) for _ in range(20_000)]
    polygons += [
        convex_hull([(k * 15, k * 24), (k * 34, k * 6), (k * 30, k * 55)]) for k in range(1, 11)
    ]
    return [(p, is_minimal_oracle(p)) for p in polygons]


def test_minimality_report_matches_the_oracle_on_random_hulls(hull_corpus):
    single = 0
    for p, report in hull_corpus:
        assert is_minimal(p) == report, p.vertices
        if p.dimension == 2:
            _, d, _, n2 = _reduced_basis(p)
            single += n2 > d
    assert single > 10_000


def test_one_width_direction_decides_without_remainders(hull_corpus, monkeypatch):
    # with b1 the only width direction, every vertex that is not cleared
    # offends, so no remainder is built
    def refuse(p, vertex):
        pytest.fail(f"drop_vertex({p.vertices}, {vertex})")

    monkeypatch.setattr(minimal_module, "drop_vertex", refuse)
    decided = 0
    for p, report in hull_corpus:
        if p.dimension < 2:
            continue
        _, d, _, n2 = _reduced_basis(p)
        if n2 > d:
            assert is_minimal(p) == report, p.vertices
            decided += 1
    assert decided > 10_000


def test_cleared_vertices_lose_width(minimality_corpus):
    # a vertex alone on a supporting line of a width direction never offends
    cleared = 0
    for p in minimality_corpus:
        if p.dimension < 2:
            continue
        basis = _reduced_basis(p)
        for v in _cleared(p.vertices, basis):
            cleared += 1
            assert lattice_width(drop_vertex(p, v)).width < basis[1], (p.vertices, v)
    assert cleared > 30_000


def test_cleared_scan_matches_the_indexed_one(minimality_corpus):
    # a vertex the carried-heights scan missed would only reach drop_vertex,
    # never change a report, so compare the sets themselves
    for p in minimality_corpus:
        if p.dimension < 2:
            continue
        basis = _reduced_basis(p)
        assert _cleared(p.vertices, basis) == cleared_oracle(p.vertices, basis), p.vertices


def test_convicted_vertices_keep_width(minimality_corpus):
    # when the other vertices alone keep the width, so does the remainder
    convicted = 0
    for p in minimality_corpus:
        vs = p.vertices
        if len(vs) < 4:
            continue
        b1, d, b2, _ = _reduced_basis(p)
        for i, v in enumerate(vs):
            if _reduced_basis(polygon_from_cycle(vs[:i] + vs[i + 1:]), (b1, b2), d)[1] >= d:
                convicted += 1
                assert lattice_width(drop_vertex(p, v)).width == d, (vs, v)
    assert convicted > 30_000


def test_early_stopping_reduction_matches_the_full_one(minimality_corpus):
    # is_minimal asks only whether lambda1 >= d of every vertex-deleted cycle
    # and every remainder; stopping at the first vector narrower than the
    # floor gives the full reduction's answer, for the floors d and d + 1
    checked = restarted = 0
    for p in minimality_corpus:
        if p.dimension < 2:
            continue
        b1, d, b2, _ = _reduced_basis(p)
        vs = p.vertices
        subpolygons = [drop_vertex(p, v) for v in vs]
        subpolygons += [polygon_from_cycle(vs[:i] + vs[i + 1:]) for i in range(len(vs))]
        for q in subpolygons:
            if q.dimension < 2:
                continue
            width = _reduced_basis(q, (b1, b2))[1]
            for floor in (d, d + 1):
                c1, m1, c2, m2 = _reduced_basis(q, (b1, b2), floor)
                assert (m1 >= floor) == (width >= floor), (vs, q.vertices, floor)
                assert width_in_direction(q, c1) == m1 and abs(cross(c1, c2)) == 1
                checked += 1
        if len(vs) < 4:
            continue
        # is_minimal starts each remainder's reduction from the basis at
        # which the reduction of its vertex-deleted cycle stopped
        for i, remainder in enumerate(subpolygons[:len(vs)]):
            if remainder.dimension < 2:
                continue
            c1, _, c2, _ = _reduced_basis(polygon_from_cycle(vs[:i] + vs[i + 1:]), (b1, b2), d)
            width = _reduced_basis(remainder, (b1, b2))[1]
            assert (_reduced_basis(remainder, (c1, c2), d)[1] >= d) == (width >= d), (vs, i)
            restarted += 1
    assert checked > 100_000 and restarted > 30_000


def test_upsilon_examples():
    assert upsilon(2).vertices == ((0, 0), (2, 1), (1, 2))
    assert set(upsilon(3).vertices) == {(0, 0), (1, 3), (3, 1)}
    with pytest.raises(OutOfRange):
        upsilon(1)
    with pytest.raises(OutOfRange):
        upsilon(0)


def test_upsilon_width(rng):
    for d in range(2, 7):
        assert lattice_width(upsilon(d)).width == d


def test_witness_found_for_the_sheared_triangle():
    tri = convex_hull([(0, 0), (1, 4), (3, 4)])  # width 3
    hit = upsilon_lemma_witness(tri)
    assert hit is not None
    vertex, v = hit
    d = lattice_width(tri).width
    narrowed = width_in_direction(drop_vertex(tri, vertex), v)
    assert narrowed < d
    assert narrowed < width_in_direction(tri, v) - 1
    # deterministic scan: first hit is the base vertex with the vertical probe
    assert hit == ((0, 0), (0, 1))
    assert upsilon_lemma_witness(tri) == hit


def test_witness_absent_examples():
    assert upsilon_lemma_witness(SIMPLEX) is None
    assert upsilon_lemma_witness(SQUARE) is None


def test_witness_found_for_upsilon():
    for d in range(2, 9):
        hit = upsilon_lemma_witness(upsilon(d))
        assert hit is not None, d
        vertex, v = hit
        narrowed = width_in_direction(drop_vertex(upsilon(d), vertex), v)
        assert narrowed < d and narrowed < width_in_direction(upsilon(d), v) - 1, d
