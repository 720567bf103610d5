import pytest

from latwidth import (
    SizeResult,
    UnimodularMap,
    ZeroVector,
    apply_map,
    convex_hull,
    drop_vertex,
    four_direction_quadrangle,
    invert_map,
    lattice_size_square,
    lattice_width,
    normalize_sign,
    upsilon,
    width_in_direction,
)
from latwidth.core import _xgcd, cross, dot
from latwidth.width import _first, _reduced_basis, _witness_from_rows, sort_directions
from conftest import (
    listing_oracle,
    naive_lattice_width,
    random_hull,
    random_large_image,
    random_polygon,
    random_unimodular,
    reduction_oracle,
    region_scan_directions,
    region_scan_size,
    region_scan_width,
    spread_oracle,
)

UPS1 = convex_hull([(0, 0), (1, 2), (2, 1)])
SIMPLEX = convex_hull([(0, 0), (1, 0), (0, 1)])


def test_width_in_direction_examples():
    tri = convex_hull([(0, 0), (2, 0), (0, 2)])
    assert width_in_direction(tri, (1, 0)) == 2
    assert width_in_direction(UPS1, (1, 1)) == 3
    assert width_in_direction(UPS1, (1, -1)) == 2


def test_width_in_direction_matches_the_spread_oracle(rng):
    # points, segments and polygons: small, spanning [-10^6, 10^6]^2, and
    # small ones moved next to a corner (+-10^6, +-10^6); against primitive
    # and non-primitive directions
    checked = 0
    for span, shift, reach in ((8, 0, 5), (10**6, 0, 1000), (8, 10**6, 1000)):
        for _ in range(500):
            p = random_hull(rng, span=span)
            if shift:
                sx, sy = rng.choice((-shift, shift)), rng.choice((-shift, shift))
                p = convex_hull((x + sx, y + sy) for x, y in p.vertices)
            for _ in range(4):
                v = (rng.randint(-reach, reach), rng.randint(-reach, reach))
                if v == (0, 0):
                    continue
                k = rng.randint(1, 6)
                for u in (v, (k * v[0], k * v[1])):
                    assert width_in_direction(p, u) == spread_oracle(p, u), (p.vertices, u)
                    checked += 1
    assert checked > 10_000


@pytest.mark.parametrize(
    "p",
    [convex_hull([(3, -4)]), convex_hull([(0, 0), (4, 2)]), SIMPLEX],
    ids=["point", "segment", "polygon"],
)
@pytest.mark.parametrize("zero", [(0, 0), [0, 0]], ids=["tuple", "list"])
def test_width_in_direction_rejects_the_zero_vector(p, zero):
    with pytest.raises(ZeroVector):
        width_in_direction(p, zero)


def test_lattice_width_examples():
    assert lattice_width(convex_hull([(5, -3)])).width == 0
    assert lattice_width(SIMPLEX).width == 1
    res = lattice_width(UPS1)
    assert res.width == 2
    assert set(res.directions) == {(1, 0), (0, 1), (1, -1)}


def test_segment_width_convention():
    seg = lattice_width(convex_hull([(0, 0), (4, 2)]))
    assert seg.width == 0
    assert seg.directions == ((1, -2),)  # the primitive normal, sign-normalized
    assert lattice_width(convex_hull([(9, 9)])).directions == ()


def test_width_oracle_agreement(rng):
    for _ in range(300):
        p = random_polygon(rng, span=8, points=6)
        expect_w, expect_dirs = naive_lattice_width(p)
        got = lattice_width(p)
        assert got.width == expect_w
        assert set(got.directions) == expect_dirs


def test_width_invariant_under_unimodular_maps(rng):
    for _ in range(300):
        p = random_polygon(rng, span=6)
        m = random_unimodular(rng)
        assert lattice_width(apply_map(m, p)).width == lattice_width(p).width


def test_width_transforms_contravariantly(rng):
    # <A x, v> = <x, A^T v>: widths match across the transposed inverse action
    for _ in range(200):
        p = random_polygon(rng, span=6)
        m = random_unimodular(rng)
        q = apply_map(m, p)
        v = normalize_sign(
            (rng.randint(-5, 5), rng.randint(-5, 5)) if rng.random() < 0.9 else (1, 0)
        )
        if v == (0, 0):
            continue
        vt = (m.a11 * v[0] + m.a21 * v[1], m.a12 * v[0] + m.a22 * v[1])
        assert width_in_direction(q, v) == width_in_direction(p, vt)


def test_global_width_is_a_lower_bound(rng):
    for _ in range(1000):
        p = random_polygon(rng, span=6, points=4)
        v = (rng.randint(-6, 6), rng.randint(-6, 6))
        if v == (0, 0):
            continue
        assert lattice_width(p).width <= width_in_direction(p, v)


def test_convex_combination_of_directions(rng):
    # spread in direction a*v + b*w is at most a*spread(v) + b*spread(w)
    for _ in range(500):
        p = random_polygon(rng, span=6, points=4)
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        w = (rng.randint(-4, 4), rng.randint(-4, 4))
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        u = (a * v[0] + b * w[0], a * v[1] + b * w[1])
        if (0, 0) in (v, w, u):
            continue
        assert (
            width_in_direction(p, u)
            <= a * width_in_direction(p, v) + b * width_in_direction(p, w)
        )


def test_lattice_size_examples():
    assert lattice_size_square(SIMPLEX).size == 1
    assert lattice_size_square(upsilon(3)).size == 3
    assert lattice_size_square(convex_hull([(0, 0), (5, 0)])).size == 5
    assert lattice_size_square(convex_hull([(2, 9)])).size == 0
    # width 1 but lattice size 5: no placement in the unit-width square
    thin = convex_hull([(0, 0), (5, 0), (0, 1)])
    assert lattice_width(thin).width == 1
    assert lattice_size_square(thin).size == 5


def test_lattice_size_witness_is_valid(rng):
    for _ in range(200):
        p = random_polygon(rng, span=6, points=4)
        res = lattice_size_square(p)
        image = apply_map(res.witness, p)
        assert all(0 <= x <= res.size and 0 <= y <= res.size for x, y in image.vertices)


def test_lattice_size_at_least_width(rng):
    for _ in range(300):
        p = random_polygon(rng, span=6, points=4)
        assert lattice_size_square(p).size >= lattice_width(p).width


def test_size_equals_width_given_two_directions(rng):
    hits = 0
    while hits < 100:
        p = random_polygon(rng, span=5, points=5)
        res = lattice_width(p)
        if len(res.directions) >= 2:
            hits += 1
            assert lattice_size_square(p).size == res.width


def test_direction_output_is_angle_sorted():
    res = lattice_width(UPS1)
    assert res.directions == ((1, 0), (0, 1), (1, -1))


def test_degenerate_size_witness():
    seg = convex_hull([(1, 1), (3, 5)])
    res = lattice_size_square(seg)
    assert res.size == 2
    image = apply_map(res.witness, seg)
    assert all(0 <= x <= 2 and 0 <= y <= 2 for x, y in image.vertices)


def _inverse_transpose(m: UnimodularMap, u):
    # v is a width direction of m(p) iff A^T v is one of p, so v = A^{-T} u
    inv = invert_map(m)
    return normalize_sign((inv.a11 * u[0] + inv.a21 * u[1], inv.a12 * u[0] + inv.a22 * u[1]))


def _region_scan_corpus(rng, universe):
    yield from (p for d in range(1, 5) for p in universe[d])
    hulls = 0
    while hulls < 3000:
        p = random_hull(rng)
        if p.dimension == 2:
            hulls += 1
            yield p
    images = 0
    while images < 300:
        p = random_large_image(rng, random_hull(rng, span=5))
        if p.dimension == 2:
            images += 1
            yield p


def test_width_and_size_match_the_region_scan(rng, universe):
    # the 9,024 polygons of the d <= 4 universe, random hulls, and images
    # with coordinates in the hundreds; widths, direction tuples, sizes and
    # witness maps must be identical to the exhaustive scans
    count = 0
    for p in _region_scan_corpus(rng, universe):
        count += 1
        assert lattice_width(p) == region_scan_width(p), p.vertices
        assert lattice_size_square(p) == region_scan_size(p), p.vertices
    assert count == 9024 + 3000 + 300



def _pair_loop_size(p):
    """Lattice size of a 2-dimensional p with the witness of the pair loop
    that scans every v of the listing of the directions of width at most
    lambda2, each against every w, for the first pair with |det| = 1."""
    basis = _reduced_basis(p)
    candidates = listing_oracle(p, basis, basis[3])
    for v in candidates:
        for w in candidates:
            if abs(cross(v, w)) == 1:
                return SizeResult(basis[3], _witness_from_rows(p, v, w))
    raise AssertionError("no unimodular pair among the directions of width at most lambda2")


def test_size_witness_matches_the_pair_loop(rng):
    # the first direction of the listing always has a unimodular partner,
    # so the pair loop never passes it
    n = 1_000_000
    corpus = [
        convex_hull([(0, 0), (n - 1, n - 2), (n, n - 1)]),
        convex_hull([(0, 0), (n, 0), (n, n), (0, n)]),
        upsilon(1000),
    ]
    corpus += [random_polygon(rng, span=span) for span in (2, 5, 12, 40) for _ in range(500)]
    corpus += [random_large_image(rng, random_polygon(rng, span=5)) for _ in range(300)]
    for p in corpus:
        assert lattice_size_square(p) == _pair_loop_size(p), p.vertices


def test_listing_matches_the_region_scan(rng, universe):
    # listing_oracle, the reference of the width directions and of the pair
    # loop, against the exhaustive scan at bounds on both sides of both
    # successive minima, where the c = 1 and c = 2 rows switch on
    for p in _region_scan_corpus(rng, universe):
        basis = _reduced_basis(p)
        _, n1, _, n2 = basis
        for bound in (n1 - 1, n1, n2, n2 + 1):
            expected = region_scan_directions(p, bound)
            assert listing_oracle(p, basis, bound) == expected, (p.vertices, bound)


def test_size_witness_of_thin_polygons_matches_the_pair_loop(rng):
    # hulls in [0, D] x [0, h] under small unimodular maps: most have
    # n2 > n1 and a long row b2 + a*b1 of directions of width at most n2,
    # so they reach each branch of the row witness
    cases, thin = set(), 0
    for _ in range(1500):
        D, h = rng.choice((20, 300, 3000)), rng.randint(1, 3)
        q = convex_hull((rng.randint(0, D), rng.randint(0, h)) for _ in range(rng.randint(3, 6)))
        if q.dimension < 2:
            continue
        p = apply_map(random_unimodular(rng), q)
        got = lattice_size_square(p)
        assert got == _pair_loop_size(p), p.vertices
        b1, n1, b2, n2 = basis = _reduced_basis(p)
        if n2 == n1:
            continue
        thin += 1
        # a of each listed row direction +-(b2 + a*b1), in key order
        row = [cross(v, b2) // cross(b1, v) for v in listing_oracle(p, basis, n2) if cross(b1, v)]
        v = (got.witness.a11, got.witness.a12)
        cases.add("v = b1" if v == normalize_sign(b1) else "v in the row")
        if 0 in b1:
            cases.add("b1 on an axis")
        if row[0] in (min(row), max(row)):
            cases.add("a0 at an end")
    assert thin > 1000
    assert cases == {"v = b1", "v in the row", "b1 on an axis", "a0 at an end"}


def test_size_of_the_flat_triangle_lists_no_directions(monkeypatch):
    # conv{(0,0),(10^6,0),(0,1)} has lambda2 = 10^6 and about 10^6
    # directions of width at most that; the witness comes from two
    # bisections of the row b2 + a*b1, without a list of those directions
    # and with O(log reach) evaluations of the width norm
    import tracemalloc

    import latwidth.width as width_module

    p = convex_hull([(0, 0), (10**6, 0), (0, 1)])
    width_module._standard_reduction.cache_clear()
    tracemalloc.start()
    try:
        size = lattice_size_square(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size.size == 10**6
    assert peak < 10**6
    # the basis stays cached, so only the witness's evaluations are counted
    _, n1, _, n2 = width_module._standard_reduction(p)
    calls = []

    def counting(q, v):
        calls.append(v)
        return width_in_direction(q, v)

    monkeypatch.setattr(width_module, "width_in_direction", counting)
    assert lattice_size_square(p) == size
    # the witness evaluates N through the module-level name, so the bound
    # below counts every evaluation and cannot hold vacuously
    assert calls
    assert len(calls) <= 2 * (2 * n2 // n1 + 1).bit_length()


def test_reduction_from_any_start_basis(rng):
    # the successive minima do not depend on the basis the reduction starts
    # from, whether a random one or that of a polygon containing the input
    # (a vertex deletion); the result is again a lattice basis
    for _ in range(1000):
        p = random_polygon(rng, span=8, points=5)
        remainder = drop_vertex(p, rng.choice(p.vertices))
        if remainder.dimension < 2:
            continue
        b1, _, b2, _ = _reduced_basis(p)
        m = random_unimodular(rng, magnitude=40)
        _, n1, _, n2 = _reduced_basis(remainder)
        for start in ((b1, b2), ((m.a11, m.a12), (m.a21, m.a22))):
            c1, m1, c2, m2 = _reduced_basis(remainder, start)
            assert (m1, m2) == (n1, n2)
            assert abs(cross(c1, c2)) == 1
            assert width_in_direction(remainder, c1) == m1
            assert width_in_direction(remainder, c2) == m2


def test_first_matches_a_linear_scan():
    # every threshold of a false-then-true predicate on short ranges: lo ==
    # hi, a predicate true everywhere and one true only at hi included;
    # pred(hi) is taken as true and never evaluated
    for lo in range(-5, 6):
        for hi in range(lo, lo + 10):
            for t in range(lo - 2, hi + 3):
                asked = []

                def pred(x):
                    asked.append(x)
                    return x >= t

                expected = next((x for x in range(lo, hi) if x >= t), hi)
                assert _first(pred, lo, hi) == expected, (lo, hi, t)
                assert all(lo <= x < hi for x in asked), (lo, hi, t, asked)
                assert len(asked) <= (hi - lo).bit_length()


def _search_corpus(rng, minimality_corpus):
    # the 2-dimensional polygons of the minimality corpus, hulls spanning
    # [-10^6, 10^6]^2 and small hulls next to a corner (+-10^6, +-10^6),
    # and the thin triangles conv{(0,0),(n,n-1),(n+1,n)}
    yield from (p for p in minimality_corpus if p.dimension == 2)
    for span, shift in ((10**6, 0), (8, 10**6 - 8)):
        for _ in range(300):
            p = random_polygon(rng, span=span, points=rng.randint(3, 6))
            if shift:
                sx, sy = rng.choice((-shift, shift)), rng.choice((-shift, shift))
                p = convex_hull((x + sx, y + sy) for x, y in p.vertices)
            yield p
    for n in (1, 2, 3, 10, 999, 10**5, 10**6 - 1):
        yield convex_hull([(0, 0), (n, n - 1), (n + 1, n)])


def _without_a_vertex(rng, p):
    # the hull of the other vertices: a polygon inside p, like the
    # remainders of ``is_minimal``, without listing the lattice points of a
    # corner triangle that may hold 10^12 of them
    v = rng.choice(p.vertices)
    return convex_hull(q for q in p.vertices if q != v)


def test_reduction_matches_the_oracle(rng, minimality_corpus):
    # the 4-tuples of the one-search loop and of the step function it
    # replaced: from the standard start, for a vertex deletion from p's
    # reduced basis, and from a random unimodular start
    count = 0
    for p in _search_corpus(rng, minimality_corpus):
        count += 1
        basis = _reduced_basis(p)
        assert basis == reduction_oracle(p), p.vertices
        b1, _, b2, _ = basis
        m = random_unimodular(rng, magnitude=40)
        remainder = _without_a_vertex(rng, p)
        cases = [(p, ((m.a11, m.a12), (m.a21, m.a22)))]
        if remainder.dimension == 2:
            cases.append((remainder, (b1, b2)))
        for q, start in cases:
            assert _reduced_basis(q, start) == reduction_oracle(q, start), (q.vertices, start)
    assert count > 14_000


def test_listing_matches_the_oracle(rng, minimality_corpus):
    # the public answers against the listing of the directions of width at
    # most lambda1, and at most lambda2 through the pair loop
    count = 0
    for p in _search_corpus(rng, minimality_corpus):
        count += 1
        basis = _reduced_basis(p)
        expected = sort_directions(listing_oracle(p, basis, basis[1]))
        assert lattice_width(p).directions == expected, p.vertices
        assert lattice_size_square(p) == _pair_loop_size(p), p.vertices
    assert count > 14_000


def test_four_direction_images_keep_four_directions(rng):
    # every image takes the tie branch; some width direction needs a
    # coefficient 2 on the second reduced basis vector
    coefficients = set()
    for d in (2, 4, 6):
        quad = four_direction_quadrangle(d)
        base = lattice_width(quad)
        for _ in range(60):
            m = random_unimodular(rng, magnitude=40)
            q = apply_map(m, quad)
            res = lattice_width(q)
            assert res.width == d
            assert len(res.directions) == 4
            assert set(res.directions) == {_inverse_transpose(m, u) for u in base.directions}
            b1, _, b2, _ = _reduced_basis(q)
            det = cross(b1, b2)
            coefficients |= {
                (abs(cross(v, b2) // det), abs(cross(b1, v) // det)) for v in res.directions
            }
    assert max(c for _, c in coefficients) == 2
    assert max(a for a, _ in coefficients) == 2


def _large_unimodular(rng, magnitude):
    # first column (a, c) coprime with entries near the magnitude; the
    # second column from the Bezout identity a*a22 - a12*c = 1
    while True:
        a = rng.randint(magnitude // 10, magnitude)
        c = rng.choice((-1, 1)) * rng.randint(magnitude // 10, magnitude)
        g, s, t = _xgcd(a, c)
        if g == 1:
            return UnimodularMap(a, -t, c, s, rng.randint(-1000, 1000), rng.randint(-1000, 1000))


def test_width_and_size_at_coordinates_near_a_million(rng):
    # bounding-box sides in the hundreds of thousands: out of reach of any
    # region scan, so only the reduced basis can answer
    for _ in range(100):
        p = random_polygon(rng, span=4, points=5)
        m = _large_unimodular(rng, 10**5)
        q = apply_map(m, p)
        xs = [x for x, _ in q.vertices]
        ys = [y for _, y in q.vertices]
        assert min(max(xs) - min(xs), max(ys) - min(ys)) > 10**4
        assert max(map(abs, xs + ys)) <= 10**6

        expected = lattice_width(p)
        got = lattice_width(q)
        assert got.width == expected.width
        assert set(got.directions) == {_inverse_transpose(m, u) for u in expected.directions}

        size = lattice_size_square(q)
        assert size.size == lattice_size_square(p).size
        image = apply_map(size.witness, q)
        assert all(0 <= x <= size.size and 0 <= y <= size.size for x, y in image.vertices)


def test_dot_helper():
    assert dot((2, 3), (4, -1)) == 5
