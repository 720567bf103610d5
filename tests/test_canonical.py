import pytest

from latwidth import (
    UnimodularMap,
    apply_map,
    are_equivalent,
    canonical_form,
    convex_hull,
    doubled_area,
    four_direction_quadrangle,
    generate,
    hexagon,
    iter_type_params,
    lattice_points,
    lattice_width,
    translation,
    upsilon,
)
from latwidth.canonical import (
    _MIRROR,
    _candidates,
    _canonical_with_map,
    _matrix_sending_to_x_axis,
    _orientations,
)
from latwidth.core import IDENTITY_MAP
from conftest import (
    candidate_forms,
    canonical_oracle,
    normalizing_map,
    random_large_image,
    random_polygon,
    random_unimodular,
)

UPS1 = convex_hull([(0, 0), (1, 2), (2, 1)])


def test_point_and_segment_forms():
    assert canonical_form(convex_hull([(7, -2)])).vertices == ((0, 0),)
    # segment (1,1)-(3,5): primitive direction (1,2), lattice length 2
    assert canonical_form(convex_hull([(1, 1), (3, 5)])).vertices == ((0, 0), (2, 0))


def test_form_starts_at_origin(rng):
    for _ in range(100):
        p = random_polygon(rng, span=6)
        assert canonical_form(p).vertices[0] == (0, 0)


def test_invariance_under_maps():
    image = apply_map(UnimodularMap(2, 1, 1, 1, 10, -3), UPS1)
    assert canonical_form(UPS1).vertices == canonical_form(image).vertices


def test_invariance_randomized(rng):
    for _ in range(300):
        p = random_polygon(rng, span=6, points=5)
        m = random_unimodular(rng)
        assert canonical_form(p).byte_key == canonical_form(apply_map(m, p)).byte_key


def test_equivalence_examples():
    shifted = apply_map(translation((5, 7)), UPS1)
    w = are_equivalent(UPS1, shifted)
    assert w is not None and apply_map(w, UPS1) == shifted

    tri = convex_hull([(0, 0), (1, 5), (4, 5)])
    assert are_equivalent(tri, upsilon(4)) is not None

    square = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    simplex = convex_hull([(0, 0), (1, 0), (0, 1)])
    assert are_equivalent(simplex, square) is None


def test_witness_soundness(rng):
    for _ in range(300):
        p = random_polygon(rng, span=6, points=5)
        m = random_unimodular(rng)
        q = apply_map(m, p)
        w = are_equivalent(p, q)
        assert w is not None
        assert apply_map(w, p) == q


def test_separation_by_invariants(rng):
    # different width, area, or point count => different keys
    checked = 0
    while checked < 300:
        p = random_polygon(rng, span=6, points=5)
        q = random_polygon(rng, span=6, points=5)
        if (
            lattice_width(p).width != lattice_width(q).width
            or doubled_area(p) != doubled_area(q)
            or len(lattice_points(p)) != len(lattice_points(q))
        ):
            checked += 1
            assert canonical_form(p).byte_key != canonical_form(q).byte_key


def test_candidate_count_is_four_per_vertex(rng):
    for _ in range(50):
        p = random_polygon(rng, span=6)
        assert len(candidate_forms(p)) == 4 * len(p.vertices)


def _assert_pruned_search_matches_oracle(polygons):
    for p in polygons:
        seq, m = min(candidate_forms(p), key=lambda c: c[0])
        form, witness = _canonical_with_map(p)
        assert (form.vertices, witness) == (seq, m), p


def test_pruned_search_matches_oracle_on_the_brute_force_universe(universe):
    # every polygon of width d <= 4 in the d-square: 9,024 in all
    _assert_pruned_search_matches_oracle(p for d in range(1, 5) for p in universe[d])


def test_pruned_search_matches_oracle_on_the_width_8_tuples():
    _assert_pruned_search_matches_oracle(generate(t) for t in iter_type_params(8))


def test_pruned_search_matches_oracle_on_large_images(rng):
    _assert_pruned_search_matches_oracle(
        random_large_image(rng, random_polygon(rng, span=5)) for _ in range(300)
    )


def test_pruned_search_keeps_the_first_of_tied_candidates():
    # symmetric polygons have several candidates with the smallest sequence;
    # the map of the first one in candidate order is the classify witness
    ties = [convex_hull([(0, 0), (d, 0), (d, d), (0, d)]) for d in range(1, 11)]
    ties += [four_direction_quadrangle(d) for d in range(2, 13, 2)]
    ties += [hexagon(d, l) for d in range(1, 11) for l in range(d + 1)]
    ties += [upsilon(d) for d in range(2, 13)]
    _assert_pruned_search_matches_oracle(ties)
    _assert_tie_filter_matches_oracle(ties)


def _assert_tie_filter_matches_oracle(polygons):
    for p in polygons:
        form, witness = _canonical_with_map(p)
        assert canonical_form(p) == form, p
        if p.dimension == 2:
            assert (form.vertices, witness) == canonical_oracle(p), p


def test_tie_filter_matches_oracle_on_the_minimality_corpus(minimality_corpus):
    _assert_tie_filter_matches_oracle(minimality_corpus)


def test_tie_filter_matches_oracle_on_the_family_tuples():
    _assert_tie_filter_matches_oracle(generate(t) for d in range(9) for t in iter_type_params(d))


def test_tie_filter_matches_oracle_near_the_coordinate_limit(rng):
    # hulls in a corner of the box [-10^6, 10^6]^2, and long thin images of
    # small polygons moved next to it
    polygons = []
    for _ in range(300):
        sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
        polygons.append(convex_hull(
            (sx * (10**6 - rng.randint(0, 12)), sy * (10**6 - rng.randint(0, 12)))
            for _ in range(rng.randint(3, 7))
        ))
    for _ in range(300):
        q = apply_map(random_unimodular(rng, magnitude=300), random_polygon(rng, span=3, points=5))
        x0, y0 = min(q.vertices)
        shift = (rng.choice((-1, 1)) * 10**6 - x0, rng.choice((-1, 1)) * 10**6 - y0)
        polygons.append(apply_map(translation(shift), q))
    _assert_tie_filter_matches_oracle(polygons)


def _assert_closed_form_matches_the_maps(polygons):
    # every candidate: both orientations, every vertex, outgoing and then
    # incoming edge, against the map built from a base and a shear; the
    # mirror's cycle and edge table come from p's
    for p in polygons:
        for (vs, edges, pre), expected_pre in zip(_orientations(p), (IDENTITY_MAP, _MIRROR)):
            q = apply_map(expected_pre, p)
            assert (vs, pre) == (q.vertices, expected_pre)
            n = len(q.vertices)
            found = _candidates(edges)
            assert len(found) == 2 * n
            for c, (second, matrix) in enumerate(found):
                i, outgoing = c // 2, c % 2 == 0
                m = normalizing_map(q, i, outgoing)
                assert second == m.apply(q.vertices[(i + 1) % n]), (q.vertices, i, outgoing)
                assert matrix == (m.a11, m.a12, m.a21, m.a22), (q.vertices, i, outgoing)


def test_closed_form_candidates_on_the_brute_force_universe(universe):
    _assert_closed_form_matches_the_maps(p for d in range(1, 5) for p in universe[d])


def test_closed_form_candidates_on_the_width_8_tuples():
    _assert_closed_form_matches_the_maps(generate(t) for t in iter_type_params(8))


def test_closed_form_candidates_on_large_images(rng):
    _assert_closed_form_matches_the_maps(
        random_large_image(rng, random_polygon(rng, span=5)) for _ in range(300)
    )


def test_byte_key_format():
    key = canonical_form(UPS1).byte_key
    assert key == ",".join(str(c) for v in canonical_form(UPS1).vertices for c in v)
    assert key.count(",") == 2 * len(canonical_form(UPS1).vertices) - 1


def test_mirror_images_share_a_form(rng):
    mirror = UnimodularMap(1, 0, 0, -1)
    for _ in range(100):
        p = random_polygon(rng, span=6, points=5)
        assert canonical_form(p).byte_key == canonical_form(apply_map(mirror, p)).byte_key


def test_non_primitive_edge_is_rejected():
    # the invariant must hold under python -O too, so it raises, not asserts
    with pytest.raises(ValueError):
        _matrix_sending_to_x_axis((2, 0))
