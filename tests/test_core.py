import json
import math

import pytest
from hypothesis import given, strategies as st

from latwidth import (
    EmptyInput,
    NotUnimodular,
    UnimodularMap,
    ZeroVector,
    apply_map,
    boundary_point_count,
    compose_maps,
    convex_hull,
    doubled_area,
    invert_map,
    lattice_point_count,
    lattice_points,
    make_primitive,
    polygon_from_json,
    polygon_to_json,
)
from latwidth.core import polygon_from_cycle
from conftest import (
    hull_oracle,
    naive_lattice_points,
    random_hull,
    random_large_image,
    random_polygon,
    random_unimodular,
)

coord = st.integers(min_value=-50, max_value=50)


def test_make_primitive_examples():
    assert make_primitive((4, 6)) == (2, 3)
    assert make_primitive((0, 5)) == (0, 1)
    assert make_primitive((-3, 0)) == (-1, 0)


def test_make_primitive_zero():
    with pytest.raises(ZeroVector):
        make_primitive((0, 0))


@given(coord, coord)
def test_make_primitive_is_primitive_and_proportional(x, y):
    if (x, y) == (0, 0):
        return
    px, py = make_primitive((x, y))
    assert math.gcd(abs(px), abs(py)) == 1
    # positively proportional: same cross product and same sign pattern
    assert px * y == py * x
    assert px * x + py * y > 0


def test_convex_hull_examples():
    assert convex_hull([(0, 0)]).vertices == ((0, 0),)
    assert convex_hull([(0, 0), (1, 0), (2, 0)]).vertices == ((0, 0), (2, 0))
    hull = convex_hull([(0, 0), (2, 0), (0, 2), (1, 1)])
    assert hull.vertices == ((0, 0), (2, 0), (0, 2))
    assert hull.dimension == 2


def _hull_inputs(rng):
    # random point sets with repeated points and collinear runs, whole
    # sets on one line, and inputs of one and two points
    for _ in range(2000):
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 10))]
        pts += rng.choices(pts, k=rng.randint(0, 4))
        (x, y), dx, dy = rng.choice(pts), rng.randint(-3, 3), rng.randint(-3, 3)
        pts += [(x + k * dx, y + k * dy) for k in range(rng.randint(0, 6))]
        rng.shuffle(pts)
        yield pts
    for _ in range(300):
        x, y, dx, dy = (rng.randint(-9, 9) for _ in range(4))
        pts = [(x + k * dx, y + k * dy) for k in rng.choices(range(-4, 5), k=rng.randint(1, 6))]
        yield pts
    yield [(3, -4)]
    yield [(3, -4), (3, -4)]
    yield [(0, 0), (5, -2)]
    yield [(5, -2), (0, 0), (5, -2)]


def test_convex_hull_matches_the_sub_cross_chain(rng):
    for pts in _hull_inputs(rng):
        assert convex_hull(pts) == hull_oracle(pts), pts


def test_convex_hull_empty():
    with pytest.raises(EmptyInput):
        convex_hull([])


def test_hull_starts_at_lexicographic_minimum(rng):
    for _ in range(200):
        p = random_polygon(rng)
        assert p.vertices[0] == min(p.vertices)


def test_polygon_from_cycle_matches_the_hull(rng):
    for _ in range(200):
        p = random_polygon(rng, span=6, points=5)
        k = rng.randrange(len(p.vertices))
        assert polygon_from_cycle(p.vertices[k:] + p.vertices[:k]) == p


def test_hull_idempotence(rng):
    for _ in range(200):
        p = random_polygon(rng, span=6)
        again = convex_hull(lattice_points(p))
        assert again.vertices == p.vertices


def test_lattice_points_examples():
    simplex2 = convex_hull([(0, 0), (2, 0), (0, 2)])
    assert len(lattice_points(simplex2)) == 6  # (d+1)(d+2)/2 at d=2
    assert lattice_points(convex_hull([(3, 5)])) == {(3, 5)}
    skew = convex_hull([(0, 0), (1, 2), (2, 1)])
    assert lattice_points(skew) == {(0, 0), (1, 1), (1, 2), (2, 1)}


def test_lattice_points_match_the_box_scan(rng):
    shapes = [random_hull(rng) for _ in range(400)]
    shapes += [random_polygon(rng, span=20, points=rng.randint(3, 8)) for _ in range(100)]
    shapes += [random_large_image(rng, random_hull(rng, span=5)) for _ in range(60)]
    shapes += [convex_hull([(-3, 7)]), convex_hull([(0, 0), (0, 9)]), convex_hull([(2, 5), (11, 5)])]
    assert {p.dimension for p in shapes} == {0, 1, 2}
    for p in shapes:
        assert lattice_points(p) == naive_lattice_points(p), p.vertices


def test_doubled_area_examples():
    assert doubled_area(convex_hull([(0, 0), (4, 2), (2, 4)])) == 12
    assert doubled_area(convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])) == 2
    assert doubled_area(convex_hull([(0, 0), (3, 3)])) == 0
    assert doubled_area(convex_hull([(7, 7)])) == 0


def test_pick_consistency(rng):
    # interior + boundary bookkeeping: 2*points = doubled_area + boundary + 2
    for _ in range(1000):
        p = random_polygon(rng, span=7, points=5)
        total = len(lattice_points(p))
        assert 2 * total == doubled_area(p) + boundary_point_count(p) + 2
        assert lattice_point_count(p) == total
    for pts in ([(3, -4)], [(0, 0), (6, 4)], [(-2, 5), (-2, -1)], [(0, 0), (1, 7)]):
        p = convex_hull(pts)
        assert lattice_point_count(p) == len(lattice_points(p))


def test_apply_map_examples():
    tri = convex_hull([(0, 0), (1, 4), (3, 4)])
    sheared = apply_map(UnimodularMap(1, 0, -1, 1), tri)  # (x, y) -> (x, y - x)
    assert sheared.vertices == convex_hull([(0, 0), (1, 3), (3, 1)]).vertices

    p = convex_hull([(0, 0), (2, 0), (0, 2)])
    assert apply_map(UnimodularMap(1, 0, 0, 1), p) == p
    flipped = apply_map(UnimodularMap(1, 0, 0, -1), p)  # (x, y) -> (x, -y)
    assert set(flipped.vertices) == {(0, 0), (2, 0), (0, -2)}


def test_apply_map_rejects_singular():
    with pytest.raises(NotUnimodular):
        apply_map(UnimodularMap(2, 0, 0, 1), convex_hull([(0, 0)]))


def test_apply_map_preserves_lattice_invariants(rng):
    for _ in range(300):
        p = random_polygon(rng, span=6)
        m = random_unimodular(rng)
        q = apply_map(m, p)
        assert doubled_area(q) == doubled_area(p)
        assert len(lattice_points(q)) == len(lattice_points(p))


def test_invert_map_examples():
    ident = UnimodularMap(1, 0, 0, 1)
    assert invert_map(ident) == ident
    shear = UnimodularMap(1, 1, 0, 1)
    assert invert_map(shear) == UnimodularMap(1, -1, 0, 1)
    swap = UnimodularMap(0, 1, 1, 0, 2, 3)
    assert invert_map(swap) == UnimodularMap(0, 1, 1, 0, -3, -2)


def test_invert_then_apply_is_identity(rng):
    for _ in range(1000):
        p = random_polygon(rng, span=6, points=4)
        m = random_unimodular(rng)
        assert apply_map(invert_map(m), apply_map(m, p)) == p


def test_compose_maps(rng):
    for _ in range(200):
        m1 = random_unimodular(rng)
        m2 = random_unimodular(rng)
        q = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert compose_maps(m2, m1).apply(q) == m2.apply(m1.apply(q))


def test_polygon_json_roundtrip():
    p = convex_hull([(0, 0), (1, 2), (2, 1)])
    assert polygon_from_json(polygon_to_json(p)) == p
    # the reader hulls arbitrary point lists
    q = polygon_from_json(json.dumps({"vertices": [[0, 0], [1, 1], [2, 0], [1, 0]]}))
    assert q.vertices == ((0, 0), (2, 0), (1, 1))


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"vertices": []}',
        '{"vertices": [[0]]}',
        '{"vertices": [[0, 0.5]]}',
        '{"points": [[0, 0]]}',
        # JSON booleans are ints to Python, but not coordinates
        '{"vertices": [[true, false], [0, 3], [3, 0]]}',
    ],
)
def test_polygon_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        polygon_from_json(text)
