import hashlib
import os
from collections import Counter

import pytest

from latwidth import (
    OutOfRange,
    ParamOutOfRange,
    TypeParams,
    apply_map,
    brute_force_minimal,
    canonical_form,
    classify_polygon,
    convex_hull,
    doubled_area,
    doubled_volume_bound,
    enumerate_minimal,
    enumerate_minimal_with_stats,
    four_direction_quadrangle,
    generate,
    hexagon,
    is_inscribed_in_hexagon,
    is_minimal,
    iter_convex_polygons,
    iter_full_width_polygons,
    iter_type_params,
    lattice_point_count,
    lattice_width,
    point_bound,
    upsilon,
)
import latwidth.classify as classify_module
from latwidth.classify import TAGS, _family_points, _iter_values, _orbit
from latwidth.minimal import MinimalityReport
import conftest
from conftest import (
    enumerate_minimal_oracle,
    hexagon_rotation,
    inscription_oracle,
    keyed_orbits,
    naive_lattice_points,
    orbit_keys,
    point_key,
    random_hull,
    random_unimodular,
)

# class counts fixed by the brute-force oracle ahead of the enumerator build
GOLDEN_CLASS_COUNTS = {0: 1, 1: 1, 2: 4, 3: 7, 4: 22}


def t1(d, x, y):
    return TypeParams("T1", d, (("x", x), ("y", y)))


def test_generate_examples():
    assert generate(t1(3, 0, 0)).vertices == ((0, 0), (3, 0), (0, 3))
    quad = generate(TypeParams("T2", 4, (("x1", 1), ("x2", 3), ("y1", 3), ("y2", 1))))
    assert set(quad.vertices) == {(1, 0), (4, 1), (3, 4), (0, 3)}
    assert set(generate(t1(4, 2, 2)).vertices) == {(0, 0), (4, 2), (2, 4)}


# the paper's ranges at d = 6 with the shoulder l = 2, where the short side
# is 1..l-1 = 1..1 and the long side 1..d-l-1 = 1..3: (base value, lo, hi)
FIELD_BOUNDARIES_D6 = {
    "T1": {"x": (0, 0, 6), "y": (0, 0, 6)},
    "T2": {"x1": (3, 1, 5), "x2": (3, 1, 5), "y1": (3, 1, 5), "y2": (3, 1, 5)},
    "T3": {"l": (2, 2, 4), "x": (1, 1, 3), "y": (1, 1, 1), "z": (1, 1, 1)},
    "T4": {"l": (2, 2, 4), "x": (1, 1, 3), "y": (1, 1, 1), "z": (1, 1, 1), "zp": (1, 1, 3)},
    "T5": {
        "l": (2, 2, 4),
        "x1": (1, 1, 1),
        "x2": (1, 1, 3),
        "y1": (1, 1, 3),
        "y2": (1, 1, 1),
        "z1": (1, 1, 1),
        "z2": (1, 1, 3),
    },
}


def test_generate_matches_the_hull_of_the_formula_points():
    # generate keeps the formula's cycle instead of hulling it; the hull is
    # the reference on every in-range tuple up to d = 12, from the single
    # point at d = 0 on
    count = 0
    for d in range(13):
        for t in iter_type_params(d):
            count += 1
            values = [value for _, value in t.values]
            assert generate(t) == convex_hull(_family_points(t.tag, d, values)), t
    assert count == 168326


def test_generate_range_checks():
    with pytest.raises(ParamOutOfRange):
        generate(t1(3, 2, 2))  # x + y > d
    with pytest.raises(ParamOutOfRange):
        generate(TypeParams("T2", 4, (("x1", 0), ("x2", 1), ("y1", 1), ("y2", 1))))
    with pytest.raises(ParamOutOfRange):
        generate(TypeParams("T3", 3, (("l", 2), ("x", 1), ("y", 1), ("z", 1))))
    # each field at either end of its range, and one step past it
    for tag, fields in FIELD_BOUNDARIES_D6.items():
        base = {name: value for name, (value, _, _) in fields.items()}
        for name, (_, lo, hi) in fields.items():
            for value, valid in ((lo - 1, False), (lo, True), (hi, True), (hi + 1, False)):
                params = TypeParams(tag, 6, tuple(sorted({**base, name: value}.items())))
                if valid:
                    assert generate(params).dimension == 2, params
                else:
                    with pytest.raises(ParamOutOfRange):
                        generate(params)


@pytest.mark.parametrize(
    "tag, values",
    [
        ("T1", (("x", 0),)),
        ("T1", (("x", 0), ("y", 0), ("w", 9))),
        ("T1", (("x", 0), ("x", 0), ("y", 0))),
        ("T1", (("y", 0), ("x", 0))),
        ("T3", (("x", 1), ("y", 1), ("z", 1))),
        ("T4", (("l", 2), ("x", 1), ("y", 1), ("z", 1), ("zq", 1))),
        ("T6", (("x", 0), ("y", 0))),
    ],
    ids=["missing", "extra", "duplicated", "unsorted", "no-shoulder", "misnamed", "unknown-tag"],
)
def test_generate_rejects_malformed_field_names(tag, values):
    with pytest.raises(ParamOutOfRange):
        generate(TypeParams(tag, 6, values))


def test_hexagon_examples():
    assert set(hexagon(4, 2).vertices) == {(0, 0), (2, 0), (4, 2), (4, 4), (2, 4), (0, 2)}
    assert set(hexagon(3, 0).vertices) == {(0, 0), (3, 3), (0, 3)}
    assert set(hexagon(2, 1).vertices) == {(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)}
    with pytest.raises(ParamOutOfRange):
        hexagon(3, 4)


def test_inscription_examples():
    t5 = TypeParams(
        "T5",
        4,
        (("l", 2), ("x1", 1), ("x2", 1), ("y1", 1), ("y2", 1), ("z1", 1), ("z2", 1)),
    )
    assert is_inscribed_in_hexagon(generate(t5), 4, 2)
    assert is_inscribed_in_hexagon(generate(t1(2, 2, 0)), 2, 2)  # degenerate corner
    square = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert not is_inscribed_in_hexagon(square, 2, 1)


def test_inscription_matches_the_lattice_point_definition(rng):
    # the definition: p inside the hexagon, and every side holds a lattice
    # point of p; random hulls of hexagon points, inscribed or not
    checked = {True: 0, False: 0}
    for _ in range(600):
        d = rng.randint(0, 6)
        l = rng.randint(0, d)
        h = hexagon(d, l)
        pool = sorted(naive_lattice_points(h))
        p = convex_hull(rng.sample(pool, rng.randint(1, min(len(pool), 6))))
        points = naive_lattice_points(p)
        expected = all(
            any(q in naive_lattice_points(convex_hull([a, b])) for q in points)
            for a, b in h.edges()
        )
        assert is_inscribed_in_hexagon(p, d, l) == expected, (p.vertices, d, l)
        checked[expected] += 1
    assert min(checked.values()) > 50


def test_inscription_matches_the_hull_oracle(rng):
    # every polygon with box exactly [0, D]^2 for D <= 4, in every hexagon
    # (d, l) with d <= D + 1, then random hulls around the origin, then
    # every family polygon with d <= 8, in every hexagon of its width
    cases = [
        (p, d, l)
        for box in range(1, 5)
        for p in iter_convex_polygons(box)
        for d in range(box + 2)
        for l in range(d + 1)
    ]
    for _ in range(20_000):
        d = rng.randint(0, 6)
        cases.append((random_hull(rng, span=3), d, rng.randint(0, d)))
    for d in range(9):
        for params in iter_type_params(d):
            p = generate(params)
            cases.extend((p, d, l) for l in range(d + 1))
    assert len(cases) == 294_534
    outcomes = {True: 0, False: 0}
    for p, d, l in cases:
        expected = inscription_oracle(p, d, l)
        assert is_inscribed_in_hexagon(p, d, l) == expected, (p.vertices, d, l)
        outcomes[expected] += 1
    assert min(outcomes.values()) > 5_000, outcomes


def test_four_direction_quadrangle():
    assert set(four_direction_quadrangle(2).vertices) == {(1, 0), (0, 1), (1, 2), (2, 1)}
    assert set(four_direction_quadrangle(4).vertices) == {(2, 0), (0, 2), (2, 4), (4, 2)}
    with pytest.raises(OutOfRange):
        four_direction_quadrangle(3)
    assert len(lattice_width(four_direction_quadrangle(6)).directions) == 4


# sha256 of the tuple sequence for d = 0..10 (38,029 tuples); the order picks
# each class's stored representative, so it fixes the `enumerate` output bytes
TUPLE_ORDER_SHA256 = "f3a7897caf812ca0f8338e677d9e27b460dc0bc33befda5b7a9567f609ede700"


def test_param_iteration_counts():
    # T1 tuples: x + y <= d over 0..d
    assert sum(1 for p in iter_type_params(3) if p.tag == "T1") == 10
    assert sum(1 for p in iter_type_params(0)) == 1
    # T3, T4, T5 need l in 2..d-2, so they first appear at d = 4
    assert all(p.tag in ("T1", "T2") for p in iter_type_params(3))
    assert any(p.tag == "T5" for p in iter_type_params(4))
    # tuples come in (tag, values) order
    lines = []
    for d in range(11):
        tuples = list(iter_type_params(d))
        order = [(TAGS.index(p.tag), p.values) for p in tuples]
        assert order == sorted(order), d
        lines.extend(repr(p) for p in tuples)
    assert len(lines) == 38029
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TUPLE_ORDER_SHA256


def test_enumerate_minimal_small_widths():
    zero = enumerate_minimal(0)
    assert len(zero) == 1 and zero[0].canonical.vertices == ((0, 0),)
    one = enumerate_minimal(1)
    assert len(one) == 1
    assert one[0].key == canonical_form(convex_hull([(0, 0), (1, 0), (0, 1)])).byte_key
    assert one[0].point_count == 3 and one[0].doubled_area == 1


@pytest.mark.parametrize("d", sorted(GOLDEN_CLASS_COUNTS))
def test_golden_class_counts(d):
    assert len(enumerate_minimal(d)) == GOLDEN_CLASS_COUNTS[d]


@pytest.mark.parametrize("d", [0, 1, 2])
def test_oracle_equivalence_fast(d):
    enum_counts = {c.key: c.point_count for c in enumerate_minimal(d)}
    oracle_counts = {c.key: c.point_count for c in brute_force_minimal(d)}
    assert enum_counts == oracle_counts


# polygons in the width-d universe and minimal classes among them
BEYOND_THE_CAP = {5: (77_453, 47), 6: (665_669, 126)}


@pytest.mark.parametrize(
    "d",
    [
        5,
        pytest.param(6, marks=pytest.mark.skipif(
            not os.environ.get("LATWIDTH_SLOW"),
            reason="searching width 6 takes about 30 s; set LATWIDTH_SLOW=1 to run",
        )),
    ],
)
def test_enumerator_matches_the_search_beyond_the_oracle_cap(d):
    # the brute-force search of brute_force_minimal, driven from here so its
    # cap stays; the classes must be the enumerator's, with the same point
    # counts and areas, and must reach both sharp bounds
    polygons = 0
    found = {}
    for p in iter_full_width_polygons(d):
        polygons += 1
        if is_minimal(p).is_minimal:
            key = canonical_form(p).byte_key
            found.setdefault(key, (lattice_point_count(p), doubled_area(p)))
    assert (polygons, len(found)) == BEYOND_THE_CAP[d]
    assert found == {c.key: (c.point_count, c.doubled_area) for c in enumerate_minimal(d)}
    assert max(count for count, _ in found.values()) == point_bound(d)
    assert min(area for _, area in found.values()) == doubled_volume_bound(d)


def test_brute_force_guard():
    with pytest.raises(OutOfRange):
        brute_force_minimal(5)
    with pytest.raises(OutOfRange):
        brute_force_minimal(-1)


def test_box_enumeration_matches_subset_hulls():
    # independent oracle: hulls of every subset of the (d+1)^2 grid, 65,536
    # subsets at d = 3
    for d in (1, 2, 3):
        grid = [(x, y) for x in range(d + 1) for y in range(d + 1)]
        expected = set()
        for mask in range(1, 1 << len(grid)):
            pts = [grid[i] for i in range(len(grid)) if mask >> i & 1]
            h = convex_hull(pts)
            if h.dimension != 2:
                continue
            xs = [v[0] for v in h.vertices]
            ys = [v[1] for v in h.vertices]
            if max(xs) - min(xs) != d or max(ys) - min(ys) != d:
                continue
            mx, my = min(xs), min(ys)
            expected.add(tuple((x - mx, y - my) for x, y in h.vertices))
        produced = set()
        for p in iter_convex_polygons(d):
            assert p.vertices not in produced
            produced.add(p.vertices)
            assert convex_hull(p.vertices).vertices == p.vertices
        assert produced == expected


def test_box_enumeration_counts():
    # 2-dimensional convex lattice polygons with bounding box exactly
    # [0, d]^2, up to translation
    counts = [sum(1 for _ in iter_convex_polygons(d)) for d in range(1, 5)]
    assert counts == [5, 80, 948, 9563]


# per-tag (generated, duplicates); every tuple for d <= 8 gives a minimal
# polygon of width d, so non_minimal and wrong_width stay empty
ENUMERATION_STATS = {
    0: {"T1": (1, 0)},
    1: {"T1": (3, 2)},
    2: {"T1": (6, 3), "T2": (1, 0)},
    3: {"T1": (10, 6), "T2": (14, 11)},
    4: {"T1": (15, 8), "T2": (67, 55), "T3": (1, 0), "T4": (1, 0), "T5": (1, 0)},
    5: {"T1": (21, 12), "T2": (204, 176), "T3": (6, 2), "T4": (8, 4), "T5": (16, 14)},
    6: {"T1": (28, 15), "T2": (485, 419), "T3": (20, 8), "T4": (34, 15), "T5": (118, 102)},
    7: {"T1": (36, 20), "T2": (986, 861), "T3": (50, 22), "T4": (104, 52), "T5": (560, 510)},
    8: {
        "T1": (45, 24), "T2": (1799, 1570), "T3": (105, 48), "T4": (259, 125),
        "T5": (2003, 1816),
    },
}


@pytest.mark.parametrize("d", sorted(ENUMERATION_STATS))
def test_enumeration_stats_per_tag(d):
    _, stats = enumerate_minimal_with_stats(d)
    counts = {tag: (n, stats.duplicates.get(tag, 0)) for tag, n in stats.generated.items()}
    assert counts == ENUMERATION_STATS[d]
    assert not any(stats.non_minimal.values()) and not any(stats.wrong_width.values())


def test_orbit_keys_are_the_keys_of_the_eight_square_images():
    # the bit set of each image's vertex set, built point by point
    for d in range(9):
        bit_set = lambda points: sum(1 << (x * (d + 1) + y) for x, y in set(points))
        for t in iter_type_params(d):
            vertices = generate(t).vertices
            images = []
            for flip_x in (False, True):
                for flip_y in (False, True):
                    image = [(d - x if flip_x else x, d - y if flip_y else y) for x, y in vertices]
                    images += [image, [(y, x) for x, y in image]]
            assert point_key(vertices, d) == bit_set(vertices)
            assert orbit_keys(vertices, d) == {bit_set(image) for image in images}, t


def test_hexagon_rotation_is_a_symmetry_of_the_shoulder_families():
    # rho_l permutes the hexagon's vertices, keeps the formula points in the
    # square, has order 3, and keeps the canonical form
    for d in range(9):
        for t in iter_type_params(d):
            if t.tag not in ("T3", "T4", "T5"):
                continue
            l = t["l"]
            corners = hexagon(d, l).vertices
            assert sorted(hexagon_rotation(corners, d, l)) == sorted(corners), t
            points = _family_points(t.tag, d, [value for _, value in t.values])
            once = hexagon_rotation(points, d, l)
            twice = hexagon_rotation(once, d, l)
            assert hexagon_rotation(twice, d, l) == points, t
            form = canonical_form(generate(t))
            for image in (once, twice):
                assert all(0 <= x <= d and 0 <= y <= d for x, y in image), t
                assert canonical_form(convex_hull(image)) == form, t


@pytest.mark.parametrize("d", range(9))
def test_parameter_orbits_are_the_keyed_images(d):
    # the closed-form maps of _orbit find exactly the tuples whose point
    # sets are square images of the tuple's points or of their hexagon
    # rotations; the keyed images hold tuples of every tag, so an orbit
    # equal to them never crosses a tag
    for (tag, values), keyed in keyed_orbits(d).items():
        assert {(tag, image) for image in _orbit(tag, d, values)} == keyed, (tag, values)


@pytest.mark.parametrize("d, orbits", [(8, 636), (10, 2676)])
def test_parameter_orbits_part_the_tuples(d, orbits):
    # every image is a tuple of the same tag, and the orbits are disjoint
    tuples = set(_iter_values(d))
    found = {frozenset((tag, image) for image in _orbit(tag, d, values)) for tag, values in tuples}
    assert set().union(*found) == tuples
    assert sum(map(len, found)) == len(tuples)
    assert len(found) == orbits


@pytest.mark.parametrize("d, forms", [(8, 636), (10, 2676)])
def test_orbit_memo_computes_few_canonical_forms(monkeypatch, d, forms):
    # the walk keys one tuple per orbit of the square symmetries and the
    # hexagon rotation: 628 and 2,656 classes, against 1,016 and 5,330
    # forms with the square alone
    calls = []

    def counted(p):
        calls.append(p)
        return canonical_form(p)

    monkeypatch.setattr(classify_module, "canonical_form", counted)
    enumerate_minimal_with_stats(d)
    assert len(calls) == forms


def summary(classes):
    return [(c.key, c.params, c.point_count, c.doubled_area) for c in classes]


@pytest.mark.parametrize(
    "d",
    [
        *range(11),
        *(pytest.param(d, marks=pytest.mark.skipif(
            not os.environ.get("LATWIDTH_SLOW"),
            reason="walking widths 11 and 12 against the oracle takes about 15 s; "
            "set LATWIDTH_SLOW=1 to run",
        )) for d in (11, 12)),
    ],
)
def test_orbit_memo_matches_the_unmemoized_loop(d):
    # the orbit walk against the loop that keys every tuple afresh: classes,
    # representatives, point counts, areas and every per-tag count
    classes, stats = enumerate_minimal_with_stats(d)
    expected, expected_stats = enumerate_minimal_oracle(d)
    assert summary(classes) == summary(expected)
    assert stats == expected_stats


def test_orbit_walk_counts_a_rejected_class_as_non_minimal(monkeypatch):
    # no family tuple is non-minimal, so reject the class with the most
    # tuples at width 8, which spans more than one orbit: its first tuple
    # fails the test, and the rest of its orbits must count as non-minimal
    # too, tag by tag, as in the oracle
    d = 8
    params = list(iter_type_params(d))
    keys = [canonical_form(generate(t)).byte_key for t in params]
    rejected = max(sorted(set(keys)), key=keys.count)
    in_class = [
        (t.tag, tuple(value for _, value in t.values)) for t, key in zip(params, keys) if key == rejected
    ]
    assert len({frozenset(_orbit(tag, d, values)) for tag, values in in_class}) > 1

    def rejecting(p):
        report = is_minimal(p)
        if canonical_form(p).byte_key == rejected:
            return MinimalityReport(False, p.vertices[0], report.width)
        return report

    monkeypatch.setattr(classify_module, "is_minimal", rejecting)
    monkeypatch.setattr(conftest, "is_minimal", rejecting)
    classes, stats = enumerate_minimal_with_stats(d)
    expected, expected_stats = enumerate_minimal_oracle(d)
    assert summary(classes) == summary(expected)
    assert stats == expected_stats
    assert rejected not in {c.key for c in classes}
    assert stats.non_minimal == Counter(tag for tag, _ in in_class)


def test_vertex_count_ceilings_per_tag():
    limits = {"T1": 3, "T2": 4, "T3": 5, "T4": 5, "T5": 6}
    for d in range(0, 7):
        for cls in enumerate_minimal(d):
            assert len(cls.canonical.vertices) <= limits[cls.params.tag], cls


def test_classify_examples(rng):
    cls, witness = classify_polygon(convex_hull([(0, 0), (3, 0), (0, 3)]))
    assert cls.params.tag == "T1"
    assert cls.params.as_dict() == {"x": 0, "y": 0}

    assert classify_polygon(convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])) is None

    for _ in range(20):
        image = apply_map(random_unimodular(rng), upsilon(3))
        cls, witness = classify_polygon(image)
        assert cls.params.tag == "T1"
        assert cls.params.as_dict() == {"x": 1, "y": 1}
        assert apply_map(witness, image).vertices == cls.canonical.vertices


def test_classify_t5_round_trip():
    t5 = TypeParams(
        "T5",
        4,
        (("l", 2), ("x1", 1), ("x2", 1), ("y1", 1), ("y2", 1), ("z1", 1), ("z2", 1)),
    )
    p = generate(t5)
    assert is_minimal(p).is_minimal
    cls, _ = classify_polygon(p)
    assert cls.params.tag == "T5"


def test_enumeration_is_sorted():
    keys = [(c.point_count, c.key) for c in enumerate_minimal(3)]
    assert keys == sorted(keys)


def test_equivalent_parameter_tuples_collapse():
    # the families overlap; duplicates are absorbed by canonical keys
    _, stats = enumerate_minimal_with_stats(3)
    classes = enumerate_minimal(3)
    assert len({c.key for c in classes}) == len(classes)
    assert sum(stats.duplicates.values()) > 0


def test_minimal_classes_have_two_independent_width_directions():
    # companion to the size-equals-width law: minimality forces a second
    # direction, which is what pins the polygon into the d-square
    for d in range(1, 7):
        for cls in enumerate_minimal(d):
            p = convex_hull(cls.canonical.vertices)
            assert len(lattice_width(p).directions) >= 2, cls.key


def test_t1_corner_classes_are_inscribed():
    for d in range(1, 7):
        for cls in enumerate_minimal(d):
            if cls.params.tag != "T1":
                continue
            x, y = cls.params["x"], cls.params["y"]
            if (x, y) == (d, 0):
                assert is_inscribed_in_hexagon(generate(cls.params), d, d)
            elif (x, y) == (0, d):
                assert is_inscribed_in_hexagon(generate(cls.params), d, 0)


# frozen on first run; guard the enumerator against silent drift
def test_width_9_regression_count():
    assert len(enumerate_minimal(9)) == 1285


def test_width_10_regression_count():
    assert len(enumerate_minimal(10)) == 2656


# measured with this enumerator, not taken from the paper: regression values
# only
@pytest.mark.skipif(
    not os.environ.get("LATWIDTH_SLOW"),
    reason="enumerating widths 11 and 12 takes several seconds; set LATWIDTH_SLOW=1 to run",
)
def test_large_width_regression_counts():
    assert len(enumerate_minimal(11)) == 5063
    assert len(enumerate_minimal(12)) == 9498


# classes and generated tuples at the widths up to the CLI's WIDTH_LIMIT;
# measured with this enumerator, not taken from the paper: regression values
# only
@pytest.mark.skipif(
    not os.environ.get("LATWIDTH_SLOW"),
    reason="enumerating widths 13 to 16 takes about 30 s; set LATWIDTH_SLOW=1 to run",
)
@pytest.mark.parametrize(
    "d, classes, tuples",
    [(13, 16_819, 160_783), (14, 29_098, 286_497), (15, 48_223, 490_432), (16, 78_088, 810_119)],
)
def test_regression_counts_up_to_the_width_limit(d, classes, tuples):
    found, stats = enumerate_minimal_with_stats(d)
    assert (len(found), sum(stats.generated.values())) == (classes, tuples)
