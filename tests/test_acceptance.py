"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import random
import time
from contextlib import contextmanager

import pytest

from latwidth import (
    TypeParams,
    apply_map,
    are_equivalent,
    boundary_point_count,
    brute_force_minimal,
    canonical_form,
    convex_hull,
    doubled_area,
    doubled_volume_bound,
    enumerate_minimal,
    four_direction_quadrangle,
    generate,
    is_inscribed_in_hexagon,
    lattice_points,
    lattice_size_square,
    lattice_width,
    point_bound,
    upsilon,
    verify_point_bound,
    verify_volume_bound,
)
from conftest import naive_lattice_width, random_polygon, random_unimodular, upsilon_lemma_witness

D_MAX = 8


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({time.time() - start:.1f}s)")


@pytest.fixture(scope="module")
def classes_by_width():
    return {d: enumerate_minimal(d) for d in range(0, D_MAX + 1)}


def rebuild(cls):
    return convex_hull(cls.canonical.vertices)


def test_criterion_01_unique_width_one_class():
    with criterion(1, "uniqueness at width 1"):
        start = time.time()
        enum = enumerate_minimal(1)
        oracle = brute_force_minimal(1)
        elapsed = time.time() - start
        simplex_key = canonical_form(convex_hull([(0, 0), (1, 0), (0, 1)])).byte_key
        assert [c.key for c in enum] == [simplex_key]
        assert [c.key for c in oracle] == [simplex_key]
        assert elapsed < 1.0


def test_criterion_02_oracle_equivalence():
    with criterion(2, "oracle equivalence d=0..4"):
        start = time.time()
        for d in range(0, 5):
            # key -> point count: the enumerator counts by Pick's theorem,
            # the oracle by listing lattice points
            enum_counts = {c.key: c.point_count for c in enumerate_minimal(d)}
            oracle_counts = {c.key: c.point_count for c in brute_force_minimal(d)}
            assert enum_counts == oracle_counts, f"d={d}"
        assert time.time() - start < 300.0


def test_criterion_03_lattice_point_bound():
    with criterion(3, "lattice point bound d=2..8"):
        start = time.time()
        for d in range(2, D_MAX + 1):
            rep = verify_point_bound(d)
            assert rep.holds
            assert rep.achieved == rep.bound_value == point_bound(d)
            simplex = canonical_form(
                generate(TypeParams("T1", d, (("x", 0), ("y", 0))))
            ).byte_key
            quad = canonical_form(
                convex_hull([(1, 0), (d, 1), (d - 1, d), (0, d - 1)])
            ).byte_key
            if d <= 5:
                assert simplex in rep.witnesses
            else:
                assert quad in rep.witnesses
        assert verify_point_bound(5).achieved == 21
        assert verify_point_bound(6).achieved == 29
        assert time.time() - start < 600.0


def test_criterion_04_volume_bound():
    with criterion(4, "volume bound d=1..8"):
        for d in range(1, D_MAX + 1):
            rep = verify_volume_bound(d)
            assert rep.holds
            expected = 3 * d * d // 4 if d % 2 == 0 else (3 * d * d + 1) // 4
            assert rep.achieved == rep.bound_value == doubled_volume_bound(d) == expected
            if d % 2 == 0:
                x, y = d // 2, d // 2
            else:
                x, y = (d - 1) // 2, (d + 1) // 2
            witness = canonical_form(
                generate(TypeParams("T1", d, (("x", x), ("y", y))))
            ).byte_key
            assert witness in rep.witnesses


def test_criterion_05_size_equals_width(classes_by_width):
    with criterion(5, "lattice size equals width d=1..8"):
        for d in range(1, D_MAX + 1):
            for cls in classes_by_width[d]:
                p = rebuild(cls)
                size = lattice_size_square(p)
                assert size.size == d, cls.key
                image = apply_map(size.witness, p)
                assert all(0 <= x <= d and 0 <= y <= d for x, y in image.vertices)


def test_criterion_06_upsilon_lemma_over_the_universe(universe):
    with criterion(6, "upsilon lemma over the d<=4 universe"):
        for d in range(1, 5):
            target = upsilon(d) if d >= 2 else None
            for p in universe[d]:
                hit = upsilon_lemma_witness(p)
                if hit is None:
                    continue
                assert target is not None, (d, p.vertices)
                assert are_equivalent(p, target) is not None, (d, p.vertices)


def test_criterion_07_two_directions_force_tight_size():
    with criterion(7, "two width directions force size = width"):
        rng = random.Random(0xD1CE)
        hits = 0
        while hits < 1000:
            p = random_polygon(rng, span=rng.choice((3, 4, 5, 6)), points=rng.choice((4, 5, 6)))
            res = lattice_width(p)
            if len(res.directions) < 2:
                continue
            hits += 1
            assert lattice_size_square(p).size == res.width, p.vertices


def test_criterion_08_four_direction_rigidity(classes_by_width):
    with criterion(8, "four-direction rigidity for even d<=8"):
        for d in (2, 4, 6, 8):
            quad = four_direction_quadrangle(d)
            assert len(lattice_width(quad).directions) == 4
            for cls in classes_by_width[d]:
                p = rebuild(cls)
                if len(lattice_width(p).directions) >= 4:
                    assert are_equivalent(p, quad) is not None, cls.key


def test_criterion_09_hexagon_inscription(classes_by_width):
    with criterion(9, "hexagon inscription of T3/T4/T5 classes"):
        seen = 0
        for d in range(0, D_MAX + 1):
            for cls in classes_by_width[d]:
                if cls.params.tag in ("T3", "T4", "T5"):
                    seen += 1
                    shoulder = cls.params["l"]
                    assert is_inscribed_in_hexagon(generate(cls.params), d, shoulder), cls.key
        assert seen > 0


def test_criterion_10_canonical_form_invariance():
    with criterion(10, "canonical form invariance and separation"):
        start = time.time()
        rng = random.Random(0xCAFE)
        for _ in range(1000):
            p = random_polygon(rng, span=6, points=5)
            m = random_unimodular(rng, magnitude=10)
            assert canonical_form(p).byte_key == canonical_form(apply_map(m, p)).byte_key
        distinct = 0
        while distinct < 1000:
            p = random_polygon(rng, span=6, points=5)
            q = random_polygon(rng, span=6, points=5)
            if (
                lattice_width(p).width != lattice_width(q).width
                or doubled_area(p) != doubled_area(q)
                or len(lattice_points(p)) != len(lattice_points(q))
            ):
                distinct += 1
                assert canonical_form(p).byte_key != canonical_form(q).byte_key
        assert time.time() - start < 30.0


def test_criterion_11_width_oracle_agreement():
    with criterion(11, "width agrees with the naive direction scan"):
        rng = random.Random(0xFEED)
        for _ in range(1000):
            p = random_polygon(rng, span=20, points=6)
            expected, _dirs = naive_lattice_width(p)
            assert lattice_width(p).width == expected, p.vertices


def test_criterion_12_pick_consistency():
    with criterion(12, "Pick consistency on random polygons"):
        rng = random.Random(0xBEEF)
        for _ in range(1000):
            p = random_polygon(rng, span=9, points=6)
            assert 2 * len(lattice_points(p)) == doubled_area(p) + boundary_point_count(p) + 2
