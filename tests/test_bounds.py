from dataclasses import replace

import pytest

from latwidth import (
    OutOfRange,
    TypeParams,
    canonical_form,
    convex_hull,
    doubled_area,
    doubled_volume_bound,
    enumerate_minimal,
    four_direction_quadrangle,
    generate,
    iter_type_params,
    lattice_width,
    point_bound,
    verify_point_bound,
    verify_volume_bound,
    verify_width,
)
from conftest import random_polygon


def test_point_bound_values():
    assert point_bound(2) == 6
    assert point_bound(5) == 21
    assert point_bound(6) == 29
    with pytest.raises(OutOfRange):
        point_bound(1)


def test_point_bound_crossover():
    # the triangular term wins up to d = 5, the square term from d = 6 on
    for d in range(2, 30):
        tri = (d + 1) * (d + 2) // 2
        sq = (d - 1) ** 2 + 4
        assert point_bound(d) == (tri if d <= 5 else sq)
        assert (tri >= sq) == (d <= 5)


def test_doubled_volume_bound_values():
    assert doubled_volume_bound(4) == 12
    assert doubled_volume_bound(3) == 7
    assert doubled_volume_bound(1) == 1
    with pytest.raises(OutOfRange):
        doubled_volume_bound(0)


def test_verify_point_bound_small():
    rep = verify_point_bound(2)
    assert rep.holds and rep.achieved == rep.bound_value == 6
    simplex_key = canonical_form(convex_hull([(0, 0), (2, 0), (0, 2)])).byte_key
    assert simplex_key in rep.witnesses

    rep3 = verify_point_bound(3)
    assert rep3.holds and rep3.achieved == 10


def test_verify_volume_bound_small():
    rep = verify_volume_bound(2)
    assert rep.holds and rep.achieved == rep.bound_value == 3
    ups_key = canonical_form(
        generate(TypeParams("T1", 2, (("x", 1), ("y", 1))))
    ).byte_key
    assert ups_key in rep.witnesses


def test_t1_volume_witnesses_hit_the_floor():
    for d in range(1, 7):
        if d % 2 == 0:
            p = generate(TypeParams("T1", d, (("x", d // 2), ("y", d // 2))))
        else:
            p = generate(TypeParams("T1", d, (("x", (d - 1) // 2), ("y", (d + 1) // 2))))
        assert doubled_area(p) == doubled_volume_bound(d)


def test_volume_bound_spot_check_on_random_polygons(rng):
    # the floor holds for arbitrary polygons, not just minimal ones
    for _ in range(1000):
        p = random_polygon(rng, span=7, points=5)
        d = lattice_width(p).width
        if d >= 1:
            assert doubled_area(p) >= doubled_volume_bound(d)


def test_reports_carry_classes(rng):
    classes = enumerate_minimal(3)
    rep = verify_point_bound(3)
    known = {c.key for c in classes}
    assert set(rep.witnesses) <= known


def test_verify_width_lists_the_checks_in_order():
    assert verify_width(0) == [
        ("volume-bound", None, "", None),
        ("point-bound", None, "", None),
    ]
    checks = verify_width(4, oracle=True)
    assert [name for name, *_ in checks] == [
        "volume-bound",
        "point-bound",
        "lattice-size-equals-width",
        "four-direction-rigidity",
        "hexagon-inscription",
        "oracle-equivalence",
    ]
    assert all(passed for _, passed, _, _ in checks)
    assert [report for *_, report in checks[:2]] == [verify_volume_bound(4), verify_point_bound(4)]
    assert checks[0][2] == "bound=12 achieved=12"
    assert checks[5][2] == "classes=22 oracle=22"


def _failing_checks(monkeypatch, d, classes, oracle=False):
    # verify_width and both bound checks read the classes through this name
    monkeypatch.setattr("latwidth.bounds.enumerate_minimal", lambda width: list(classes))
    return {name for name, passed, _, _ in verify_width(d, oracle) if passed is False}


def test_each_verify_check_can_fail(monkeypatch):
    # a width-1 class traded for a triangle of width 1 and lattice size 5
    classes = enumerate_minimal(1)
    thin = canonical_form(convex_hull([(0, 0), (5, 0), (0, 1)]))
    corrupt = [replace(classes[0], canonical=thin)]
    assert _failing_checks(monkeypatch, 1, corrupt) == {"lattice-size-equals-width"}

    # a polygon with four width directions that is not the width-4 quadrangle;
    # the only such polygons have another width, so the size check fails too
    classes = enumerate_minimal(4)
    quad = canonical_form(four_direction_quadrangle(2))
    corrupt = classes + [replace(classes[-1], canonical=quad)]
    assert _failing_checks(monkeypatch, 4, corrupt) == {
        "lattice-size-equals-width",
        "four-direction-rigidity",
    }

    # a width-5 T3 class whose parameters generate a width-4 polygon, which
    # cannot touch the far sides of a width-5 hexagon
    classes = enumerate_minimal(5)
    i = next(i for i, c in enumerate(classes) if c.params.tag == "T3")
    t3_of_width_4 = next(t for t in iter_type_params(4) if t.tag == "T3")
    corrupt = list(classes)
    corrupt[i] = replace(classes[i], params=t3_of_width_4)
    assert _failing_checks(monkeypatch, 5, corrupt) == {"hexagon-inscription"}

    # a point count above the ceiling, then a doubled area below the floor
    classes = enumerate_minimal(3)
    corrupt = classes[:-1] + [replace(classes[-1], point_count=point_bound(3) + 1)]
    assert _failing_checks(monkeypatch, 3, corrupt) == {"point-bound"}
    corrupt = [replace(classes[0], doubled_area=doubled_volume_bound(3) - 1)] + classes[1:]
    assert _failing_checks(monkeypatch, 3, corrupt) == {"volume-bound"}

    # a bound that holds but is not reached is not sharp, so it fails too
    low = [c for c in classes if c.point_count < point_bound(3)]
    assert _failing_checks(monkeypatch, 3, low) == {"point-bound"}

    # a class the brute-force search does not find
    classes = enumerate_minimal(2)
    extra = replace(classes[0], canonical=canonical_form(convex_hull([(0, 0), (2, 0), (0, 1)])))
    assert "oracle-equivalence" in _failing_checks(monkeypatch, 2, classes + [extra], oracle=True)
