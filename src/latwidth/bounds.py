"""Machine verification of the sharp lattice-point and area bounds for
minimal polygons, and of the structure properties ``latwidth verify``
reports, over the enumerated classes of each width."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .canonical import are_equivalent
from .classify import (
    brute_force_minimal,
    enumerate_minimal,
    four_direction_quadrangle,
    generate,
    is_inscribed_in_hexagon,
)
from .core import OutOfRange, polygon_from_cycle
from .width import lattice_size_square, lattice_width


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one bound against all classes of one width."""

    d: int
    bound_value: int
    achieved: int
    witnesses: tuple[str, ...]
    holds: bool


def point_bound(d: int) -> int:
    """max((d-1)^2 + 4, (d+1)(d+2)/2): the lattice-point ceiling for minimal
    polygons of width d >= 2."""
    if d < 2:
        raise OutOfRange("the point bound assumes width > 1")
    return max((d - 1) ** 2 + 4, (d + 1) * (d + 2) // 2)


def doubled_volume_bound(d: int) -> int:
    """Integer floor on doubled area: 3d^2/4 for even d, (3d^2 + 1)/4 for odd."""
    if d < 1:
        raise OutOfRange("the volume bound assumes positive width")
    if d % 2 == 0:
        return 3 * d * d // 4
    return (3 * d * d + 1) // 4


def verify_point_bound(d: int) -> BoundReport:
    """Check every width-d class against the point bound; report the maximum
    reached and which classes reach it."""
    bound = point_bound(d)
    found = enumerate_minimal(d)
    achieved = max(c.point_count for c in found)
    witnesses = tuple(c.key for c in found if c.point_count == achieved)
    return BoundReport(d, bound, achieved, witnesses, achieved <= bound)


def verify_volume_bound(d: int) -> BoundReport:
    """Check every width-d class against the doubled-area floor; report the
    minimum reached and which classes reach it."""
    bound = doubled_volume_bound(d)
    found = enumerate_minimal(d)
    achieved = min(c.doubled_area for c in found)
    witnesses = tuple(c.key for c in found if c.doubled_area == achieved)
    return BoundReport(d, bound, achieved, witnesses, achieved >= bound)


def verify_width(
    d: int, oracle: bool = False
) -> list[tuple[str, Optional[bool], str, Optional[BoundReport]]]:
    """Each property ``latwidth verify`` checks over the width-d classes, in
    order, as (name, passed, detail, report) tuples.

    ``passed`` is None where a bound does not apply to width d; ``report``
    is the BoundReport of a bound check, else None.  A bound passes when it
    holds and is reached.  For d >= 1 every class has lattice size d (the
    witness maps it into [0, d]^2); for even d >= 2 every class with four
    width directions is ``four_direction_quadrangle(d)``; every T3..T5 class
    is inscribed in the hexagon of its shoulder; and with ``oracle``
    (d <= BRUTE_FORCE_LIMIT) the class keys are those of the brute force.
    The three structure properties are checked in one pass over the
    classes, on one polygon per class.
    """
    classes = enumerate_minimal(d)
    checks = []
    for name, low, verify in (
        ("volume-bound", 1, verify_volume_bound),
        ("point-bound", 2, verify_point_bound),
    ):
        if d < low:
            checks.append((name, None, "", None))
        else:
            rep = verify(d)
            passed = rep.holds and rep.achieved == rep.bound_value
            detail = f"bound={rep.bound_value} achieved={rep.achieved}"
            checks.append((name, passed, detail, rep))

    if d >= 1:
        quad = four_direction_quadrangle(d) if d % 2 == 0 else None
        rigid = quad is None or len(lattice_width(quad).directions) == 4
        sized = inscribed = True
        hex_count = 0
        for c in classes:
            p = polygon_from_cycle(c.canonical.vertices)
            size = lattice_size_square(p)
            sized = sized and size.size == d and all(
                0 <= x <= d and 0 <= y <= d for x, y in map(size.witness.apply, p.vertices)
            )
            # right after the size, so the reduction memo serves the width
            if quad is not None and len(lattice_width(p).directions) >= 4:
                rigid = rigid and are_equivalent(p, quad) is not None
            l = c.params.as_dict().get("l")
            if l is not None:
                hex_count += 1
                inscribed = inscribed and is_inscribed_in_hexagon(generate(c.params), d, l)
        checks.append(("lattice-size-equals-width", sized, f"classes={len(classes)}", None))
        if quad is not None:
            checks.append(("four-direction-rigidity", rigid, "", None))
        checks.append(("hexagon-inscription", inscribed, f"classes={hex_count}", None))

    if oracle:
        oracle_keys = {c.key for c in brute_force_minimal(d)}
        keys = {c.key for c in classes}
        detail = f"classes={len(keys)} oracle={len(oracle_keys)}"
        checks.append(("oracle-equivalence", keys == oracle_keys, detail, None))
    return checks
