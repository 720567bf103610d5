"""The five-family classification of minimal polygons, made executable.

This module provides generators for the parameterized families T1..T5, the
circumscribing hexagon with its inscription test, and two independent
enumerators of minimal polygons of a given width: one driven by the family
parameter ranges, one by exhaustive search over all convex lattice polygons
fitting in the width-sized square.  Their agreement is the project's central
acceptance test.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from math import gcd
from typing import Iterator, Optional

from .canonical import CanonicalForm, _canonical_with_map, canonical_form
from .core import (
    OutOfRange,
    ParamOutOfRange,
    Polygon,
    UnimodularMap,
    Vec,
    contains_polygon,
    convex_hull,
    cross,
    doubled_area,
    lattice_point_count,
    lattice_points,
    sub,
)
from .minimal import is_minimal
from .width import iter_narrow_directions

TAGS = ("T1", "T2", "T3", "T4", "T5")


@dataclass(frozen=True)
class TypeParams:
    """One parameter tuple of a classification family.

    ``values`` holds (name, value) pairs sorted by name; the names per tag are
    T1: x,y  T2: x1,x2,y1,y2  T3: l,x,y,z  T4: l,x,y,z,zp
    T5: l,x1,x2,y1,y2,z1,z2.
    """

    tag: str
    d: int
    values: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)

    def __getitem__(self, name: str) -> int:
        return self.as_dict()[name]


@dataclass(frozen=True)
class MinimalClass:
    """A minimal-polygon equivalence class.

    ``params`` records one generating parameter tuple; it is None for classes
    produced by the classification-free brute-force search.
    """

    canonical: CanonicalForm
    params: Optional[TypeParams]
    point_count: int
    doubled_area: int

    @property
    def key(self) -> str:
        return self.canonical.byte_key


def _family_points(params: TypeParams) -> list[Vec]:
    d = params.d
    p = params.as_dict()
    tag = params.tag
    if tag == "T1":
        x, y = p["x"], p["y"]
        return [(0, 0), (d, y), (x, d)]
    if tag == "T2":
        x1, x2, y1, y2 = p["x1"], p["x2"], p["y1"], p["y2"]
        return [(x1, 0), (d, y2), (x2, d), (0, y1)]
    if tag == "T3":
        l, x, y, z = p["l"], p["x"], p["y"], p["z"]
        return [(0, 0), (l, 0), (d, y + d - l), (x + l, d), (z, z + d - l)]
    if tag == "T4":
        l, x, y, z, zp = p["l"], p["x"], p["y"], p["z"], p["zp"]
        return [(0, 0), (zp + l, zp), (d, y + d - l), (x + l, d), (z, z + d - l)]
    if tag == "T5":
        l = p["l"]
        x1, x2, y1, y2 = p["x1"], p["x2"], p["y1"], p["y2"]
        z1, z2 = p["z1"], p["z2"]
        return [
            (x1, 0),
            (z2 + l, z2),
            (d, d - l + y2),
            (x2 + l, d),
            (z1, z1 + d - l),
            (0, y1),
        ]
    raise ParamOutOfRange(f"unknown tag {tag!r}")


def _check_ranges(params: TypeParams) -> None:
    d = params.d
    p = params.as_dict()
    tag = params.tag

    def within(name, lo, hi):
        if not lo <= p[name] <= hi:
            raise ParamOutOfRange(f"{tag}: {name}={p[name]} outside [{lo}, {hi}]")

    if d < 0:
        raise ParamOutOfRange("width must be nonnegative")
    if tag == "T1":
        within("x", 0, d)
        within("y", 0, d)
        if p["x"] + p["y"] > d:
            raise ParamOutOfRange("T1 requires x + y <= d")
    elif tag == "T2":
        for name in ("x1", "x2", "y1", "y2"):
            within(name, 1, d - 1)
        x1, x2, y1, y2 = p["x1"], p["x2"], p["y1"], p["y2"]
        if max(x2, y2) < min(x1, y1) or max(d - x2, y1) < min(d - x1, y2):
            raise ParamOutOfRange("T2 side conditions violated")
    elif tag in ("T3", "T4", "T5"):
        within("l", 2, d - 2)
        l = p["l"]
        short = (1, l - 1)
        long = (1, d - l - 1)
        ranges = {
            "T3": {"x": long, "y": short, "z": short},
            "T4": {"x": long, "y": short, "z": short, "zp": long},
            "T5": {
                "x1": short,
                "x2": long,
                "y1": long,
                "y2": short,
                "z1": short,
                "z2": long,
            },
        }[tag]
        for name, (lo, hi) in ranges.items():
            within(name, lo, hi)
    else:
        raise ParamOutOfRange(f"unknown tag {tag!r}")


def generate(params: TypeParams) -> Polygon:
    """The literal convex hull of the family formula for these parameters."""
    _check_ranges(params)
    return convex_hull(_family_points(params))


def hexagon(d: int, l: int) -> Polygon:
    """The hexagon conv{(0,0),(l,0),(d,d-l),(d,d),(l,d),(0,d-l)}; degenerates
    to a triangle for l in {0, d}."""
    if d < 0 or not 0 <= l <= d:
        raise ParamOutOfRange("need 0 <= l <= d")
    return convex_hull([(0, 0), (l, 0), (d, d - l), (d, d), (l, d), (0, d - l)])


def is_inscribed_in_hexagon(p: Polygon, d: int, l: int) -> bool:
    """Whether p sits inside the hexagon with every hexagon side touched by a
    lattice point of p.

    Only p's vertices need testing: when p lies inside the hexagon, p meets
    the line of a side in a face of p inside that side, and the face's
    endpoints are vertices of p."""
    h = hexagon(d, l)
    if not contains_polygon(h, p):
        return False
    pts = p.vertices
    for a, b in h.edges():
        e = sub(b, a)
        if not any(
            cross(e, sub(q, a)) == 0
            and min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= q[1] <= max(a[1], b[1])
            for q in pts
        ):
            return False
    return True


def four_direction_quadrangle(d: int) -> Polygon:
    """conv{(d/2,0),(0,d/2),(d/2,d),(d,d/2)} -- the unique shape with four
    width directions; requires even d >= 2."""
    if d < 2 or d % 2:
        raise OutOfRange("defined for even d >= 2")
    h = d // 2
    return convex_hull([(h, 0), (0, h), (h, d), (d, h)])


# --- family-driven enumeration ------------------------------------------------


def iter_type_params(d: int) -> Iterator[TypeParams]:
    """All in-range parameter tuples for width d, in deterministic order:
    tags T1..T5, values in nested ascending loops over name-sorted fields."""
    for x in range(d + 1):
        for y in range(d + 1 - x):
            yield TypeParams("T1", d, (("x", x), ("y", y)))
    for x1 in range(1, d):
        for x2 in range(1, d):
            for y1 in range(1, d):
                for y2 in range(1, d):
                    if max(x2, y2) >= min(x1, y1) and max(d - x2, y1) >= min(d - x1, y2):
                        yield TypeParams(
                            "T2", d, (("x1", x1), ("x2", x2), ("y1", y1), ("y2", y2))
                        )
    for l in range(2, d - 1):
        for x in range(1, d - l):
            for y in range(1, l):
                for z in range(1, l):
                    yield TypeParams("T3", d, (("l", l), ("x", x), ("y", y), ("z", z)))
    for l in range(2, d - 1):
        for x in range(1, d - l):
            for y in range(1, l):
                for z in range(1, l):
                    for zp in range(1, d - l):
                        yield TypeParams(
                            "T4", d, (("l", l), ("x", x), ("y", y), ("z", z), ("zp", zp))
                        )
    for l in range(2, d - 1):
        for x1 in range(1, l):
            for x2 in range(1, d - l):
                for y1 in range(1, d - l):
                    for y2 in range(1, l):
                        for z1 in range(1, l):
                            for z2 in range(1, d - l):
                                yield TypeParams(
                                    "T5",
                                    d,
                                    (
                                        ("l", l),
                                        ("x1", x1),
                                        ("x2", x2),
                                        ("y1", y1),
                                        ("y2", y2),
                                        ("z1", z1),
                                        ("z2", z2),
                                    ),
                                )


@dataclass
class EnumerationStats:
    """Per-tag bookkeeping for one enumeration run."""

    generated: dict[str, int]
    non_minimal: dict[str, int]
    wrong_width: dict[str, int]
    duplicates: dict[str, int]

    @classmethod
    def empty(cls) -> "EnumerationStats":
        return cls(*(defaultdict(int) for _ in range(4)))


def enumerate_minimal_with_stats(
    d: int,
) -> tuple[tuple[MinimalClass, ...], EnumerationStats]:
    """Family-driven enumeration of all minimal classes of width d.

    Every in-range parameter tuple is generated and keyed by its canonical
    form.  A key already stored is a duplicate and skips the minimality
    test: minimality and width are class invariants, and a key is stored
    only after passing both.  A new key is filtered for minimality and for
    width exactly d; the first tuple hitting a class (smallest (tag, values))
    is the stored representative.
    """
    if d < 0:
        raise OutOfRange("width must be nonnegative")
    stats = EnumerationStats.empty()
    classes: dict[str, MinimalClass] = {}
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


@lru_cache(maxsize=None)
def _enumerate_cached(d: int) -> tuple[MinimalClass, ...]:
    return enumerate_minimal_with_stats(d)[0]


def enumerate_minimal(d: int) -> list[MinimalClass]:
    """Minimal classes of width d from the family generators, sorted by
    (point count, canonical key)."""
    return list(_enumerate_cached(d))


# --- exhaustive square search (the oracle) ------------------------------------

BRUTE_FORCE_LIMIT = 4


def _angle_ascending(a: Vec, b: Vec) -> int:
    c = cross(a, b)
    return -1 if c > 0 else (1 if c < 0 else 0)


@lru_cache(maxsize=None)
def _first_quadrant_chain_table(d: int):
    """Convex edge chains from first-quadrant primitive directions, keyed by
    total displacement (<= d in each coordinate)."""
    dirs = sorted(
        (
            (x, y)
            for x in range(1, d + 1)
            for y in range(0, d + 1)
            if gcd(x, y) == 1
        ),
        key=cmp_to_key(_angle_ascending),
    )
    table: dict[Vec, list[tuple[Vec, ...]]] = defaultdict(list)

    def rec(i: int, sx: int, sy: int, edges: list[Vec]) -> None:
        if i == len(dirs):
            table[(sx, sy)].append(tuple(edges))
            return
        rec(i + 1, sx, sy, edges)
        vx, vy = dirs[i]
        k = 1
        while sx + k * vx <= d and sy + k * vy <= d:
            edges.append((k * vx, k * vy))
            rec(i + 1, sx + k * vx, sy + k * vy, edges)
            edges.pop()
            k += 1

    rec(0, 0, 0, [])
    return dict(table)


def iter_convex_polygons(d: int) -> Iterator[Polygon]:
    """All 2-dimensional convex lattice polygons whose bounding box is exactly
    [0,d] x [0,d], each exactly once (up to translation).

    Polygons are assembled from four angle-sorted edge chains, one per
    quadrant of directions; only exact-extent polygons matter for width-d
    searches since any smaller extent already forces a width below d.
    """
    if d < 1:
        raise OutOfRange("need d >= 1")
    base = _first_quadrant_chain_table(d)
    turn = lambda ch: tuple((-ey, ex) for ex, ey in ch)
    q2 = {k: [turn(ch) for ch in v] for k, v in base.items()}
    q3 = {k: [turn(turn(ch)) for ch in v] for k, v in base.items()}
    q4 = {k: [turn(turn(turn(ch))) for ch in v] for k, v in base.items()}

    span = range(d + 1)
    for a1 in span:
        a4 = d - a1
        for b1 in span:
            right = base.get((a1, b1))
            if not right:
                continue
            b2 = d - b1
            for A2 in span:
                up = q2.get((b2, A2))
                if not up:
                    continue
                A3 = d - A2
                for B3 in span:
                    left = q3.get((A3, B3))
                    if not left:
                        continue
                    down = q4.get((d - B3, a4))
                    if not down:
                        continue
                    for c1 in right:
                        for c2 in up:
                            for c3 in left:
                                for c4 in down:
                                    edges = c1 + c2 + c3 + c4
                                    if len(edges) < 3:
                                        continue
                                    x, y = d - a1, 0
                                    cycle = []
                                    for ex, ey in edges:
                                        cycle.append((x, y))
                                        x += ex
                                        y += ey
                                    pivot = cycle.index(min(cycle))
                                    yield Polygon(tuple(cycle[pivot:] + cycle[:pivot]))


def _width_is_exactly(p: Polygon, d: int) -> bool:
    """Fast check for polygons with both extents d: is the width d (i.e. no
    direction narrower than d)?"""
    vs = p.vertices
    for vx, vy in ((1, 1), (1, -1)):  # cheap early rejections
        products = [x * vx + y * vy for x, y in vs]
        if max(products) - min(products) < d:
            return False
    return next(iter_narrow_directions(p, d - 1), None) is None


def iter_full_width_polygons(d: int) -> Iterator[Polygon]:
    """All convex lattice polygons fitting in the d-square whose lattice width
    is exactly d, up to translation (the brute-force universe)."""
    if d < 0:
        raise OutOfRange("width must be nonnegative")
    if d == 0:
        yield Polygon(((0, 0),))
        return
    for p in iter_convex_polygons(d):
        if _width_is_exactly(p, d):
            yield p


def brute_force_minimal(d: int) -> list[MinimalClass]:
    """Classification-free oracle: exhaustively search the d-square for
    minimal polygons of width d and deduplicate by canonical form."""
    if not 0 <= d <= BRUTE_FORCE_LIMIT:
        raise OutOfRange(f"brute force is capped at d <= {BRUTE_FORCE_LIMIT}")
    classes: dict[str, MinimalClass] = {}
    for p in iter_full_width_polygons(d):
        if not is_minimal(p).is_minimal:
            continue
        form = canonical_form(p)
        key = form.byte_key
        if key not in classes:
            classes[key] = MinimalClass(
                form, None, len(lattice_points(p)), doubled_area(p)
            )
    return sorted(classes.values(), key=lambda c: (c.point_count, c.key))


# --- recognition ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _class_table(d: int) -> dict[str, MinimalClass]:
    return {c.key: c for c in _enumerate_cached(d)}


def classify_polygon(p: Polygon) -> Optional[tuple[MinimalClass, UnimodularMap]]:
    """Recognize a minimal polygon: its class plus the witness map onto the
    class representative.  Returns None for non-minimal polygons."""
    report = is_minimal(p)
    if not report.is_minimal:
        return None
    form, to_canonical = _canonical_with_map(p)
    table = _class_table(report.width)
    cls = table.get(form.byte_key)
    if cls is None:
        raise LookupError(
            f"minimal polygon of width {report.width} missing from the "
            f"classification table (key {form.byte_key})"
        )
    return cls, to_canonical
