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
from functools import lru_cache
from itertools import product
from math import gcd
from typing import Iterator, Optional, Sequence

from .canonical import CanonicalForm, _canonical_with_map, canonical_form
from .core import (
    OutOfRange,
    ParamOutOfRange,
    Polygon,
    UnimodularMap,
    Vec,
    convex_hull,
    doubled_area,
    lattice_point_count,
    polygon_from_cycle,
)
from .minimal import MinimalityReport, is_minimal
from .width import _standard_reduction, sort_directions

# field names of each family, sorted; T3..T5 lead with the shoulder l
_FIELD_NAMES = {
    "T1": ("x", "y"),
    "T2": ("x1", "x2", "y1", "y2"),
    "T3": ("l", "x", "y", "z"),
    "T4": ("l", "x", "y", "z", "zp"),
    "T5": ("l", "x1", "x2", "y1", "y2", "z1", "z2"),
}
TAGS = tuple(_FIELD_NAMES)


@dataclass(frozen=True)
class TypeParams:
    """One parameter tuple of a classification family.

    ``values`` holds (name, value) pairs sorted by name.  The names per tag
    are in ``_FIELD_NAMES`` and their ranges in ``_field_ranges`` (plus the
    side conditions of ``_side_conditions_hold``); for T3..T5 the shoulder
    l runs over 2..d-2.
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


def _family_points(tag: str, d: int, v: Sequence[int]) -> list[Vec]:
    # the values v are in the name order of _FIELD_NAMES
    if tag == "T1":
        x, y = v
        return [(0, 0), (d, y), (x, d)]
    if tag == "T2":
        x1, x2, y1, y2 = v
        return [(x1, 0), (d, y2), (x2, d), (0, y1)]
    if tag == "T3":
        l, x, y, z = v
        return [(0, 0), (l, 0), (d, y + d - l), (x + l, d), (z, z + d - l)]
    if tag == "T4":
        l, x, y, z, zp = v
        return [(0, 0), (zp + l, zp), (d, y + d - l), (x + l, d), (z, z + d - l)]
    if tag == "T5":
        l, x1, x2, y1, y2, z1, z2 = v
        return [
            (x1, 0),
            (z2 + l, z2),
            (d, d - l + y2),
            (x2 + l, d),
            (z1, z1 + d - l),
            (0, y1),
        ]
    raise ParamOutOfRange(f"unknown tag {tag!r}")


def _field_ranges(tag: str, d: int, l: int) -> tuple[range, ...]:
    """The range of every field of ``tag`` other than the shoulder l, in name
    order.  For T3..T5 the shoulder splits a side of the d-square into a short
    part (1..l-1) and a long part (1..d-l-1); T1 and T2 ignore l."""
    short, long = range(1, l), range(1, d - l)
    return {
        "T1": (range(d + 1),) * 2,
        "T2": (range(1, d),) * 4,
        "T3": (long, short, short),
        "T4": (long, short, short, long),
        "T5": (short, long, long, short, short, long),
    }[tag]


def _side_conditions_hold(tag: str, d: int, values: tuple[int, ...]) -> bool:
    """The conditions beyond the field ranges, on the fields other than l."""
    if tag == "T1":
        x, y = values
        return x + y <= d
    if tag == "T2":
        x1, x2, y1, y2 = values
        return max(x2, y2) >= min(x1, y1) and max(d - x2, y1) >= min(d - x1, y2)
    return True


def _shoulders(tag: str, d: int) -> Sequence[int]:
    # a single placeholder l = 0 for the families without a shoulder
    return range(2, d - 1) if _FIELD_NAMES[tag][0] == "l" else (0,)


def _check_ranges(params: TypeParams) -> None:
    tag, d = params.tag, params.d
    if tag not in _FIELD_NAMES:
        raise ParamOutOfRange(f"unknown tag {tag!r}")
    if d < 0:
        raise ParamOutOfRange("width must be nonnegative")
    names = tuple(name for name, _ in params.values)
    if names != _FIELD_NAMES[tag]:
        raise ParamOutOfRange(f"{tag} needs the fields {_FIELD_NAMES[tag]}, got {names}")
    values = tuple(value for _, value in params.values)
    l = 0
    if names[0] == "l":
        l, names, values = values[0], names[1:], values[1:]
        if l not in _shoulders(tag, d):
            raise ParamOutOfRange(f"{tag}: l={l} outside [2, {d - 2}]")
    for name, value, span in zip(names, values, _field_ranges(tag, d, l)):
        if value not in span:
            raise ParamOutOfRange(
                f"{tag}: {name}={value} outside [{span.start}, {span.stop - 1}]"
            )
    if not _side_conditions_hold(tag, d, values):
        raise ParamOutOfRange(f"{tag} side conditions violated")


def generate(params: TypeParams) -> Polygon:
    """The convex hull of the family formula for these parameters.

    For d >= 1 the formula points are already the hull's vertex cycle, so
    only the rotation to the smallest vertex is missing.  T1 is (0,0),
    (d,y), (x,d) with x + y <= d, a counterclockwise triangle of doubled
    area d^2 - xy > 0.  T2 puts one point inside each side of the square
    [0,d]^2, and T3..T5 put theirs on the hexagon (d, l), each inside a
    side or at a corner, in the sides' counterclockwise order.  Points met
    in that order along the boundary of a convex polygon are in convex
    position, and three of them are collinear only on a common side, which
    no three consecutive formula points share.  At d = 0, T1 repeats the
    origin, and the hull is that point."""
    _check_ranges(params)
    values = [value for _, value in params.values]
    return _family_polygon(_family_points(params.tag, params.d, values), params.d)


def _family_polygon(points: list[Vec], d: int) -> Polygon:
    # generate's polygon of in-range formula points, without the range check
    if d == 0:
        return convex_hull(points)
    return polygon_from_cycle(points)


def hexagon(d: int, l: int) -> Polygon:
    """The hexagon conv{(0,0),(l,0),(d,d-l),(d,d),(l,d),(0,d-l)}; degenerates
    to a triangle for l in {0, d}."""
    if d < 0 or not 0 <= l <= d:
        raise ParamOutOfRange(f"the hexagon needs 0 <= l <= d, got l={l}, d={d}")
    return convex_hull([(0, 0), (l, 0), (d, d - l), (d, d), (l, d), (0, d - l)])


def is_inscribed_in_hexagon(p: Polygon, d: int, l: int) -> bool:
    """Whether p sits inside the hexagon (d, l) with every hexagon side of
    positive lattice length touched by a lattice point of p.

    The hexagon is 0 <= x, y <= d with l - d <= x - y <= l.  Its sides lie
    on y = 0, x - y = l, x = d, y = d, x - y = l - d and x = 0, in
    counterclockwise order, with lattice lengths l, d - l, l, d - l, l and
    d - l; at l = 0 or l = d three of them shrink to corners and the
    hexagon is a triangle.  Only p's vertices need testing: a linear
    function on p is bounded by its values at the vertices, and when p lies
    inside the hexagon, a side's line meets p in a face of p whose
    endpoints are vertices of p."""
    if d < 0 or not 0 <= l <= d:
        raise ParamOutOfRange("need 0 <= l <= d")
    # per vertex, the slack of each side's inequality, in the order above
    slacks = [(y, l - x + y, d - x, d - y, x - y + d - l, x) for x, y in p.vertices]
    return all(
        low >= 0 and (low == 0 or length == 0)
        for low, length in zip(map(min, zip(*slacks)), (l, d - l) * 3)
    )


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
    tags T1..T5, then the shoulder l, then the other fields ascending in name
    order."""
    for tag, values in _iter_values(d):
        yield TypeParams(tag, d, tuple(zip(_FIELD_NAMES[tag], values)))


def _iter_values(d: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    # the tag and the values in name order of every iter_type_params tuple
    for tag, names in _FIELD_NAMES.items():
        for l in _shoulders(tag, d):
            head = (l,) if names[0] == "l" else ()
            for values in product(*_field_ranges(tag, d, l)):
                # side conditions bind only T1 and T2, the tags without l
                if head or _side_conditions_hold(tag, d, values):
                    yield tag, head + values


def _dihedral(
    sides: tuple[int, ...], lengths: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The images of one point inside each side of a polygon under the
    rotations and reflections of its cycle of sides.

    ``sides[i]`` is the lattice distance of the point on side i from the
    side's counterclockwise start, and ``lengths[i]`` is the side's lattice
    length.  Yields, for each start side s, the distances read
    counterclockwise from side s and clockwise from side s (a point at
    distance a then sits at distance length - a), each with the length of
    side s, which becomes side 0 of the image."""
    n = len(sides)
    # read clockwise from side n - 1, each distance taken from the other end
    back = tuple(length - a for a, length in zip(sides, lengths))[::-1]
    for s in range(n):
        t = n - 1 - s
        yield sides[s:] + sides[:s], lengths[s]
        yield back[t:] + back[:t], lengths[s]


def _orbit(tag: str, d: int, values: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The values of the tuples of ``tag`` whose formula points are the
    images of this tuple's under the lattice symmetries of the square
    [0, d]^2 and, for T3..T5, of the hexagons (d, l), this tuple included.

    Each map below is a unimodular map of the plane, so the tuples of one
    orbit share a canonical form.  The maps of each tag form a group, so
    the orbits part the tuples of the tag; they never join two tags.

    T1 is the corner (0,0) with (d,y) and (x,d).  The swap (x,y) -> (y,x)
    keeps it a T1.  Another symmetry of the square sends (0,0) to a corner
    other than (0,0), so its image contains (0,0) only if another corner
    of the square is a formula point, which needs x = 0 or y = 0; then the
    reflection x -> d - x (for y = 0) or y -> d - y (for x = 0) gives the
    rest of the orbit.

    T2 is one point inside each side of the square, at distances x1, y2,
    d - x2 and d - y1 from the sides' counterclockwise starts, and the 8
    symmetries of the square are the rotations and reflections of that
    cycle of sides (``_dihedral``).  The side conditions say that the
    widths in the directions (1, 1) and (1, -1) are at least d, and the
    symmetries permute those two directions, so every image is a T2.

    T3..T5 lie on the boundary of the hexagon (d, l), whose sides, from
    (0,0) counterclockwise, have the lattice lengths l, d - l, l, d - l, l
    and d - l.  The rotation rho_l(x, y) = (d - y, x - y + d - l) has
    determinant 1 and order 3 and maps each hexagon side to the side two
    further on; the half turn (d - x, d - y) and the swap (y, x) map the
    hexagon (d, l) onto the hexagon (d, d - l), as a turn by three sides and
    a reflection of the side cycle.  Together they act on the side cycle as
    all 12 of its rotations and reflections, a turn by an odd number of
    sides trading l for d - l.  T5 is one point inside each side, at
    distances x1, z2, y2, d - l - x2, l - z1 and d - l - y1, so all 12 give
    T5s.  T4 is the corner (0,0) and points inside the four sides that do
    not touch it; only the reflection fixing that corner, the swap, keeps
    this shape.  T3 is the corners (0,0) and (l,0) and points inside the
    three sides that touch neither; only the reflection of the side between the
    two corners, rho_l followed by (x, y) -> (d - y, d - x), keeps it."""
    if tag == "T1":
        x, y = values
        if x and y:
            return {values, (y, x)}
        m = x + y
        return {(m, 0), (0, m), (d - m, 0), (0, d - m)}
    if tag == "T2":
        x1, x2, y1, y2 = values
        return {
            (a, d - c, d - e, b)
            for (a, b, c, e), _ in _dihedral((x1, y2, d - x2, d - y1), (d,) * 4)
        }
    if tag == "T3":
        l, x, y, z = values
        return {values, (l, d - l - x, z, y)}
    if tag == "T4":
        l, x, y, z, zp = values
        return {values, (d - l, y, x, zp, z)}
    l, x1, x2, y1, y2, z1, z2 = values
    return {
        (k, a0, d - k - a3, d - k - a5, a2, k - a4, a1)
        for (a0, a1, a2, a3, a4, a5), k in _dihedral(
            (x1, z2, y2, d - l - x2, l - z1, d - l - y1), (l, d - l) * 3
        )
    }


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

    The tuples are those of ``iter_type_params``, drawn from the very
    ranges and side conditions that ``generate`` checks, so the polygons
    are built without that check, and a ``TypeParams`` is built only for a
    stored representative.

    Every family polygon lies in [0, d]^2, and most tuples give an image of
    an earlier tuple's polygon under a symmetry of that square or, for
    T3..T5, of the hexagon (d, l).  ``_orbit`` lists these images as maps
    on the parameter values, so the tuples fall into orbits whose polygons
    are unimodular images of one another.  The walk builds a polygon only
    for the first tuple of each orbit in ``iter_type_params`` order.  That
    tuple is keyed by its canonical form; a key already stored is a
    duplicate, and a new key is filtered for minimality and for width
    exactly d and is stored if it passes.  Its outcome then waits in
    ``pending`` under every later tuple of the orbit, and a tuple found
    there builds nothing and counts that outcome.

    The stats and classes are those of keying every tuple afresh.  The
    canonical form, minimality and width are class invariants, so all the
    tuples of an orbit are duplicates, non-minimal or of the wrong width
    with its first tuple, except that the tuple storing a class has its
    later orbit mates as duplicates.  Each tuple still counts once, under
    its own tag, because orbits never join two tags.  The stored
    representative is the first tuple of its class: an earlier tuple of
    the class would be in another orbit, and keyed before it.  Tuples of
    different orbits in one class are still caught by the class key.
    """
    if d < 0:
        raise OutOfRange("width must be nonnegative")
    stats = EnumerationStats.empty()
    classes: dict[str, MinimalClass] = {}
    pending: dict[tuple[str, tuple[int, ...]], dict[str, int]] = {}
    for item in _iter_values(d):
        tag, values = item
        stats.generated[tag] += 1
        outcome = pending.pop(item, None)
        if outcome is not None:
            outcome[tag] += 1
            continue
        poly = _family_polygon(_family_points(tag, d, values), d)
        form = canonical_form(poly)
        key = form.byte_key
        outcome = stats.duplicates  # the outcome of the orbit's later tuples
        if key in classes:
            outcome[tag] += 1
        else:
            report = is_minimal(poly)
            if report.is_minimal and report.width == d:
                params = TypeParams(tag, d, tuple(zip(_FIELD_NAMES[tag], values)))
                classes[key] = MinimalClass(
                    form, params, lattice_point_count(poly), doubled_area(poly)
                )
            else:
                outcome = stats.wrong_width if report.is_minimal else stats.non_minimal
                outcome[tag] += 1
        for image in _orbit(tag, d, values):
            if image != values:
                pending[tag, image] = outcome
    ordered = sorted(classes.values(), key=lambda c: (c.point_count, c.key))
    return tuple(ordered), stats


@lru_cache(maxsize=None)
def _class_table(d: int) -> dict[str, MinimalClass]:
    """The minimal classes of width d by canonical key, in the enumerator's
    order."""
    return {c.key: c for c in enumerate_minimal_with_stats(d)[0]}


def enumerate_minimal(d: int) -> list[MinimalClass]:
    """Minimal classes of width d from the family generators, sorted by
    (point count, canonical key)."""
    return list(_class_table(d).values())


# --- exhaustive square search (the oracle) ------------------------------------

BRUTE_FORCE_LIMIT = 4


def _first_quadrant_chain_table(d: int):
    """Convex edge chains from first-quadrant primitive directions, keyed by
    total displacement (<= d in each coordinate)."""
    dirs = sort_directions(
        (x, y) for x in range(1, d + 1) for y in range(0, d + 1) if gcd(x, y) == 1
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
    quadrant of directions.  The chains of each quadrant are those of the
    one before turned by 90 degrees, keyed by their displacement before the
    turn.  The keys (a1, b1), (d - b1, a2), (d - a2, b3) and (d - b3,
    d - a1) close the boundary with both extents d, so one ``product`` walks
    the four free keys in lexicographic order, and a second one the chains
    of each key tuple; the boundary starts at (d - a1, 0).  Only
    exact-extent polygons matter for width-d searches since any smaller
    extent already forces a width below d.
    """
    if d < 1:
        raise OutOfRange("need d >= 1")
    tables = [_first_quadrant_chain_table(d)]
    for _ in range(3):
        tables.append(
            {k: [tuple((-ey, ex) for ex, ey in ch) for ch in v] for k, v in tables[-1].items()}
        )
    right, up, left, down = tables
    for a1, b1, a2, b3 in product(range(d + 1), repeat=4):
        for c1, c2, c3, c4 in product(
            right.get((a1, b1), ()), up.get((d - b1, a2), ()),
            left.get((d - a2, b3), ()), down.get((d - b3, d - a1), ()),
        ):
            edges = c1 + c2 + c3 + c4
            if len(edges) < 3:
                continue
            x, y = d - a1, 0
            cycle = []
            for ex, ey in edges:
                cycle.append((x, y))
                x += ex
                y += ey
            yield polygon_from_cycle(cycle)


def iter_full_width_polygons(d: int) -> Iterator[Polygon]:
    """All convex lattice polygons fitting in the d-square whose lattice width
    is exactly d, up to translation (the brute-force universe)."""
    if d < 0:
        raise OutOfRange("width must be nonnegative")
    if d == 0:
        yield Polygon(((0, 0),))
        return
    for p in iter_convex_polygons(d):
        # both extents are d, so the width is d unless a direction is narrower
        if _standard_reduction(p)[1] == d:
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
                form, None, lattice_point_count(p), doubled_area(p)
            )
    return sorted(classes.values(), key=lambda c: (c.point_count, c.key))


# --- recognition ---------------------------------------------------------------


def classify_polygon(
    p: Polygon, report: Optional[MinimalityReport] = None
) -> Optional[tuple[MinimalClass, UnimodularMap]]:
    """Recognize a minimal polygon: its class plus the witness map onto the
    class representative.  Returns None for non-minimal polygons.

    ``report`` is p's ``is_minimal`` report when the caller already has it;
    without one the test runs here."""
    if report is None:
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
