"""The query-mix workload: a seeded stream of width, lattice-size, minimal and
classify requests on polygon files, with the answers each must give.

Every polygon in the stream is the image M(B) of a recorded base polygon B
under a unimodular map M chosen from the seed, so the expected answers follow
from B's recorded answers by the invariants of unimodular maps: width, size,
minimality and class key are unchanged, width directions move by the inverse
transpose of M, the deletable vertices move by M, and a witness map must send
the image where the answer says.  Nothing else of the program is consulted.

The bases are
  - class representatives of widths 3..6, with maps chosen so that both
    bounding-box sides of the image lie in a band [0.6 S, S] for each span S
    in SPANS (cost of width grows with the square of the smaller side, cost
    of minimality with the box area, so the band keeps the cost of a request
    near its tier's and the stream's total cost near-constant across seeds);
  - random non-minimal hulls from the recorded pool, mapped the same way;
  - the width-1 triangle, mapped onto the thin triangles
    conv{(0,0),(n,n-1),(n+1,n)} for n in THIN_TRIANGLES.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

KINDS = ("width", "lattice-size", "minimal", "classify")
SPANS = (24, 48, 96, 128)
MINIMAL_WIDTHS = (3, 4, 5, 6)
THIN_TRIANGLES = (125, 250)
OFFSET = 250  # image coordinates stay within [-OFFSET, OFFSET + max(SPANS)]

Map = tuple[int, int, int, int, int, int]  # a11, a12, a21, a22, bx, by


def _apply(m: Map, v) -> tuple[int, int]:
    a11, a12, a21, a22, bx, by = m
    return (a11 * v[0] + a12 * v[1] + bx, a21 * v[0] + a22 * v[1] + by)


def _det(m) -> int:
    return m[0] * m[3] - m[1] * m[2]


def _spread(vertices, row) -> int:
    values = [row[0] * x + row[1] * y for x, y in vertices]
    return max(values) - min(values)


def _random_map(rng: random.Random, vertices, span: int) -> Map:
    """A random unimodular map whose image of the vertices has both
    bounding-box sides in [0.6 span, span].

    The sides of the image are the polygon's widths along the matrix rows, so
    the first row is drawn among primitive vectors with a width in the band,
    and the second among the rows completing it to determinant +-1.
    """
    lo = (3 * span + 4) // 5
    for _ in range(1_000_000):
        a11, a12 = rng.randint(-span, span), rng.randint(-span, span)
        if gcd(a11, a12) != 1:
            continue
        first = _spread(vertices, (a11, a12))
        if not lo <= first <= span:
            continue
        a21, a22 = _completion(a11, a12)
        reach = (span + _spread(vertices, (a21, a22))) // first + 1
        seconds = [
            (a21 + k * a11, a22 + k * a12)
            for k in range(-reach, reach + 1)
            if lo <= _spread(vertices, (a21 + k * a11, a22 + k * a12)) <= span
        ]
        if not seconds:
            continue
        a21, a22 = rng.choice(seconds)
        if rng.random() < 0.5:
            a21, a22 = -a21, -a22
        bx = rng.randint(-OFFSET, OFFSET) - min(a11 * x + a12 * y for x, y in vertices)
        by = rng.randint(-OFFSET, OFFSET) - min(a21 * x + a22 * y for x, y in vertices)
        return (a11, a12, a21, a22, bx, by)
    raise RuntimeError(f"no map brings {vertices} to span {span}")


def _completion(a: int, b: int) -> tuple[int, int]:
    """(c, d) with a*d - b*c = +-1, for coprime a, b (extended Euclid)."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return -old_t, old_s


def _thin_triangle_map(n: int) -> Map:
    # sends the width-1 base (0,0),(1,1),(0,1) onto (0,0),(n,n-1),(n+1,n);
    # determinant -n + (n + 1) = 1
    return (-1, n + 1, -1, n, 0, 0)


def build_stream(expected: dict, seed: int, rep: int, directory: Path) -> list[dict]:
    """Write the polygon files of sub-stream ``rep`` for ``seed`` and return
    its requests in order, each with its base and map.

    Every sub-stream has the same composition: per request kind, for every
    span in SPANS two class-representative images (widths cycling through
    MINIMAL_WIDTHS) and one non-minimal image, plus the two thin triangles.
    The seed picks the bases, the maps and the order.
    """
    rng = random.Random(f"latwidth-query-mix:{seed}:{rep}")
    classes = expected["classes"]
    pool = expected["non_minimal"]
    directory.mkdir(parents=True, exist_ok=True)
    requests = []
    for k, kind in enumerate(KINDS):
        for s, span in enumerate(SPANS):
            for j in range(2):
                d = MINIMAL_WIDTHS[(2 * s + j + k) % len(MINIMAL_WIDTHS)]
                base = rng.choice(classes[str(d)])
                requests.append((kind, base, _random_map(rng, base["vertices"], span)))
            base = rng.choice(pool)
            requests.append((kind, base, _random_map(rng, base["vertices"], span)))
        for n in THIN_TRIANGLES:
            requests.append((kind, classes["1"][0], _thin_triangle_map(n)))
    rng.shuffle(requests)
    stream = []
    for index, (kind, base, m) in enumerate(requests):
        path = directory / f"rep{rep}-{index:03d}.json"
        image = [list(_apply(m, v)) for v in base["vertices"]]
        path.write_text(json.dumps({"vertices": image}), encoding="utf-8")
        stream.append({"kind": kind, "argv": [kind, str(path)], "base": base, "map": m})
    return stream


def warmup_requests(expected: dict, directory: Path) -> list[list[str]]:
    """One classify request per width in the stream, so the class tables are
    built during set-up and not inside a timed request."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for d in ("1",) + tuple(str(w) for w in MINIMAL_WIDTHS):
        path = directory / f"warmup-{d}.json"
        path.write_text(json.dumps({"vertices": expected["classes"][d][0]["vertices"]}), encoding="utf-8")
        argvs.append(["classify", str(path)])
    return argvs


def _sign_normalized(v) -> tuple[int, int]:
    x, y = v
    return (-x, -y) if x < 0 or (x == 0 and y < 0) else (x, y)


def _image_directions(m: Map, directions) -> set[tuple[int, int]]:
    # v is a width direction of M(B) iff A^T v is one of B, so v = A^{-T} u
    a11, a12, a21, a22 = m[:4]
    e = _det(m)
    return {_sign_normalized((e * (a22 * u0 - a21 * u1), e * (-a12 * u0 + a11 * u1))) for u0, u1 in directions}


def _witness_ok(witness: dict, image, target: set, box: int | None) -> bool:
    """det = +-1, and the witness sends the image's vertices onto ``target``
    (when given) or into [0, box]^2."""
    (a11, a12), (a21, a22) = witness["a"]
    bx, by = witness["b"]
    w = (a11, a12, a21, a22, bx, by)
    if abs(_det(w)) != 1:
        return False
    moved = [_apply(w, v) for v in image]
    if box is not None:
        return all(0 <= x <= box and 0 <= y <= box for x, y in moved)
    return set(moved) == target


def check(request: dict, code: int, stdout: str) -> str | None:
    """None when the answer is right, else a one-line reason."""
    if code != 0:
        return f"exit {code}"
    try:
        answer = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    kind, base, m = request["kind"], request["base"], request["map"]
    image = [_apply(m, v) for v in base["vertices"]]
    minimal = "offenders" not in base
    if kind == "width":
        expect = {"lw": base["width"], "ls_square": base["size"]}
        got = {"lw": answer.get("lw"), "ls_square": answer.get("ls_square")}
        if got != expect:
            return f"width {got} != {expect}"
        directions = [tuple(v) for v in answer["directions"]]
        if len(set(directions)) != len(directions) or set(directions) != _image_directions(m, base["directions"]):
            return "width directions differ from the transported recorded ones"
        return None
    if kind == "lattice-size":
        if answer.get("ls_square") != base["size"]:
            return f"ls_square {answer.get('ls_square')} != {base['size']}"
        if not _witness_ok(answer["witness"], image, set(), base["size"]):
            return "size witness does not map the polygon into the square"
        return None
    if not minimal or kind == "minimal":
        offender = None if minimal else list(min(_apply(m, v) for v in base["offenders"]))
        expect = {"minimal": minimal, "width": base["width"], "offending_vertex": offender}
        return None if answer == expect else f"{kind} {answer} != {expect}"
    expect = {"minimal": True, "tag": base["tag"], "d": base["d"], "params": base["params"], "key": base["key"]}
    got = {name: answer.get(name) for name in expect}
    if got != expect:
        return f"classify {got} != {expect}"
    if not _witness_ok(answer["witness"], image, {tuple(v) for v in base["canonical"]}, None):
        return "classify witness does not map the polygon onto its class key"
    return None
