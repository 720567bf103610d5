"""Record the reference answers the benchmark checks against.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/expected.json from the program as it stands:
  - the sha256 and class count of ``latwidth enumerate 8``;
  - the stdout of ``latwidth verify 1 4 --oracle``;
  - for every class of widths 1 and 3..6: key, canonical vertices, family
    tag and parameters, and its image in the d-square with that image's
    width directions and lattice size (the query-mix bases whose images are
    minimal);
  - a fixed pool of small random non-minimal hulls with their width,
    directions, lattice size and the full set of vertices whose deletion
    keeps the width (the query-mix bases whose images are not minimal).

The committed file was recorded at commit edbba03.  Re-recording at a later
commit is only right when that commit is meant to change these answers.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

from latwidth import (
    apply_map,
    convex_hull,
    drop_vertex,
    enumerate_minimal,
    is_minimal,
    lattice_size_square,
    lattice_width,
)
from latwidth.cli import main as cli_main

HERE = Path(__file__).resolve().parent
CLASS_WIDTHS = (1, 3, 4, 5, 6)
POOL_SEED = 1702
POOL_SIZE = 64


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"latwidth {' '.join(argv)} exited {code}")
    return out.getvalue()


def _shape(p) -> dict:
    w = lattice_width(p)
    return {
        "vertices": [list(v) for v in p.vertices],
        "width": w.width,
        "directions": [list(v) for v in w.directions],
        "size": lattice_size_square(p).size,
    }


def _classes(d: int) -> list[dict]:
    rows = []
    for cls in enumerate_minimal(d):
        canonical = convex_hull(cls.canonical.vertices)
        # the base is the class's image in [0, d]^2, so small spans are reachable
        row = _shape(apply_map(lattice_size_square(canonical).witness, canonical))
        row.update(
            key=cls.key,
            canonical=[list(v) for v in cls.canonical.vertices],
            tag=cls.params.tag,
            d=cls.params.d,
            params=cls.params.as_dict(),
        )
        rows.append(row)
    return rows


def _non_minimal_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < POOL_SIZE:
        span = rng.randint(4, 8)
        p = convex_hull((rng.randint(0, span), rng.randint(0, span)) for _ in range(rng.randint(4, 8)))
        if p.dimension < 2 or is_minimal(p).is_minimal:
            continue
        row = _shape(p)
        row["offenders"] = sorted(
            list(v) for v in p.vertices if lattice_width(drop_vertex(p, v)).width >= row["width"]
        )
        pool.append(row)
    return pool


def main() -> None:
    enumerate_out = _cli_stdout(["enumerate", "8"])
    expected = {
        "enumerate_8": {
            "sha256": hashlib.sha256(enumerate_out.encode()).hexdigest(),
            "classes": len(json.loads(enumerate_out)),
        },
        "verify_1_4_oracle": {"stdout": _cli_stdout(["verify", "1", "4", "--oracle"])},
        "classes": {str(d): _classes(d) for d in CLASS_WIDTHS},
        "non_minimal": _non_minimal_pool(),
    }
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
