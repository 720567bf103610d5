"""Command-line front end.

Subcommands: width, lattice-size, minimal, classify, enumerate, verify, plot.
All machine-readable output is JSON with fixed key order; exit status is 0 on
success, 1 on verification failure, 2 on usage or parse errors, on input
that cannot be read or is not UTF-8, and on output that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict
from functools import cache
from json.encoder import encode_basestring_ascii

from .bounds import verify_width
from .classify import (
    BRUTE_FORCE_LIMIT,
    brute_force_minimal,
    classify_polygon,
    enumerate_minimal_with_stats,
)
from .core import OutOfRange, Polygon, UnimodularMap, polygon_from_json
from .minimal import MinimalityReport, is_minimal
from .svg import render_figure
from .width import lattice_size_square, lattice_width

COORD_LIMIT = 10**6
WIDTH_LIMIT = 16


class CliError(Exception):
    """Usage or input problem; maps to exit status 2."""


def _read_polygon(path: str) -> Polygon:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        p = polygon_from_json(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise CliError(f"{path}: {exc}") from exc
    for x, y in p.vertices:
        if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
            raise CliError(f"{path}: coordinate magnitude exceeds {COORD_LIMIT}")
    return p


def _check_d(d: int) -> int:
    if d < 0 or d > WIDTH_LIMIT:
        raise CliError(f"width parameter must be in [0, {WIDTH_LIMIT}]")
    return d


def _map_json(m: UnimodularMap) -> dict:
    return {"a": [[m.a11, m.a12], [m.a21, m.a22]], "b": [m.bx, m.by]}


def _emit(text: str, path: str | None) -> None:
    """Write text, ending in a newline, to stdout or to the file at path."""
    try:
        with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
            fh.flush()  # a buffered stdout fails here, not in the flush at exit
    except OSError as exc:
        if path is None:
            _discard_stdout()
        raise CliError(f"cannot write {'stdout' if path is None else path}: {exc}") from exc


def _discard_stdout() -> None:
    """Point file descriptor 1 at os.devnull after a failed stdout write, so
    the interpreter's flush at exit drops what is left in the buffer instead
    of failing again (the recipe of the signal module's SIGPIPE note)."""
    try:
        fd = os.open(os.devnull, os.O_WRONLY)
        os.dup2(fd, sys.stdout.fileno())
        os.close(fd)
    except (OSError, ValueError):  # a stdout without a file descriptor
        pass


def _class_rows(classes) -> str:
    """The text of ``json.dumps(rows, indent=2)`` for one row per class, the
    object with the keys key, tag, d, params, point_count, doubled_area and
    vertices; tag, d and params are null for a class without parameters.

    The rows have this one fixed shape, so the layout is written out here
    row by row instead of going through the pure-Python encoder that
    ``indent`` selects.  Strings go through the encoder's own
    ``encode_basestring_ascii``, and an int prints as ``str`` prints it."""
    rows = []
    for c in classes:
        if c.params is None:
            tag = d = params = "null"
        else:
            tag, d = encode_basestring_ascii(c.params.tag), c.params.d
            params = "{" + ",".join(
                f"\n      {encode_basestring_ascii(name)}: {value}" for name, value in c.params.values
            ) + "\n    }"
        vertices = ",".join(f"\n      [\n        {x},\n        {y}\n      ]" for x, y in c.canonical.vertices)
        rows.append(
            f'\n  {{\n    "key": {encode_basestring_ascii(c.key)},\n    "tag": {tag},\n    "d": {d},'
            f'\n    "params": {params},\n    "point_count": {c.point_count},'
            f'\n    "doubled_area": {c.doubled_area},\n    "vertices": [{vertices}\n    ]\n  }}'
        )
    return "[" + ",".join(rows) + "\n]" if rows else "[]"


def _nested(text: str) -> str:
    # a value's indent=2 text as it reads one level down in an indent=2 object
    return text.replace("\n", "\n  ")


def _report_json(rep: MinimalityReport) -> dict:
    return {
        "minimal": rep.is_minimal,
        "width": rep.width,
        "offending_vertex": list(rep.offending_vertex) if rep.offending_vertex else None,
    }


# The answers of the polygon subcommands: each takes the polygon read from
# the command line and returns the JSON object that the subcommand prints.
def _width(p: Polygon) -> dict:
    w = lattice_width(p)
    return {
        "lw": w.width,
        "ls_square": lattice_size_square(p).size,
        "directions": [list(v) for v in w.directions],
    }


def _lattice_size(p: Polygon) -> dict:
    s = lattice_size_square(p)
    return {"ls_square": s.size, "witness": _map_json(s.witness)}


def _minimal(p: Polygon) -> dict:
    return _report_json(is_minimal(p))


def _classify(p: Polygon) -> dict:
    rep = is_minimal(p)
    if not rep.is_minimal:
        return _report_json(rep)
    _check_d(rep.width)
    cls, witness = classify_polygon(p, rep)
    return {
        "minimal": True,
        "tag": cls.params.tag,
        "d": cls.params.d,
        "params": cls.params.as_dict(),
        "key": cls.key,
        "witness": _map_json(witness),
    }


def cmd_enumerate(args) -> int:
    d = _check_d(args.d)
    if args.oracle and d > BRUTE_FORCE_LIMIT:
        raise CliError(f"--oracle requires d <= {BRUTE_FORCE_LIMIT}")
    classes, stats = enumerate_minimal_with_stats(d)
    if not args.oracle:
        _emit(_class_rows(classes), args.output)
        return 0
    oracle = brute_force_minimal(d)
    keys = {c.key for c in classes}
    oracle_keys = {c.key for c in oracle}
    diff = {
        "missing_from_enumerator": sorted(oracle_keys - keys),
        "extra_in_enumerator": sorted(keys - oracle_keys),
    }
    fields = (
        ("classes", _class_rows(classes)),
        ("oracle", _class_rows(oracle)),
        ("diff", json.dumps(diff, indent=2)),
        ("duplicates_per_tag", json.dumps(dict(sorted(stats.duplicates.items())), indent=2)),
    )
    _emit("{" + ",".join(f'\n  "{name}": {_nested(text)}' for name, text in fields) + "\n}", args.output)
    return 0 if not diff["missing_from_enumerator"] and not diff["extra_in_enumerator"] else 1


def cmd_verify(args) -> int:
    d_min = _check_d(args.d_min)
    d_max = _check_d(args.d_max if args.d_max is not None else args.d_min)
    if d_max < d_min:
        raise CliError("empty width range")
    if args.oracle and d_max > BRUTE_FORCE_LIMIT:
        raise CliError(f"--oracle requires d <= {BRUTE_FORCE_LIMIT}")
    lines: list[str] = []
    reports: list[dict] = []
    ok = True
    for d in range(d_min, d_max + 1):
        for name, passed, detail, report in verify_width(d, args.oracle):
            if passed is None:
                lines.append(f"d={d} {name} not-applicable")
                continue
            lines.append(f"d={d} {name} {'PASS' if passed else 'FAIL'} {detail}")
            ok = ok and passed
            if report is not None:
                reports.append({"kind": name, **asdict(report)})
    _emit("\n".join(lines), None)
    if args.output:
        _emit(json.dumps(reports, indent=2), args.output)
    return 0 if ok else 1


def cmd_plot(args) -> int:
    _emit(render_figure(_read_polygon(args.polygon), args.hexagon), args.output)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``main`` call of the process.  Parsing never changes it: each
    call gets a fresh Namespace, and argparse looks up the output streams
    and the terminal width only when it prints."""
    parser = argparse.ArgumentParser(
        prog="latwidth",
        description="Exact lattice-width computations and minimal-polygon classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_polygon_cmd(name, answer, help_text):
        def run(args) -> int:
            _emit(json.dumps(answer(_read_polygon(args.polygon))), args.output)
            return 0

        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("polygon", help="polygon JSON file")
        sp.add_argument("-o", "--output", default=None, help="write result here instead of stdout")
        sp.set_defaults(func=run)

    add_polygon_cmd("width", _width, "lattice width, width directions, and lattice size")
    add_polygon_cmd("lattice-size", _lattice_size, "lattice size w.r.t. the unit square, with witness")
    add_polygon_cmd("minimal", _minimal, "inclusion-minimality report")
    add_polygon_cmd("classify", _classify, "classification of a minimal polygon")

    sp = sub.add_parser("enumerate", help="enumerate minimal classes of a given width")
    sp.add_argument("d", type=int, help="lattice width")
    sp.add_argument("--oracle", action="store_true",
                    help=f"cross-check against brute force (d <= {BRUTE_FORCE_LIMIT})")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("verify", help="verify the bounds and structure properties over a width range")
    sp.add_argument("d_min", type=int)
    sp.add_argument("d_max", type=int, nargs="?", default=None)
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("-o", "--output", default=None, help="write JSON bound reports here")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("plot", help="render a polygon as an SVG figure")
    sp.add_argument("polygon")
    sp.add_argument("--hexagon", type=int, default=None, metavar="L",
                    help="overlay the dashed hexagon with this shoulder parameter")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
