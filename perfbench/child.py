"""One benchmark repetition in a fresh interpreter.

Usage: python child.py SPEC.json

The spec names the CLI argument lists to run.  The child imports the
package, runs the ``warmup`` requests, prints ``ready`` on stdout (the parent
takes set-up time from its own clock when that line arrives), runs the timed
``requests`` one in-process ``latwidth.cli.main`` call each, and prints one
JSON line with every request's exit code, captured stdout and latency.  With
``trace`` set, an outside-in tracer is installed before the warm-up and its
spans are written to that path after the timed loop.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def _call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """One in-process CLI call; an exception it raises becomes exit code -1
    with the traceback as its stderr, so the parent counts it as a failure."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import latwidth
    import latwidth.cli

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    warmup = [_call(latwidth.cli, argv)[0] for argv in spec.get("warmup", [])]
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    results = []
    start = time.perf_counter()
    for index, argv in enumerate(spec.get("requests", [])):
        if tracer is not None:
            tracer.request_id = index
        results.append(_call(latwidth.cli, argv))
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.dump(spec["trace"])
    report = {
        "package": latwidth.__file__,
        "warmup_codes": warmup,
        "results": [
            {"code": code, "stdout": out, "stderr": err, "seconds": seconds}
            for code, out, err, seconds in results
        ],
        "wall_s": wall,
        "peak_rss_kb": rss_kb,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
