"""latwidth benchmark: three workloads driven through ``latwidth.cli.main``.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each was chosen):
  enumerate-d8   ``latwidth enumerate 8``; stdout must hash to the recorded bytes
  verify-oracle  ``latwidth verify 1 4 --oracle``; stdout must equal the recorded text
  query-mix      a seeded stream of width / lattice-size / minimal / classify
                 requests on generated polygon files (see querymix.py)

Every repetition runs in a fresh interpreter (child.py) with PYTHONPATH=src
and without LATWIDTH_JOBS / LATWIDTH_SLOW, one client, closed loop.  Set-up
time runs from process start until the child reports ready (import plus, for
query-mix, classifying one polygon of each width in the stream).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of an outside-in traced run.  The
lines before it give the environment and the remaining details.  Any wrong
answer makes ``correct`` false and the exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import querymix  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

# Layers each workload is predicted to move (NOTES.md); the traced run
# requires calls > 0 for each of them.
PREDICTED_LAYERS = {
    "enumerate-d8": (
        "minimal.is_minimal",
        "classify.enumerate_minimal_with_stats",
        "core.lattice_points",
        "minimal.drop_vertex",
        "canonical.canonical_form",
    ),
    "verify-oracle": (
        "core.lattice_points",
        "minimal.drop_vertex",
        "classify.brute_force_minimal",
    ),
    "query-mix": (
        "minimal.is_minimal",
        "classify.enumerate_minimal_with_stats",
        "core.lattice_points",
        "minimal.drop_vertex",
        "width.lattice_width",
        "width.lattice_size_square",
        "classify.classify_polygon",
    ),
}

# Counts the traced run must reproduce exactly.
EXACT_COUNTS = {
    "enumerate-d8": {
        "classify.enumerate.tuples": 4211,
        "classify.enumerate.duplicates": 3583,
        "classify.enumerate.classes": 628,
        "classify.enumerate.non_minimal": 0,
        "classify.enumerate.wrong_width": 0,
    },
    "verify-oracle": {
        "classify.brute_force.polygons": 9024,
        "classify.brute_force.minimal": 286,
    },
}


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


# --- workloads ----------------------------------------------------------------


class EnumerateD8:
    def __init__(self, expected: dict, seed: int, work: Path) -> None:
        self.expected = expected["enumerate_8"]

    def warmup(self) -> list[list[str]]:
        return []

    def requests(self, rep: int) -> list[dict]:
        return [{"kind": "enumerate", "argv": ["enumerate", "8"]}]

    def check(self, request: dict, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        if hashlib.sha256(stdout.encode()).hexdigest() != self.expected["sha256"]:
            return "stdout differs from the recorded bytes"
        if len(json.loads(stdout)) != self.expected["classes"]:
            return "wrong class count"
        return None


class VerifyOracle:
    def __init__(self, expected: dict, seed: int, work: Path) -> None:
        self.expected = expected["verify_1_4_oracle"]["stdout"]

    def warmup(self) -> list[list[str]]:
        return []

    def requests(self, rep: int) -> list[dict]:
        return [{"kind": "verify", "argv": ["verify", "1", "4", "--oracle"]}]

    def check(self, request: dict, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        return None if stdout == self.expected else "stdout differs from the recorded text"


class QueryMix:
    def __init__(self, expected: dict, seed: int, work: Path) -> None:
        self.expected, self.seed, self.work = expected, seed, work
        self._streams: dict[int, list[dict]] = {}

    def warmup(self) -> list[list[str]]:
        return querymix.warmup_requests(self.expected, self.work)

    def requests(self, rep: int) -> list[dict]:
        if rep not in self._streams:
            self._streams[rep] = querymix.build_stream(self.expected, self.seed, rep, self.work)
        return self._streams[rep]

    def check(self, request: dict, code: int, stdout: str) -> str | None:
        return querymix.check(request, code, stdout)


WORKLOADS = {"enumerate-d8": EnumerateD8, "verify-oracle": VerifyOracle, "query-mix": QueryMix}


# --- child processes ----------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LATWIDTH_JOBS", None)
    env.pop("LATWIDTH_SLOW", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, spec_path: Path) -> tuple[float, dict]:
    """Run one repetition; return (set-up seconds, the child's report)."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        stdout=subprocess.PIPE,
        bufsize=0,
        cwd=ROOT,
        env=_child_env(),
    )
    try:
        # unbuffered reads up to the "ready" line, so nothing the child
        # writes after it is left in a buffer that communicate() cannot see
        fd, head = proc.stdout.fileno(), b""
        while b"\n" not in head:
            left = start + CHILD_TIMEOUT_S - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise subprocess.TimeoutExpired(proc.args, CHILD_TIMEOUT_S)
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            head += chunk
        setup = time.perf_counter() - start
        ready, _, rest = head.partition(b"\n")
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = (rest + out).decode().splitlines()
    if ready != b"ready" or proc.returncode != 0 or not lines:
        raise BenchError(f"child failed (exit {proc.returncode})")
    report = json.loads(lines[-1])
    package = Path(report["package"]).resolve()
    if ROOT / "src" not in package.parents:
        raise BenchError(f"child imported latwidth from {package}, not from src/")
    return setup, report


class Run:
    """Repetitions of one workload, with their answers checked."""

    def __init__(self, workload, work: Path) -> None:
        self.workload, self.work = workload, work
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.rss_mb: list[float] = []
        self.latencies: list[tuple[str, float]] = []
        self.attempted = 0
        self.errors: list[str] = []
        self._spec_count = 0

    def _spec_path(self) -> Path:
        self._spec_count += 1
        return self.work / f"spec{self._spec_count}.json"

    def prime(self) -> None:
        """Start a child that only imports the package, so the bytecode cache
        is written before any sample is taken."""
        run_child({}, self._spec_path())

    def probe_setup(self) -> None:
        """Start a child that only sets up, for one more set-up sample."""
        setup, report = run_child({"warmup": self.workload.warmup()}, self._spec_path())
        self._check_warmup(report)
        self.setups.append(setup)

    def _check_warmup(self, report: dict) -> None:
        for code in report["warmup_codes"]:
            self.attempted += 1
            if code != 0:
                self.errors.append(f"warm-up request exited {code}")

    def repetition(self, rep: int, trace_path: Path | None = None) -> float:
        """Run repetition ``rep``; record its timings unless traced; return its
        wall seconds."""
        requests = self.workload.requests(rep)
        spec = {
            "warmup": self.workload.warmup(),
            "requests": [r["argv"] for r in requests],
            "trace": str(trace_path) if trace_path else None,
        }
        setup, report = run_child(spec, self._spec_path())
        self._check_warmup(report)
        for request, result in zip(requests, report["results"]):
            self.attempted += 1
            try:
                reason = self.workload.check(request, result["code"], result["stdout"])
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"malformed answer ({exc!r})"
            if reason is not None:
                self.errors.append(f"rep {rep} {' '.join(request['argv'])}: {reason} {result['stderr'][-300:]}")
        if len(report["results"]) != len(requests):
            self.errors.append(f"rep {rep}: {len(report['results'])} of {len(requests)} answers")
        if trace_path is None:
            self.setups.append(setup)
            self.walls.append(report["wall_s"])
            self.rss_mb.append(report["peak_rss_kb"] / 1024)
            self.latencies += [(r["kind"], res["seconds"]) for r, res in zip(requests, report["results"])]
        return report["wall_s"]


# --- metrics --------------------------------------------------------------------


def request_details(run: Run) -> dict:
    """Per-request latency figures; for query-mix, per kind as well."""
    seconds = [s for _, s in run.latencies]
    details = {
        "repetition_walls_s": run.walls,
        "setups_s": run.setups,
        "requests": len(seconds),
    }
    if len(seconds) >= 2:
        p90 = statistics.quantiles(seconds, n=10, method="inclusive")[-1]
        details.update(
            p50_ms={"value": 1000 * statistics.median(seconds), "unit": "ms"},
            p90_ms={"value": 1000 * p90, "unit": "ms", "samples_above": sum(s > p90 for s in seconds)},
            queries_per_s={"value": len(seconds) / sum(run.walls), "unit": "1/s"},
        )
    for kind in querymix.KINDS:
        kind_seconds = [s for k, s in run.latencies if k == kind]
        if kind_seconds:
            name = kind.replace("-", "_") + "_p50_ms"
            details[name] = {"value": 1000 * statistics.median(kind_seconds), "unit": "ms", "samples": len(kind_seconds)}
    return details


def layer_metrics(trace_path: Path) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, from its span file."""
    with open(trace_path, "r", encoding="utf-8") as fh:
        spans = json.load(fh)
    names = spans["names"]
    name_id, parent, outcome = spans["name_id"], spans["parent"], spans["outcome"]
    duration = [end - start for start, end in zip(spans["start_ns"], spans["end_ns"])]
    child_ns = [0] * len(duration)
    for span, up in enumerate(parent):
        if up >= 0:
            child_ns[up] += duration[span]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for span, index in enumerate(name_id):
        calls[index] += 1
        self_ns[index] += duration[span] - child_ns[span]
    metrics: dict[str, float] = {}
    for index, name in enumerate(names):
        metrics[f"{name}.calls"] = calls[index]
        metrics[f"{name}.self_s"] = self_ns[index] / 1e9

    is_minimal = names.index("minimal.is_minimal")
    brute_force = names.index("classify.brute_force_minimal")
    verdicts = [outcome[s] for s, index in enumerate(name_id) if index == is_minimal]
    metrics["minimal.is_minimal.minimal_ratio"] = _ratio(verdicts.count(1), len(verdicts))
    brute = [
        outcome[s]
        for s, index in enumerate(name_id)
        if index == is_minimal and parent[s] >= 0 and name_id[parent[s]] == brute_force
    ]
    metrics["classify.brute_force.polygons"] = len(brute)
    metrics["classify.brute_force.minimal"] = brute.count(1)
    metrics["classify.brute_force.minimal_ratio"] = _ratio(brute.count(1), len(brute))

    for counter in ("tuples", "duplicates", "non_minimal", "wrong_width", "classes"):
        metrics[f"classify.enumerate.{counter}"] = sum(row[counter] for row in spans["enumerations"])
    metrics["classify.enumerate.new_class_ratio"] = _ratio(
        metrics["classify.enumerate.classes"], metrics["classify.enumerate.tuples"]
    )
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last == "self_s":
        return "s"
    return "ratio" if last.endswith("ratio") else "count"


# --- command line ---------------------------------------------------------------


def environment() -> dict:
    """What the result depends on besides the code: machine, interpreter, load."""
    sha = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "latwidth").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "loadavg": list(os.getloadavg()),
    }


def measure(run: Run, seconds: float) -> None:
    """Untraced repetitions for ``seconds`` (at least one), then set-up
    probes until there are SETUP_SAMPLES set-up samples."""
    start = time.perf_counter()
    rep = 0
    while True:
        wall_start = time.perf_counter()
        run.repetition(rep)
        rep += 1
        took = time.perf_counter() - wall_start
        if time.perf_counter() - start + took > seconds:
            break
    while len(run.setups) < SETUP_SAMPLES:
        run.probe_setup()


def measure_traced(run: Run, name: str, seconds: float) -> dict[str, float]:
    """Pairs of one untraced and one traced repetition of the same work, for
    ``seconds`` (at least one pair); per-layer metrics are the medians over
    the traced repetitions."""
    start = time.perf_counter()
    untraced, traced, layers = [], [], []
    rep = 0
    while True:
        pair_start = time.perf_counter()
        untraced.append(run.repetition(rep))
        trace_path = run.work / f"spans{rep}.json"
        traced.append(run.repetition(rep, trace_path))
        layers.append(layer_metrics(trace_path))
        rep += 1
        took = time.perf_counter() - pair_start
        if time.perf_counter() - start + took > seconds:
            break
    metrics = {key: statistics.median(row[key] for row in layers) for key in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)

    for layer in PREDICTED_LAYERS[name]:
        run.attempted += 1
        if metrics[f"{layer}.calls"] == 0:
            run.errors.append(f"predicted layer {layer} was never called")
    for key, value in EXACT_COUNTS.get(name, {}).items():
        run.attempted += 1
        if any(row[key] != value for row in layers):
            run.errors.append(f"{key} = {[row[key] for row in layers]}, expected {value}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latwidth" / "cli.py").is_file():
        print(f"error: no latwidth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "expected.json", "r", encoding="utf-8") as fh:
        expected = json.load(fh)

    env = environment()
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(WORKLOADS[args.workload](expected, args.seed, work), work)
        run.prime()
        if args.trace:
            metrics = {
                name: {"value": value, "unit": _layer_unit(name)}
                for name, value in measure_traced(run, args.workload, args.seconds).items()
            }
        else:
            measure(run, args.seconds)
            metrics = {
                "setup_s": {"value": statistics.median(run.setups), "unit": "s"},
                "wall_s": {"value": statistics.median(run.walls), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(run.rss_mb), "unit": "MB"},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    env["loadavg_end"] = list(os.getloadavg())
    print("environment " + json.dumps(env))
    if not args.trace:
        print("details " + json.dumps(request_details(run)))
    for error in run.errors[:20]:
        print(f"wrong answer: {error}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
