"""Outside-in span tracer for the latwidth modules.

The tracer wraps a fixed list of library functions from outside the library.
``from .core import lattice_points`` binds the same function object in
``minimal`` and ``classify`` as well as in ``core``, so every module of the
package that binds a traced function gets the wrapper, not just the module
that defines it.

Spans live in memory as parallel arrays (name, start, end, parent span,
request id, outcome) and are written to a JSON file by :meth:`Tracer.dump`
once the run has ended, so the trace costs no I/O while the run is timed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (module, function) pairs; the span name is "module.function".
TRACED = (
    ("core", "convex_hull"),
    ("core", "lattice_points"),
    ("width", "lattice_width"),
    ("width", "lattice_size_square"),
    ("minimal", "is_minimal"),
    ("minimal", "drop_vertex"),
    ("canonical", "canonical_form"),
    ("classify", "generate"),
    ("classify", "enumerate_minimal_with_stats"),
    ("classify", "brute_force_minimal"),
    ("classify", "classify_polygon"),
    ("classify", "is_inscribed_in_hexagon"),
    ("bounds", "verify_point_bound"),
    ("bounds", "verify_volume_bound"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{module}.{function}" for module, function in TRACED)

NO_OUTCOME = -1


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self) -> None:
        self.name_id = array("h")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.outcome = array("b")
        self.enumerations: list[dict] = []
        self.request_id = -1  # -1 marks set-up work done before the first request
        self._stack: list[int] = []
        self._outcomes = {
            "minimal.is_minimal": lambda report: int(report.is_minimal),
            "classify.enumerate_minimal_with_stats": self._record_enumeration,
            "cli.main": lambda code: max(-128, min(127, code)),
        }

    def _record_enumeration(self, result) -> int:
        classes, stats = result
        self.enumerations.append(
            {
                "tuples": sum(stats.generated.values()),
                "duplicates": sum(stats.duplicates.values()),
                "non_minimal": sum(stats.non_minimal.values()),
                "wrong_width": sum(stats.wrong_width.values()),
                "classes": len(classes),
            }
        )
        return 1

    def install(self, package: str = "latwidth") -> None:
        """Import every traced module and replace each traced function, in
        every module of the package that binds it, by a recording wrapper."""
        for index, (module_name, function_name) in enumerate(TRACED):
            module = importlib.import_module(f"{package}.{module_name}")
            original = getattr(module, function_name)
            wrapper = self._wrap(index, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == package or name.startswith(package + ".")):
                    continue
                for attr in [a for a, value in vars(mod).items() if value is original]:
                    setattr(mod, attr, wrapper)

    def _wrap(self, index: int, function):
        now = time.perf_counter_ns
        stack = self._stack
        name_id, start_ns, end_ns = self.name_id, self.start_ns, self.end_ns
        parent, request, outcome = self.parent, self.request, self.outcome
        classify_result = self._outcomes.get(SPAN_NAMES[index])

        def traced(*args, **kwargs):
            span = len(name_id)
            name_id.append(index)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            outcome.append(NO_OUTCOME)
            end_ns.append(0)
            stack.append(span)
            start_ns.append(now())
            try:
                result = function(*args, **kwargs)
            finally:
                end_ns[span] = now()
                stack.pop()
            if classify_result is not None:
                outcome[span] = classify_result(result)
            return result

        return functools.wraps(function)(traced)

    def dump(self, path: str) -> None:
        """Write every recorded span, column by column, as one JSON object."""
        payload = {
            "names": list(SPAN_NAMES),
            "name_id": self.name_id.tolist(),
            "start_ns": self.start_ns.tolist(),
            "end_ns": self.end_ns.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "outcome": self.outcome.tolist(),
            "enumerations": self.enumerations,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
