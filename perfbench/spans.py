"""Span tracing from outside the program.

:class:`Tracer` replaces each target function with a timing wrapper in every
``nabext`` module namespace that holds it, since callers look names up in
their own module (``classify`` calls its imported ``is_valid_cocycle``, not
``nonabelian.is_valid_cocycle``).  Methods are wrapped on their class.  Spans
stay in memory as ``(name, start, end, parent, op)``; :meth:`Tracer.uninstall`
puts every original attribute back, so untraced runs execute untouched code.

``fields`` and ``linalg`` are never wrapped: a wrapper on each scalar
operation would cost more than the operation.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Dict, List, Tuple

PACKAGE = "nabext"

# module -> functions (``Class.method`` for methods); the layer is the module
TARGETS: Dict[str, Tuple[str, ...]] = {
    "classify": (
        "CandidateSpace.candidate",
        "CandidateSpace.gauge_params",
        "enumerate_cocycles",
        "enumerate_extensions",
        "orbit_partition",
        "census",
    ),
    "nonabelian": (
        "is_valid_cocycle",
        "build_extension",
        "check_cocycle",
        "cocycle_to_mc",
        "associator_residual",
        "is_mc",
        "apply_equivalence",
        "gauge_closed_form",
        "gauge_series",
    ),
    "algebra": ("Algebra.is_associative",),
    "cochains": (
        "hochschild_delta",
        "circ",
        "gerstenhaber_bracket",
        "MultilinearMap.from_function",
    ),
    "exact_sequences": ("canonical_section", "cocycle_from_section"),
    "io_json": ("loads", "dumps_canonical", "cocycle_from_json", "report_to_json"),
}


def span_names() -> List[str]:
    """Span names of the targets: ``<module>.<function>``."""
    return [f"{mod}.{target.rpartition('.')[2]}" for mod, targets in TARGETS.items() for target in targets]


class Tracer:
    def __init__(self):
        self.spans: List[Tuple] = []
        self.op = -1
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def call(self, name: str, fn, *args):
        """Call ``fn`` inside a span of the benchmark's own, such as one CLI call."""
        return self._wrap(name, fn)(*args)

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> List[str]:
        """Wrap every target; returns the names that do not exist here."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, targets in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                name = f"{mod_name}.{attr}"
                if module is None:
                    self.absent.append(name)
                elif owner_name:
                    owner = getattr(module, owner_name, None)
                    raw = vars(owner).get(attr) if isinstance(owner, type) else None
                    if isinstance(raw, classmethod):
                        self._set(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                    elif callable(raw):
                        self._set(owner, attr, self._wrap(name, raw))
                    else:
                        self.absent.append(name)
                else:
                    orig = vars(module).get(attr)
                    if not callable(orig):
                        self.absent.append(name)
                        continue
                    traced = self._wrap(name, orig)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                self._set(mod, key, traced)
        return self.absent

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its child spans' (s)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, List[float]] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child[idx])
        return out

    def durations(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """``<module>.<function>.calls`` and ``.self_us`` (median per call)."""
        selfs = self.self_times()
        out: Dict[str, Tuple[float, str]] = {}
        for name in span_names():
            times = selfs.get(name, [])
            out[f"{name}.calls"] = (len(times), "count")
            out[f"{name}.self_us"] = (statistics.median(times) * 1e6 if times else 0.0, "us")
        return out

    def write(self, path):
        """Write the spans as tab-separated lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\top\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t{parent}\t{op}\n")
