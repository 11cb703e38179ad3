"""Outside-in layer trace of the ``pseudoboson`` package.

Every function in each module's ``__all__`` is replaced by a wrapper
that records a span (name, start, end, parent) in memory, in every
module namespace that holds the function, so calls between modules are
seen as well as calls from outside.  ``Operator.__post_init__`` is
wrapped too, which counts operator constructions.  Nothing in the
package is edited; the wrappers exist only in the traced process.

Spans are plain lists ``[name, start, end, parent, sys_start, sys_end,
node_bytes]``; ``sys_*`` is the process's kernel time from
``getrusage`` (microsecond resolution, where ``os.times`` ticks in
10 ms steps).
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
import types
from collections import Counter, defaultdict

MODULES = (
    "fock", "riesz", "algebra", "bicoherent", "config", "coordinate",
    "displacement", "reports", "suite", "cli",
)

_NAME, _START, _END, _PARENT, _SYS0, _SYS1, _BYTES = range(7)


def _sys_time() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


def _node_bytes(riesz, quad, *_, **__) -> int:
    """Bytes of the complex node matrix ``resolution_operator`` builds:
    ``d * n_r * M`` entries of 16 bytes (computed, not measured)."""
    return riesz.dim * quad.radial_count * quad.angular_count * 16


#: Extra per-call quantity, computed from the arguments.
_EXTRAS = {"bicoherent.resolution_operator": _node_bytes}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, _EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 0.0,
                    extra(*args, **kwargs) if extra else 0]
            stack.append(len(spans))
            spans.append(span)
            span[_SYS0] = _sys_time()
            span[_START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                span[_SYS1] = _sys_time()
                stack.pop()

        return wrapper

    def install(self) -> list[str]:
        """Wrap the package's public functions; returns the span names."""
        mods = {m: importlib.import_module(f"pseudoboson.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("pseudoboson")]
        wrappers = {}  # id(original) -> (original, wrapper)
        names = ["fock.Operator"]
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    names.append(f"{short}.{attr}")
                    wrappers[id(fn)] = (fn, self._wrap(names[-1], fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
        op = mods["fock"].Operator
        op.__post_init__ = self._wrap("fock.Operator", op.__post_init__)
        return names

    def mark(self) -> int:
        return len(self.spans)

    def summarize(self, begin: int, end: int) -> dict[str, dict[str, float]]:
        """Per-name ``calls``, inclusive ``s``, ``self_s``, ``sys_s`` and
        ``node_bytes`` over the spans ``begin:end`` (one iteration).

        Inclusive time counts a span only when no enclosing span has the
        same name, so recursion is not counted twice; self time is a
        span's duration minus the durations of its direct children.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for i in range(begin, end):
            p = spans[i][_PARENT]
            if p >= begin:
                child_time[p] += spans[i][_END] - spans[i][_START]
        out: dict[str, Counter] = defaultdict(Counter)
        for i in range(begin, end):
            name, t0, t1 = spans[i][_NAME], spans[i][_START], spans[i][_END]
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child_time[i]
            agg["node_bytes"] += spans[i][_BYTES]
            if not self._nested_in_same(i, begin):
                agg["s"] += t1 - t0
                agg["sys_s"] += spans[i][_SYS1] - spans[i][_SYS0]
        return {name: dict(agg) for name, agg in out.items()}

    def _nested_in_same(self, i: int, begin: int) -> bool:
        name = self.spans[i][_NAME]
        p = self.spans[i][_PARENT]
        while p >= begin:
            if self.spans[p][_NAME] == name:
                return True
            p = self.spans[p][_PARENT]
        return False

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:5] + [span[_SYS1] - span[_SYS0], span[_BYTES]]) + "\n")
