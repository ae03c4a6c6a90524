"""Span tracing of the aeloc package, installed from outside the program.

The tracer replaces every public function of the aeloc modules by a wrapper
that records a span (name, parent, start, end, raised), and it replaces every
alias other aeloc modules imported by name, so that ``pipeline.pair_delay``
and ``signals.pair_delay`` record under one name.  ``restore`` puts every
original object back.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path

# Called over a million times per dataset: only counted, a span each would
# cost more than the call it measures.
COUNT_ONLY = frozenset({"util.fmt"})

MODULE_NAMES = (
    "util",
    "signals",
    "grnn",
    "calibration",
    "simulator",
    "svgplot",
    "pipeline",
    "cli",
)


class Tracer:
    """Spans and counters for one traced window.

    A span is ``[name, parent_index, t_start, t_end, raised]``; parent_index
    is -1 for a root span.  ``hooks`` maps a span name to a callable
    ``hook(args, kwargs, result)`` run after each call that returned.
    """

    def __init__(self, hooks=None):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.hooks = dict(hooks or {})
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, False])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, raised: bool = False) -> None:
        rec = self.spans[idx]
        rec[3] = time.perf_counter()
        rec[4] = raised
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            counts = self.counts
            key = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        tracer = self
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx, raised=True)
                raise
            tracer.end(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------ patching

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s modules and every alias of them."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [getattr(package, name) for name in MODULE_NAMES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # ------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [rec[3] - rec[2] for rec in self.spans]
        for rec in self.spans:
            if rec[1] >= 0:
                own[rec[1]] -= rec[3] - rec[2]
        return own

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "counts": dict(self.counts),
            "span_fields": ["name", "parent", "t_start", "t_end", "raised"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc) + "\n")
