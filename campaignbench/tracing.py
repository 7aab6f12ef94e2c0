"""In-memory span tracing of campaign runs, from outside the program.

`Tracer.install()` replaces the public fpselberg functions that campaigns
call with timing wrappers, at the module attributes the callers look them up
by (`harness.selberg_integral`, `integrals.mpoly.extract_coefficient`,
`formulas.r_value`, ...), and `uninstall()` puts the originals back.  Each
wrapped call made while no span of the same layer is open records a span
(name, layer, start, end, parent); calls nested inside a span of their own
layer only update counters, so the spans of one layer never overlap.

Layers:

* ``harness``: one span per `run_campaign` call, opened by the caller;
* ``admissible``: enumeration and decrement paths;
* ``formulas``: closed forms and recurrence factors;
* ``integrals``: `selberg_integral`, `weighted_integral`, `fp_integral`;
* ``integrals.build``: `master_polynomial`;
* ``mpoly``: `extract_coefficient`, the engine.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter, defaultdict

from fpselberg import admissible, formulas, harness, integrals, mpoly

ADMISSIBLE_ENTRY_POINTS = ("enumerate_admissible", "enumerate_admissible_I",
                           "decrement_path", "distinguished_point")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.target_slots = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx].end = time.perf_counter()

    def _inside(self, layer: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]].layer == layer

    def wrap(self, layer: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._inside(layer):
                result = fn(*args, **kwargs)
            else:
                idx = tracer.begin(fn.__name__, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _count_weighted(self, _args, _result):
        self.counts["integrals.weighted_calls"] += 1

    def _count_summands(self, _args, result):
        self.counts["integrals.weighted_summands"] += len(result)

    def _note_target(self, args, _result):
        self.target_slots = max(self.target_slots, math.prod(t + 1 for t in args[1]))

    # -- installation --------------------------------------------------------

    def _patch_table(self):
        table = [
            (harness, "selberg_integral", "integrals", None),
            (harness, "weighted_integral", "integrals", self._count_weighted),
            (harness, "fp_integral", "integrals", None),
            (integrals, "master_polynomial", "integrals.build", None),
            (integrals, "weight_summands", "integrals", self._count_summands),
            (mpoly, "extract_coefficient", "mpoly", self._note_target),
        ]
        table += [(formulas, name, "formulas", None) for name, fn in vars(formulas).items()
                  if inspect.isfunction(fn) and fn.__module__ == formulas.__name__
                  and not name.startswith("_")]
        table += [(admissible, name, "admissible", None) for name in ADMISSIBLE_ENTRY_POINTS]
        return table

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, name, layer, on_return in self._patch_table():
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self.wrap(layer, original, on_return))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: busy seconds (sum of span durations), self seconds (busy
    minus the part covered by child spans) and the number of spans."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0,
                                                               "calls": 0})
    for span, child in zip(spans, covered):
        entry = totals[span.layer]
        entry["busy_s"] += span.duration
        entry["self_s"] += span.duration - child
        entry["calls"] += 1
    return dict(totals)


def tail_percentile_level(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond it,
    kept within [50, 99]."""
    return max(50, min(99, math.floor(100 * (1 - 10 / n)))) if n else 50


def percentile(values: list[float], level: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return ordered[rank - 1]
