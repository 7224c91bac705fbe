"""Outside-in span tracer and the arithmetic the benchmark derives from spans.

The tracer replaces functions of an already-imported package with wrappers
that record one span per call: ``[name, start, end, parent, run]``. The
parent is the index of the enclosing span (``-1`` at the top) and ``run`` is
the traced iteration the span belongs to (``-1`` for set-up). Spans stay in
memory until the benchmark derives its metrics.

Nothing in the program is edited: a wrapper is bound in place of every
module-level name that refers to the wrapped function (``training.backward``
and ``autodiff.backward`` are the same object), and the originals are put
back on ``uninstall``.
"""
from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, RUN = range(5)
HOOK = "trace.hook"


class Tracer:
    """Span and counter store plus the wrappers that feed it.

    ``pre(tracer, args, kwargs)`` runs before the span's clock starts and
    must be cheap (it lands in the caller's self time). ``post(tracer, args,
    kwargs, result)`` runs after the clock stops, inside a ``trace.hook``
    span, so its cost can be subtracted from whatever encloses it.
    """

    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.run = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def count(self, name: str, amount: float = 1) -> None:
        key = f"{self.run}:{name}"
        self.counts[key] = self.counts.get(key, 0) + amount

    def counted(self, name: str, runs) -> float:
        return sum(self.counts.get(f"{run}:{name}", 0) for run in runs)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run]
        self.spans.append(record)
        self._stack.append(index)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, label: str, fn, pre=None, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [label, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(record)
            stack.append(index)
            if pre is not None:
                pre(self, args, kwargs)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if post is not None:
                with self.span(HOOK):
                    post(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- patching

    def install(self, targets) -> None:
        """Wrap each ``(owner, attr, label, pre, post)``.

        A class owner gets the wrapper as its attribute (methods). A module
        owner's function is replaced under every name, in every loaded module
        of the package, that is bound to the same object.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for owner, attr, label, pre, post in targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(label, original, pre, post))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(label, original, pre, post)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextmanager
    def tracing(self, targets, run: int):
        self.run = run
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()
            self.run = -1


# ------------------------------------------------------------------ arithmetic


def duration(span) -> float:
    return span[END] - span[START]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their summed
    durations are exactly the covered part of the parent's interval.
    """
    out = [duration(span) for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= duration(span)
    return out


def has_ancestor(spans, index: int, names) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_totals(spans, runs) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and inclusive seconds over ``runs``.

    Inclusive time counts only the outermost span of a name, so a function
    nested in itself is not counted twice.
    """
    runs = set(runs)
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span[RUN] not in runs:
            continue
        entry = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        if not has_ancestor(spans, index, (span[NAME],)):
            entry["total_s"] += duration(span)
    return out


def step_times(spans, runs, loop_names, loss_names, end_name: str) -> list[float]:
    """Training-step durations, in seconds, read off the children of each
    training-loop span: from the first loss-side call (a forward or a loss)
    after the previous step's end, to the end of the ``end_name`` call.
    ``trace.hook`` spans inside a step are the tracer's own bookkeeping and
    are subtracted."""
    runs = set(runs)
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[RUN] in runs and span[PARENT] >= 0 and spans[span[PARENT]][NAME] in loop_names:
            children.setdefault(span[PARENT], []).append(index)
    steps = []
    for kids in children.values():
        start = None
        hooks = 0.0
        for index in kids:
            span = spans[index]
            if span[NAME] in loss_names and start is None:
                start, hooks = span[START], 0.0
            elif span[NAME] == HOOK and start is not None:
                hooks += duration(span)
            elif span[NAME] == end_name and start is not None:
                steps.append(span[END] - start - hooks)
                start = None
    return steps


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int, min_beyond: int = 10, ladder=TAIL_LADDER) -> float | None:
    """Highest percentile on the ladder with at least ``min_beyond`` of
    ``n`` samples ranked above it, or None when even the median has fewer."""
    best = None
    for p in ladder:
        if n - math.ceil(n * p / 100.0) >= min_beyond:
            best = p
    return best
