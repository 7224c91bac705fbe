"""A fixed reference loop that measures the machine's speed of the moment.

On a shared host the speed of a single-threaded process drifts by a third
over tens of seconds with nothing changed in the process. The benchmark
times this loop next to every command and reports program times as
multiples of it (unit ``ref``), which cancels most of that drift. The loop
imitates the program's cost profile: small float64 matmuls and elementwise
ops on a tape of Python objects, a finiteness check per op, then a graph
walk. It uses numpy only, never the program, so a change to the program
cannot change the yardstick.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_ROWS = _RNG.standard_normal((384, 16))
_WEIGHT = _RNG.standard_normal((16, 16)) * 0.25


class _Node:
    __slots__ = ("data", "parents", "backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = data
        self.parents = parents
        self.backward = backward


def _tape_loop() -> float:
    total = 0.0
    for rep in range(6):
        x = _Node(_ROWS[: 64 * (rep + 1)])
        for _ in range(40):
            x = _Node(x.data @ _WEIGHT + 0.1, (x,), lambda g: g)
            x = _Node(np.maximum(x.data, 0.0), (x,), lambda g: g)
            centered = x.data - x.data.mean(-1, keepdims=True)
            scale = np.sqrt((centered * centered).mean(-1, keepdims=True) + 1e-5)
            x = _Node(centered / scale, (x,), lambda g: g)
            if not np.all(np.isfinite(x.data)):
                raise FloatingPointError("reference loop produced non-finite values")
        seen, stack, grads = set(), [x], {}
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                grads[id(node)] = node.data * 0.5
                stack.extend(node.parents)
        total += len(seen) + float(x.data[0, 0])
    return total


def reference_seconds(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` runs of the reference loop."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        _tape_loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)
