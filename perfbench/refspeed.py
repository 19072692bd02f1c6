"""Calibration kernels: fixed work that calls nothing in the program.

On a shared host the speed of a core drifts: the same item can take 1.3 to
1.9 times as long for tens of seconds at a stretch, and CPU time drifts with
wall time.  Interpreter-bound and memory-bound code drift by different
amounts, so there are two kernels, each a miniature of one kind of work the
workloads do:

* "interp": free reduction of short words held as lists, grouping them by
  tail in a dict and small objects, in the interpreter, as in sampling's
  list conversion and in the trivializer;
* "array": uniform draws, searchsorted and a scatter into a bool array of a
  few hundred kilobytes, as in the pigeonhole chunk kernel.

A workload names the kernels that match its work.  A run times them before
every item and after every set-up; scale() turns a span of the run into the
factor that brings its duration to the reference speed, at which each kernel
takes its REFERENCE_S.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Seconds each kernel takes at the reference speed.
REFERENCE_S = {"interp": 0.0012, "array": 0.0065}
#: Half-width of the time window whose kernel times scale one span.
WINDOW_S = 2.0

_CUM = np.linspace(1 / 64, 1.0, 64)


class _Node:
    __slots__ = ("length", "first")

    def __init__(self, length, first):
        self.length, self.first = length, first


def _interp() -> None:
    words = [[(i * 31 + j * 7) % 5 - 2 for j in range(24)] for i in range(200)]
    groups = {}
    for word in words:
        reduced = []
        for x in word:
            if x and reduced and reduced[-1] == -x:
                reduced.pop()
            elif x:
                reduced.append(x)
        node = _Node(len(reduced), reduced[0] if reduced else 0)
        groups.setdefault(tuple(reduced[-6:]), []).append(node)
    sum(node.length for nodes in groups.values() for node in nodes)
    sorted(groups, key=len)


def _array(gen: np.random.Generator) -> None:
    draws = np.searchsorted(_CUM, gen.random((256, 3, 128)), side="right")
    hit = np.zeros((256, 3, 64), dtype=bool)
    hit[np.arange(256)[:, None, None], np.arange(3)[None, :, None], draws] = True
    hit.all(axis=1).any(axis=1).sum()


class Calibration:
    """Kernel times of one run: (midpoint, {kernel: seconds}) per measurement."""

    def __init__(self, kernels: tuple):
        self.kernels = kernels
        self.gen = np.random.default_rng(0)
        self.samples: list = []

    def measure(self) -> None:
        times = {}
        mid = 0.0
        for name in self.kernels:
            start = perf_counter()
            if name == "interp":
                _interp()
            else:
                _array(self.gen)
            end = perf_counter()
            times[name] = end - start
            mid += (start + end) / 2 / len(self.kernels)
        self.samples.append((mid, times))

    def median_s(self, name: str) -> float:
        return statistics.median(times[name] for _, times in self.samples)

    def scale(self, start: float, end: float) -> float:
        """The factor that brings a span [start, end] to the reference speed.

        For each kernel, its median time within WINDOW_S of the span over its
        REFERENCE_S is the span's slowdown; the factor is one over their mean.
        """
        near = [times for t, times in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        slowdown = statistics.mean(
            statistics.median(times[name] for times in near) / REFERENCE_S[name]
            for name in self.kernels)
        return 1 / slowdown
