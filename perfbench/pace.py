"""Timing adjusted for the machine's speed at the moment of measuring.

On a shared VM the whole machine runs slower for seconds to minutes at a time
(on the 2-core reference machine, a fixed dict loop took up to 1.6x as long
and a float32 matrix loop up to 1.4x), so the same code reads 20-30% apart in
runs minutes apart, even as a median over a 40 s run.  A `Stopwatch` therefore
runs two short, fixed reference tasks just before and just after the block it
times, and scales the block's wall time by how much the reference slowed:

    adjusted seconds = wall seconds * nominal / (mean of the two reference times)

Slow spells slow Python-bound and BLAS-bound code by different amounts, so
there are two references, and a stopwatch is told which kind of work its block
is: "python" (tuple-keyed dict inserts and a keyed sort, like the store and
the example builders), "numpy" (float32 matrix products of the model's width,
like training) or "mixed" (their sum, for decoding and evaluation, which
interleave the two).  Each nominal time is about the reference's time on the
reference machine at its fast speed, so adjusted times read as seconds there.
The references are part of the benchmark, never of the program, so a change
to the program moves adjusted times exactly as it moves wall times.
"""
from __future__ import annotations

import gc
import statistics
import time

import numpy as np

NOMINAL_S = {"python": 0.004, "numpy": 0.0027}
KINDS = ("python", "numpy", "mixed")


class Pace:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 2700)).astype(np.float32)
        self._b = rng.standard_normal((2700, 128)).astype(np.float32)
        self.references: list[tuple[float, float]] = []

    def reference(self) -> tuple[float, float]:
        """Wall times of the Python and the numpy reference task, with the
        collector off so a collection of the program's objects cannot land in
        them."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            d = {}
            for i in range(12000):
                d[(i, i & 7, i >> 3)] = i
            sorted(d, key=lambda q: (q[2], q[0]))
            t1 = time.perf_counter()
            for _ in range(6):
                self._a @ self._b
            t2 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.references.append((t1 - t0, t2 - t1))
        return t1 - t0, t2 - t1

    def stopwatch(self, kind: str) -> Stopwatch:
        return Stopwatch(self, kind)

    def summary(self) -> dict:
        """The run's median reference times next to the nominal ones: their
        ratio is the run's typical slow-down, by which a wall time exceeds its
        adjusted time."""
        out = {"references": len(self.references)}
        for i, kind in enumerate(NOMINAL_S):
            out[kind] = {"nominal_s": NOMINAL_S[kind],
                         "median_s": statistics.median(r[i] for r in self.references)
                         if self.references else None}
        return out


class Stopwatch:
    """Started on creation; `stop` returns the adjusted seconds since then.
    A stopwatch started inside another one's block adds its reference tasks
    to that block, so the benchmark takes metrics only from stopwatches with
    none inside them."""

    def __init__(self, pace: Pace, kind: str) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown kind of work {kind!r}")
        self._pace = pace
        self._kind = kind
        self._before = pace.reference()
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        wall = time.perf_counter() - self._t0
        after = self._pace.reference()
        python, numpy_ = ((b + a) / 2 for b, a in zip(self._before, after))
        if self._kind == "python":
            factor = NOMINAL_S["python"] / python
        elif self._kind == "numpy":
            factor = NOMINAL_S["numpy"] / numpy_
        else:
            factor = (NOMINAL_S["python"] + NOMINAL_S["numpy"]) / (python + numpy_)
        return wall * factor
