"""Timing, tracing and result assembly shared by the benchmark's workloads.

The harness times only the calls a point makes into qacsim; input
generation and reference checks run between timed intervals.  Spans are kept
in memory while the run lasts and written to a JSON file when it ends.

Every timed interval is also calibrated: fixed kernels are timed between
intervals, and each interval is rescaled to the speed at which the kernel
that resembles its work takes its nominal time, using that kernel's median
time near the interval.  The machines this runs on change speed by a quarter
within a fraction of a second; the kernels' times follow those changes, so
the rescaled times move less than the wall times.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

CAL_MAX_RUNS = 50
# kernel times count for an interval when taken within this reach of it: the
# larger of CAL_REACH_S and CAL_REACH_SHARE of the interval's length
CAL_REACH_S, CAL_REACH_SHARE = 0.1, 0.25


def _symmetric(size: int) -> np.ndarray:
    m = np.random.default_rng(0).random((size, size))
    return m + m.T


_CAL_SMALL, _CAL_LARGE = _symmetric(48), _symmetric(128)


def interpreted_kernel() -> None:
    """Interpreted arithmetic and small eigensolves, like qacsim's decode
    loops; 2 ms at this machine's median speed."""
    acc = 0
    for i in range(3000):
        acc += i * i
    for _ in range(5):
        np.linalg.eigh(_CAL_SMALL)


def dense_kernel() -> None:
    """Mostly a 128x128 eigensolve, like the integrator's node builds; 3 ms
    at this machine's median speed."""
    acc = 0
    for i in range(2000):
        acc += i * i
    for _ in range(3):
        np.linalg.eigh(_CAL_SMALL)
    np.linalg.eigh(_CAL_LARGE)


KERNELS = {"interpreted": (interpreted_kernel, 0.002), "dense": (dense_kernel, 0.003)}


class Clock:
    """Times of every calibration kernel, run in turn between timed intervals."""

    def __init__(self):
        self.samples: dict[str, list[tuple[float, float]]] = {name: [] for name in KERNELS}
        self.calibrate(CAL_MAX_RUNS)

    def calibrate(self, runs: int) -> None:
        for _ in range(runs):
            for name, (kernel, _) in KERNELS.items():
                t0 = time.perf_counter()
                kernel()
                t1 = time.perf_counter()
                self.samples[name].append((t1, t1 - t0))

    def factor(self, kernel: str, t0: float, t1: float) -> float:
        """The kernel's median time near [t0, t1] over its nominal time."""
        reach = max(CAL_REACH_S, CAL_REACH_SHARE * (t1 - t0))
        near = [k for t, k in self.samples[kernel] if t0 - reach <= t <= t1 + reach]
        return float(np.median(near)) / KERNELS[kernel][1]


class Calibrated:
    """Timed intervals, each rescaled by the factor of the kernel named for
    it; ``raw`` keeps the wall times.  An interval that repeats the same work
    ``repeats`` times counts as one value, its time over ``repeats``."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.raw: list[float] = []
        self._spans: list[tuple[str, float, float]] = []

    @contextmanager
    def interval(self, kernel: str, repeats: int = 1):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.raw.append((t1 - t0) / repeats)
            self._spans.append((kernel, t0, t1))
            # about 5% of the interval, so long intervals get a steadier speed
            self.clock.calibrate(min(CAL_MAX_RUNS, max(1, int((t1 - t0) / 0.1))))

    @property
    def factors(self) -> list[float]:
        return [self.clock.factor(*span) for span in self._spans]

    @property
    def scaled(self) -> list[float]:
        return [r / f for r, f in zip(self.raw, self.factors)]


class Tracer:
    """Spans (name, start, end, parent, point id) and counters, kept in memory.

    When disabled, ``span`` does nothing, so the untraced run pays only for a
    function call and a generator per span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.point_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.point_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent", "point")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, sp)) for sp in self.spans], fh)


@dataclass
class Point:
    """One data point of a figure: ``run`` calls qacsim, ``check`` returns a
    list of problems found in its output (empty when the output is right)."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    kernel: str = "interpreted"  # the calibration kernel its work resembles
    output: Any = None


@dataclass
class RunResult:
    setup: Calibrated
    points: Calibrated
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    raised: int = 0
    problems: list[str] = field(default_factory=list)  # outputs found wrong
    peak_rss_mb: float = 0.0
    check_s: float = 0.0


def _report(result: RunResult, message: str) -> None:
    result.problems.append(message)
    print(f"problem: {message}", file=sys.stderr)


def run_workload(workload, seconds: float, tracer: Tracer) -> RunResult:
    """Set up, then run whole rounds of points until the timed phase is
    nearest to ``seconds`` in whole rounds.

    Set-up is repeated over the whole run, not only at its start: a batch of
    ``workload.SETUP_BATCH`` set-ups after every ``workload.SETUP_EVERY``
    points, so that the median set-up time samples the machine's speed across
    the run as the points do.  The batches fall after fixed points, so every
    run of a workload repeats set-up alike."""
    clock = Clock()
    result = RunResult(Calibrated(clock), Calibrated(clock))
    _setup_batch(workload, result, tracer)
    while True:
        done: list[Point] = []
        for point in workload.round(result.rounds):
            result.attempted += 1
            tracer.point_id = result.attempted
            try:
                with result.points.interval(point.kernel), tracer.span("bench.point"):
                    point.output = point.run()
            except Exception:
                result.failed += 1
                result.raised += 1
                print(f"failed: {point.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            else:
                done.append(point)
            tracer.point_id = None
            if result.attempted % workload.SETUP_EVERY == 0:
                _setup_batch(workload, result, tracer)
        if result.rounds == 0:
            # high-water mark of set-up and one round, before any check
            # allocates its references
            result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _check(workload if result.rounds == 0 else None, done, result, tracer)
        result.rounds += 1
        timed = sum(result.points.raw)
        if timed + 0.5 * timed / result.rounds >= seconds:
            return result


def _setup_batch(workload, result: RunResult, tracer: Tracer) -> None:
    # set-up builds Python objects: the interpreted kernel resembles it
    with result.setup.interval("interpreted", workload.SETUP_BATCH):
        for _ in range(workload.SETUP_BATCH):
            with tracer.span("bench.setup"):
                workload.setup()


def _check(workload, done: list[Point], result: RunResult, tracer: Tracer) -> None:
    """Check the set-up (when a workload is given) and one round's outputs,
    then drop the outputs so later rounds start from the same heap."""
    t0 = time.perf_counter()
    with tracer.span("reference.check"):
        for message in workload.check_setup() if workload is not None else ():
            _report(result, f"setup: {message}")
        for point in done:
            try:
                messages = point.check(point.output)
            except Exception:
                messages = [f"check raised:\n{traceback.format_exc()}"]
            if messages:
                result.failed += 1
                for message in messages:
                    _report(result, f"{point.key}: {message}")
            point.output = None
    result.check_s += time.perf_counter() - t0


def end_to_end(result: RunResult, raw: bool = False) -> dict[str, dict]:
    """The four end-to-end metrics, calibrated (or as raw wall times)."""
    points = result.points.raw if raw else result.points.scaled
    setup = result.setup.raw if raw else result.setup.scaled
    return {
        "points_per_s": {"value": (result.attempted - result.raised) / sum(points), "unit": "points/s"},
        "point_s_p50": {"value": statistics.median(points), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": result.peak_rss_mb, "unit": "MB"},
    }
