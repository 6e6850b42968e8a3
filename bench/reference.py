"""A fixed reference computation that gauges the machine's speed right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes. The process that times a step
also times a reference just before and just after it, and the step's wall
time is reported in units of the reference's mean time as well: the drift
cancels in the ratio, while a change to fairchase moves it. The reference
is the same kind of work as the step. For an in-process step it is
``timed()``, a kernel that mixes row-by-row Python (CSV parsing, grouping
into lists) with small numpy reductions and takes about 20 ms. For a cold
command it is this file run as a script: a cold interpreter that imports
numpy and runs the kernel once, about 0.2 s. Neither calls fairchase, and
their work must never change, so that the ratios of two commits compare.

    python3 bench/reference.py
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

_ROWS = 1200
_REPEATS = 15


def _text() -> str:
    rng = np.random.default_rng(20070589)
    venues = rng.integers(0, 12, _ROWS)
    runs = rng.integers(120, 400, (_ROWS, 2))
    lines = ["id,venue,first,second"]
    lines += [f"r{i:05d},v{venues[i]:02d},{runs[i, 0]},{runs[i, 1]}" for i in range(_ROWS)]
    return "\n".join(lines) + "\n"


_TEXT = _text()


def _kernel() -> float:
    groups: dict[str, list[int]] = {}
    for row in list(csv.reader(io.StringIO(_TEXT)))[1:]:
        groups.setdefault(row[1], []).append(int(row[2]) - int(row[3]))
    total = 0.0
    for values in groups.values():
        ordered = np.sort(np.asarray(values, dtype=float))
        total += float(np.log1p(np.abs(ordered)).sum())
    return total


def timed() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        _kernel()
    return time.perf_counter() - start


if __name__ == "__main__":
    timed()
