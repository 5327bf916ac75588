"""The reference kernel: a fixed piece of pure Python that measures how fast
the machine runs Python at the moment.

On a shared host, other tenants slow this process by up to 1.5x, for
stretches from milliseconds to minutes; a whole 40-second run can fall
inside one.  No statistic over one run can remove a slowdown that lasts the
whole run, so the benchmark times this kernel next to the engine and gives
its figures at one fixed speed: every time is multiplied by
``REFERENCE_MS / (the kernel's time measured alongside it)``.

The kernel does the kind of work the engine does (modular arithmetic, small
frozen dataclasses, a dict keyed by them) without importing the engine, so a
change to the engine never changes the scale.  On a 2-vCPU virtual machine,
the kernel's time and the engine's moved together as load came and went:
over 90 seconds a BFS op took from 7.6 to 12.8 ms in ten stretches while its
ratio to the kernel stayed within 27.5 to 28.4.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter_ns

#: The kernel's time in ms on a quiet vCPU of the machine the benchmark was
#: written on (its fifth percentile over 3000 calls was 0.217 ms).  It only
#: sets the scale: figures read as times on a machine that runs the kernel
#: in this long.
REFERENCE_MS = 0.22
#: Kernel calls per measurement; the median is used.
REPEATS = 5

_P = 103  # the curve y^2 = x^3 - x over F_103


@dataclass(frozen=True)
class _Point:
    x: int
    y: int


def _add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a.x == b.x and (a.y + b.y) % _P == 0:
        return None
    if a == b:
        slope = (3 * a.x * a.x - 1) * pow(2 * a.y, -1, _P) % _P
    else:
        slope = (b.y - a.y) * pow(b.x - a.x, -1, _P) % _P
    x = (slope * slope - a.x - b.x) % _P
    return _Point(x, (slope * (a.x - x) - a.y) % _P)


_BASE = next(_Point(x, y) for x in range(_P) for y in range(1, _P)
             if (y * y - (x ** 3 - x)) % _P == 0)


def kernel() -> int:
    """150 multiples of a point of order 52, stored in a dict; returns its size."""
    seen, q = {}, None
    for i in range(150):
        q = _add(q, _BASE)
        seen[q] = i
    return len(seen)


def sample(repeats: int = REPEATS) -> list[int]:
    """Times of ``repeats`` kernel calls, in ns."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        kernel()
        times.append(perf_counter_ns() - t0)
    return times


def scale(times_ns) -> float:
    """The factor that takes a time measured next to ``times_ns`` to the
    reference speed."""
    return REFERENCE_MS * 1e6 / statistics.median(times_ns)
