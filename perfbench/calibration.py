"""Machine speed, for timings taken on a machine shared with other work.

The speed of a shared machine can swing by half for tens of seconds. The
benchmark times ``kernel`` between ops and reports every time at the
*reference speed*: the speed at which ``kernel`` takes ``CAL_REF`` seconds.
The kernel shares no code with invbinom and mixes the two kinds of work the
library does: complex arithmetic in a loop, and interpreter overhead (calls,
small objects, a heap), which a slow machine slows by different factors.
"""

import cmath
import heapq
import math
import time

CAL_REF = 2e-4  # seconds the kernel takes at the reference speed


def _arithmetic() -> complex:
    z = complex(0.3, 0.4)
    t = z
    s = 0j
    for k in range(1, 400):
        s += t / (k * k)
        t *= z * (k / (k + 1.0))
    return s + math.log(abs(s)) + cmath.sqrt(s)


class _Panel:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


def _f(t: float) -> float:
    return math.log1p(2.5 * t * (1.0 - t) ** 2) / (t + 1e-3)


def _overhead() -> float:
    """A small adaptive Simpson rule: calls, objects and heap operations."""
    heap = [(-1.0, 0, _Panel(0.0, 1.0))]
    total = 0.0
    i = 1
    while i < 120:
        _, _, p = heapq.heappop(heap)
        m = 0.5 * (p.a + p.b)
        s = (p.b - p.a) / 6.0 * (_f(p.a) + 4.0 * _f(m) + _f(p.b))
        total += s
        heapq.heappush(heap, (-abs(s), i, _Panel(p.a, m)))
        heapq.heappush(heap, (-abs(s), i + 1, _Panel(m, p.b)))
        i += 2
    return total


def kernel() -> complex:
    return _arithmetic() + _overhead()


def kernel_time() -> float:
    """Fastest of three timed runs of the kernel."""
    best = 1.0
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
