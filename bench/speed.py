"""Speed probe: express measured times at one fixed reference machine speed.

The CPU speed of a shared virtual machine drifts: on a 2-vCPU virtual
machine running Python 3.11, the same pure-Python loop took anywhere from
0.19 s to 0.32 s within one minute.  Raw times of one workload then spread
far wider than any useful regression bound.  The probe runs a small fixed
kernel (a frozen miniature of the library's element arithmetic) from a
SIGALRM handler every PERIOD_S seconds, in the measured process and
thread, and records how long each run took.

A measured interval is then reported as

    (elapsed - probe time inside it) * REF_KERNEL_S / mean kernel time near it

that is, as the time it would have taken had the machine run at the speed
at which the kernel takes REF_KERNEL_S.  Interpreter-bound library work
slows down with the kernel, so the ratio cancels much of its drift; work in
C big-integer loops follows the kernel less.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
REF_KERNEL_S = 8.0e-5  # kernel time at the reference speed
NEIGHBOURS = 10  # probe samples taken on each side of an interval


def settle_time() -> float:
    """Sleep long enough after an interval for its trailing samples."""
    return 2 * NEIGHBOURS * PERIOD_S


# A frozen miniature of the package's element arithmetic in Z_2[sqrt 2]:
# coordinate tuples, products reduced modulo x^2 - 2, a valuation, and a
# scan over a small table.  It is independent of the package, so library
# changes do not move it.
_DEFINING = (-2, 0, 1)
_TABLE = tuple((i, j) for i in range(1, 16, 2) for j in range(8))[:24]


def _reduce(vec):
    vec = list(vec)
    for i in range(len(vec) - 1, 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            vec[i - 2] -= c * _DEFINING[0]
            vec[i - 1] -= c * _DEFINING[1]
    return tuple(vec[:2])


def _mul(a, b):
    conv = [0, 0, 0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    return _reduce(conv)


def _ord(a) -> int:
    x, y = a
    if not x and not y:
        return 99
    v = 0
    while not x % 2 and not y % 2:
        x, y, v = x // 2, y // 2, v + 2
    return v + (0 if x % 2 else 1)


def kernel() -> None:
    x = (3, 1)
    for t in _TABLE:
        y = _mul(x, t)
        _ord((y[0] - 1, y[1]))
        x = (y[0] % 4099, y[1] % 4099)


class SpeedProbe:
    """Samples kernel times while started; one probe per process."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probe_time: list[float] = [0.0]  # running total, indexed like samples + 1
        self._previous = signal.SIG_DFL

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        kernel()
        d = time.perf_counter() - t
        self.samples.append(d)
        self.probe_time.append(self.probe_time[-1] + d)

    def start(self) -> None:
        previous = signal.signal(signal.SIGALRM, self._tick)
        if previous != self._tick:
            self._previous = previous
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, i0: int, i1: int) -> float:
        """REF_KERNEL_S over the mean kernel time from NEIGHBOURS samples
        before index i0 to NEIGHBOURS samples after index i1 (trimmed by a
        tenth on each side)."""
        window = sorted(self.samples[max(0, i0 - NEIGHBOURS) : i1 + NEIGHBOURS])
        if not window:
            raise RuntimeError("the speed probe took no samples")
        cut = len(window) // 10
        return REF_KERNEL_S / statistics.fmean(window[cut : len(window) - cut])

    def normalize(self, elapsed: float, i0: int, i1: int) -> float:
        """Reference-speed time of an interval that spanned samples i0..i1."""
        inside = self.probe_time[i1] - self.probe_time[i0]
        return (elapsed - inside) * self.factor(i0, i1)
