"""Host-speed adjustment of measured times.

The benchmark runs on shared virtual machines whose speed drifts by a third
or more within seconds (README.md, "Noise"). So every timed operation is
bracketed by two samples of a fixed calibration kernel that touches no
hausnorm code, and its time is scaled by REF_S over their mean: the result
is the time the operation would take on a host where the kernel takes
REF_S. A change to hausnorm cannot change the kernel, so it moves adjusted
times as it moves raw ones; the report lines print both.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from scipy import integrate

# kernel time that defines the adjusted scale, close to its time on the
# host where the benchmark was written (Intel Xeon, 2 vCPUs)
REF_S = 0.010


@dataclass(frozen=True)
class _Piece:
    lo: float
    hi: float
    coef: float
    expo: float

    def value(self, r: float) -> float:
        return self.coef * r ** self.expo


def _integrand(s: float) -> float:
    return math.exp(-s * s) * math.cos(3.0 * s) + 1e-3 * math.log1p(s * s)


def kernel() -> float:
    """Fixed work like the library's: small frozen objects, float math in
    Python, sorting, dict lookups and scipy quadrature over a callback."""
    rng = random.Random(7)
    pieces = []
    for _ in range(2200):
        lo = rng.uniform(0.1, 10.0)
        pieces.append(_Piece(lo, 1.5 * lo, rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0)))
    pieces.sort(key=lambda p: p.lo)
    total = math.fsum(math.log(p.value(math.sqrt(p.lo * p.hi))) for p in pieces)
    table = {(i % 97, round(p.expo, 2)): p for i, p in enumerate(pieces)}
    for k in range(9):
        total += integrate.quad(_integrand, -5.0, 7.0 + 1e-3 * k,
                                epsabs=0.0, epsrel=1e-11, limit=400)[0]
    return total + len(table)


def sample() -> float:
    """Seconds the kernel takes on the host now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def adjust(raw: float, before: float, after: float) -> float:
    """Raw seconds scaled to the reference host, from the kernel samples
    taken just before and just after."""
    return raw * REF_S / (0.5 * (before + after))
