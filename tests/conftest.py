import math
import random

import pytest

from hausnorm import PowerMap, _quad, from_hardy_littlewood
from hausnorm.bounds import BoundConfig, SlotParams
from hausnorm.exponents import Constant
from hausnorm.luxemburg import ExponentExpr, PiecewisePowerFunction, Segment


@pytest.fixture(scope="session")
def hardy_op():
    return from_hardy_littlewood(PowerMap(1.0, 0.0))


@pytest.fixture(scope="session")
def hardy_cfg(hardy_op):
    return BoundConfig(hardy_op, (SlotParams(q=Constant(2.0)),))


def midpoint_radial(fn, r_lo, r_hi, n_steps=20000):
    """Midpoint rule for integral of fn(r) dr on [r_lo, r_hi]; test oracle."""
    h = (r_hi - r_lo) / n_steps
    return h * math.fsum(fn(r_lo + (i + 0.5) * h) for i in range(n_steps))


def closed_form_log(seg, u, v, p, n):
    """ln of the modular of one segment on [u, v] at eta = 1 by the scalar
    closed form, _quad.log_power_integral, when the segment is a plain power
    and p is constant and finite there; +inf marks divergence, None any
    other piece.  Oracle for the closed-form rows of a modular."""
    if not seg.plain_power:
        return None
    p_lo, p_hi = p.range_on(u, v)
    if not (p_lo == p_hi and math.isfinite(p_lo)):
        return None
    ln_integral = _quad.log_power_integral(u, v, n - 1 + seg.expr(1.0) * p_lo)
    return ln_integral if ln_integral == math.inf else p_lo * math.log(seg.coef) + ln_integral


def seeded(seed):
    return random.Random(seed)


def snapped_edges():
    """Segments ending within the snap tolerance of the dyadic radii,
    at 2^j (1 +- 1e-13): overlapping the next segment at odd j, leaving a
    gap at even j."""

    def edge(j, side):
        return 2.0 ** j * (1 + side * (1e-13 if j % 2 else -1e-13))

    return PiecewisePowerFunction(tuple(
        Segment(edge(j, -1), edge(j + 1, 1), 1.0 + 0.1 * j, ExponentExpr(0.05 * j))
        for j in range(-6, 6)
    ))
