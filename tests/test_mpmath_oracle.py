"""The quadrature path against independent 30-digit mpmath integrals.

Each case is integrated once more by mpmath's tanh-sinh rule, with the
exponents re-evaluated in mpmath arithmetic.  The package's value must
agree to 1e-9 relative, and the |G - K| estimate of the last G-K step
(_quad.gk_step) on the final rule must be at least the true error.  A
variable-exponent Luxemburg norm is checked the same way: the mpmath
modular at the norm must be 1.
"""

import json
import math
from bisect import bisect_right
from pathlib import Path

import mpmath
import numpy as np
import pytest
from mpmath import mp

from hausnorm import _quad
from hausnorm.exponents import (
    RECIP_ZERO_TOL,
    LogInterp,
    PiecewiseRadial,
    ReciprocalDifference,
    Rescaled,
)
from hausnorm.luxemburg import (
    ExponentExpr,
    ExprTerm,
    PiecewisePowerFunction,
    Region,
    Segment,
    luxemburg_norm,
    modular,
)

from hausnorm.cli import main
from conftest import seeded
from test_luxemburg import ROOT_EXPONENTS, c1_residual, random_piecewise

REL = 1e-9
# the edges of mpmath's subintervals in s = ln r, dense where the C1
# integrands peak and reaching past their tail cutoffs
S_EDGES = [-80, -40, -20, -10, -5, -2, -1, 0, 1, 2, 5, 10, 20, 30, 40, 50, 70, 100, 150,
           250, 400]


def mp_exponent(p, r):
    """p(r) in mpmath arithmetic, for the exponent types used below."""
    if isinstance(p, LogInterp):
        return p.p_inf + (p.p0 - p.p_inf) / mp.log(mp.e + r)
    if isinstance(p, Rescaled):
        return mp_exponent(p.base, p.scale * r)
    if isinstance(p, PiecewiseRadial):
        return mp.mpf(p.values[bisect_right(p.breaks, float(r))])
    if isinstance(p, ReciprocalDifference):
        d = 1 / mp_exponent(p.a, r) - 1 / (p.zeta * mp_exponent(p.b, r))
        return mp.inf if d <= RECIP_ZERO_TOL else 1 / d
    raise TypeError(p)


def mp_modular(seg, p, eta, s_edges):
    """2 * integral of (seg(r)/eta)^p(r) dr (the n = 1 modular) over the
    segment, in s = ln r, split at s_edges."""
    lo = -mp.inf if seg.r_lo == 0.0 else mp.log(seg.r_lo)
    hi = mp.inf if math.isinf(seg.r_hi) else mp.log(seg.r_hi)
    edges = [lo] + [mp.mpf(s) for s in s_edges if lo < s < hi] + [hi]

    def integrand(s):
        r = mp.exp(s)
        expo = seg.expr.const + sum(
            t.coef / mp_exponent(t.fn, r) if t.reciprocal else t.coef * mp_exponent(t.fn, r)
            for t in seg.expr.terms
        )
        ln_g = mp.log(seg.coef) + expo * s - mp.log(eta)
        pv = mp_exponent(p, r)
        if mp.isinf(pv):
            return mp.mpf(0) if ln_g < 0 else mp.inf
        return mp.exp(s + pv * ln_g)

    value, error = mp.quad(integrand, edges, error=True)
    # the oracle's own error estimate is far inside the tolerance
    assert error <= 1e-15 * value
    return 2 * value


@pytest.fixture
def dps30():
    with mp.workdps(30):
        yield


@pytest.fixture
def last_quad(monkeypatch):
    """The (ln values, ln errors) of every G-K step, the last one on the
    quadrature's final rule."""
    calls = []
    inner = _quad.gk_step

    def recorded(*args):
        out = inner(*args)
        calls.append(out[:2])
        return out

    monkeypatch.setattr(_quad, "gk_step", recorded)
    return calls


def check(got, want, steps, sigma=2.0):
    """got within REL of want, and the error estimate of the one integral
    of the last G-K step, the quadrature behind got, at least the true
    error."""
    assert got == pytest.approx(float(want), rel=REL)
    ln_value, ln_error = steps[-1]
    assert ln_value.shape == ln_error.shape == (1,)
    ln_value, ln_error = float(ln_value[0]), float(ln_error[0])
    assert sigma * math.exp(ln_value) == got
    assert abs(mpmath.mpf(got) - want) <= sigma * math.exp(ln_error)


class TestModularOracle:
    # two eta on either side of each norm of 1 (1.187, 1.055 and 1.004)
    @pytest.mark.parametrize("t, eta", [(0.05, 1.15), (0.05, 1.25), (0.5, 1.03), (0.5, 1.08),
                                        (0.95, 1.003), (0.95, 1.01)])
    def test_c1_residual(self, dps30, last_quad, t, eta):
        p = c1_residual(t)
        one = PiecewisePowerFunction.one()
        got = modular(one.scaled(1.0 / eta), p, Region.all(), 1)
        want = mp_modular(one.segments[0], p, mp.mpf(eta), S_EDGES)
        check(got, want, last_quad)

    def test_step_exponent_with_breaks(self, dps30, last_quad):
        p = PiecewiseRadial((0.5, 2.0), (3.0, 1.5, 2.5))
        seg = Segment(0.1, 8.0, 1.3, ExponentExpr(0.4))
        got = modular(PiecewisePowerFunction((seg,)), p, Region.all(), 1)
        # the mpmath subintervals end at the steps
        want = mp_modular(seg, p, mp.mpf(1), [math.log(0.5), math.log(2.0)])
        check(got, want, last_quad)

    def test_reciprocal_term_segment(self, dps30, last_quad):
        # 0.8 r^(0.2 - 1/q(r)) on [0, 4) against p = q = LogInterp(3, 2)
        q = LogInterp(3.0, 2.0)
        g = PiecewisePowerFunction.power_with_terms(
            0.8, 0.2, [ExprTerm(-1.0, q, reciprocal=True)], 0.0, 4.0
        )
        got = modular(g, q, Region.all(), 1)
        want = mp_modular(g.segments[0], q, mp.mpf(1), S_EDGES)
        check(got, want, last_quad)


@pytest.mark.parametrize("name", ["loginterp", "jump"])
def test_norm_is_the_mpmath_unit_level(dps30, name):
    """Luxemburg norms of six seeded piecewise powers on annuli in [1/8, 8]:
    the mpmath modular at the returned eta is 1 to within 2e-9."""
    p, rng = ROOT_EXPONENTS[name], seeded(43)
    for g in [random_piecewise(rng) for _ in range(6)]:
        eta = luxemburg_norm(g, p, Region.all(), 1)
        # the mpmath subintervals end at the jump's step r = 1
        level = mp.fsum(mp_modular(seg, p, mp.mpf(eta), [0.0]) for seg in g.segments)
        assert abs(level - 1) <= 2e-9


def test_radial_integral_with_both_tails_searched(dps30, last_quad):
    # integral of r^0.5 e^(-r - 1/r) dr over (0, inf): both slopes unknown
    res = _quad.radial_integral(lambda s: 1.5 * s - np.exp(s) - np.exp(-s), 0.0, math.inf)
    assert res.divergence is None
    assert math.isfinite(res.s_lo) and math.isfinite(res.s_hi)
    want = mp.quad(lambda r: mp.sqrt(r) * mp.exp(-r - 1 / r), [0, 1, 10, mp.inf])
    check(res.value, want, last_quad, sigma=1.0)
    assert (res.log_value, res.log_error) == tuple(float(v[0]) for v in last_quad[-1])


def test_step_exponent_norm_against_closed_form_root(dps30, capsys):
    """`hausnorm norm` on tests/fixtures/step_q_norm.json against the
    mpmath root of its modular, which on each step of q is a sum of
    closed-form power integrals, read from the fixture's own numbers."""
    path = Path(__file__).parent / "fixtures" / "step_q_norm.json"
    obj = json.loads(path.read_text())
    q, segs = obj["space"]["q"], obj["function"]["segments"]
    edges = [0.0, *q["breaks"], math.inf]
    # (lo, hi, c, a, q) of every segment on every step of q that it meets
    pieces = [(max(s["lo"], lo), min(s["hi"], hi), s["c"], s["a"], p)
              for s in segs for lo, hi, p in zip(edges, edges[1:], q["values"])
              if max(s["lo"], lo) < min(s["hi"], hi)]

    def log_modular(eta):
        # 2 * sum of (c/eta)^p * integral of r^(a p) over [lo, hi], n = 1
        return mp.log(2 * mp.fsum(
            (mp.mpf(c) / eta) ** p * (mp.mpf(hi) ** (a * p + 1) - mp.mpf(lo) ** (a * p + 1))
            / (a * p + 1) for lo, hi, c, a, p in pieces))

    want = mp.findroot(log_modular, mp.mpf(8))
    assert main(["norm", "--config", str(path)]) == 0
    got = json.loads(capsys.readouterr().out)["norm"]
    assert got == pytest.approx(float(want), rel=1e-10)


# one step of a sampled image's grid, 2^(1/24), where near-critical image
# pieces have |b ln(v/u)| far below 1
GRID_STEP = (7.075804468189565, 7.075804468189565 * 2.0 ** (1 / 24))


@pytest.mark.parametrize("x", [1e-12, 5e-11, 2e-10, 1e-9, 1e-7, 1e-4, 7.6e-3, 0.03, 1.0, 30.0])
@pytest.mark.parametrize("sign", [1, -1])
def test_closed_form_power_integral_near_critical_slope(dps30, x, sign):
    """ln of the integral of r^beta over one grid step, at |b ln(v/u)| = x,
    by the scalar and the array closed form: within 1e-14 of mpmath,
    relative to b ln v, where 1 - e^(-x) cancels to x."""
    u, v = GRID_STEP
    beta = -1.0 + sign * x / math.log(v / u)
    b = mp.mpf(beta) + 1
    want = mp.log((mp.mpf(v) ** b - mp.mpf(u) ** b) / b)
    tol = 1e-14 * max(1.0, abs((beta + 1.0) * math.log(v)))
    assert abs(_quad.log_power_integral(u, v, beta) - want) <= tol
    got = _quad.log_power_integrals(np.array([u]), np.array([v]), np.array([beta]))
    assert abs(got[0] - want) <= tol
