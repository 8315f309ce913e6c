"""Shared 1-D radial integration helpers.

Every radial integral in the package runs through here: exact
antiderivatives for power integrands, and ``radial_integral`` for anything
else.  The latter integrates in log-radius with scipy's adaptive quadrature
and decides each singular end (r = 0 or r = inf) on its own: a known power
slope there is checked with the power test and its tail is cut where the
integrand has decayed, and an unknown slope falls back to a cutoff search.
Callers read power slopes off their own data; the dilation families, for
instance, take a ``PowerMap`` so the image radius is a power of the kernel
radius.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np
from scipy import integrate

_INF = math.inf

# |beta + 1| below this counts as the exact divergence boundary
DIV_TOL = 1e-12

# stop a tail once the log-integrand drops below this
_LOG_FLOOR = -720.0


def exp_clip(x: float) -> float:
    """exp with overflow clipped to a huge finite value."""
    if x > 700.0:
        return 1e304
    if x < -745.0:
        return 0.0
    return math.exp(x)


def power_integral(u: float, v: float, beta: float) -> float:
    """Exact integral of r**beta over [u, v]; +inf when it diverges.

    Divergence at the singular endpoints follows the power test: at v=inf
    the integral is infinite iff beta >= -1, at u=0 iff beta <= -1 (both
    within DIV_TOL of the boundary).
    """
    b = beta + 1.0
    if v < u:
        raise ValueError("need u <= v")
    if v == u:
        return 0.0
    if math.isinf(v):
        # on (0, inf) one end or the other diverges
        if b >= -DIV_TOL or u == 0.0:
            return _INF
        return -(u ** b) / b
    if u == 0.0:
        if b <= DIV_TOL:
            return _INF
        return (v ** b) / b
    # finite positive interval; expm1 keeps precision near b = 0
    return (u ** b) * math.expm1(b * math.log(v / u)) / b if b != 0.0 else math.log(v / u)


def power_integrals(u: np.ndarray, v: np.ndarray, beta: float) -> np.ndarray:
    """power_integral over arrays of intervals, each with u < v.

    Same closed forms and power test; numpy's pow and expm1 may differ
    from the scalar libm results by an ulp.
    """
    b = beta + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = u ** b * np.expm1(b * np.log(v / u)) / b if b != 0.0 else np.log(v / u)
        at_inf = np.isinf(v)
        out[at_inf] = _INF if b >= -DIV_TOL else -(u[at_inf] ** b) / b
        at_zero = (u == 0.0) & ~at_inf
        out[at_zero] = _INF if b <= DIV_TOL else v[at_zero] ** b / b
    return out


def log_power_integral(u: float, v: float, beta: float) -> float:
    """ln of the integral of r**beta over [u, v]; +inf marks divergence.

    Overflow-safe for extreme beta, unlike power_integral.
    """
    b = beta + 1.0
    if v <= u:
        return -_INF
    if math.isinf(v):
        if b >= -DIV_TOL:
            return _INF
        return b * math.log(u) - math.log(-b)
    if u == 0.0:
        if b <= DIV_TOL:
            return _INF
        return b * math.log(v) - math.log(b)
    span = math.log(v / u)
    scaled = b * span
    if abs(scaled) < 1e-10:
        return b * math.log(u) + math.log(span)
    if b > 0:
        return b * math.log(v) + math.log1p(-math.exp(-scaled)) - math.log(b)
    return b * math.log(u) + math.log1p(-math.exp(scaled)) - math.log(-b)


def quad_s(g, s_lo: float, s_hi: float, rel_tol: float = 1e-9,
           points: tuple[float, ...] = ()) -> float:
    """Adaptive quadrature of g(s) ds over a finite interval in log-radius.

    g must be evaluable for any s, however extreme; callers express radial
    integrands through log-amplitudes so this holds.
    """
    if s_hi <= s_lo:
        return 0.0
    pts = sorted(p for p in points if s_lo < p < s_hi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _err = integrate.quad(
            g, s_lo, s_hi,
            epsabs=0.0,
            epsrel=rel_tol,
            limit=400,
            points=pts or None,
        )
    return val


def _cut_target(log_integrand, s_ref: float, drop: float) -> float:
    level = log_integrand(s_ref)
    if not math.isfinite(level):
        level = 0.0
    return max(level - drop, _LOG_FLOOR)


def search_cutoff(log_integrand, s_start: float, direction: int,
                  drop: float = 80.0, step0: float = 8.0,
                  s_limit: float = 3e5) -> float | None:
    """First s past s_start where the log-integrand has dropped far enough
    below its reference level that the remaining tail is negligible.

    Returns None when no such point appears before |s| exceeds s_limit,
    which callers treat as a non-integrable (or hopelessly slow) tail.
    """
    target = _cut_target(log_integrand, s_start, drop)
    s = s_start
    step = step0
    for _ in range(80):
        if log_integrand(s) < target:
            return s
        step *= 2.0
        s += direction * step
        if abs(s) > s_limit:
            return None
    return None


def linear_cutoff(log_integrand, s_ref: float, rate: float, direction: int,
                  drop: float = 80.0) -> float | None:
    """Cutoff for a tail whose log-integrand decays ~ rate * |s - s_ref|.

    Starts from the analytic estimate and extends until the drop below the
    reference level is truly reached; gives up (None) after a few tries.
    """
    if rate <= 0:
        return None
    target = _cut_target(log_integrand, s_ref, drop)
    s = s_ref + direction * (drop + 20.0) / rate
    for _ in range(50):
        if log_integrand(s) < target:
            return s
        s += direction * drop / rate
        if abs(s) > 1e7:
            return None
    return None


class RadialIntegral(NamedTuple):
    """Value of a radial integral and how it was obtained.

    s_lo and s_hi bound the log-radius interval handed to the quadrature,
    with tail cutoffs in place of singular ends.  divergence is None for a
    finite value, "power" when the power test at an end fails, and "cutoff"
    when no tail cutoff is found; the value is +inf in both cases.
    """

    value: float
    s_lo: float
    s_hi: float
    divergence: str | None


def radial_integral(log_integrand, lo: float, hi: float,
                    slope_at_0: float | None = None,
                    slope_at_inf: float | None = None,
                    breaks=(), rel_tol: float = 1e-9) -> RadialIntegral:
    """Integral of exp(log_integrand(s)) ds over s in [ln lo, ln hi].

    In radius terms this is the integral of r**beta(r) dr over [lo, hi]
    with log_integrand(s) ~ (beta + 1) s.  slope_at_0 and slope_at_inf give
    the limit of beta at a singular end (lo = 0, hi = inf); None means the
    slope is unknown and the tail is cut by search.  breaks lists radii
    where the integrand may be non-smooth.
    """
    s_lo = -_INF if lo == 0.0 else math.log(lo)
    s_hi = _INF if math.isinf(hi) else math.log(hi)

    if math.isinf(hi):
        if slope_at_inf is None:
            s_hi = search_cutoff(log_integrand, max(s_lo, 1.0), +1)
        elif slope_at_inf >= -1.0 - DIV_TOL:
            return RadialIntegral(_INF, s_lo, s_hi, "power")
        else:
            s_hi = linear_cutoff(log_integrand, max(s_lo, 0.0), abs(slope_at_inf + 1.0), +1)
        if s_hi is None:
            return RadialIntegral(_INF, s_lo, _INF, "cutoff")

    if lo == 0.0:
        if slope_at_0 is None:
            s_lo = search_cutoff(log_integrand, min(s_hi - 1.0, -1.0), -1)
        elif slope_at_0 <= -1.0 + DIV_TOL:
            return RadialIntegral(_INF, s_lo, s_hi, "power")
        else:
            s_lo = linear_cutoff(log_integrand, min(s_hi, 0.0), slope_at_0 + 1.0, -1)
        if s_lo is None:
            return RadialIntegral(_INF, -_INF, s_hi, "cutoff")

    if s_hi <= s_lo:
        return RadialIntegral(0.0, s_lo, s_hi, None)
    pts = tuple(math.log(b) for b in breaks if b > 0)
    value = quad_s(lambda s: exp_clip(log_integrand(s)), s_lo, s_hi, rel_tol, pts)
    return RadialIntegral(value, s_lo, s_hi, None)
