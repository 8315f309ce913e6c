"""Shared 1-D radial integration helpers.

Every radial integral in the package runs through here: exact
antiderivatives for power integrands, and ``radial_integral`` for anything
else.  The latter integrates in log-radius with an adaptive Gauss-Kronrod
rule over numpy arrays of nodes, in log space, and decides each singular
end (r = 0 or r = inf) on its own: a known power slope there is checked
with the power test and its tail is cut where the integrand has decayed,
and an unknown slope falls back to a cutoff search.  Callers read power
slopes off their own data; the dilation families, for instance, take a
``PowerMap`` so the image radius is a power of the kernel radius.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_INF = math.inf

# |beta + 1| below this counts as the exact divergence boundary
DIV_TOL = 1e-12

# stop a tail once the log-integrand drops below this
_LOG_FLOOR = -720.0

# a tail is cut where the log-integrand has dropped this far below its
# level at the search start
_DROP = 80.0


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


def log_power_integral(u: float, v: float, beta: float) -> float:
    """ln of the integral of r**beta over [u, v]; +inf marks divergence.

    Overflow-safe for extreme beta, unlike power_integral.
    """
    b = beta + 1.0
    if v <= u:
        return -_INF
    if math.isinf(v):
        # on (0, inf) one end or the other diverges
        if b >= -DIV_TOL or u == 0.0:
            return _INF
        return b * math.log(u) - math.log(-b)
    if u == 0.0:
        if b <= DIV_TOL:
            return _INF
        return b * math.log(v) - math.log(b)
    span = math.log(v / u)
    scaled = b * span
    if abs(scaled) < 1e-10:
        # ln((e^x - 1)/x) = x/2 + O(x^2) at x = b span
        return b * math.log(u) + math.log(span) + 0.5 * scaled
    if b > 0:
        return b * math.log(v) + math.log(-math.expm1(-scaled)) - math.log(b)
    return b * math.log(u) + math.log(-math.expm1(scaled)) - math.log(-b)


def log_power_integrals(u: np.ndarray, v: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """log_power_integral over arrays of intervals (u < v) and exponents.

    Rows with a finite |b ln(v/u)| >= 1e-10 take the closed form as arrays,
    whose numpy log and expm1 may differ from libm's by an ulp; the rest,
    singular ends included, take log_power_integral itself.
    """
    b = beta + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = np.abs(b * np.log(v / u))
        # b ln v + ln(1 - e^(-b span)) - ln b for a rising power, and
        # b ln u + ln(1 - e^(b span)) - ln(-b) for a falling one
        out = b * np.log(np.where(b > 0.0, v, u)) + np.log(-np.expm1(-x)) - np.log(np.abs(b))
        special = np.flatnonzero(~((x >= 1e-10) & (x < _INF)))
    for i in special.tolist():
        out[i] = log_power_integral(float(u[i]), float(v[i]), float(beta[i]))
    return out


# QUADPACK's 7-point Gauss / 15-point Kronrod pair (qk15) on [-1, 1]: the
# abscissae from the outside in, the Kronrod weights, and the Gauss weights
# of the odd abscissae (the last one is the centre)
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_NODES = np.array([-x for x in _XK[:-1]] + [x for x in _XK[::-1]])
_K_WEIGHTS = np.array(_WK[:-1] + _WK[::-1])
_G_WEIGHTS = np.zeros(15)
_G_WEIGHTS[1::2] = _WG + _WG[-2::-1]
_G_MINUS_K = _G_WEIGHTS - _K_WEIGHTS

# cell edges of the panel grid in s: unit cells next to 0, then cells
# doubling in width, so a long tail costs a logarithmic number of cells
_GRID = np.array(sorted({0.0} | {sign * 2.0 ** k for k in range(25) for sign in (-1, 1)}))

# an integral stops refining after this many rounds or once it has this
# many panels, and returns its estimate as it stands
_MAX_ROUNDS = 50
_MAX_PANELS = 4000


def radius(s):
    """r = e^s for a float or an array of s; +inf from s = 700 on."""
    if isinstance(s, np.ndarray):
        return np.where(s < 700.0, np.exp(np.minimum(s, 700.0)), _INF)
    return math.exp(s) if s < 700.0 else _INF


def grid_edges(s_lo: float, s_hi: float, points=()) -> np.ndarray:
    """Panel edges over [s_lo, s_hi]: the grid's cell edges and the points
    inside it, sorted."""
    inner = set(_GRID[(_GRID > s_lo) & (_GRID < s_hi)].tolist())
    inner.update(p for p in points if s_lo < p < s_hi)
    return np.array([s_lo, *sorted(inner), s_hi])


def worst_panels(err: np.ndarray, err_total: float, budget: float) -> np.ndarray:
    """The panels to bisect: those with the largest |G - K|, as few as leave
    the rest holding at most half the budget."""
    order = np.argsort(err)[::-1]
    rest = err_total - np.cumsum(err[order])
    return order[:int(np.argmax(rest <= 0.5 * budget)) + 1]


def _panels(lo: np.ndarray, hi: np.ndarray, data=None) -> tuple[np.ndarray, ...]:
    """The panels [lo, hi) as (lo, hi, nodes, *data(nodes))."""
    s = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _NODES
    return (lo, hi, s, *(data(s) if data else ()))


def quad_s(log_g, s_lo: float, s_hi: float, rel_tol: float = 1e-9,
           points: tuple[float, ...] = (), data=None, panels=None,
           ) -> tuple[float, float, tuple | None]:
    """ln of the integral of exp(log_g(s)) ds over [s_lo, s_hi], ln of its
    error estimate, and the panels it ended with.

    Adaptive Gauss-Kronrod 7-15 on panels of a fixed grid: the cells between
    0, +-1, +-2, +-4, ... and the points, bisected while the sum of |G - K|
    over the panels exceeds rel_tol times the integral.  Each round calls
    log_g once, on the nodes of every panel as an array of shape
    (panels, 15) followed by their node data (see _panels), evaluated once
    per node, and bisects the panels with the largest |G - K| until those
    left hold at most half the allowed error.  The sums are taken over
    exp(log_g - M), M the largest node value, and returned as logs, so an
    integral beyond the float range keeps its size.  The error estimate is
    the sum of |G - K|, the error of the Gauss rule.  Given the panels of
    an earlier call, it starts from them, and returns them as they are if
    they pass.
    """
    if panels is None:
        if not s_hi > s_lo:
            return -_INF, -_INF, None
        edges = grid_edges(s_lo, s_hi, points)
        panels = _panels(edges[:-1], edges[1:], data)
    for _round in range(_MAX_ROUNDS):
        lo, hi, s, *node_data = panels
        f = log_g(s, *node_data)
        top = float(f.max())
        if top == _INF or not top > -_INF:
            # an infinite node value, or no mass at any node
            return top, top, panels
        e = np.exp(f - top)
        half = 0.5 * (hi - lo)
        total = float(half @ (e @ _K_WEIGHTS))
        err = np.abs(half * (e @ _G_MINUS_K))
        err_total = float(err.sum())
        budget = rel_tol * total
        if err_total <= budget or len(lo) >= _MAX_PANELS:
            break
        split = worst_panels(err, err_total, budget)
        mid = 0.5 * (lo[split] + hi[split])
        children = _panels(np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split])),
                           data)
        whole = np.ones(len(lo), dtype=bool)
        whole[split] = False
        panels = tuple(np.concatenate((col[whole], child))
                       for col, child in zip(panels, children))
    ln_err = top + math.log(err_total) if err_total > 0.0 else -_INF
    return top + math.log(total), ln_err, panels


def _cut_target(log_integrand, s_ref: float, drop: float) -> float:
    level = log_integrand(s_ref)
    if not math.isfinite(level):
        level = 0.0
    return max(level - drop, _LOG_FLOOR)


def search_points(s_start: float, direction: int, step0: float = 8.0,
                  s_limit: float = 3e5):
    """The points search_cutoff tests, in order: s_start, then steps
    doubling from 2 step0 while |s| stays within s_limit."""
    s, step = s_start, step0
    for _ in range(80):
        yield s
        step *= 2.0
        s += direction * step
        if abs(s) > s_limit:
            return


def search_cutoff(log_integrand, s_start: float, direction: int,
                  drop: float = _DROP, step0: float = 8.0,
                  s_limit: float = 3e5) -> float | None:
    """First s past s_start where the log-integrand has dropped far enough
    below its reference level that the remaining tail is negligible.

    Returns None when no such point appears before |s| exceeds s_limit,
    which callers treat as a non-integrable (or hopelessly slow) tail.
    """
    target = _cut_target(log_integrand, s_start, drop)
    return next((s for s in search_points(s_start, direction, step0, s_limit)
                 if log_integrand(s) < target), None)


def linear_points(s_ref: float, rate: float, direction: int, drop: float = _DROP):
    """The points linear_cutoff tests, in order: from the analytic estimate
    (drop + 20) / rate past s_ref, in steps of drop / rate, while |s| stays
    within 1e7."""
    s = s_ref + direction * (drop + 20.0) / rate
    for _ in range(50):
        yield s
        s += direction * drop / rate
        if abs(s) > 1e7:
            return


def linear_cutoff(log_integrand, s_ref: float, rate: float, direction: int,
                  drop: float = _DROP) -> float | None:
    """Cutoff for a tail whose log-integrand decays ~ rate * |s - s_ref|.

    Starts from the analytic estimate and extends until the drop below the
    reference level is truly reached; gives up (None) after a few tries.
    """
    if rate <= 0:
        return None
    target = _cut_target(log_integrand, s_ref, drop)
    return next((s for s in linear_points(s_ref, rate, direction, drop)
                 if log_integrand(s) < target), None)


def tail_holds(log_integrand, s_ref: float, s_cut: float) -> bool:
    """Whether the log-integrand at the cutoff s_cut is below the target
    that a search from s_ref stops on: the test a tail cut there passes."""
    return log_integrand(s_cut) < _cut_target(log_integrand, s_ref, _DROP)


class RadialIntegral(NamedTuple):
    """Value of a radial integral and how it was obtained.

    log_value is the ln of the integral and log_error the ln of the
    quadrature's error estimate (-inf when no quadrature ran).  s_lo and
    s_hi bound the log-radius interval handed to the quadrature, with tail
    cutoffs in place of singular ends.  divergence is None for a finite
    value, "power" when the power test at an end fails, and "cutoff" when
    no tail cutoff is found; the value is +inf in both cases.  panels are
    the quadrature's (see quad_s), and tails the (s_ref, s_cut) of each cut.
    """

    log_value: float
    s_lo: float
    s_hi: float
    divergence: str | None
    log_error: float = -_INF
    panels: tuple | None = None
    tails: tuple[tuple[float, float], ...] = ()

    @property
    def value(self) -> float:
        """The integral itself; +inf where it overflows."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return _INF


def radial_integral(log_integrand, lo: float, hi: float,
                    slope_at_0: float | None = None,
                    slope_at_inf: float | None = None,
                    breaks=(), rel_tol: float = 1e-9, data=None) -> RadialIntegral:
    """Integral of exp(log_integrand(s)) ds over s in [ln lo, ln hi].

    In radius terms this is the integral of r**beta(r) dr over [lo, hi]
    with log_integrand(s) ~ (beta + 1) s.  slope_at_0 and slope_at_inf give
    the limit of beta at a singular end (lo = 0, hi = inf); None means the
    slope is unknown and the tail is cut by search.  breaks lists radii
    where the integrand may be non-smooth.  The tail searches call
    log_integrand on floats, the quadrature on arrays of nodes followed by
    their node data, when data is given (see quad_s).
    """
    s_lo = -_INF if lo == 0.0 else math.log(lo)
    s_hi = _INF if math.isinf(hi) else math.log(hi)
    tails = []

    if math.isinf(hi):
        s_ref = max(s_lo, 1.0 if slope_at_inf is None else 0.0)
        if slope_at_inf is None:
            s_hi = search_cutoff(log_integrand, s_ref, +1)
        elif slope_at_inf >= -1.0 - DIV_TOL:
            return RadialIntegral(_INF, s_lo, s_hi, "power")
        else:
            s_hi = linear_cutoff(log_integrand, s_ref, abs(slope_at_inf + 1.0), +1)
        if s_hi is None:
            return RadialIntegral(_INF, s_lo, _INF, "cutoff")
        tails.append((s_ref, s_hi))

    if lo == 0.0:
        s_ref = min(s_hi - 1.0, -1.0) if slope_at_0 is None else min(s_hi, 0.0)
        if slope_at_0 is None:
            s_lo = search_cutoff(log_integrand, s_ref, -1)
        elif slope_at_0 <= -1.0 + DIV_TOL:
            return RadialIntegral(_INF, s_lo, s_hi, "power")
        else:
            s_lo = linear_cutoff(log_integrand, s_ref, slope_at_0 + 1.0, -1)
        if s_lo is None:
            return RadialIntegral(_INF, -_INF, s_hi, "cutoff")
        tails.append((s_ref, s_lo))

    if s_hi <= s_lo:
        return RadialIntegral(-_INF, s_lo, s_hi, None, tails=tuple(tails))
    pts = tuple(math.log(b) for b in breaks if b > 0)
    # positional, so that a wrapper bound over quad_s sees every argument
    log_value, log_error, panels = quad_s(log_integrand, s_lo, s_hi, rel_tol, pts, data)
    return RadialIntegral(log_value, s_lo, s_hi, None, log_error, panels, tuple(tails))
