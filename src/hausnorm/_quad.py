"""Shared 1-D radial integration helpers.

Every radial integral in the package runs through here: exact
antiderivatives for power integrands, and one adaptive Gauss-Kronrod engine,
gk_step, that tests many integrals over one array of panels in log space.
radial_integral integrates in log-radius and decides each singular end
(r = 0 or r = inf) on its own (tail_cuts): a known power slope there is
checked with the power test and its tail is cut where the integrand has
decayed, and an unknown slope falls back to a cutoff search; tail_points,
which the Luxemburg modular's rule shares, picks each tail's start and
candidates.  quad_s calls an integrand once per node, so a caller passes
the whole of it.  Callers read power slopes off their own data; the
dilation families, for instance, take a ``PowerMap`` so the image radius is
a power of the kernel radius.
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


def log_power_integrals(u: np.ndarray, v: np.ndarray, beta) -> np.ndarray:
    """log_power_integral over arrays of intervals (u < v) and exponents.

    beta is one exponent per row, or one float for all rows that picks its
    end and takes ln|b| once and gives the numbers of the array of it.  Rows
    with a finite |b ln(v/u)| >= 1e-10 take the closed form as arrays,
    whose numpy log and expm1 may differ from libm's by an ulp; the rest,
    singular ends included, take log_power_integral itself.
    """
    b, rows = beta + 1.0, np.ndim(beta) > 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = np.abs(b * np.log(v / u))
        # b ln v + ln(1 - e^(-b span)) - ln b for a rising power, and
        # b ln u + ln(1 - e^(b span)) - ln(-b) for a falling one
        end = np.where(b > 0.0, v, u) if rows else (v if b > 0.0 else u)
        out = b * np.log(end) + np.log(-np.expm1(-x)) - np.log(np.abs(b))
        special = np.flatnonzero(~((x >= 1e-10) & (x < _INF)))
    for i in special.tolist():
        out[i] = log_power_integral(float(u[i]), float(v[i]), float(beta[i] if rows else beta))
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


def radius(s: np.ndarray) -> np.ndarray:
    """r = e^s over an array of s; +inf from s = 700 on."""
    return np.where(s < 700.0, np.exp(np.minimum(s, 700.0)), _INF)


def grid_panels(s_lo: np.ndarray, s_hi: np.ndarray, points=(), own=()):
    """The panels of every interval [s_lo[k], s_hi[k]] as arrays (lo, hi, k),
    sorted by k and then s: the interval cut at the grid's cell edges and
    the points inside it, and at the s of each pair (k, s) in own.  An
    interval with s_hi[k] <= s_lo[k] has none."""
    cells = np.union1d(_GRID, points) if len(points) else _GRID
    k, at = np.nonzero((cells > s_lo[:, None]) & (cells < s_hi[:, None]))
    own = np.array([(i, x) for i, x in own if s_lo[i] < x < s_hi[i]]).reshape(-1, 2)
    ends = np.arange(len(s_lo))
    k = np.concatenate((ends, k, own[:, 0].astype(np.intp), ends))
    s = np.concatenate((s_lo, cells[at], own[:, 1], np.maximum(s_hi, s_lo)))
    order = np.lexsort((s, k))
    k, s = k[order], s[order]
    # consecutive edges of one interval, an own point on a cell edge once
    pair = (k[1:] == k[:-1]) & (s[1:] > s[:-1])
    return s[:-1][pair], s[1:][pair], k[:-1][pair]


def nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 15 Kronrod nodes of each panel [lo, hi), as (panels, 15)."""
    return 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _NODES


def halve(lo: np.ndarray, hi: np.ndarray, split: np.ndarray):
    """Bisect the panels split: (whole, lo, hi), whole the mask of the
    panels left as they are, and lo, hi those panels followed by the left
    and then the right halves."""
    mid, whole = 0.5 * (lo[split] + hi[split]), np.bincount(split, minlength=len(lo)) == 0
    return (whole, np.concatenate((lo[whole], lo[split], mid)),
            np.concatenate((hi[whole], mid, hi[split])))


def gk_step(f: np.ndarray, half: np.ndarray, rel_tol: float, group=None, groups: int = 1):
    """One Gauss-Kronrod 7-15 test of the integrals over a set of panels.

    f holds ln of the integrand at each panel's 15 nodes, (rows..., panels,
    15), half the panel's half-width and group its integral, in
    range(groups) (None: one), in each row.  Returns, row after row, ln of
    each integral's Kronrod value and of its sum of |G - K| (both M, the
    largest node value, where M is +-inf), summed over exp(f - M), and the
    panels to bisect: where that sum exceeds rel_tol times the value, and
    the integral has fewer than _MAX_PANELS panels, those with the largest
    |G - K|, as few as leave the rest at most half the allowed error.
    """
    if groups == 1:
        # one integral per row: the largest node of the row is its group's
        group = None
    *rows, count, _ = f.shape
    size = math.prod(rows) * groups
    gid = (np.zeros(count, dtype=np.intp) if group is None else group) \
        + groups * np.arange(size // groups).reshape(*rows, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if group is None:
            top = f.max(axis=(-2, -1), keepdims=True)
            e = f - top
        else:
            top = np.full(size, -_INF)
            np.maximum.at(top, gid, f.max(axis=-1))
            e = f - top[gid][..., None]
        top, gid = top.ravel(), gid.ravel()
        np.exp(e, out=e)
        # einsum, not matmul: a panel's sums do not depend on the other panels
        total = np.bincount(gid, (half * np.einsum("...j,j->...", e, _K_WEIGHTS)).ravel(), size)
        err = np.abs(half * np.einsum("...j,j->...", e, _G_MINUS_K)).ravel()
        err_total = np.bincount(gid, err, size)
        finite = np.isfinite(top)
        ln_value = np.where(finite, top + np.log(total), top)
        ln_err = np.where(finite, top + np.log(err_total), top)
    budget = rel_tol * total
    fails = np.flatnonzero(finite & (err_total > budget))
    if not len(fails):
        return ln_value, ln_err, fails
    order = np.argsort(gid, kind="stable")
    ends = np.searchsorted(gid[order], np.stack((fails, fails + 1))).T.tolist()
    split = [fails[:0]]
    for g, (a, b) in zip(fails.tolist(), ends):
        if b - a < _MAX_PANELS:
            worst = order[a:b][np.argsort(err[order[a:b]])[::-1]]
            rest = err_total[g] - np.cumsum(err[worst])
            split.append(worst[:int(np.argmax(rest <= 0.5 * budget[g])) + 1])
    return ln_value, ln_err, np.unique(np.concatenate(split) % count)


def quad_s(log_g, s_lo: float, s_hi: float, rel_tol: float = 1e-9,
           points: tuple[float, ...] = ()) -> tuple[float, float]:
    """ln of the integral of exp(log_g(s)) ds over [s_lo, s_hi] and ln of
    its error estimate, the sum of |G - K|.

    gk_step on the panels of grid_panels, bisected until it passes.  Each
    round calls log_g once, on the nodes of its new panels, (panels, 15):
    all of them at first, then the halves; a kept panel keeps its values.
    """
    if not s_hi > s_lo:
        return -_INF, -_INF
    lo, hi, _k = grid_panels(np.array([s_lo]), np.array([s_hi]), points)
    kept = np.empty((0, len(_NODES)))
    for _round in range(_MAX_ROUNDS):
        f = np.concatenate((kept, log_g(nodes(lo[len(kept):], hi[len(kept):]))))
        ln_value, ln_err, split = gk_step(f, 0.5 * (hi - lo), rel_tol)
        if not len(split):
            break
        whole, lo, hi = halve(lo, hi, split)
        kept = f[whole]
    return float(ln_value[0]), float(ln_err[0])


def cut(level_ref, s: np.ndarray, levels: np.ndarray):
    """The stop rule of every tail cut: the first candidate s whose level is
    below max(level_ref - _DROP, _LOG_FLOOR), a level_ref that is not finite
    read as 0; nan where none is.  level_ref and levels may carry leading
    row axes: one cut per row, over the candidates s on the last axis."""
    target = np.maximum(np.where(np.isfinite(level_ref), level_ref, 0.0) - _DROP, _LOG_FLOOR)
    below = levels < target[..., None]
    return np.where(below.any(axis=-1), s[np.argmax(below, axis=-1)], np.nan)


def search_points(s_start: float, direction: int):
    """The candidates of a cut on an unknown slope past s_start, in order:
    steps doubling from 16 while |s| stays within 3e5."""
    s, step = s_start + direction * 16.0, 32.0
    while abs(s) <= 3e5:
        yield s
        s += direction * step
        step *= 2.0


def linear_points(s_ref: float, rate: float, direction: int):
    """The candidates of a cut on a tail whose log-integrand decays ~ rate *
    |s - s_ref|, in order: from the estimate (_DROP + 20) / rate past s_ref,
    in steps of _DROP / rate, while |s| stays within 1e7."""
    s = s_ref + direction * (_DROP + 20.0) / rate
    for _ in range(50):
        yield s
        s += direction * _DROP / rate
        if abs(s) > 1e7:
            return


def tail_points(s_lo: float, s_hi: float, sign: int, rate: float | None = None):
    """(s_ref, candidates) of the cut of the tail of [s_lo, s_hi] at inf
    (sign 1) or 0 (sign -1).  A known decay rate takes the power test, None
    where rate <= DIV_TOL, and linear_points from max(s_lo, 0) or
    min(s_hi, 0); an unknown one (None) search_points from max(s_lo, 1) or
    min(s_hi - 1, -1)."""
    if rate is None:
        s_ref = max(s_lo, 1.0) if sign > 0 else min(s_hi - 1.0, -1.0)
        return s_ref, search_points(s_ref, sign)
    if rate <= DIV_TOL:
        return None
    s_ref = max(s_lo, 0.0) if sign > 0 else min(s_hi, 0.0)
    return s_ref, linear_points(s_ref, rate, sign)


def search_cutoff(log_integrand, s_ref: float, points) -> float | None:
    """cut on log_integrand at [s_ref, *points], one array in which a level
    may overflow to +-inf; None where no candidate passes, which callers
    treat as a non-integrable (or hopelessly slow) tail."""
    s = np.array([s_ref, *points])
    with np.errstate(over="ignore"):
        levels = log_integrand(s)
    s_cut = float(cut(levels[0], s[1:], levels[1:]))
    return None if math.isnan(s_cut) else s_cut


def linear_cutoff(log_integrand, s_ref: float, rate: float, direction: int) -> float | None:
    """search_cutoff among linear_points; perfbench/spans.py binds this name."""
    return search_cutoff(log_integrand, s_ref, linear_points(s_ref, rate, direction))


class RadialIntegral(NamedTuple):
    """Value of a radial integral and how it was obtained.

    log_value is the ln of the integral and log_error the ln of the
    quadrature's error estimate (-inf when no quadrature ran).  s_lo and
    s_hi bound the log-radius interval handed to the quadrature, with tail
    cutoffs in place of singular ends.  divergence is None for a finite
    value, "power" when the power test at an end fails, and "cutoff" when
    no tail cutoff is found; the value is +inf in both cases.
    """

    log_value: float
    s_lo: float
    s_hi: float
    divergence: str | None
    log_error: float = -_INF

    @property
    def value(self) -> float:
        """The integral itself; +inf where it overflows."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return _INF


def tail_cuts(log_integrand, lo: float, hi: float, slope_at_0: float | None = None,
              slope_at_inf: float | None = None):
    """(s_lo, s_hi, divergence, tails): [ln lo, ln hi] with a tail cut in
    place of each singular end (lo = 0, hi = inf), the one at inf first, and
    the (s_ref, s_cut) of each cut.  slope_at_0 and slope_at_inf give the
    limit of beta at a singular end of the integrand r**beta(r),
    log_integrand(s) ~ (beta + 1) s, or None where it is unknown; each
    cut's start, candidates and, for a known slope, power test are
    tail_points'.  divergence is None, "power" or "cutoff" (see
    RadialIntegral), the failed end left at +-inf.
    """
    s = [-_INF if lo == 0.0 else math.log(lo), _INF if math.isinf(hi) else math.log(hi)]
    tails = []
    for end, slope, sign in ((1, slope_at_inf, 1), (0, slope_at_0, -1)):
        if math.isfinite(s[end]):
            continue
        # the integrand decays at rate -sign (slope + 1) into the tail
        tail = tail_points(s[0], s[1], sign, None if slope is None else -sign * (slope + 1.0))
        s_cut = None if tail is None else search_cutoff(log_integrand, *tail)
        if s_cut is None:
            return s[0], s[1], "power" if tail is None else "cutoff", ()
        s[end] = s_cut
        tails.append((tail[0], s_cut))
    return s[0], s[1], None, tuple(tails)


def radial_integral(log_integrand, lo: float, hi: float,
                    slope_at_0: float | None = None,
                    slope_at_inf: float | None = None,
                    breaks=(), rel_tol: float = 1e-9) -> RadialIntegral:
    """Integral of exp(log_integrand(s)) ds over s in [ln lo, ln hi].

    In radius terms this is the integral of r**beta(r) dr over [lo, hi]
    with log_integrand(s) ~ (beta + 1) s.  Its singular ends are cut by
    tail_cuts, with the slopes given there.  breaks lists radii where the
    integrand may be non-smooth.  A tail cut calls log_integrand on one
    array of points, the quadrature once per node on arrays of nodes (see
    quad_s).
    """
    s_lo, s_hi, divergence, _tails = tail_cuts(log_integrand, lo, hi, slope_at_0, slope_at_inf)
    if divergence is not None:
        return RadialIntegral(_INF, s_lo, s_hi, divergence)
    pts = tuple(math.log(b) for b in breaks if b > 0)
    # positional, so that a wrapper bound over quad_s sees every argument
    log_value, log_error = quad_s(log_integrand, s_lo, s_hi, rel_tol, pts)
    return RadialIntegral(log_value, s_lo, s_hi, None, log_error)
