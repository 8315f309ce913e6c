"""Multilinear Hausdorff averaging operators on radial functions.

The operator integrates a kernel phi(|t|)/|t|^n against a product of
dilated factors f_i(A_i(t) x).  For radial kernels and radially dilating
families the whole thing collapses to a 1-D integral over the kernel
radius.  It is evaluated at a whole grid of radii and every row
combination at once: each live (combination, radius) pair in log closed
form when every row is a plain power (finite expo), and by adaptive
quadrature otherwise.  The support of a sampled image is closed
form at the kernel ends.  Where the image is one exact power beyond its
closed-form kinks, the grid is sampled only between the extreme kinks; the
log-log interpolant of the samples writes every row of the image, each
pure-power run beyond them as one end row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _quad
from .exponents import sphere_area
from .luxemburg import PiecewisePowerFunction
from .matrices import Dilation, PowerMap, SingularFamilyError
from .spaces import SpaceSpec, space_norm

__all__ = [
    "RadialKernel",
    "OperatorSpec",
    "DivergentImageError",
    "RatioUndefinedError",
    "apply_pointwise",
    "apply_on_grid",
    "from_hardy_littlewood",
    "from_hardy_cesaro",
    "from_multilinear_hardy_cesaro",
    "operator_ratio",
]

_INF = math.inf


class DivergentImageError(ArithmeticError):
    """The kernel integral defining the image diverges."""


class RatioUndefinedError(ArithmeticError):
    """Operator ratio with a zero or infinite denominator or numerator."""


@dataclass(frozen=True)
class RadialKernel:
    """phi(r) = c * r^a supported on [r_lo, r_hi].

    one_sided restricts the kernel to the positive half-line (dimension 1
    only); otherwise the kernel is radial and the angular integral
    contributes the sphere area.
    """

    c: float
    a: float
    r_lo: float
    r_hi: float
    one_sided: bool = False

    def __post_init__(self):
        if not (0 <= self.c < _INF and math.isfinite(self.a)):
            raise ValueError("kernel coefficient must be nonnegative and finite, its power finite")
        if not (0 <= self.r_lo < self.r_hi):
            raise ValueError("kernel support must satisfy 0 <= r_lo < r_hi")

    def phi(self, r: float) -> float:
        if r < self.r_lo or r > self.r_hi:
            return 0.0
        return self.c * r ** self.a


@dataclass(frozen=True)
class OperatorSpec:
    """Dimension, linearity, radial kernel, and the dilation families."""

    n: int
    m: int
    kernel: RadialKernel
    families: tuple[Dilation, ...]

    def __post_init__(self):
        if len(self.families) != self.m:
            raise ValueError("need exactly m matrix families")
        if self.kernel.one_sided and self.n != 1:
            raise ValueError("one-sided kernels exist only in dimension 1")
        for fam in self.families:
            if fam.n != self.n:
                raise ValueError("family dimension mismatch")

    @property
    def sigma(self) -> float:
        return 1.0 if self.kernel.one_sided else sphere_area(self.n)


def apply_pointwise(spec: OperatorSpec, fs: Sequence[PiecewisePowerFunction],
                    x_radius: float, rel_tol: float = 1e-9) -> float:
    """Image value at radius x: sigma * int phi(r)/r * prod f_i(|s_i(r)| x) dr.

    Divergent integrals return +inf; a family scale that is 0 or inf on the
    whole kernel support raises SingularFamilyError.
    """
    if len(fs) != spec.m:
        raise ValueError(f"expected {spec.m} input functions, got {len(fs)}")
    if not 0.0 < x_radius < _INF:
        raise ValueError("evaluation radius must be positive and finite")
    for fam in spec.families:
        _scale_range(fam, spec.kernel)
    return float(_image_values(spec, fs, np.array([float(x_radius)]), rel_tol)[0])


def _pullback_windows(f: PiecewisePowerFunction, s: PowerMap, xs: np.ndarray):
    """(rows, r_lo, r_hi): the nonzero rows of f and, as (rows, len(xs))
    arrays, the kernel radii r with |s(r)| x in [lo, min(hi, next start))
    of each row, where segment_at assigns it, so snapped overlaps are
    counted once."""
    rows = np.flatnonzero(f.coef != 0.0)
    lo, hi = f.lo[rows, None], np.minimum(f.hi, np.append(f.lo[1:], _INF))[rows, None]
    cx = abs(s.c) * xs
    if s.a == 0.0:
        on = (lo <= cx) & (cx < hi)
        return rows, np.where(on, 0.0, _INF), np.where(on, _INF, 0.0)
    ends = (lo / cx) ** (1.0 / s.a), (hi / cx) ** (1.0 / s.a)
    return (rows, *(ends if s.a > 0 else ends[::-1]))


# the most (combination, radius) entries that _image_values holds at once
_BLOCK = 2 ** 16


def _image_values(spec: OperatorSpec, fs: Sequence[PiecewisePowerFunction],
                  xs: np.ndarray, rel_tol: float) -> np.ndarray:
    """Image values at the radii xs over every row combination (a row of
    each input, the first input's varying slowest), in blocks of at most
    _BLOCK (combination, radius) entries.  A pair where the combination's
    windows meet inside the kernel support is in closed form when every row
    is a plain power (finite expo), by radial_integral otherwise; the pairs
    add up radius by radius in combination order."""
    k = spec.kernel
    total = np.zeros(len(xs))
    if k.c == 0.0:
        return total
    with np.errstate(all="ignore"):
        windows = [_pullback_windows(f, fam.s, xs) for f, fam in zip(fs, spec.families)]
        expos = [f.expo[rows] for f, (rows, _lo, _hi) in zip(fs, windows)]
        # math.log: numpy's log may differ from libm's by an ulp
        log_coefs = [np.array([math.log(c) for c in f.coef[rows].tolist()])
                     for f, (rows, _lo, _hi) in zip(fs, windows)]
        log_cx = [np.log(abs(fam.s.c) * xs) for fam in spec.families]
        shape = tuple(len(rows) for rows, _lo, _hi in windows)
        count, step = math.prod(shape), max(_BLOCK // len(xs), 1)
        for start in range(0, count, step):
            combo = np.unravel_index(np.arange(start, min(start + step, count)), shape)
            # pairwise, not stacked: max and min are exact in any order
            u, v = k.r_lo, k.r_hi
            for (_rows, lo, hi), r in zip(windows, combo):
                u, v = np.maximum(u, lo[r]), np.minimum(v, hi[r])
            c, x = np.nonzero(u < v)
            u, v, rows = u[c, x], v[c, x], [r[c] for r in combo]
            # in log space, so a divergent piece is +inf whatever its coefficient
            log_coef, beta = math.log(k.c), k.a - 1.0
            for b, ln_c, fam, ln_cx, r in zip(expos, log_coefs, spec.families, log_cx, rows):
                log_coef = log_coef + (ln_c[r] + b[r] * ln_cx[x])
                beta = beta + fam.s.a * b[r]
            vals = np.exp(log_coef + _quad.log_power_integrals(u, v, beta))
            # beta is nan where a row is not a plain power: quadrature there
            for j in np.flatnonzero(np.isnan(beta)).tolist():
                segs = [f.segments[nz[r[j]]] for f, (nz, _lo, _hi), r in zip(fs, windows, rows)]
                vals[j] = _quadrature_piece(spec, segs, xs[x[j]], u[j], v[j], rel_tol)
            np.add.at(total, x, vals)
    return spec.sigma * total


def _quadrature_piece(spec, segs, x, u, v, rel_tol):
    k = spec.kernel
    lx = math.log(x)
    # ln |s(r)| = ln|c| + a ln r, so each image radius is linear in s = ln r
    maps = [
        (seg, math.log(abs(fam.s.c)), fam.s.a) for seg, fam in zip(segs, spec.families)
    ]

    def log_integrand(s):
        # phi(r)/r dr in log-radius carries Jacobian r, hence k.a * s
        out = math.log(k.c) + k.a * s
        for seg, ln_c, a in maps:
            out += seg.log_amplitude_s(ln_c + a * s + lx)
        return out

    def endpoint_beta(at_zero: bool) -> float:
        beta = k.a - 1.0
        for seg, _ln_c, a in maps:
            image_shrinks = (a > 0) == at_zero
            lim = seg.expr.limit_zero() if image_shrinks else seg.expr.limit_infty()
            beta += a * lim
        return beta

    return _quad.radial_integral(
        log_integrand, u, v,
        slope_at_0=endpoint_beta(True) if u == 0.0 else None,
        slope_at_inf=endpoint_beta(False) if math.isinf(v) else None,
        rel_tol=rel_tol,
    ).value


def _scale_range(fam, k) -> tuple[float, float]:
    """(min, max) of the monotone |s(r)| over the kernel ends; raises
    SingularFamilyError where the scale is 0 or inf on the whole support."""
    c = abs(fam.s.c)
    m, big = sorted(abs(fam.s(r)) for r in (k.r_lo, k.r_hi))
    if not (0.0 < c < _INF and big > 0.0 and m < _INF):
        raise SingularFamilyError(
            f"family scale {c} r^{fam.s.a} is 0 or inf on the kernel support")
    return m, big


def _image_support(spec, fs):
    """(x_lo, x_hi) outside which the image vanishes, (inf, 0) if empty:
    max_i lo_i / M_i and min_i hi_i / m_i, with [lo_i, hi_i] the hull of f_i
    and [m_i, M_i] the range of the monotone |s_i| over the kernel ends.
    Exact for one input or maps that share one exponent, else an outer bound.
    """
    k = spec.kernel
    x_lo, x_hi = 0.0, _INF
    lo_c, hi_c = 0.0, _INF
    for f, fam in zip(fs, spec.families):
        c = abs(fam.s.c)
        m, big = _scale_range(fam, k)
        f_lo, f_hi = f.support()
        if not f_lo < f_hi:
            return _INF, 0.0
        x_lo = max(x_lo, f_lo / big)
        x_hi = min(x_hi, f_hi / m if m > 0.0 else _INF)
        lo_c, hi_c = max(lo_c, f_lo / c), min(hi_c, f_hi / c)
    shared = len({fam.s.a for fam in spec.families}) == 1
    if not x_lo < x_hi or (shared and not lo_c < hi_c):
        return _INF, 0.0
    return x_lo, x_hi


# ln of the largest coefficient, and of the largest x0^slope, that a sampled
# segment may carry
_LN_EDGE = 700.0


def _representable_slope(x0: np.ndarray, v0: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """slope where its power through (x0, v0) keeps the coefficient and
    x0**slope within e^(+-_LN_EDGE), elsewhere the nearest slope that does."""
    ln_v, ln_x = np.log(v0), np.log(x0)
    lo = np.maximum(-_LN_EDGE, ln_v - _LN_EDGE)
    hi = np.minimum(_LN_EDGE, ln_v + _LN_EDGE)
    ln_pow = slope * ln_x
    ok = (lo <= ln_pow) & (ln_pow <= hi)
    return np.divide(np.clip(ln_pow, lo, hi), ln_x, out=slope.copy(), where=~ok)


def _loglog_interpolant(xs, vals, tail=None, low=None) -> PiecewisePowerFunction:
    """Piecewise power function through positive samples, extrapolating the tail.

    Each pair of neighbouring positive finite samples gives the power
    through both; a non-positive or non-finite sample breaks the chain.  A
    piece whose coefficient would leave the float range (the image jumping
    by orders of magnitude within one grid step, at an edge of its support)
    keeps its larger sample and takes the steepest slope representable
    there.  A positive last sample extends to infinity with slope tail, by
    default the last piece's, and with low = (r, slope) a positive first
    sample extends down to r: each end row is the power through its end
    sample, its slope kept representable there.
    """
    xs, vals = np.asarray(xs, dtype=float), np.asarray(vals, dtype=float)
    ok = (vals > 0.0) & np.isfinite(vals)
    i = np.flatnonzero(ok[:-1] & ok[1:])
    slope = np.log(vals[i + 1] / vals[i]) / np.log(xs[i + 1] / xs[i])
    # (sample, lo, hi, slope) of each row, the pieces at their left samples
    cols = [(i, xs[i], xs[i + 1], slope)]
    last = ok[-1] and (len(i) or tail is not None)
    if last:
        cols.append(([len(xs) - 1], xs[-1:], [_INF], [slope[-1] if tail is None else tail]))
    first = int(low is not None and ok[0])
    if first:
        cols.insert(0, ([0], [low[0]], xs[:1], [low[1]]))
    at, lo, hi, want = map(np.concatenate, zip(*cols))
    beta = _representable_slope(xs[at], vals[at], want)
    # a steep piece passes through its larger sample
    up = first + np.flatnonzero((beta[first:first + len(i)] != slope) & (vals[i + 1] > vals[i]))
    if len(up):
        at[up] += 1
        beta[up] = _representable_slope(xs[at[up]], vals[at[up]], want[up])
    if last and tail is None and beta[-2] != slope[-1]:
        # the tail takes the last piece's slope as that piece ended up
        beta[-1:] = _representable_slope(xs[-1:], vals[-1:], beta[-2:-1])
    return PiecewisePowerFunction.from_columns(lo, hi, vals[at] / xs[at] ** beta, beta)


def _power_core(spec, fs, grid: np.ndarray):
    """(i, end, tail, low): the grid radii grid[i:end] that the image is
    sampled at, and the end rows of its interpolant beyond them.  Where the
    image is one exact power x^beta, beta = -kernel.a / a, on grid[:i + 1],
    low = (grid[0], beta), and where it is one on grid[end - 2:], tail =
    beta; each is None otherwise.  The whole grid, without end rows, unless
    every input has only plain rows (finite expo) and its nonzero hull
    inside (0, inf), and the families share one exponent a != 0.

    The image's kinks are e / |s_i(r_k)| for every row edge e of input i
    and finite positive kernel end r_k.  Beyond the extreme ones, at the
    hull ends, every pullback window lies wholly inside the kernel support
    or wholly outside it, so u = |s(r)| x takes x^beta out of the integral.
    grid[i] is the last radius at or below the lowest kink; the core ends
    one radius past the first at or above the highest, so that its last
    chord lies on the high run.  Without a finite positive kernel end the
    whole grid is one run, and both kinks are the middle of those that
    the kernel radius 1 would give, where the pullback windows sit near
    r = 1.
    """
    exponents, whole = {fam.s.a for fam in spec.families}, (0, len(grid), None, None)
    if len(exponents) != 1 or 0.0 in exponents or any(np.isnan(f.expo).any() for f in fs):
        return whole
    hulls = np.array([f.support() for f in fs])
    if not ((hulls[:, 0] > 0.0) & (hulls[:, 1] < _INF)).all():
        return whole
    k = spec.kernel
    ends = [r for r in (k.r_lo, k.r_hi) if 0.0 < r < _INF]
    scales = np.array([[abs(fam.s(r)) for r in ends or [1.0]] for fam in spec.families])
    with np.errstate(divide="ignore"):
        x_min = float((hulls[:, :1] / scales).min())
        x_max = float((hulls[:, 1:] / scales).max())
    if not ends:
        x_min = x_max = math.sqrt(x_min) * math.sqrt(x_max)
    i = max(int(np.searchsorted(grid, x_min, side="right")) - 1, 0)
    j = int(np.searchsorted(grid, x_max))
    high, beta = j + 1 < len(grid), -k.a / exponents.pop()
    return i, j + 2 if high else len(grid), beta if high else None, (grid[0], beta) if i else None


def _geometric_grid(lo: float, hi: float, points_per_octave: int) -> np.ndarray:
    """The radii lo * step, (lo * step) * step, ... below hi (1 + 1e-12), with
    step = 2^(1/points_per_octave), multiplied up one step at a time."""
    step = 2.0 ** (1.0 / points_per_octave)
    factors = np.full(int(max(math.log2(hi / lo), 0.0) * points_per_octave) + 3, step)
    factors[0] = lo * step
    grid = np.multiply.accumulate(factors)
    return grid[: np.searchsorted(grid, hi * (1 + 1e-12))]


def apply_on_grid(spec: OperatorSpec, fs: Sequence[PiecewisePowerFunction],
                  r_grid: Sequence[float] | None = None,
                  grid_octaves: tuple[int, int] = (-40, 48),
                  points_per_octave: int = 24,
                  rel_tol: float = 1e-9) -> PiecewisePowerFunction:
    """Image of the operator as a piecewise power function.

    Exact when every input is a single unrestricted power (the image is
    then the same power scaled by the kernel integral); otherwise the image
    is sampled on a dyadic grid (or at the radii of r_grid, at least two
    distinct positive finite ones) and interpolated log-log, with the last
    slope extended to infinity.  On the dyadic grid, where the image is one
    exact power beyond its extreme kinks (_power_core), only the grid
    between them is sampled, and each pure-power run beyond them is one
    closed-form end row of the interpolant, through the sample at its end.
    """
    if len(fs) != spec.m:
        raise ValueError(f"expected {spec.m} input functions, got {len(fs)}")

    exact = all(len(f.lo) == 1 and f.lo[0] == 0.0 and math.isinf(f.hi[0])
                and not math.isnan(f.expo[0]) for f in fs)
    if exact:
        b_total = math.fsum(f.expo[0] for f in fs)
        k_val = apply_pointwise(spec, fs, 1.0, rel_tol)
        if math.isinf(k_val):
            raise DivergentImageError("kernel integral diverges for these inputs")
        return PiecewisePowerFunction.single_power(k_val, b_total)

    if r_grid is None:
        x_lo, x_hi = _image_support(spec, fs)
        if not (x_lo < x_hi):
            return PiecewisePowerFunction.zero()
        lo = max(x_lo, 2.0 ** grid_octaves[0])
        hi = min(x_hi, 2.0 ** grid_octaves[1])
        grid = _geometric_grid(lo, hi, points_per_octave)
        if len(grid) < 2:
            raise ValueError(f"image support [{x_lo:.6g}, {x_hi:.6g}] leaves fewer than two radii"
                             f" of the grid window [2^{grid_octaves[0]}, 2^{grid_octaves[1]}]")
        i, end, tail, low = _power_core(spec, fs, grid)
    else:
        grid = sorted(r_grid)
        if len(grid) < 2:
            raise ValueError("need at least two grid radii")
        if not all(0.0 < x < _INF for x in grid):
            raise ValueError("grid radii must be positive and finite")
        if any(a == b for a, b in zip(grid, grid[1:])):
            raise ValueError("grid radii must be distinct")
        for fam in spec.families:
            _scale_range(fam, spec.kernel)
        i, end, tail, low = 0, len(grid), None, None

    xs = np.array(grid[i:end], dtype=float)
    vals = _image_values(spec, fs, xs, rel_tol)
    if np.isinf(vals).any():
        raise DivergentImageError("image is infinite at a grid radius")
    return _loglog_interpolant(xs, vals, tail, low)


# ---------------------------------------------------------------------------
# named special cases


def from_hardy_littlewood(psi: PowerMap, n: int = 1) -> OperatorSpec:
    """Weighted one-sided averaging over dilations t in [0, 1]."""
    return from_hardy_cesaro(psi, PowerMap(1.0, 1.0), n)


def from_hardy_cesaro(psi: PowerMap, s: PowerMap, n: int = 1) -> OperatorSpec:
    """One-sided average with a general dilation curve s(t)."""
    return from_multilinear_hardy_cesaro(psi, [s], n)


def from_multilinear_hardy_cesaro(psi: PowerMap, ss: Sequence[PowerMap],
                                  n: int = 1) -> OperatorSpec:
    """Product average: int_0^1 prod f_i(s_i(t) x) psi(t) dt."""
    if n != 1:
        raise ValueError("one-sided averaging kernels are supported only at n = 1")
    if psi.c < 0:
        raise ValueError("psi must be nonnegative")
    kernel = RadialKernel(psi.c, psi.a + 1.0, 0.0, 1.0, one_sided=True)
    fams = tuple(Dilation(s) for s in ss)
    return OperatorSpec(1, len(fams), kernel, fams)


# ---------------------------------------------------------------------------
# operator ratios


def operator_ratio(spec: OperatorSpec, fs: Sequence[PiecewisePowerFunction],
                   source_specs: Sequence[SpaceSpec], target_spec: SpaceSpec,
                   k_range=(-40, 40), k0_range=(-40, 40), j_range=(-40, 40),
                   grid_octaves=(-40, 48), points_per_octave=24,
                   rel_tol: float = 1e-9) -> float:
    """||H(f_1, ..., f_m)||_target / prod_i ||f_i||_source_i.

    Computes each source norm once, then one image and its target norm.
    """
    if len(fs) != spec.m or len(source_specs) != spec.m:
        raise ValueError("need one function and one source space per slot")
    denom = []
    for f, src in zip(fs, source_specs):
        nr = space_norm(f, src, k_range, k0_range, j_range, rel_tol)
        if nr.value == 0.0 or math.isinf(nr.value):
            raise RatioUndefinedError(f"source norm is {nr.value}")
        denom.append(nr.value)
    return _image_ratio(spec, fs, denom, target_spec, k_range, k0_range, j_range,
                        grid_octaves, points_per_octave, rel_tol)


def _image_ratio(spec, fs, denominators, target_spec, k_range, k0_range, j_range,
                 grid_octaves, points_per_octave, rel_tol) -> float:
    """||H(fs)||_target / prod(denominators), the source norms taken as given."""
    image = apply_on_grid(
        spec, fs,
        grid_octaves=grid_octaves,
        points_per_octave=points_per_octave,
        rel_tol=rel_tol,
    )
    num = space_norm(image, target_spec, k_range, k0_range, j_range, rel_tol)
    if math.isinf(num.value):
        raise RatioUndefinedError("target norm of the image is infinite")
    return num.value / math.prod(denominators)
