"""Multilinear Hausdorff averaging operators on radial functions.

The operator integrates a kernel phi(|t|)/|t|^n against a product of
dilated factors f_i(A_i(t) x).  For radial kernels and radially dilating
families the whole thing collapses to a 1-D integral over the kernel
radius.  It is evaluated at a whole grid of radii at once, one segment
combination at a time: exactly (power antiderivatives, vectorized with
numpy) where the segments are powers with constant exponents, and by
adaptive quadrature otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _quad
from .exponents import sphere_area
from .luxemburg import ExponentExpr, PiecewisePowerFunction, Segment
from .matrices import MatrixFamily, PowerMap, ScalarDilation, SingularFamilyError
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
        if self.c < 0:
            raise ValueError("kernel coefficient must be nonnegative")
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
    families: tuple[MatrixFamily, ...]

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

    Divergent integrals return +inf.
    """
    if len(fs) != spec.m:
        raise ValueError(f"expected {spec.m} input functions, got {len(fs)}")
    if x_radius <= 0:
        raise ValueError("evaluation radius must be positive")
    return float(_image_values(spec, fs, np.array([float(x_radius)]), rel_tol)[0])


def _pullback_windows(f: PiecewisePowerFunction, s: PowerMap, xs: np.ndarray):
    """(segment, r_lo, r_hi) per nonzero segment of f: arrays over xs of the
    kernel radii r with |s(r)| x in [seg.r_lo, min(seg.r_hi, next start)),
    where segment_at assigns it, so snapped overlaps are counted once."""
    cx = abs(s.c) * xs
    out = []
    for seg, hi in zip(f.segments, f.starts[1:] + (_INF,)):
        if seg.coef == 0.0:
            continue
        hi = min(seg.r_hi, hi)
        if s.a == 0.0:
            on = (seg.r_lo <= cx) & (cx < hi)
            out.append((seg, np.where(on, 0.0, _INF), np.where(on, _INF, 0.0)))
        else:
            ends = ((seg.r_lo / cx) ** (1.0 / s.a), (hi / cx) ** (1.0 / s.a))
            out.append((seg, *(ends if s.a > 0 else ends[::-1])))
    return out


def _image_values(spec: OperatorSpec, fs: Sequence[PiecewisePowerFunction],
                  xs: np.ndarray, rel_tol: float) -> np.ndarray:
    """Image values at the radii xs, one segment combination (a segment of
    each input) at a time: in closed form over the whole grid when every
    segment is a plain power, by radial_integral per radius otherwise."""
    k = spec.kernel
    total = np.zeros(len(xs))
    with np.errstate(all="ignore"):
        windows = [_pullback_windows(f, fam.s, xs) for f, fam in zip(fs, spec.families)]
        for combo in itertools.product(*windows):
            segs, los, his = zip(*combo)
            u = np.maximum(k.r_lo, np.max(los, axis=0))
            v = np.minimum(k.r_hi, np.min(his, axis=0))
            idx = np.flatnonzero(u < v)
            if not all(seg.plain_power for seg in segs):
                for i in idx:
                    total[i] += _quadrature_piece(spec, segs, xs[i], u[i], v[i], rel_tol)
                continue
            coef, expo = k.c, k.a - 1.0
            for seg, fam in zip(segs, spec.families):
                b = seg.expr.constant_value()
                coef = coef * (seg.coef * (abs(fam.s.c) * xs[idx]) ** b)
                expo += fam.s.a * b
            piece = _quad.power_integrals(u[idx], v[idx], expo)
            # a divergent piece is +inf even where its coefficient underflows
            total[idx] += np.where(np.isinf(piece), _INF, coef * piece)
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


def _image_support(spec, fs, samples=600):
    """(x_lo, x_hi) outside which the image vanishes, by kernel-radius scan."""
    k = spec.kernel
    lo_k = k.r_lo if k.r_lo > 0 else min(k.r_hi * 1e-18, 1e-18)
    hi_k = k.r_hi if math.isfinite(k.r_hi) else max(k.r_lo, 1.0) * 1e18
    radii = [lo_k * (hi_k / lo_k) ** (i / samples) for i in range(samples + 1)]
    lo_req, hi_req = np.zeros(len(radii)), np.full(len(radii), _INF)
    for f, fam in zip(fs, spec.families):
        # |s(r)| with the scalar pow of PowerMap, so the support and the grid
        # are those of the per-radius scan bit for bit
        c, a = abs(fam.s.c), fam.s.a
        su = np.array([c * r ** a for r in radii])
        if not np.all((0.0 < su) & (su < _INF)):
            raise SingularFamilyError("family scale is 0 or inf on the kernel support")
        f_lo, f_hi = f.support()
        lo_req = np.maximum(lo_req, f_lo / su)
        hi_req = np.minimum(hi_req, f_hi / su)
    live = lo_req < hi_req
    if not live.any():
        return _INF, 0.0
    return float(lo_req[live].min()), float(hi_req[live].max())


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


def _loglog_interpolant(xs, vals) -> PiecewisePowerFunction:
    """Piecewise power function through positive samples, extrapolating the tail.

    Each pair of neighbouring positive finite samples gives the power
    through both; a non-positive or non-finite sample breaks the chain.  A
    piece whose coefficient would leave the float range (the image jumping
    by orders of magnitude within one grid step, at an edge of its support)
    keeps its larger sample and takes the steepest slope representable
    there.  A positive last sample extends to infinity with the slope of
    the last piece.
    """
    xs, vals = np.asarray(xs, dtype=float), np.asarray(vals, dtype=float)
    ok = (vals > 0.0) & np.isfinite(vals)
    i = np.flatnonzero(ok[:-1] & ok[1:])
    x0, x1, v0, v1 = xs[i], xs[i + 1], vals[i], vals[i + 1]
    slope = np.log(v1 / v0) / np.log(x1 / x0)
    # a steep piece passes through its larger sample
    up = (_representable_slope(x0, v0, slope) != slope) & (v1 > v0)
    ax, av = np.where(up, x1, x0), np.where(up, v1, v0)
    slope = _representable_slope(ax, av, slope)
    coef = av / ax ** slope
    if len(i) and ok[-1]:
        tail = _representable_slope(xs[-1:], vals[-1:], slope[-1:])
        x0, x1 = np.append(x0, xs[-1]), np.append(x1, _INF)
        coef = np.append(coef, vals[-1] / xs[-1] ** tail)
        slope = np.append(slope, tail)
    return PiecewisePowerFunction(tuple(
        Segment(lo, hi, c, ExponentExpr(b))
        for lo, hi, c, b in zip(x0.tolist(), x1.tolist(), coef.tolist(), slope.tolist())
    ))


def apply_on_grid(spec: OperatorSpec, fs: Sequence[PiecewisePowerFunction],
                  r_grid: Sequence[float] | None = None,
                  grid_octaves: tuple[int, int] = (-40, 48),
                  points_per_octave: int = 24,
                  rel_tol: float = 1e-9) -> PiecewisePowerFunction:
    """Image of the operator as a piecewise power function.

    Exact when every input is a single unrestricted power (the image is
    then the same power scaled by the kernel integral); otherwise the image
    is sampled on a dyadic grid (or at the radii of r_grid, at least two
    distinct positive ones) and interpolated log-log, with the last slope
    extended to infinity.
    """
    if len(fs) != spec.m:
        raise ValueError(f"expected {spec.m} input functions, got {len(fs)}")

    exact = all(
        len(f.segments) == 1
        and f.segments[0].r_lo == 0.0
        and math.isinf(f.segments[0].r_hi)
        and f.segments[0].plain_power
        for f in fs
    )

    if exact:
        b_total = math.fsum(f.segments[0].expr.constant_value() for f in fs)
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
        step = 2.0 ** (1.0 / points_per_octave)
        grid = []
        x = lo * step
        while x < hi * (1 + 1e-12):
            grid.append(x)
            x *= step
    else:
        grid = sorted(r_grid)
        if len(grid) < 2:
            raise ValueError("need at least two grid radii")
        if any(x <= 0 for x in grid):
            raise ValueError("grid radii must be positive")
        if any(a == b for a, b in zip(grid, grid[1:])):
            raise ValueError("grid radii must be distinct")

    xs = np.array(grid, dtype=float)
    vals = _image_values(spec, fs, xs, rel_tol)
    if np.isinf(vals).any():
        raise DivergentImageError("image is infinite at a grid radius")
    return _loglog_interpolant(xs, vals)


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
    fams = tuple(ScalarDilation(s, 1) for s in ss)
    return OperatorSpec(1, len(fams), kernel, fams)


# ---------------------------------------------------------------------------
# operator ratios


def operator_ratio(spec: OperatorSpec, fs: Sequence[PiecewisePowerFunction],
                   source_specs: Sequence[SpaceSpec], target_spec: SpaceSpec,
                   k_range=(-40, 40), k0_range=(-40, 40), j_range=(-40, 40),
                   grid_octaves=(-40, 48), points_per_octave=24,
                   rel_tol: float = 1e-9) -> float:
    """||H(f_1, ..., f_m)||_target / prod_i ||f_i||_source_i."""
    if len(fs) != spec.m or len(source_specs) != spec.m:
        raise ValueError("need one function and one source space per slot")
    denom = []
    for f, src in zip(fs, source_specs):
        nr = space_norm(f, src, k_range, k0_range, j_range, rel_tol)
        if nr.value == 0.0 or math.isinf(nr.value):
            raise RatioUndefinedError(f"source norm is {nr.value}")
        denom.append(nr.value)
    image = apply_on_grid(
        spec, fs,
        grid_octaves=grid_octaves,
        points_per_octave=points_per_octave,
        rel_tol=rel_tol,
    )
    num = space_norm(image, target_spec, k_range, k0_range, j_range, rel_tol)
    if math.isinf(num.value):
        raise RatioUndefinedError("target norm of the image is infinite")
    return num.value / math.prod(denom)
