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
from .matrices import MatrixFamily, PowerMap, ScalarDilation
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
    x_lo, x_hi = _INF, 0.0
    for i in range(samples + 1):
        r = lo_k * (hi_k / lo_k) ** (i / samples)
        lo_req, hi_req = 0.0, _INF
        for f, fam in zip(fs, spec.families):
            su = fam.dilation_scale(r)
            f_lo, f_hi = f.support()
            lo_req = max(lo_req, f_lo / su)
            hi_req = min(hi_req, f_hi / su)
        if lo_req < hi_req:
            x_lo = min(x_lo, lo_req)
            x_hi = max(x_hi, hi_req)
    return x_lo, x_hi


# ln of the largest coefficient, and of the largest x0^slope, that a sampled
# segment may carry
_LN_EDGE = 700.0


def _representable_slope(x0: float, v0: float, slope: float) -> float:
    """slope, or the nearest slope whose power through (x0, v0) keeps its
    coefficient and x0**slope within e^(+-_LN_EDGE)."""
    ln_v = math.log(v0)
    lo, hi = max(-_LN_EDGE, ln_v - _LN_EDGE), min(_LN_EDGE, ln_v + _LN_EDGE)
    ln_pow = slope * math.log(x0)
    if lo <= ln_pow <= hi:
        return slope
    return min(max(ln_pow, lo), hi) / math.log(x0)


def _loglog_interpolant(xs, vals) -> PiecewisePowerFunction:
    """Piecewise power function through positive samples, extrapolating the tail.

    A piece whose coefficient would leave the float range (the image jumping
    by orders of magnitude within one grid step, at an edge of its support)
    keeps its larger sample and takes the steepest slope representable
    there; every other piece is the power through both samples.
    """
    segs = []
    prev_x = prev_v = None
    last_slope = None
    for x, v in zip(xs, vals):
        if v <= 0.0 or math.isinf(v) or math.isnan(v):
            prev_x = prev_v = None
            continue
        if prev_x is not None:
            slope = math.log(v / prev_v) / math.log(x / prev_x)
            steep = _representable_slope(prev_x, prev_v, slope) != slope
            x0, v0 = (x, v) if steep and v > prev_v else (prev_x, prev_v)
            slope = _representable_slope(x0, v0, slope)
            segs.append(Segment(prev_x, x, v0 / x0 ** slope, ExponentExpr(slope)))
            last_slope = slope
        prev_x, prev_v = x, v
    if prev_x is not None and last_slope is not None:
        slope = _representable_slope(prev_x, prev_v, last_slope)
        segs.append(Segment(prev_x, _INF, prev_v / prev_x ** slope, ExponentExpr(slope)))
    return PiecewisePowerFunction(tuple(segs))


def apply_on_grid(spec: OperatorSpec, fs: Sequence[PiecewisePowerFunction],
                  r_grid: Sequence[float] | None = None,
                  grid_octaves: tuple[int, int] = (-40, 48),
                  points_per_octave: int = 24,
                  rel_tol: float = 1e-9) -> PiecewisePowerFunction:
    """Image of the operator as a piecewise power function.

    Exact when every input is a single unrestricted power (the image is
    then the same power scaled by the kernel integral); otherwise the image
    is sampled on a dyadic grid and interpolated log-log, with the last
    slope extended to infinity.
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
        if any(x <= 0 for x in grid):
            raise ValueError("grid radii must be positive")

    vals = _image_values(spec, fs, np.array(grid, dtype=float), rel_tol)
    if np.isinf(vals).any():
        raise DivergentImageError("image is infinite at a grid radius")
    return _loglog_interpolant(grid, vals.tolist())


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
