"""Multilinear Hausdorff averaging operators on radial functions.

The operator integrates a kernel phi(|t|)/|t|^n against a product of
dilated factors f_i(A_i(t) x).  For radial kernels and radially dilating
families the whole thing collapses to a 1-D integral over the kernel
radius, which is evaluated exactly (piecewise power antiderivatives)
whenever the inputs are piecewise powers with constant exponents, and by
adaptive quadrature otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def _pullback_breaks(f: PiecewisePowerFunction, s: PowerMap, x: float) -> list[float]:
    """Kernel radii where s(r) * x crosses a segment boundary of f."""
    if s.a == 0.0:
        return []
    out = []
    for seg in f.segments:
        for edge in (seg.r_lo, seg.r_hi):
            if 0.0 < edge < _INF:
                r = (edge / (abs(s.c) * x)) ** (1.0 / s.a)
                if math.isfinite(r) and r > 0:
                    out.append(r)
    return out


def apply_pointwise(spec: OperatorSpec, fs: Sequence[PiecewisePowerFunction],
                    x_radius: float, rel_tol: float = 1e-9) -> float:
    """Image value at radius x: sigma * int phi(r)/r * prod f_i(|s_i(r)| x) dr.

    Divergent integrals return +inf.
    """
    if len(fs) != spec.m:
        raise ValueError(f"expected {spec.m} input functions, got {len(fs)}")
    if x_radius <= 0:
        raise ValueError("evaluation radius must be positive")

    k = spec.kernel

    # split the kernel support where any factor switches segment
    cuts = {k.r_lo, k.r_hi}
    for f, fam in zip(fs, spec.families):
        cuts.update(
            r for r in _pullback_breaks(f, fam.s, x_radius) if k.r_lo < r < k.r_hi
        )
    edges = sorted(cuts)

    total = []
    for u, v in zip(edges, edges[1:]):
        if v <= u:
            continue
        val = _piece_image(spec, fs, x_radius, u, v, rel_tol)
        if math.isinf(val):
            return _INF
        total.append(val)
    return spec.sigma * math.fsum(total)


def _piece_image(spec, fs, x, u, v, rel_tol):
    k = spec.kernel
    mid = math.sqrt(u * v) if u > 0 else (v / 2.0 if math.isfinite(v) else 1.0)

    active = []
    for f, fam in zip(fs, spec.families):
        seg = f.segment_at(fam.dilation_scale(mid) * x)
        if seg is None or seg.coef == 0.0:
            return 0.0
        active.append(seg)

    if all(seg.plain_power for seg in active):
        coef = k.c
        expo = k.a - 1.0
        for seg, fam in zip(active, spec.families):
            b = seg.expr.constant_value()
            coef *= seg.coef * (abs(fam.s.c) * x) ** b
            expo += fam.s.a * b
        return coef * _quad.power_integral(u, v, expo)

    lx = math.log(x)
    # ln |s(r)| = ln|c| + a ln r, so each image radius is linear in s = ln r
    maps = [
        (seg, math.log(abs(fam.s.c)), fam.s.a) for seg, fam in zip(active, spec.families)
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


def _loglog_interpolant(xs, vals) -> PiecewisePowerFunction:
    """Piecewise power function through positive samples, extrapolating the tail."""
    segs = []
    prev_x = prev_v = None
    last_slope = None
    for x, v in zip(xs, vals):
        if v <= 0.0 or math.isinf(v) or math.isnan(v):
            prev_x = prev_v = None
            continue
        if prev_x is not None:
            slope = math.log(v / prev_v) / math.log(x / prev_x)
            coef = prev_v / prev_x ** slope
            segs.append(Segment(prev_x, x, coef, ExponentExpr(slope)))
            last_slope = slope
        prev_x, prev_v = x, v
    if prev_x is not None and last_slope is not None:
        coef = prev_v / prev_x ** last_slope
        segs.append(Segment(prev_x, _INF, coef, ExponentExpr(last_slope)))
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

    vals = [apply_pointwise(spec, fs, x, rel_tol) for x in grid]
    if any(math.isinf(v) for v in vals):
        raise DivergentImageError("image is infinite at a grid radius")
    return _loglog_interpolant(grid, vals)


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
