"""Radial variable exponents, power weights, and reciprocal-exponent arithmetic.

Every exponent here is radial: the value at a point x depends on |x| only.
Instances are immutable dataclasses, safe to share between threads.  An
exponent used as an integrability index must satisfy 1 < p_minus <= p_plus
< inf; "signed" twins (smoothness indices such as alpha, which may be zero
or negative) skip the lower bound but share all evaluation code.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .matrices import Dilation

__all__ = [
    "RadialExponent",
    "Constant",
    "LogInterp",
    "PiecewiseRadial",
    "Rescaled",
    "ScaledBy",
    "HarmonicSum",
    "PointwiseSum",
    "ReciprocalDifference",
    "Infinite",
    "PowerWeight",
    "ExponentDomainError",
    "ReciprocalSignError",
    "UnsupportedFamilyError",
    "eval_exponent",
    "exponent_range",
    "combine_reciprocal",
    "difference_reciprocal",
    "pullback_exponent",
    "scale_exponent",
    "sphere_area",
    "ball_measure",
]

_E = math.e
_INF = math.inf

# absolute tolerance below which a reciprocal difference counts as zero
RECIP_ZERO_TOL = 1e-12

# radii used for sampled precondition checks (plus 0 and the two limits)
_CHECK_RADII = tuple(10.0 ** (-8 + 16 * i / 160) for i in range(161))
_CHECK_ARRAY = np.array(_CHECK_RADII)
_CHECK_WITH_ZERO = np.array((0.0,) + _CHECK_RADII)


class ExponentDomainError(ValueError):
    """Parameter outside the admissible range of an exponent or weight."""


class ReciprocalSignError(ValueError):
    """The difference 1/a(x) - 1/(zeta b(x)) turned negative somewhere."""

    def __init__(self, radius: float, value: float):
        self.radius = radius
        self.value = value
        super().__init__(
            f"reciprocal difference is negative at radius {radius:.6g} "
            f"(value {value:.3e})"
        )


class UnsupportedFamilyError(TypeError):
    """The matrix family does not act by radial dilation."""


class RadialExponent:
    """Base class; concrete variants implement evaluation and bounds.

    Calling an exponent on a float radius gives a float; on a numpy array
    of radii it gives an array of the same shape.
    """

    signed: bool = False

    def __call__(self, r):
        raise NotImplementedError

    def range_on(self, r_lo: float, r_hi: float) -> tuple[float, float]:
        """Bounds of the exponent over the annulus r_lo <= |x| <= r_hi.

        Tight for monotone variants, conservative for composites.
        """
        raise NotImplementedError

    def discontinuities(self) -> tuple[float, ...]:
        return ()

    @property
    def p_minus(self) -> float:
        return self.range_on(0.0, _INF)[0]

    @property
    def p_plus(self) -> float:
        return self.range_on(0.0, _INF)[1]

    @property
    def p_zero(self) -> float:
        raise NotImplementedError

    @property
    def p_infty(self) -> float:
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def infinite_everywhere(self) -> bool:
        return False

    # log-Holder data; math.inf means "no certified constant"
    @property
    def log_holder_certified(self) -> bool:
        return False

    @property
    def c_log_zero(self) -> float:
        return _INF

    @property
    def c_log_infty(self) -> float:
        return _INF

    def _check_bounds(self) -> None:
        if not self.signed:
            lo, hi = self.range_on(0.0, _INF)
            if not (1.0 < lo <= hi < _INF):
                raise ExponentDomainError(
                    f"exponent range ({lo}, {hi}) violates 1 < p- <= p+ < inf"
                )


@dataclass(frozen=True)
class Constant(RadialExponent):
    value: float
    signed: bool = False

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ExponentDomainError("constant exponent must be finite")
        self._check_bounds()

    def __call__(self, r):
        if isinstance(r, np.ndarray):
            return np.full(r.shape, self.value)
        return self.value

    def range_on(self, r_lo, r_hi):
        return (self.value, self.value)

    @property
    def p_zero(self):
        return self.value

    @property
    def p_infty(self):
        return self.value

    @property
    def is_constant(self):
        return True

    @property
    def log_holder_certified(self):
        return True

    @property
    def c_log_zero(self):
        return 0.0

    @property
    def c_log_infty(self):
        return 0.0


@dataclass(frozen=True)
class LogInterp(RadialExponent):
    """p(r) = p_inf + (p0 - p_inf) / ln(e + r).

    Monotone between p(0) = p0 and the limit p_inf at infinity, and
    log-Holder continuous at both ends with constant |p0 - p_inf|.
    """

    p0: float
    p_inf: float
    signed: bool = False

    def __post_init__(self):
        self._check_bounds()

    def __call__(self, r):
        if isinstance(r, np.ndarray):
            # ln(e + inf) = inf gives p_inf exactly
            return self.p_inf + (self.p0 - self.p_inf) / np.log(_E + r)
        if math.isinf(r):
            return self.p_inf
        return self.p_inf + (self.p0 - self.p_inf) / math.log(_E + r)

    def range_on(self, r_lo, r_hi):
        a, b = self(r_lo), self(r_hi)
        return (min(a, b), max(a, b))

    @property
    def p_zero(self):
        return self.p0

    @property
    def p_infty(self):
        return self.p_inf

    @property
    def is_constant(self):
        return self.p0 == self.p_inf

    @property
    def log_holder_certified(self):
        return True

    @property
    def c_log_zero(self):
        return abs(self.p0 - self.p_inf)

    @property
    def c_log_infty(self):
        return abs(self.p0 - self.p_inf)


@dataclass(frozen=True)
class PiecewiseRadial(RadialExponent):
    """Step exponent: values[i] on [breaks[i-1], breaks[i]).

    Exists to build counterexample fixtures.  Not log-Holder continuous,
    so operations that need certified continuity constants reject it.
    """

    breaks: tuple[float, ...]
    values: tuple[float, ...]
    signed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "breaks", tuple(float(b) for b in self.breaks))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != len(self.breaks) + 1:
            raise ExponentDomainError("need len(values) == len(breaks) + 1")
        if any(b <= 0 for b in self.breaks) or list(self.breaks) != sorted(self.breaks):
            raise ExponentDomainError("breakpoints must be positive and sorted")
        self._check_bounds()

    def __call__(self, r):
        if isinstance(r, np.ndarray):
            return np.array(self.values)[np.searchsorted(self.breaks, r, side="right")]
        return self.values[bisect_right(self.breaks, r)]

    def range_on(self, r_lo, r_hi):
        i = bisect_right(self.breaks, r_lo)
        j = bisect_right(self.breaks, r_hi) if not math.isinf(r_hi) else len(self.breaks)
        vals = self.values[i : j + 1]
        return (min(vals), max(vals))

    def discontinuities(self):
        return self.breaks

    @property
    def p_zero(self):
        return self.values[0]

    @property
    def p_infty(self):
        return self.values[-1]

    @property
    def is_constant(self):
        return len(set(self.values)) == 1


@dataclass(frozen=True)
class Rescaled(RadialExponent):
    """base(scale * r): the exponent seen through a radial dilation."""

    base: RadialExponent
    scale: float

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ExponentDomainError("rescaling factor must be positive and finite")

    def __call__(self, r):
        # a radius past the float range is inf, where every exponent is defined
        with np.errstate(over="ignore"):
            r = self.scale * r
        return self.base(r)

    def range_on(self, r_lo, r_hi):
        hi = r_hi if math.isinf(r_hi) else self.scale * r_hi
        return self.base.range_on(self.scale * r_lo, hi)

    def discontinuities(self):
        return tuple(b / self.scale for b in self.base.discontinuities())

    @property
    def signed(self):  # type: ignore[override]
        return self.base.signed

    @property
    def p_zero(self):
        return self.base.p_zero

    @property
    def p_infty(self):
        return self.base.p_infty

    @property
    def is_constant(self):
        return self.base.is_constant


@dataclass(frozen=True)
class ScaledBy(RadialExponent):
    """factor * base(r), e.g. the zeta-dilated source exponent zeta*q."""

    base: RadialExponent
    factor: float

    def __post_init__(self):
        if not (self.factor > 0 and math.isfinite(self.factor)):
            raise ExponentDomainError("scaling factor must be positive and finite")

    def __call__(self, r):
        return self.factor * self.base(r)

    def range_on(self, r_lo, r_hi):
        lo, hi = self.base.range_on(r_lo, r_hi)
        return (self.factor * lo, self.factor * hi)

    def discontinuities(self):
        return self.base.discontinuities()

    @property
    def signed(self):  # type: ignore[override]
        return self.base.signed

    @property
    def p_zero(self):
        return self.factor * self.base.p_zero

    @property
    def p_infty(self):
        return self.factor * self.base.p_infty

    @property
    def is_constant(self):
        return self.base.is_constant


@dataclass(frozen=True)
class HarmonicSum(RadialExponent):
    """q with 1/q(x) = sum_i 1/q_i(x), the coupling of source exponents."""

    parts: tuple[RadialExponent, ...]

    def __post_init__(self):
        if not self.parts:
            raise ExponentDomainError("need at least one exponent to combine")
        lo = self.range_on(0.0, _INF)[0]
        if lo <= 1.0:
            raise ExponentDomainError(
                f"combined exponent has lower bound {lo:.6g} <= 1"
            )

    def __call__(self, r):
        if isinstance(r, np.ndarray):
            return 1.0 / sum(1.0 / p(r) for p in self.parts)
        return 1.0 / math.fsum(1.0 / p(r) for p in self.parts)

    def range_on(self, r_lo, r_hi):
        ranges = [p.range_on(r_lo, r_hi) for p in self.parts]
        lo = 1.0 / math.fsum(1.0 / a for a, _ in ranges)
        hi = 1.0 / math.fsum(1.0 / b for _, b in ranges)
        return (lo, hi)

    def discontinuities(self):
        out: list[float] = []
        for p in self.parts:
            out.extend(p.discontinuities())
        return tuple(sorted(set(out)))

    @property
    def p_zero(self):
        return 1.0 / math.fsum(1.0 / p.p_zero for p in self.parts)

    @property
    def p_infty(self):
        return 1.0 / math.fsum(1.0 / p.p_infty for p in self.parts)

    @property
    def is_constant(self):
        return all(p.is_constant for p in self.parts)


@dataclass(frozen=True)
class PointwiseSum(RadialExponent):
    """alpha(x) = sum_i alpha_i(x); always treated as signed."""

    parts: tuple[RadialExponent, ...]
    signed: bool = True

    def __post_init__(self):
        if not self.parts:
            raise ExponentDomainError("need at least one summand")

    def __call__(self, r):
        if isinstance(r, np.ndarray):
            return sum(p(r) for p in self.parts)
        return math.fsum(p(r) for p in self.parts)

    def range_on(self, r_lo, r_hi):
        ranges = [p.range_on(r_lo, r_hi) for p in self.parts]
        return (math.fsum(a for a, _ in ranges), math.fsum(b for _, b in ranges))

    def discontinuities(self):
        out: list[float] = []
        for p in self.parts:
            out.extend(p.discontinuities())
        return tuple(sorted(set(out)))

    @property
    def p_zero(self):
        return math.fsum(p.p_zero for p in self.parts)

    @property
    def p_infty(self):
        return math.fsum(p.p_infty for p in self.parts)

    @property
    def is_constant(self):
        return all(p.is_constant for p in self.parts)

    @property
    def log_holder_certified(self):
        return all(p.log_holder_certified for p in self.parts)

    @property
    def c_log_zero(self):
        return math.fsum(p.c_log_zero for p in self.parts)

    @property
    def c_log_infty(self):
        return math.fsum(p.c_log_infty for p in self.parts)


@dataclass(frozen=True)
class Infinite(RadialExponent):
    """The degenerate exponent that is infinity everywhere."""

    def __call__(self, r):
        if isinstance(r, np.ndarray):
            return np.full(r.shape, _INF)
        return _INF

    def range_on(self, r_lo, r_hi):
        return (_INF, _INF)

    @property
    def signed(self):  # type: ignore[override]
        return True

    @property
    def p_zero(self):
        return _INF

    @property
    def p_infty(self):
        return _INF

    @property
    def infinite_everywhere(self):
        return True

    @property
    def is_constant(self):
        return True


@dataclass(frozen=True)
class ReciprocalDifference(RadialExponent):
    """r(x) with 1/r(x) = 1/a(x) - 1/(zeta * b(x)); infinity where that is ~0.

    The difference must be nonnegative; construction samples a radius grid,
    every discontinuity of a and b and the geometric midpoints between
    neighbouring ones, so that step exponents are checked on every step
    whatever their scale, and raises ReciprocalSignError with the first
    witness radius otherwise.
    """

    a: RadialExponent
    b: RadialExponent
    zeta: float

    def __post_init__(self):
        if not (self.zeta > 0):
            raise ExponentDomainError("zeta must be positive")
        radii = _CHECK_WITH_ZERO
        breaks = np.array(self.discontinuities())
        if len(breaks):
            mids = np.sqrt(breaks[1:]) * np.sqrt(breaks[:-1])  # no overflow near 1e308
            radii = np.sort(np.concatenate((radii, breaks, mids)))
        self._diff(radii, check=True)
        # limits must be nonnegative as well
        for d in (self._limit_diff_zero(), self._limit_diff_infty()):
            if d < -RECIP_ZERO_TOL:
                raise ReciprocalSignError(_INF, d)

    def _diff(self, r, check=False):
        d = 1.0 / self.a(r) - 1.0 / (self.zeta * self.b(r))
        if check and np.any(d < -RECIP_ZERO_TOL):
            # the first failing radius is the witness
            i = np.argmax(np.ravel(d) < -RECIP_ZERO_TOL)
            raise ReciprocalSignError(float(np.ravel(r)[i]), float(np.ravel(d)[i]))
        return d

    def _limit_diff_zero(self):
        return 1.0 / self.a.p_zero - 1.0 / (self.zeta * self.b.p_zero)

    def _limit_diff_infty(self):
        return 1.0 / self.a.p_infty - 1.0 / (self.zeta * self.b.p_infty)

    def __call__(self, r):
        d = self._diff(r, check=True)
        if isinstance(d, np.ndarray):
            out = np.full(d.shape, _INF)
            return np.divide(1.0, d, out=out, where=d > RECIP_ZERO_TOL)
        if d <= RECIP_ZERO_TOL:
            return _INF
        return 1.0 / d

    def range_on(self, r_lo, r_hi):
        a_lo, a_hi = self.a.range_on(r_lo, r_hi)
        b_lo, b_hi = self.b.range_on(r_lo, r_hi)
        d_hi = 1.0 / a_lo - 1.0 / (self.zeta * b_hi)
        d_lo = 1.0 / a_hi - 1.0 / (self.zeta * b_lo)
        lo = _INF if d_hi <= RECIP_ZERO_TOL else 1.0 / d_hi
        hi = _INF if d_lo <= RECIP_ZERO_TOL else 1.0 / d_lo
        return (min(lo, hi), max(lo, hi))

    def discontinuities(self):
        return tuple(sorted(set(self.a.discontinuities() + self.b.discontinuities())))

    @property
    def signed(self):  # type: ignore[override]
        return True

    @property
    def p_zero(self):
        d = self._limit_diff_zero()
        return _INF if d <= RECIP_ZERO_TOL else 1.0 / d

    @property
    def p_infty(self):
        d = self._limit_diff_infty()
        return _INF if d <= RECIP_ZERO_TOL else 1.0 / d

    @property
    def infinite_everywhere(self):
        if self.a.is_constant and self.b.is_constant:
            return abs(self._diff(1.0)) <= RECIP_ZERO_TOL
        if np.any(self._diff(_CHECK_ARRAY) > RECIP_ZERO_TOL):
            return False
        return (
            self._limit_diff_zero() <= RECIP_ZERO_TOL
            and self._limit_diff_infty() <= RECIP_ZERO_TOL
        )


# ---------------------------------------------------------------------------
# operations


def eval_exponent(p: RadialExponent, r: float) -> float:
    """Pointwise value p(|x|) at radius r >= 0."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return p(r)


def exponent_range(p: RadialExponent, r_lo: float, r_hi: float) -> tuple[float, float]:
    """(inf, sup) of p over the annulus r_lo <= |x| <= r_hi."""
    if not (0 <= r_lo < r_hi):
        raise ValueError("need 0 <= r_lo < r_hi")
    return p.range_on(r_lo, r_hi)


def combine_reciprocal(qs) -> RadialExponent:
    """The exponent q with 1/q(x) = sum_i 1/q_i(x).

    Collapses to Constant when every input is constant; a combined lower
    bound <= 1 is reported as ExponentDomainError, never clamped.
    """
    qs = tuple(qs)
    if not qs:
        raise ExponentDomainError("need at least one exponent to combine")
    if len(qs) == 1:
        return qs[0]
    if all(q.is_constant for q in qs):
        val = 1.0 / math.fsum(1.0 / q(1.0) for q in qs)
        if val <= 1.0:
            raise ExponentDomainError(
                f"combined constant exponent {val:.6g} is <= 1"
            )
        return Constant(val)
    return HarmonicSum(qs)


def difference_reciprocal(a: RadialExponent, b: RadialExponent, zeta: float) -> RadialExponent:
    """r with 1/r(x) = 1/a(x) - 1/(zeta b(x)); Infinite() when identically zero."""
    if a.is_constant and b.is_constant:
        d = 1.0 / a(1.0) - 1.0 / (zeta * b(1.0))
        if d < -RECIP_ZERO_TOL:
            raise ReciprocalSignError(0.0, d)
        if d <= RECIP_ZERO_TOL:
            return Infinite()
        return Constant(1.0 / d, signed=True)
    out = ReciprocalDifference(a, b, float(zeta))
    if out.infinite_everywhere:
        return Infinite()
    return out


def pullback_exponent(q: RadialExponent, family: Dilation, t_radius: float) -> RadialExponent:
    """The exponent x -> q(A(t)^{-1} x) for a radially dilating family.

    A Dilation has |A(t) x| = scale * |x|, so the pullback sees radius
    |x| / scale.
    """
    if not isinstance(family, Dilation):
        raise UnsupportedFamilyError(
            f"family {family!r} does not act by radial dilation"
        )
    scale = family.dilation_scale(t_radius)
    if q.is_constant or scale == 1.0:
        return q
    return Rescaled(q, 1.0 / scale)


def scale_exponent(q: RadialExponent, factor: float) -> RadialExponent:
    """factor * q(.), used for the dilated source exponents."""
    if factor == 1.0:
        return q
    if q.is_constant:
        return Constant(factor * q(1.0), signed=q.signed)
    return ScaledBy(q, float(factor))


# ---------------------------------------------------------------------------
# weights


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class PowerWeight:
    """w(x) = |x|^gamma in dimension n."""

    gamma: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ExponentDomainError("dimension must be >= 1")
        if not math.isfinite(self.gamma):
            raise ExponentDomainError("weight power gamma must be finite")

    def __call__(self, r: float) -> float:
        if r == 0.0:
            if self.gamma > 0:
                return 0.0
            if self.gamma == 0:
                return 1.0
            return _INF
        return r ** self.gamma


def ball_measure(w: PowerWeight, radius: float) -> float:
    """Integral of |x|^gamma over the ball of the given radius.

    Equals |S^{n-1}| R^{n+gamma} / (n+gamma); requires gamma > -n.
    """
    if radius <= 0:
        raise ExponentDomainError("ball radius must be positive")
    if w.gamma <= -w.n:
        raise ExponentDomainError(
            f"gamma = {w.gamma} <= -n = {-w.n}: ball has no finite measure"
        )
    return sphere_area(w.n) * radius ** (w.n + w.gamma) / (w.n + w.gamma)
