"""Modulars and Luxemburg norms of weighted variable-exponent Lebesgue spaces.

Functions are radial piecewise powers: on each segment the value is
c * r^{a(r)} with a structured exponent expression a(r), optionally times
factors 2^{m * alpha(r)}.  The modular of g against a radial exponent p over
a region is

    F_p(g) = |S^{n-1}| * integral of r^{n-1} g(r)^{p(r)} dr,

computed in closed form whenever p and the segment exponent are constant on
the piece and by adaptive quadrature otherwise.  Divergence is decided
analytically first (power test at the singular endpoints), so infinite
norms are reported instead of silently truncated.  A Luxemburg norm is the
root of ln F_p(g/eta) = 0 in ln eta, found by a safeguarded secant search
and certified from both sides to a relative width of CERT_DELTA.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from . import _quad
from .exponents import PowerWeight, RadialExponent, sphere_area

__all__ = [
    "ExprTerm",
    "ExponentExpr",
    "Region",
    "Segment",
    "PiecewisePowerFunction",
    "BracketError",
    "modular",
    "luxemburg_norm",
    "weighted_vexp_norm",
    "norm_of_one",
]

_INF = math.inf
_LN2 = math.log(2.0)

# relative width of the norm certificate
CERT_DELTA = 1e-10

# the root-find searches ln eta in [-_LN_ETA_MAX, _LN_ETA_MAX]; norms above
# that range are reported as infinite
_LN_ETA_MAX = math.log(1e280)
# certificate width in ln eta
_TOL = math.log1p(CERT_DELTA)

# constant-p norms sum their piece modulars in log space once a closed-form
# piece is further than this from 0 in ln
_LN_RANGE = 700.0

# snap tolerance for segment ends landing on region boundaries
_SNAP = 1e-12


class BracketError(RuntimeError):
    """The norm root-find failed to bracket the unit modular level."""


class _EtaIndependent(Exception):
    """The modular diverges whatever eta is: the norm is infinite."""


@dataclass(frozen=True)
class ExprTerm:
    """One structured term of a segment exponent: coef * f(r) or coef / f(r)."""

    coef: float
    fn: RadialExponent
    reciprocal: bool = False

    def value(self, r):
        return self.coef / self.fn(r) if self.reciprocal else self.coef * self.fn(r)

    def _of(self, v):
        if self.reciprocal:
            return self.coef / v if not math.isinf(v) else 0.0
        return self.coef * v

    def limit_zero(self):
        return self._of(self.fn.p_zero)

    def limit_infty(self):
        return self._of(self.fn.p_infty)

    @property
    def is_constant(self):
        return self.coef == 0.0 or self.fn.is_constant


@dataclass(frozen=True)
class ExponentExpr:
    """a(r) = const + sum of structured terms over registered exponents."""

    const: float = 0.0
    terms: tuple[ExprTerm, ...] = ()

    def __call__(self, r):
        if not self.terms:
            return self.const
        return self.const + math.fsum(t.value(r) for t in self.terms)

    @property
    def is_constant(self):
        return not self.terms or all(t.is_constant for t in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("exponent expression is not constant")
        return self(1.0)

    def limit_zero(self):
        return self.const + math.fsum(t.limit_zero() for t in self.terms)

    def limit_infty(self):
        return self.const + math.fsum(t.limit_infty() for t in self.terms)

    def shifted(self, delta: float) -> "ExponentExpr":
        return ExponentExpr(self.const + delta, self.terms)

    def plus(self, other: "ExponentExpr") -> "ExponentExpr":
        return ExponentExpr(self.const + other.const, self.terms + other.terms)

    def discontinuities(self):
        out: list[float] = []
        for t in self.terms:
            out.extend(t.fn.discontinuities())
        return tuple(sorted(set(out)))


@dataclass(frozen=True)
class Region:
    """Radial region r_lo < |x| <= r_hi (endpoints immaterial for integrals)."""

    r_lo: float = 0.0
    r_hi: float = _INF

    def __post_init__(self):
        if not (0 <= self.r_lo < self.r_hi):
            raise ValueError("need 0 <= r_lo < r_hi")

    @classmethod
    def all(cls):
        return cls(0.0, _INF)

    @classmethod
    def ball(cls, radius):
        return cls(0.0, float(radius))

    @classmethod
    def annulus(cls, r_lo, r_hi):
        return cls(float(r_lo), float(r_hi))

    @classmethod
    def shell(cls, k: int):
        """Dyadic shell 2^(k-1) < |x| <= 2^k."""
        return cls(2.0 ** (k - 1), 2.0 ** k)


@dataclass(frozen=True)
class Segment:
    """c * r^{a(r)} * prod_j 2^{m_j alpha_j(r)} on [r_lo, r_hi), 0 elsewhere."""

    r_lo: float
    r_hi: float
    coef: float
    expr: ExponentExpr = ExponentExpr()
    pow2: tuple[tuple[float, RadialExponent], ...] = ()

    def __post_init__(self):
        if self.coef < 0:
            raise ValueError("segment coefficient must be nonnegative")
        if not (0 <= self.r_lo < self.r_hi):
            raise ValueError("segment bounds must satisfy 0 <= lo < hi")

    def value(self, r: float) -> float:
        if r < self.r_lo or r >= self.r_hi or self.coef == 0.0:
            return 0.0
        return self.amplitude(r)

    def amplitude(self, r: float) -> float:
        """Segment formula ignoring the support window."""
        a = self.expr(r)
        if r == 0.0:
            base = 0.0 if a > 0 else (1.0 if a == 0 else _INF)
        else:
            base = r ** a
        out = self.coef * base
        for m, alpha in self.pow2:
            out *= 2.0 ** (m * alpha(r))
        return out

    def log_amplitude_s(self, s: float) -> float:
        """ln amplitude at r = e^s; safe even when e^s under/overflows."""
        r = math.exp(s) if s < 700 else _INF
        a = self.expr(r)
        out = math.log(self.coef) + a * s
        for m, alpha in self.pow2:
            out += m * alpha(r) * _LN2
        return out

    # limits of the power exponent and of the bounded prefactor
    def exponent_limits(self) -> tuple[float, float]:
        return (self.expr.limit_zero(), self.expr.limit_infty())

    def coef_limits(self) -> tuple[float, float]:
        c0 = c1 = self.coef
        for m, alpha in self.pow2:
            c0 *= 2.0 ** (m * alpha.p_zero)
            c1 *= 2.0 ** (m * alpha.p_infty)
        return (c0, c1)

    @property
    def plain_power(self) -> bool:
        return self.expr.is_constant and not self.pow2

    def discontinuities(self):
        out = list(self.expr.discontinuities())
        for _, alpha in self.pow2:
            out.extend(alpha.discontinuities())
        return tuple(sorted(set(out)))


def _fold_pow2(pow2, m, alpha):
    if alpha.is_constant:
        return pow2, 2.0 ** (m * alpha(1.0))
    return pow2 + ((m, alpha),), 1.0


@dataclass(frozen=True)
class PiecewisePowerFunction:
    """Nonnegative radial function assembled from power segments."""

    segments: tuple[Segment, ...]
    # sorted segment starts, for bisection
    starts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple(sorted(self.segments, key=lambda s: s.r_lo))
        for a, b in zip(segs, segs[1:]):
            if b.r_lo < a.r_hi * (1 - _SNAP):
                raise ValueError("segments overlap")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "starts", tuple(s.r_lo for s in segs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def single_power(cls, coef, expo, r_lo=0.0, r_hi=_INF):
        return cls((Segment(r_lo, r_hi, coef, ExponentExpr(expo)),))

    @classmethod
    def power_with_terms(cls, coef, const, terms, r_lo=0.0, r_hi=_INF):
        return cls((Segment(r_lo, r_hi, coef, ExponentExpr(const, tuple(terms))),))

    @classmethod
    def one(cls):
        return cls.single_power(1.0, 0.0)

    @classmethod
    def zero(cls):
        return cls(())

    # -- evaluation ---------------------------------------------------------

    def segment_at(self, r: float) -> Segment | None:
        i = bisect_right(self.starts, r) - 1
        if i >= 0 and self.segments[i].r_lo <= r < self.segments[i].r_hi:
            return self.segments[i]
        return None

    def value(self, r: float) -> float:
        seg = self.segment_at(r)
        return seg.value(r) if seg is not None else 0.0

    __call__ = value

    @property
    def is_zero(self) -> bool:
        return all(s.coef == 0.0 for s in self.segments)

    def support(self) -> tuple[float, float]:
        live = [s for s in self.segments if s.coef > 0.0]
        if not live:
            return (0.0, 0.0)
        return (live[0].r_lo, live[-1].r_hi)

    # -- algebra ------------------------------------------------------------

    def scaled(self, c: float) -> "PiecewisePowerFunction":
        if c < 0:
            raise ValueError("only nonnegative scalings are representable")
        return PiecewisePowerFunction(
            tuple(Segment(s.r_lo, s.r_hi, c * s.coef, s.expr, s.pow2) for s in self.segments)
        )

    def weighted(self, gamma: float) -> "PiecewisePowerFunction":
        """Multiply by |x|^gamma (power weights fold into the exponents)."""
        if gamma == 0.0:
            return self
        return PiecewisePowerFunction(
            tuple(
                Segment(s.r_lo, s.r_hi, s.coef, s.expr.shifted(gamma), s.pow2)
                for s in self.segments
            )
        )

    def times_pow2(self, m: float, alpha: RadialExponent) -> "PiecewisePowerFunction":
        """Multiply by 2^{m * alpha(|x|)}; constant alpha folds into coefficients."""
        out = []
        for s in self.segments:
            pow2, fold = _fold_pow2(s.pow2, m, alpha)
            out.append(Segment(s.r_lo, s.r_hi, s.coef * fold, s.expr, pow2))
        return PiecewisePowerFunction(tuple(out))

    def multiply(self, other: "PiecewisePowerFunction") -> "PiecewisePowerFunction":
        out = []
        for a in self.segments:
            for b in other.segments:
                lo, hi = max(a.r_lo, b.r_lo), min(a.r_hi, b.r_hi)
                if lo < hi:
                    out.append(
                        Segment(lo, hi, a.coef * b.coef, a.expr.plus(b.expr), a.pow2 + b.pow2)
                    )
        return PiecewisePowerFunction(tuple(out))

    def window(self, region: Region) -> "PiecewisePowerFunction":
        """The segments that can meet the region, unclipped.

        Found by bisection on the starts; may include a segment or two at
        either end that pieces_in then drops, so pieces_in over the window
        yields exactly what it yields over the whole function.  Segments
        before the one holding r_lo (1 - 4 _SNAP) end below r_lo even with
        the overlap the constructor tolerates.
        """
        i = max(bisect_right(self.starts, region.r_lo * (1 - 4 * _SNAP)) - 1, 0)
        j = bisect_left(self.starts, region.r_hi)
        return PiecewisePowerFunction(self.segments[i:j])

    def pieces_in(self, region: Region):
        """Yield (segment, lo, hi) clipped to the region, snapped at boundaries."""
        for s in self.segments:
            if s.coef == 0.0:
                continue
            lo, hi = max(s.r_lo, region.r_lo), min(s.r_hi, region.r_hi)
            if hi <= lo * (1 + _SNAP) and not (lo == 0.0 and hi > 0.0):
                continue
            if lo > 0 and abs(lo - region.r_lo) <= _SNAP * region.r_lo:
                lo = region.r_lo
            if math.isfinite(hi) and region.r_hi > 0 and math.isfinite(region.r_hi):
                if abs(hi - region.r_hi) <= _SNAP * region.r_hi:
                    hi = region.r_hi
            if hi > lo:
                yield s, lo, hi


# ---------------------------------------------------------------------------
# the modular


def _closed_form_log(seg: Segment, u: float, v: float, p: RadialExponent,
                     n: int, eta: float) -> float | None:
    """ln of the piece modular when p and the segment exponent are constant
    on [u, v], with eta folded in; +inf marks divergence, None any other
    piece."""
    if not seg.plain_power:
        return None
    if p.is_constant:
        # equal to range_on(u, v) for a constant p, without its cost per piece
        p_lo = p_hi = p.p_zero
    else:
        p_lo, p_hi = p.range_on(u, v)
    if not (p_lo == p_hi and math.isfinite(p_lo)):
        return None
    a = seg.expr(1.0)
    ln_integral = _quad.log_power_integral(u, v, n - 1 + a * p_lo)
    if ln_integral == _INF:
        return _INF
    return p_lo * (math.log(seg.coef) - math.log(eta)) + ln_integral


def _piece_modular(seg: Segment, u: float, v: float, p: RadialExponent,
                   n: int, eta: float, rel_tol: float) -> tuple[float, bool]:
    """Modular contribution of one clipped segment, with eta folded in.

    Returns (value, eta_independent) where the flag marks divergence that no
    choice of eta can repair (a power tail at or past the critical slope).
    A closed-form value past the float range is +inf.
    """
    ln_val = _closed_form_log(seg, u, v, p, n, eta)
    if ln_val is not None:
        if ln_val == _INF:
            return _INF, True
        try:
            return math.exp(ln_val), False
        except OverflowError:
            return _INF, False

    ln_eta = math.log(eta)

    def log_integrand(s):
        r = math.exp(s) if s < 700 else _INF
        pv = p(r)
        la = seg.log_amplitude_s(s) - ln_eta
        if math.isinf(pv):
            if la < 0:
                return -_INF
            if la == 0:
                return n * s
            return _INF
        return n * s + pv * la

    # an exponent infinite at a singular end gives no power slope there
    a0, a_inf = seg.exponent_limits()
    slope_at_0 = slope_at_inf = None
    if math.isinf(v):
        if math.isfinite(p.p_infty):
            slope_at_inf = n - 1 + a_inf * p.p_infty
        elif a_inf > _quad.DIV_TOL:
            return _INF, True
        elif abs(a_inf) <= _quad.DIV_TOL and seg.coef_limits()[1] >= eta * (1 - 1e-12):
            return _INF, False
    if u == 0.0:
        if math.isfinite(p.p_zero):
            slope_at_0 = n - 1 + a0 * p.p_zero
        elif a0 < -_quad.DIV_TOL:
            return _INF, True

    breaks = set(seg.discontinuities())
    breaks.update(p.discontinuities())
    res = _quad.radial_integral(log_integrand, u, v, slope_at_0, slope_at_inf,
                                breaks, rel_tol)
    if res.divergence is not None:
        return _INF, res.divergence == "power"
    return res.value, False


def modular(g: PiecewisePowerFunction, p: RadialExponent, region: Region,
            n: int, rel_tol: float = 1e-9) -> float:
    """F_p(g * chi_region); may be +inf, never raises on divergence."""
    return _modular_scaled(g, p, region, n, 1.0, rel_tol)[0]


def _modular_scaled(g, p, region, n, eta, rel_tol):
    sigma = sphere_area(n)
    total = []
    for seg, u, v in g.pieces_in(region):
        val, indep = _piece_modular(seg, u, v, p, n, eta, rel_tol)
        if math.isinf(val):
            return _INF, indep
        total.append(val)
    return sigma * math.fsum(total), False


def luxemburg_norm(g: PiecewisePowerFunction, p: RadialExponent, region: Region,
                   n: int, rel_tol: float = 1e-9, max_iter: int = 200) -> float:
    """inf{eta > 0 : F_p(g/eta) <= 1}, certified by a log-space root-find.

    Returns 0 for the zero function and +inf when no finite eta brackets
    the unit level.  For constant p the norm has the closed form
    F_p(g)^(1/p), which is used directly.  Otherwise the root of
    h(x) = ln F_p(g/e^x), decreasing and convex in x = ln eta, is
    bracketed from eta = 1 and refined by secant steps until the bracket is
    one certificate width wide: the returned eta has F_p(g/eta) <= 1 and
    F_p(g/eta') > 1 at an evaluated eta' >= eta/(1 + CERT_DELTA).
    """
    pieces = list(g.pieces_in(region))
    if not pieces:
        return 0.0

    if p.is_constant and math.isfinite(p.p_zero):
        return _constant_p_norm(pieces, p, n, rel_tol)

    evals = 0

    def h(x):
        nonlocal evals
        evals += 1
        if evals > max_iter:
            raise BracketError("norm root-find exceeded the iteration cap")
        val, indep = _modular_scaled(g, p, region, n, math.exp(x), rel_tol)
        if indep:
            raise _EtaIndependent
        return math.log(val) if val > 0.0 else -_INF

    try:
        return math.exp(_log_root(h, p.range_on(region.r_lo, region.r_hi)[0]))
    except _EtaIndependent:
        return _INF


def _constant_p_norm(pieces, p, n, rel_tol):
    """F_p(g)^(1/p) for a constant finite p, from the clipped pieces of g.

    The piece modulars are summed as floats while every closed-form one is
    within e^(+-_LN_RANGE), and from their logs otherwise, so that norms far
    outside the float range neither saturate nor flush to 0.
    """
    vals, logs = [], []
    for seg, u, v in pieces:
        ln_val = _closed_form_log(seg, u, v, p, n, 1.0)
        if ln_val is None:
            val = _piece_modular(seg, u, v, p, n, 1.0, rel_tol)[0]
            ln_val = math.log(val) if val > 0.0 else -_INF
        else:
            val = math.exp(ln_val) if abs(ln_val) <= _LN_RANGE else None
        if ln_val == _INF:
            return _INF
        vals.append(val)
        logs.append(ln_val)
    pbar = p(1.0)
    sigma = sphere_area(n)
    if None not in vals:
        m = sigma * math.fsum(vals)
        if m < _INF:
            return m ** (1.0 / pbar) if m > 0.0 else 0.0
    top = max(logs)
    ln_m = math.log(sigma) + top + math.log(math.fsum(math.exp(x - top) for x in logs))
    try:
        return math.exp(ln_m / pbar)
    except OverflowError:
        return _INF


def _log_root(h, p_minus):
    """Upper end b of a bracket [a, b] of the root of h with b - a <= _TOL.

    h is decreasing, h(a) > 0 >= h(b) at evaluated points, and the search
    starts at x = 0.  Bracketing: from a finite h(x) the next point is
    x + h(x)/p_minus, which reaches the other sign because h falls at least
    p_minus per unit of x; from an infinite one the step doubles.
    Refining: regula falsi with the Anderson-Bjorck scaling of the end kept
    twice in a row (the Illinois method scales it by 1/2), with every trial
    point at least _TOL/2 inside the bracket, and the midpoint while an end
    is infinite.  Returns +inf when h stays positive up to _LN_ETA_MAX.
    """
    jump = 0.0 < p_minus < _INF
    a, ha, b, hb = -_INF, _INF, _INF, -_INF
    x, step = 0.0, 1.0
    while True:
        hx = h(x)
        if jump and math.isfinite(hx):
            d = max(abs(hx) / p_minus, _TOL)
        else:
            d, step = step, 2.0 * step
        if hx > 0.0:
            a, ha = x, hx
            if b < _INF:
                break
            if x >= _LN_ETA_MAX:
                return _INF
            x = min(x + d, _LN_ETA_MAX)
        else:
            b, hb = x, hx
            if a > -_INF:
                break
            if x <= -_LN_ETA_MAX:
                raise BracketError("modular stays below 1 for arbitrarily small eta")
            x = max(x - d, -_LN_ETA_MAX)

    moved = 0  # -1 when the last step moved a, +1 when it moved b
    while b - a > _TOL:
        if math.isfinite(ha) and math.isfinite(hb):
            x = b - hb * (b - a) / (hb - ha)
        else:
            x = 0.5 * (a + b)
        x = min(max(x, a + 0.5 * _TOL), b - 0.5 * _TOL)
        hx = h(x)
        if hx > 0.0:
            if moved < 0:
                m = 1.0 - hx / ha
                hb *= m if m > 0.0 else 0.5
            a, ha = x, hx
            moved = -1
        else:
            if moved > 0:
                m = 1.0 - hx / hb if hb != 0.0 else 0.0
                ha *= m if m > 0.0 else 0.5
            b, hb = x, hx
            moved = 1
    return b


def weighted_vexp_norm(f: PiecewisePowerFunction, p: RadialExponent,
                       w: PowerWeight, region: Region,
                       rel_tol: float = 1e-9) -> float:
    """Norm of f in the weighted space: the Luxemburg norm of f * |x|^gamma."""
    return luxemburg_norm(f.weighted(w.gamma), p, region, w.n, rel_tol)


def norm_of_one(r_exp: RadialExponent, region: Region, n: int,
                rel_tol: float = 1e-9) -> float:
    """Luxemburg norm of the constant function 1 against the exponent r_exp.

    The everywhere-infinite exponent gives exactly 1 (essential-sup branch);
    exponents with a finite limit at infinity give +inf on unbounded regions.
    """
    if r_exp.infinite_everywhere:
        return 1.0
    return luxemburg_norm(PiecewisePowerFunction.one(), r_exp, region, n, rel_tol)
