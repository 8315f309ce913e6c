"""Modulars and Luxemburg norms of weighted variable-exponent Lebesgue spaces.

Functions are radial piecewise powers: on each segment the value is
c * r^{a(r)} with a structured exponent expression a(r), optionally times
factors 2^{m * alpha(r)}.  The modular of g against a radial exponent p over
a region is

    F_p(g) = |S^{n-1}| * integral of r^{n-1} g(r)^{p(r)} dr,

computed in closed form, as one array over the rows where p and the segment
exponent are constant, and by adaptive quadrature on every other row, in log
space either way.
Divergence is decided analytically first (power test at the singular
endpoints), so infinite norms are reported instead of silently truncated.
A Luxemburg norm is the root of ln F_p(g/eta) = 0 in x = ln eta.  Only x
changes between the etas of one norm, so its quadrature rule is built
once and frozen: on it the modular is one log-sum-exp, logsumexp(A - P x)
over the closed-form rows and the quadrature nodes, which safeguarded
Newton steps solve with its exact derivative.  The root is certified on
that rule from both sides to a relative width of CERT_DELTA, and the rule
is re-checked at the root (tail cutoffs and G-K error) and refined there
only where it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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

# a modular is summed in log space once a piece is further than this from 0
# in ln
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
            # a float, which broadcasts against an array of radii
            return self.const
        if isinstance(r, np.ndarray):
            return sum((t.value(r) for t in self.terms), np.full(r.shape, self.const))
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

    def log_amplitude_s(self, s: np.ndarray) -> np.ndarray:
        """ln amplitude at r = e^s over an array of s; safe even when e^s
        under/overflows."""
        r = _quad.radius(s)
        out = math.log(self.coef) + self.expr(r) * s
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


class PiecewisePowerFunction:
    """Nonnegative radial function assembled from power segments.

    Stored as float columns over its rows, sorted by start: lo, hi and coef
    for every row, and expo for the plain rows, coef * r^expo with a bare
    constant exponent.  A row with exponent terms or pow2 factors keeps its
    Segment in side, keyed by row, and has expo NaN.  segments is derived
    from these on first use.
    """

    __slots__ = ("lo", "hi", "coef", "expo", "side", "_segments")

    def __init__(self, segments=()):
        segs = tuple(sorted(segments, key=lambda s: s.r_lo))
        for a, b in zip(segs, segs[1:]):
            if b.r_lo < a.r_hi * (1 - _SNAP):
                raise ValueError("segments overlap")
        side = {i: s for i, s in enumerate(segs) if s.expr.terms or s.pow2}
        self.lo, self.hi, self.coef, self.expo = np.array(
            [(s.r_lo, s.r_hi, s.coef, math.nan if i in side else s.expr.const)
             for i, s in enumerate(segs)], dtype=float,
        ).reshape(-1, 4).T
        self.side, self._segments = side, segs

    @classmethod
    def _of(cls, lo, hi, coef, expo, side, segments=None):
        """A function over rows already sorted and disjoint, unchecked."""
        out = object.__new__(cls)
        out.lo, out.hi, out.coef, out.expo = lo, hi, coef, expo
        out.side, out._segments = side, segments
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_columns(cls, lo, hi, coef, expo) -> "PiecewisePowerFunction":
        """Plain rows coef * r^expo on [lo, hi), from float arrays sorted by lo."""
        if not (np.all((0 <= lo) & (lo < hi) & (coef >= 0))
                and np.all(lo[1:] >= hi[:-1] * (1 - _SNAP))):
            raise ValueError("need 0 <= lo < hi, coef >= 0 and rows sorted without overlap")
        return cls._of(lo, hi, coef, expo, {})

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

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The rows as Segments, built on first use."""
        if self._segments is None:
            cols = zip(self.lo.tolist(), self.hi.tolist(), self.coef.tolist(), self.expo.tolist())
            self._segments = tuple(self.side.get(i) or Segment(lo, hi, c, ExponentExpr(b))
                                   for i, (lo, hi, c, b) in enumerate(cols))
        return self._segments

    @property
    def starts(self) -> tuple[float, ...]:
        return tuple(self.lo.tolist())

    def __eq__(self, other):
        if not isinstance(other, PiecewisePowerFunction):
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)

    def __repr__(self):
        return f"PiecewisePowerFunction(segments={self.segments!r})"

    # -- evaluation ---------------------------------------------------------

    def segment_at(self, r: float) -> Segment | None:
        i = int(np.searchsorted(self.lo, r, side="right")) - 1
        if i >= 0 and self.lo[i] <= r < self.hi[i]:
            return self.segments[i]
        return None

    def value(self, r: float) -> float:
        seg = self.segment_at(r)
        return seg.value(r) if seg is not None else 0.0

    __call__ = value

    def support(self) -> tuple[float, float]:
        live = np.flatnonzero(self.coef > 0.0)
        if not len(live):
            return (0.0, 0.0)
        return (float(self.lo[live[0]]), float(self.hi[live[-1]]))

    # -- algebra ------------------------------------------------------------

    def scaled(self, c: float) -> "PiecewisePowerFunction":
        if c < 0:
            raise ValueError("only nonnegative scalings are representable")
        side = {i: replace(s, coef=c * s.coef) for i, s in self.side.items()}
        return self._of(self.lo, self.hi, c * self.coef, self.expo, side)

    def weighted(self, gamma: float) -> "PiecewisePowerFunction":
        """Multiply by |x|^gamma (power weights fold into the exponents)."""
        if gamma == 0.0:
            return self
        side = {i: replace(s, expr=s.expr.shifted(gamma)) for i, s in self.side.items()}
        return self._of(self.lo, self.hi, self.coef, self.expo + gamma, side)

    def times_pow2(self, m: float, alpha: RadialExponent) -> "PiecewisePowerFunction":
        """Multiply by 2^{m * alpha(|x|)}; constant alpha folds into coefficients."""
        if alpha.is_constant:
            fold = 2.0 ** (m * alpha.p_zero)
            side = {i: replace(s, coef=s.coef * fold) for i, s in self.side.items()}
            return self._of(self.lo, self.hi, self.coef * fold, self.expo, side)
        side = {i: replace(s, pow2=s.pow2 + ((m, alpha),)) for i, s in enumerate(self.segments)}
        return self._of(self.lo, self.hi, self.coef, np.full(len(self.lo), math.nan), side)

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
        i = max(int(np.searchsorted(self.lo, region.r_lo * (1 - 4 * _SNAP), side="right")) - 1, 0)
        j = int(np.searchsorted(self.lo, region.r_hi, side="left"))
        side = {k - i: s for k, s in self.side.items() if i <= k < j}
        segs = self._segments[i:j] if self._segments is not None else None
        return self._of(self.lo[i:j], self.hi[i:j], self.coef[i:j], self.expo[i:j], side, segs)

    def _clip(self, r_lo: float, r_hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, lo, hi) of the nonzero rows that meet the region
        r_lo < |x| <= r_hi, clipped to it and snapped to its ends (snapping
        only widens a piece).  r_hi may also be an array of finite ends, one
        per row, each row clipped to its own region."""
        lo, hi = np.maximum(self.lo, r_lo), np.minimum(self.hi, r_hi)
        rows = np.flatnonzero((hi > lo * (1 + _SNAP)) & (self.coef != 0.0))
        lo, hi = lo[rows], hi[rows]
        if r_lo > 0:
            lo[lo - r_lo <= _SNAP * r_lo] = r_lo
        if isinstance(r_hi, np.ndarray):
            r_hi = r_hi[rows]
            snap = r_hi - hi <= _SNAP * r_hi
            hi[snap] = r_hi[snap]
        elif math.isfinite(r_hi):
            hi[r_hi - hi <= _SNAP * r_hi] = r_hi
        return rows, lo, hi

    def pieces_in(self, region: Region):
        """Yield (segment, lo, hi) clipped to the region, snapped at boundaries."""
        rows, lo, hi = self._clip(region.r_lo, region.r_hi)
        for i, u, v in zip(rows.tolist(), lo.tolist(), hi.tolist()):
            yield self.segments[i], u, v


# ---------------------------------------------------------------------------
# the modular


# ln of the Kronrod weights of a quadrature panel
_LN_WK = np.log(_quad._K_WEIGHTS)
# G - K and K weights side by side: a panel's error estimate and value
_GK_WEIGHTS = np.stack((_quad._G_MINUS_K, _quad._K_WEIGHTS), axis=1)


class _InfiniteAt(Exception):
    """The modular is infinite at this eta: no tail cutoff exists there."""


class _Piece:
    """One clipped segment whose modular takes quadrature, on a frozen rule.

    fit(x) cuts the tails and refines the panels at x = ln eta, or, fitted
    before, re-checks each tail's drop test and the G-K error test at x on
    the same nodes, and re-cuts or refines only a rule that fails.  Its
    panels carry, per node, p, n s + p ln g and, where p is infinite,
    cap = ln g: such a node adds no term, and F is infinite for x below it.
    """

    def __init__(self, seg: Segment, u: float, v: float, p: RadialExponent,
                 n: int, rel_tol: float):
        self.seg, self.u, self.v, self.p, self.n, self.rel_tol = seg, u, v, p, n, rel_tol
        # an exponent infinite at a singular end gives no power slope there
        a0, a_inf = seg.exponent_limits()
        self.slope_at_0 = self.slope_at_inf = None
        # divergent whatever eta is, or once eta is at most the limit of g at
        # infinity, for x below tail_floor
        self.tail_floor = -_INF
        if math.isinf(v):
            if math.isfinite(p.p_infty):
                self.slope_at_inf = n - 1 + a_inf * p.p_infty
            elif a_inf > _quad.DIV_TOL:
                raise _EtaIndependent
            elif abs(a_inf) <= _quad.DIV_TOL:
                self.tail_floor = math.log(seg.coef_limits()[1]) - math.log1p(-1e-12)
        if u == 0.0:
            if math.isfinite(p.p_zero):
                self.slope_at_0 = n - 1 + a0 * p.p_zero
            elif a0 < -_quad.DIV_TOL:
                raise _EtaIndependent
        self.breaks = set(seg.discontinuities()) | set(p.discontinuities())
        self.tails = self.panels = None

    def _node_data(self, s):
        """(P, n s + P ln g, cap) at the nodes s: P = p where p is finite,
        and cap = ln g where p is infinite (0, -inf and ln g there)."""
        pv = self.p(_quad.radius(s))
        la = self.seg.log_amplitude_s(s)
        inf = np.isinf(pv)
        pv = np.where(inf, 0.0, pv)
        return pv, np.where(inf, -_INF, self.n * s + pv * la), np.where(inf, la, -_INF)

    def _log_integrand(self, x: float):
        """ln of r^n (g/eta)^p(r) at r = e^s and x = ln eta: at an array of s
        for the tail cuts, and at nodes with their data for the quadrature."""
        n = self.n

        def log_integrand(s, pv=None, base=None, _cap=None):
            if pv is not None:
                return base - pv * x
            pv, la = self.p(_quad.radius(s)), self.seg.log_amplitude_s(s)
            with np.errstate(invalid="ignore"):
                return np.where(np.isinf(pv), np.where(la > x, _INF, -_INF), n * s + pv * (la - x))

        return log_integrand

    def fit(self, x: float) -> bool:
        """Fit the rule at x, or re-check it there; True when it changed.
        Sets log_value, ln of the piece's modular at x.  Raises
        _EtaIndependent for a power tail that diverges whatever eta is, and
        _InfiniteAt where no tail cutoff exists at x."""
        if x < self.tail_floor:
            raise _InfiniteAt
        log_integrand = self._log_integrand(x)
        if self.tails is not None and all(_quad.tail_holds(log_integrand, *t)
                                          for t in self.tails):
            if self.panels is None:
                return False
            self.log_value, _err, panels = _quad.quad_s(
                log_integrand, -_INF, _INF, self.rel_tol, (), self._node_data, self.panels)
            if panels is self.panels:
                return False
        else:
            res = _quad.radial_integral(log_integrand, self.u, self.v, self.slope_at_0,
                                        self.slope_at_inf, self.breaks, self.rel_tol,
                                        self._node_data)
            if res.divergence is not None:
                raise _EtaIndependent if res.divergence == "power" else _InfiniteAt
            self.log_value, self.tails, panels = res.log_value, res.tails, res.panels
        self.panels = panels
        return True


def _log_sum(logs: list[float], sigma: float) -> tuple[float | None, float | None]:
    """sigma * sum of e^l over the logs: (that sum, None) when every l is
    within +-_LN_RANGE and the float sum is finite, (None, its ln)
    otherwise.  Modulars in the float range are then bit-identical to a
    float sum of their pieces, and the rest neither saturate nor flush."""
    top = max(logs)
    if top <= _LN_RANGE and min(logs) >= -_LN_RANGE:
        m = sigma * math.fsum(map(math.exp, logs))
        if m < _INF:
            return m, None
    if top == -_INF:
        return 0.0, None
    return None, math.log(sigma) + top + math.log(math.fsum([math.exp(x - top) for x in logs]))


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _constant_p_root(m: float | None, ln_m: float | None, p: float) -> float:
    """The norm F^(1/p) for a constant p, from the modular F at eta = 1 as
    _log_sum gives it."""
    if m is not None:
        return m ** (1.0 / p) if m > 0.0 else 0.0
    return _exp(ln_m / p)


class _Modular:
    """F_p(g/eta) on a region, for one (g, p, region, n), in x = ln eta.

    The closed-form rows, where p is constant and finite and g is a plain
    power c r^b, are one array of logs at eta = 1,
    p ln c + ln of the integral of r^(n-1+b p), less p x at x = ln eta.
    Every other row is a quadrature _Piece.  fit(x) freezes the pieces'
    rules at x, and on that rule the whole modular is one log-sum-exp,
    ln F(x) = logsumexp(A - P x): a closed row has A = its log + ln sigma
    and P = p, a node A = ln(panel half-width * Kronrod weight) + n s +
    p ln g + ln sigma and P = p(r).  Below floor, the largest cap or
    tail_floor, F is +inf.
    """

    def __init__(self, g: PiecewisePowerFunction, p: RadialExponent, region: Region,
                 n: int, rel_tol: float):
        self.pieces: list[_Piece] = []
        self.A = None
        rows, u, v = g._clip(region.r_lo, region.r_hi)
        self.empty = not len(rows)
        if self.empty:
            return
        self.sigma = sphere_area(n)
        if p.is_constant and math.isfinite(p.p_zero) and not g.side:
            self.p = p.p_zero
            expo = g.expo[rows]
        else:
            closed, ps, side_expo = [], [], {}
            for k, (i, lo, hi) in enumerate(zip(rows.tolist(), u.tolist(), v.tolist())):
                seg = g.side.get(i)
                if seg is None or seg.plain_power:
                    p_lo, p_hi = p.range_on(lo, hi)
                    if p_lo == p_hi and math.isfinite(p_lo):
                        if seg is not None:
                            side_expo[len(closed)] = seg.expr(1.0)
                        closed.append(k)
                        ps.append(p_lo)
                        continue
                self.pieces.append(_Piece(seg or g.segments[i], lo, hi, p, n, rel_tol))
            self.p = np.array(ps)
            if not closed:
                self.logs = np.empty(0)
                return
            rows, u, v = rows[closed], u[closed], v[closed]
            expo = g.expo[rows]
            for k, e in side_expo.items():
                expo[k] = e
        self.logs = (self.p * np.log(g.coef[rows])
                     + _quad.log_power_integrals(u, v, n - 1 + expo * self.p))

    def trial(self, eta: float) -> tuple[float | None, float | None]:
        """F_p(g/eta) as _log_sum gives it, (F, None) or (None, ln F), with
        every piece fitted at eta, and (inf, None) when it diverges at this
        eta.  Raises _EtaIndependent when it diverges at every eta."""
        if self.empty:
            return 0.0, None
        x = math.log(eta)
        logs = (self.logs if x == 0.0 else self.logs - self.p * x).tolist()
        if _INF in logs:
            raise _EtaIndependent
        if self.pieces:
            try:
                self.fit(x)
            except _InfiniteAt:
                return _INF, None
            if x < self.floor:
                return _INF, None
            logs += [piece.log_value for piece in self.pieces]
        return _log_sum(logs, self.sigma)

    def fit(self, x: float) -> bool:
        """Fit every piece's rule at x or re-check it there, and lay the
        rule out as A, P and floor; True when the rule changed."""
        stale = self.A is None
        for piece in self.pieces:
            if piece.fit(x):
                # rebuilt below, or at the next fit if a later piece raises
                stale, self.A = True, None
        if not stale:
            return False
        if _INF in self.logs:
            raise _EtaIndependent
        A, P = [self.logs], [np.broadcast_to(self.p, self.logs.shape)]
        self.floor = max([piece.tail_floor for piece in self.pieces], default=-_INF)
        panels = [piece.panels for piece in self.pieces if piece.panels is not None]
        if panels:
            lo, hi, _s, pv, base, cap = map(np.concatenate, zip(*panels))
            A.append((np.log(0.5 * (hi - lo))[:, None] + _LN_WK + base).ravel())
            P.append(pv.ravel())
            self.floor = max(self.floor, float(cap.max()))
        A, P = np.concatenate(A) + math.log(self.sigma), np.concatenate(P)
        live = A > -_INF
        self.A, self.P = A[live], P[live]
        return True

    def log_f(self, x: float) -> tuple[float, float]:
        """(ln F, d ln F / dx) on the frozen rule at x: +inf below floor and
        -inf where the rule has no term."""
        if x < self.floor:
            return _INF, 0.0
        if not len(self.A):
            return -_INF, 0.0
        z = self.A - self.P * x
        top = z.max()
        w = np.exp(z - top)
        total = w.sum()
        return float(top + math.log(total)), -float(self.P @ w) / float(total)

    def norm(self, x: float, max_iter: int) -> float:
        """inf{eta : F_p(g/eta) <= 1} from a rule fitted at x, clamped to
        +-_LN_ETA_MAX: the root on the frozen rule, at which the rule is
        re-checked, and solved again from there if it changed.  Where the
        modular is infinite at a fit, the fit moves up by a doubling step.
        max_iter caps the evaluations of ln F over all solves."""
        self.budget = max_iter
        x, step, eta = min(max(x, -_LN_ETA_MAX), _LN_ETA_MAX), 1.0, None
        while True:
            try:
                changed = self.fit(x)
            except _InfiniteAt:
                if x >= _LN_ETA_MAX:
                    return _INF
                x, step, eta = min(x + step, _LN_ETA_MAX), 2.0 * step, None
                continue
            if eta is not None and not changed:
                return eta
            eta = self._root(x)
            if eta == _INF:
                return _INF
            x = math.log(eta)

    def _h(self, x: float) -> tuple[float, float]:
        self.budget -= 1
        if self.budget < 0:
            raise BracketError("norm root-find exceeded the iteration cap")
        return self.log_f(x)

    def _root(self, x: float) -> float:
        """eta with ln F(ln eta) <= 0 < ln F(ln(eta (1 - CERT_DELTA))) on the
        frozen rule, from x; +inf when ln F > 0 up to _LN_ETA_MAX.  ln F is
        convex and decreasing, so Newton steps land at or below the root and
        climb to it from there; they stay in the bracket [a, b] of evaluated
        points and in [floor, _LN_ETA_MAX].  A step below _TOL/4 ends at r,
        and the certificate is checked at eta = e^(r + _TOL/4)."""
        lo = max(self.floor, -_LN_ETA_MAX)
        a, b = -_INF, _INF
        x = min(max(x, lo), _LN_ETA_MAX)
        while True:
            hx, dh = self._h(x)
            if hx > 0.0 and x >= _LN_ETA_MAX:
                return _INF
            if hx <= 0.0 and x <= -_LN_ETA_MAX:
                raise BracketError("modular stays below 1 for arbitrarily small eta")
            a, b = (x, b) if hx > 0.0 else (a, x)
            # with ln F <= 0 at the floor (or no term at all) the root is the floor
            r = max(lo, x - hx / dh if hx > -_INF else lo)
            if abs(r - x) > 0.25 * _TOL:
                if not a < r < b and -_INF < a and b < _INF:
                    r = 0.5 * (a + b)
                x = min(r, _LN_ETA_MAX)
                continue
            eta = math.exp(r + 0.25 * _TOL)
            if self._h(math.log(eta))[0] > 0.0:
                a = x = math.log(eta)
            elif self._h(math.log(eta * (1.0 - CERT_DELTA)))[0] <= 0.0:
                b = x = math.log(eta * (1.0 - CERT_DELTA))
            else:
                return eta


# ---------------------------------------------------------------------------
# norms of 1 over R^n, a batch of exponents on one shared rule


# F is infinite below x = ln eta = -ln(1 - 1e-12) for an exponent that is
# infinite at infinity, where (1/eta)^p tends to 0 or inf, as for _Piece's
# tail_floor; that also keeps x above 0, the bound of the infinite-p nodes
_ONE_FLOOR = -math.log1p(-1e-12)


class _OneRule:
    """One frozen quadrature rule in s = ln r for the modulars of 1 over R^n
    against a batch of exponent rows.

    p_at(r) gives every row's exponent at the radii r as (rows, len(r)),
    inf where it is infinite.  On the rule, row i's modular is one
    log-sum-exp, ln F_i(x) = logsumexp_j(A_j - P_ij x), with A_j = ln(panel
    half-width * Kronrod weight) + n s_j + ln sigma the same for every row
    and P_ij = p_i(e^s_j); a node where p_i is infinite adds no term (p
    keeps 0 there, and inf marks it).  Each row cuts its own tails by
    _quad.cut among the same candidates: _quad.search_points up from s = 1,
    and down from s = -1 or, where p(0) is finite and the power slope at 0
    is n - 1, linear_points down from s = 0 at rate n.  The rule spans
    every row's cuts, and is refined until every row passes its G-K error
    test.
    """

    def __init__(self, p_at, finite_0: np.ndarray, points, n: int, rel_tol: float):
        self.p_at, self.finite_0, self.points = p_at, finite_0, points
        self.n, self.rel_tol = n, rel_tol
        self.ln_sigma = math.log(sphere_area(n))
        self.tails = [self._tail(1.0, _quad.search_points(1.0, +1)),
                      self._tail(-1.0, _quad.search_points(-1.0, -1))]
        if finite_0.any():
            self.tails.append(self._tail(0.0, _quad.linear_points(0.0, n, -1)))
        self.lo = self.A = None

    def _tail(self, s_ref: float, points) -> tuple:
        s = np.array([s_ref, *points])
        p = self.p_at(_quad.radius(s))
        return s_ref, s[1:], p[:, 0], p[:, 1:]

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row but rows."""
        p_at = self.p_at
        self.p_at = lambda r: p_at(r)[rows]
        self.finite_0 = self.finite_0[rows]
        self.tails = [(s_ref, s, p_ref[rows], p[rows]) for s_ref, s, p_ref, p in self.tails]
        if self.lo is not None:
            self.p, self.inf = self.p[rows], self.inf[rows]

    def _cut(self, tail: tuple, x: np.ndarray) -> np.ndarray:
        """Each row's _quad.cut of its log-integrand n s - p x at x."""
        s_ref, s, p_ref, p = tail
        return _quad.cut(self.n * s_ref - p_ref * x, s, self.n * s - p * x[:, None])

    def _add(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Add the panels [lo, hi), with every row's p at their nodes."""
        _lo, _hi, s = _quad._panels(lo, hi)
        p = self.p_at(_quad.radius(s.ravel())).reshape(-1, *s.shape)
        inf = np.isinf(p)
        p[inf] = 0.0
        if self.lo is None:
            self.lo, self.hi, self.s, self.p, self.inf = lo, hi, s, p, inf
        else:
            self.lo, self.hi = np.concatenate((self.lo, lo)), np.concatenate((self.hi, hi))
            self.s = np.concatenate((self.s, s))
            self.p = np.concatenate((self.p, p), axis=1)
            self.inf = np.concatenate((self.inf, inf), axis=1)
        self.A = None

    def _cover(self, s_lo: float, s_hi: float) -> bool:
        """Extend the rule over [s_lo, s_hi]; True when it grew."""
        if self.lo is None:
            spans = [(s_lo, s_hi)]
        else:
            spans = [(a, b) for a, b in ((s_lo, self.span[0]), (self.span[1], s_hi)) if a < b]
            s_lo, s_hi = min(s_lo, self.span[0]), max(s_hi, self.span[1])
        for a, b in spans:
            edges = _quad.grid_edges(a, b, self.points)
            self._add(edges[:-1], edges[1:])
        self.span = (s_lo, s_hi)
        return bool(spans)

    def _refine(self, x: np.ndarray) -> bool:
        """At x, bisect for each row that fails its G-K test the panels
        _quad.quad_s would bisect for it; False when every row passes."""
        if len(self.lo) >= _quad._MAX_PANELS:
            return False
        f = self.p * -x[:, None, None]
        f += self.n * self.s
        np.copyto(f, -_INF, where=self.inf)
        top = f.max(axis=(1, 2))
        with np.errstate(invalid="ignore"):
            f -= top[:, None, None]
        sums = np.exp(f, out=f) @ _GK_WEIGHTS
        half = 0.5 * (self.hi - self.lo)
        err = np.abs(sums[..., 0] * half)
        err_total = err.sum(axis=1)
        budget = self.rel_tol * (sums[..., 1] @ half)
        # a row with no mass at any node has nothing to refine
        fails = np.flatnonzero((err_total > budget) & (top > -_INF))
        if not len(fails):
            return False
        split = np.unique(np.concatenate([_quad.worst_panels(err[i], err_total[i], budget[i])
                                          for i in fails.tolist()]))
        mid = 0.5 * (self.lo[split] + self.hi[split])
        whole = np.ones(len(self.lo), dtype=bool)
        whole[split] = False
        lo, hi = np.concatenate((self.lo[split], mid)), np.concatenate((mid, self.hi[split]))
        self.lo, self.hi, self.s = self.lo[whole], self.hi[whole], self.s[whole]
        self.p, self.inf = self.p[:, whole], self.inf[:, whole]
        self._add(lo, hi)
        return True

    def fit(self, x: np.ndarray) -> tuple[bool, np.ndarray]:
        """Cut the rows' tails at x, extend the rule over the cuts and refine
        it until every row passes its G-K test at x: (whether the rule
        changed, which rows have no tail cut at x)."""
        s_lo = self._cut(self.tails[1], x)
        if len(self.tails) > 2:
            s_lo = np.where(self.finite_0, self._cut(self.tails[2], x), s_lo)
        s_hi = self._cut(self.tails[0], x)
        stuck = np.isnan(s_lo) | np.isnan(s_hi)
        if stuck.any():
            return False, stuck
        changed = self._cover(float(s_lo.min()), float(s_hi.max()))
        for _round in range(_quad._MAX_ROUNDS):
            if not self._refine(x):
                break
            changed = True
        return changed, stuck

    def log_f(self, x: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
        """(ln F, d ln F / dx) at x of the rows on the frozen rule, one
        log-sum-exp per row: +inf below _ONE_FLOOR, and -inf and 0 for a
        row without a term."""
        if self.A is None:
            self.A = (np.log(0.5 * (self.hi - self.lo))[:, None] + _LN_WK + self.n * self.s
                      + self.ln_sigma).ravel()
        count = len(self.p)
        P = self.p.reshape(count, -1)[rows]
        z = P * x[:, None]
        np.subtract(self.A, z, out=z)
        np.copyto(z, -_INF, where=self.inf.reshape(count, -1)[rows])
        top = z.max(axis=1)
        with np.errstate(invalid="ignore"):
            z -= top[:, None]
        w = np.exp(z, out=z)
        total = w.sum(axis=1)
        none = top == -_INF
        if none.any():
            top, total = np.where(none, -_INF, top), np.where(none, 1.0, total)
            w[none] = 0.0
        h = np.where(x < _ONE_FLOOR, _INF, top + np.log(total))
        return h, -np.einsum("ij,ij->i", P, w) / total


def _roots(log_f, x: np.ndarray, lo: float, evals: np.ndarray, max_iter: int) -> np.ndarray:
    """_Modular._root for every row at once, above a floor lo > 0: per row,
    ln eta with ln F(ln eta) <= 0 < ln F(ln(eta (1 - CERT_DELTA))) on the
    frozen rule, from x, and +inf where ln F > 0 up to _LN_ETA_MAX.
    log_f(x, rows) gives ln F and its derivative at x for the rows.  Each
    row takes Newton steps until one is below _TOL/4, then checks eta and
    eta (1 - CERT_DELTA), and goes back to Newton from the one that fails.
    evals counts each row's evaluations of ln F; BracketError once one
    passes max_iter."""
    count = len(x)
    out, rows = np.full(count, _INF), np.arange(count)
    x = np.minimum(np.maximum(x, lo), _LN_ETA_MAX)
    a, b, eta = np.full(count, -_INF), np.full(count, _INF), np.full(count, np.nan)
    # 0: a Newton step, 1: checking eta, 2: checking eta (1 - CERT_DELTA)
    stage = np.zeros(count, dtype=np.int8)
    while len(rows):
        evals[rows] += 1
        if evals[rows].max() > max_iter:
            raise BracketError("norm root-find exceeded the iteration cap")
        h, dh = log_f(x, rows if len(rows) < count else slice(None))
        above = h > 0.0
        done = (stage == 2) & above
        lower = (stage == 1) & ~above
        newton = ~(done | lower)
        gone = newton & above & (x >= _LN_ETA_MAX)
        a, b = np.where(newton & above, x, a), np.where(newton & ~above, x, b)
        with np.errstate(invalid="ignore", divide="ignore"):
            # with ln F <= 0 at the floor (or no term at all) the root is the floor
            r = np.maximum(lo, np.where(h > -_INF, x - h / dh, lo))
        far = np.abs(r - x) > 0.25 * _TOL
        r = np.where(far & ((r <= a) | (r >= b)) & (a > -_INF) & (b < _INF), 0.5 * (a + b), r)
        eta = np.where(newton & ~far, np.exp(r + 0.25 * _TOL), eta)
        x = np.where(lower, np.log(eta * (1.0 - CERT_DELTA)),
                     np.where(far, np.minimum(r, _LN_ETA_MAX), np.log(eta)))
        stage = np.where(lower, 2, np.where(far, 0, 1))
        out[rows[done]] = np.log(eta[done])
        if np.any(done | gone):
            keep = ~(done | gone)
            rows, x, a, b, eta, stage = (v[keep] for v in (rows, x, a, b, eta, stage))
    return out


def _log_norms_of_one(p_at, finite_0: np.ndarray, finite_inf: np.ndarray, points,
                      n: int, rel_tol: float, max_iter: int = 200) -> np.ndarray:
    """ln of the Luxemburg norm of 1 over R^n against each of a batch of
    exponent rows, as norm_of_one gives it, all solved on one shared rule.

    p_at(r) gives every row's exponent at the radii r as (rows, len(r)), inf
    where it is infinite; finite_0 and finite_inf mark the rows whose limit
    at 0 or at infinity is finite, and points are the ln of every row's
    discontinuities.  A row finite at infinity has an infinite modular at
    every eta (its integrand tends to r^(n-1)), so its norm is +inf.  The
    rest start at eta = e (as norm_of_one from eta = 1, below the floor)
    and solve together by safeguarded Newton (_roots) on one frozen rule
    (_OneRule): built at the start, re-checked at the roots (each row's
    tails and G-K test), and, where some row fails, refined or extended and
    solved again.  Every returned eta is certified on the final rule; a row
    without a tail cutoff at its eta moves up by a doubling step, and is
    infinite past _LN_ETA_MAX.  max_iter caps each row's evaluations of ln
    F; BracketError past it.
    """
    out = np.full(len(finite_inf), _INF)
    live = np.flatnonzero(~finite_inf)
    if not len(live):
        return out
    rule = _OneRule(p_at if len(live) == len(out) else lambda r, rows=live: p_at(r)[rows],
                    finite_0[live], points, n, rel_tol)
    x, step = np.ones(len(live)), np.ones(len(live))
    evals = np.zeros(len(live), dtype=int)
    solved = False
    while len(live):
        changed, stuck = rule.fit(x)
        if stuck.any():
            # no tail cut at x: up by a doubling step, infinite past _LN_ETA_MAX
            x[stuck] = np.where(x[stuck] >= _LN_ETA_MAX, _INF,
                                np.minimum(x[stuck] + step[stuck], _LN_ETA_MAX))
            step[stuck] *= 2.0
            solved = False
        elif solved and not changed:
            break
        else:
            x, solved = _roots(rule.log_f, x, _ONE_FLOOR, evals, max_iter), True
        if np.isinf(x).any():
            keep = np.isfinite(x)
            live, x, step, evals = (v[keep] for v in (live, x, step, evals))
            rule.keep(np.flatnonzero(keep))
    out[live] = x
    return out


def modular(g: PiecewisePowerFunction, p: RadialExponent, region: Region,
            n: int, rel_tol: float = 1e-9) -> float:
    """F_p(g * chi_region); may be +inf, never raises on divergence."""
    try:
        m, ln_m = _Modular(g, p, region, n, rel_tol).trial(1.0)
    except _EtaIndependent:
        return _INF
    return m if m is not None else _exp(ln_m)


def luxemburg_norm(g: PiecewisePowerFunction, p: RadialExponent, region: Region,
                   n: int, rel_tol: float = 1e-9, max_iter: int = 200, *,
                   guess: float = 1.0) -> float:
    """inf{eta > 0 : F_p(g/eta) <= 1}, certified on one quadrature rule.

    Returns 0 for the zero function and +inf when no eta up to 1e280 has
    F_p(g/eta) <= 1.  For constant p the norm has the closed form
    F_p(g)^(1/p), which is used directly.  Otherwise the quadrature rule
    of every piece is built once, at eta = guess (eta = 1 for a guess that
    is not finite and positive).  On that frozen rule ln F_p(g/e^x) is one
    log-sum-exp, convex and decreasing in x = ln eta, and safeguarded
    Newton steps with its exact derivative find the root.  The returned eta
    has F_p(g/eta) <= 1 < F_p(g/(eta (1 - CERT_DELTA))) on that rule,
    whatever the guess.  At eta the rule is re-checked (each tail's drop
    test and each piece's G-K error test); a piece that fails is re-cut or
    refined and the root solved again.  max_iter caps the evaluations of
    ln F on the frozen rules, over all solves; BracketError past it.
    """
    try:
        mod = _Modular(g, p, region, n, rel_tol)
        if mod.empty:
            return 0.0
        if p.is_constant and math.isfinite(p.p_zero):
            return _constant_p_root(*mod.trial(1.0), p.p_zero)
        return mod.norm(math.log(guess) if 0.0 < guess < _INF else 0.0, max_iter)
    except _EtaIndependent:
        return _INF


def ball_norms(g: PiecewisePowerFunction, p: RadialExponent, radii, n: int,
               rel_tol: float = 1e-9) -> list[float]:
    """The Luxemburg norm of g on each ball B(0, R) of the radii, each as
    luxemburg_norm(g.window(ball), p, ball, n, rel_tol) gives it, bit for bit.

    For a constant, finite p and g without side rows the balls take one
    pass.  A row that ends below R (1 - 2 _SNAP), like every row before it,
    lies whole in the ball, so its closed form is the same in every ball
    that holds it; only the rows from there up to R are clipped, per ball.
    One log_power_integrals call takes the whole rows and the clipped ones,
    and each ball's norm is the closed form of its logs.  Otherwise each
    ball takes its own luxemburg_norm.
    """
    if not (p.is_constant and math.isfinite(p.p_zero)) or g.side:
        return [luxemburg_norm(g.window(Region.ball(r)), p, Region.ball(r), n, rel_tol)
                for r in radii]
    q, radii = p.p_zero, np.array(radii, dtype=float)
    # per ball, rows [0, first) lie whole in it and rows [first, meet) reach R
    first = np.searchsorted(np.maximum.accumulate(g.hi), radii * (1 - 2 * _SNAP))
    meet = np.searchsorted(g.lo, radii)
    whole, u, v = g._clip(0.0, _INF)
    # only the rows that some ball holds whole
    cut = np.searchsorted(whole, first.max(initial=0))
    whole, u, v = whole[:cut], u[:cut], v[:cut]
    count = meet - first
    at = np.repeat(np.arange(len(radii)), count)
    # rows first, first + 1, ..., meet - 1 of each ball in turn
    edge = first[at] + np.arange(len(at)) - (np.cumsum(count) - count)[at]
    kept, cu, cv = PiecewisePowerFunction._of(
        g.lo[edge], g.hi[edge], g.coef[edge], g.expo[edge], {})._clip(0.0, radii[at])
    rows = np.concatenate((whole, edge[kept]))
    logs = q * np.log(g.coef[rows]) + _quad.log_power_integrals(
        np.concatenate((u, cu)), np.concatenate((v, cv)), n - 1 + g.expo[rows] * q)
    whole_logs, edge_logs = logs[:len(whole)].tolist(), logs[len(whole):].tolist()
    held = np.searchsorted(whole, first).tolist()
    ends = np.searchsorted(at[kept], np.arange(len(radii) + 1)).tolist()
    sigma, out = sphere_area(n), []
    for k, start, end in zip(held, ends, ends[1:]):
        ball = whole_logs[:k] + edge_logs[start:end]
        if not ball:
            out.append(0.0)
        elif _INF in ball:
            out.append(_INF)
        else:
            out.append(_constant_p_root(*_log_sum(ball, sigma), q))
    return out


def weighted_vexp_norm(f: PiecewisePowerFunction, p: RadialExponent,
                       w: PowerWeight, region: Region,
                       rel_tol: float = 1e-9) -> float:
    """Norm of f in the weighted space: the Luxemburg norm of f * |x|^gamma."""
    return luxemburg_norm(f.weighted(w.gamma), p, region, w.n, rel_tol)


def norm_of_one(r_exp: RadialExponent, region: Region, n: int,
                rel_tol: float = 1e-9, *, guess: float = 1.0) -> float:
    """Luxemburg norm of the constant function 1 against the exponent r_exp.

    The everywhere-infinite exponent gives exactly 1 (essential-sup branch);
    exponents with a finite limit at infinity give +inf on unbounded regions.
    The root-find starts from guess, as in luxemburg_norm.
    """
    if r_exp.infinite_everywhere:
        return 1.0
    return luxemburg_norm(PiecewisePowerFunction.one(), r_exp, region, n, rel_tol,
                          guess=guess)
