"""Modulars and Luxemburg norms of weighted variable-exponent Lebesgue spaces.

Functions are radial piecewise powers: on each segment the value is
c * r^{a(r)} with a structured exponent expression a(r), optionally times
factors 2^{m * alpha(r)}.  The modular of g against a radial exponent p over
a region is

    F_p(g) = |S^{n-1}| * integral of r^{n-1} g(r)^{p(r)} dr,

computed in closed form, as one array over the plain-power rows where p is
constant, and by adaptive quadrature on every other row, in log space either
way.
Divergence is decided analytically first (power test at the singular
endpoints), so infinite norms are reported instead of silently truncated.
A Luxemburg norm is the root of ln F_p(g/eta) = 0 in x = ln eta, F_p(g)^(1/p)
for a constant p.  Otherwise only x changes between the etas of one norm, so
the quadrature rows share one rule of arrays, laid out at the starting eta
and frozen: on it the modular is one log-sum-exp, logsumexp(A - P x) over
the quadrature nodes, which safeguarded Newton steps solve with its exact
derivative.  The root is certified on that rule from both sides to a
relative width of CERT_DELTA, and the rule is tested only there: its tails
are cut again at the root, and where that leaves the rule as it is, each
row's G-K error test runs at the root; a rule either changes is solved
again from there.  So each frozen rule is G-K tested once, at its root.
The rule also takes a batch of exponents as rows, one log-sum-exp each:
the norms of 1 behind the boundedness constants solve that way, all at
once.  One loop, _Modular.solve, lays out, solves and tests any number of
rows.  Each row's
root and certificate is one Newton step, _newton, and _roots runs the rows'
steps in lock-step, one evaluation of ln F a round.  A row whose modular
diverges at every eta is dead: never laid out, its norm +inf.
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
        if not (0 <= self.coef < _INF and math.isfinite(self.expr.const)):
            raise ValueError("segment coefficient must be nonnegative and finite, its power finite")
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

    Stored as float columns over its rows, sorted by start: lo, hi, coef,
    and expo, finite exactly where the row is a plain power coef * r^expo
    and NaN elsewhere.  A row with exponent terms or pow2 factors keeps its
    Segment in side, keyed by row, for segments, equality and hashing; its
    expo is still its exponent, Segment.expr(1.0), where that is constant
    and it has no pow2 factor.  segments is derived from these on first use.
    """

    __slots__ = ("lo", "hi", "coef", "expo", "side", "_segments")

    @staticmethod
    def _expo(seg: Segment) -> float:
        """A row's expo: its exponent where it is a plain power, else NaN."""
        return seg.expr(1.0) if seg.plain_power else math.nan

    def __init__(self, segments=()):
        segs = tuple(sorted(segments, key=lambda s: s.r_lo))
        for a, b in zip(segs, segs[1:]):
            if b.r_lo < a.r_hi * (1 - _SNAP):
                raise ValueError("segments overlap")
        self.lo, self.hi, self.coef, self.expo = np.array(
            [(s.r_lo, s.r_hi, s.coef, self._expo(s)) for s in segs], dtype=float,
        ).reshape(-1, 4).T
        self.side = {i: s for i, s in enumerate(segs) if s.expr.terms or s.pow2}
        self._segments = segs

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
        if not (np.all((0 <= lo) & (lo < hi) & (0 <= coef) & (coef < _INF) & np.isfinite(expo))
                and np.all(lo[1:] >= hi[:-1] * (1 - _SNAP))):
            raise ValueError("need 0 <= lo < hi, 0 <= coef < inf, finite expo and rows sorted "
                             "without overlap")
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
        # a side row's expo from its shifted Segment, (const + gamma) + terms
        expo = self.expo + gamma
        expo[list(side)] = [self._expo(s) for s in side.values()]
        return self._of(self.lo, self.hi, self.coef, expo, side)

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
    """F_p(g/eta) on a region, for one (g, region, n) and each of a batch
    of exponent rows p, in x = ln eta.

    p is a RadialExponent, one row, or stands for a batch of rows: p(r)
    gives every row's exponent at the radii r as (rows, len(r)), p_zero
    and p_infty are arrays of the rows' limits, discontinuities() the radii
    where any row may jump, and is_constant is False.
    Under a constant, finite p, the plain rows of g, c r^b with b its
    finite expo, are one array of logs at eta = 1, p ln c + ln of the
    integral of r^(n-1+b p), less p x at x = ln eta.  Every other row of g
    is a piece of one quadrature rule in s = ln r that the exponent rows
    share, ln g = ln c + b s where b is finite: arrays of panel ends and
    the piece of each panel, per exponent row and node p and n s + p ln g,
    and per row and panel cap, the largest ln g at a node where p is
    infinite (no term there, and F infinite below it).  A piece that
    reaches 0 or infinity cuts that tail at every lay-out, each row by
    _quad.cut among candidates evaluated once, and the rule grows to span
    the farthest row's cut, keeping its panels.
    lay_out(x) freezes the rule at each row's x, check(x) runs its G-K
    test there, and fit(x) does both; on the frozen rule the pieces' ln F
    is one log-sum-exp per row, logsumexp(A - P x), a node having A =
    ln(panel half-width * Kronrod weight) + n s + p ln g + ln sigma and
    P = p(r).
    Below floor, the largest cap or tail_floor, F is +inf.  A row whose
    tail diverges whatever eta is, is dead.
    """

    def __init__(self, g: PiecewisePowerFunction, p, region: Region, n: int, rel_tol: float):
        self.A, self.lo, self.pieces = None, None, 0
        rows, u, v = g._clip(region.r_lo, region.r_hi)
        self.empty = not len(rows)
        if self.empty:
            return
        self.sigma = sphere_area(n)
        if not (p.is_constant and math.isfinite(p.p_zero)):
            self._pieces(g, rows, u, v, p, n, rel_tol)
            self.logs, self.p = np.empty(0), 0.0
            return
        self.p, expo = p.p_zero, g.expo[rows]
        # a scalar scan: numpy's per-call cost shows on one-shell norms
        if any(map(math.isnan, expo.tolist())):
            closed = ~np.isnan(expo)
            self._pieces(g, rows[~closed], u[~closed], v[~closed], p, n, rel_tol)
            rows, u, v, expo = rows[closed], u[closed], v[closed], expo[closed]
        self.logs = (self.p * np.log(g.coef[rows]) + _quad.log_power_integrals(
            u, v, n - 1 + expo * self.p)) if len(rows) else np.empty(0)

    def _pieces(self, g, rows, u, v, p, n, rel_tol) -> None:
        """The quadrature pieces: the rows of g, clipped to [u, v), and the
        candidates of their tail cuts."""
        self.pieces, self.p_fn, self.n, self.rel_tol = len(rows), p, n, rel_tol
        self.one = isinstance(p, RadialExponent)
        self.ln_c, self.b = np.log(g.coef[rows]), g.expo[rows]
        self.side = {k: g.side[int(rows[k])] for k in np.flatnonzero(np.isnan(self.b)).tolist()}
        with np.errstate(divide="ignore"):
            self.s_lo, self.s_hi = np.log(u), np.log(v)
        self.points = tuple(math.log(r) for r in p.discontinuities() if r > 0)
        self.own = [(k, math.log(r)) for k, seg in self.side.items()
                    for r in seg.discontinuities() if r > 0]
        p_ends = np.atleast_1d(p.p_zero), np.atleast_1d(p.p_infty)
        self.count = len(p_ends[0])
        self.dead, self.tail_floor = np.zeros(self.count, dtype=bool), np.full(self.count, -_INF)
        # rows are sorted and disjoint, so only the last piece can reach
        # infinity and only the first 0; the rows of a tail (k, end) take
        # their candidates by group, (k, end, rows, [start, *candidates])
        groups = []
        for k, end in ((self.pieces - 1, 1), (0, 0)):
            if not (u[k] == 0.0, math.isinf(v[k]))[end]:
                continue
            i, sign = int(rows[k]), 2 * end - 1
            seg = self.side.get(k) or Segment(u[k], v[k], g.coef[i], ExponentExpr(self.b[k]))
            a, p_end = seg.exponent_limits()[end], p_ends[end]
            finite = np.isfinite(p_end)
            # a known power slope n - 1 + a p takes the power test; an
            # exponent infinite at the end gives none, and F diverges
            # whatever eta is, or below tail_floor
            rate = -sign * ((n - 1 + a * np.where(finite, p_end, 0.0)) + 1.0)
            self.dead |= ~finite & (sign * a > _quad.DIV_TOL)
            if end and abs(a) <= _quad.DIV_TOL:
                # where p only tends to infinity, (g/c)^p -> 1 on the tail
                # and F(g/c) = +inf, so the floor must exclude ln c itself;
                # where p is exactly infinite on the tail, F(g/c) is finite
                # and the margin biases the norm up by 1e-12
                self.tail_floor[~finite] = math.log(seg.coef_limits()[1]) - math.log1p(-1e-12)
            for r in [None, *np.unique(rate[finite]).tolist()]:
                at = ~finite if r is None else finite & (rate == r)
                tail = _quad.tail_points(self.s_lo[k], self.s_hi[k], sign, r)
                if tail is None:
                    self.dead |= at
                else:
                    groups.append((k, end, at, [tail[0], *tail[1]]))
        # every row's node data at the candidates of each group with a live
        # row, evaluated once
        self.tails = [(k, end, at, np.array(s[1:]), *(d[:, 0] for d in self._node_data(
            np.array([s]), np.array([k])))) for k, end, at, s in groups if (at & ~self.dead).any()]

    def _node_data(self, s: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, ...]:
        """(P, n s + P ln g, cap) of every exponent row at the nodes s of
        panels of the pieces ids, (panels, nodes), each as (rows, panels,
        nodes); where p is infinite they are 0, -inf and ln g."""
        pv = np.reshape(self.p_fn(_quad.radius(s.ravel())), (-1, *s.shape))
        la = self.ln_c[ids][:, None] + self.b[ids][:, None] * s
        for k in np.intersect1d(ids, list(self.side)).tolist() if self.side else ():
            at = ids == k
            la[at] = self.side[k].log_amplitude_s(s[at])
        inf = np.isinf(pv)
        pv = np.where(inf, 0.0, pv)
        base = self.n * s + pv * la
        base[inf] = -_INF
        return pv, base, np.where(inf, la, -_INF)

    def _set(self, keep, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray) -> None:
        """Keep the panels keep marks and add the panels [lo, hi) of the
        pieces ids, with every row's node data, cap as each panel's
        largest."""
        node_p, base, cap = self._node_data(_quad.nodes(lo, hi), ids)
        data = node_p, base, cap.max(axis=-1)
        if self.lo is not None:
            lo, hi, ids = (np.concatenate((c[keep], n)) for c, n in
                           ((self.lo, lo), (self.hi, hi), (self.ids, ids)))
            data = [np.concatenate((c[:, keep], n), axis=1)
                    for c, n in zip((self.node_p, self.base, self.cap), data)]
        self.lo, self.hi, self.ids = lo, hi, ids
        self.node_p, self.base, self.cap = data
        self.A = None

    def keep(self, rows: np.ndarray) -> None:
        """Drop every exponent row but rows."""
        p_fn = self.p_fn
        self.p_fn = lambda r: p_fn(r)[rows]
        self.count, self.dead, self.tail_floor = len(rows), self.dead[rows], self.tail_floor[rows]
        self.tails = [(k, end, at[rows], s, *(c[rows] for c in data))
                      for k, end, at, s, *data in self.tails]
        if self.lo is not None:
            self.node_p, self.base, self.cap, self.A, self.P, self.floor = (
                c[rows] for c in (self.node_p, self.base, self.cap, self.A, self.P, self.floor))

    def trial(self, eta: float) -> tuple[float | None, float | None]:
        """F_p(g/eta) of the one exponent row as _log_sum gives it, (F, None)
        or (None, ln F), with the rule fitted at eta, and (inf, None) when it
        diverges at this eta or the row is dead."""
        if self.empty:
            return 0.0, None
        x = math.log(eta)
        logs = (self.logs if x == 0.0 else self.logs - self.p * x).tolist()
        if _INF in logs or self.pieces and self.dead[0]:
            return _INF, None
        if self.pieces:
            _changed, stuck = self.fit(x)
            if stuck[0] or x < self.floor[0]:
                return _INF, None
            logs += self.piece_logs.tolist()
        return _log_sum(logs, self.sigma)

    def lay_out(self, x) -> tuple[bool, np.ndarray]:
        """Lay the rule out at x, one ln eta per exponent row or one for
        all, as A, P and floor: (whether it changed, the rows stuck at x).
        Each row cuts its tails at x by _quad.cut; a row below its
        tail_floor, or with no cut, is stuck, and while one is the rule is
        left as it is.  Otherwise the rule grows to span the farthest row's
        cuts, keeping its panels."""
        x = np.reshape(x, (-1, 1))
        stuck, cuts = x[:, 0] < self.tail_floor, {}
        for k, end, at, s, node_p, base, cap in self.tails:
            levels = np.where(cap > x, _INF, base - node_p * x)
            cuts[k, end] = np.where(at, _quad.cut(levels[:, 0], s, levels[:, 1:]),
                                    cuts.get((k, end), np.nan))
        for c in cuts.values():
            stuck |= np.isnan(c)
        if stuck.any():
            return False, stuck
        reach = {(k, end): float(c.max() if end else c.min()) for (k, end), c in cuts.items()}
        if self.lo is None:
            for (k, end), s in reach.items():
                (self.s_hi if end else self.s_lo)[k] = s
            self._set(None, *_quad.grid_panels(self.s_lo, self.s_hi, self.points, self.own))
        for (k, end), s in reach.items():
            span = (self.s_lo, self.s_hi)[end]
            if (s > span[k]) if end else (s < span[k]):
                ends = np.array([span[k], s] if end else [s, span[k]])
                lo, hi, _one = _quad.grid_panels(ends[:1], ends[1:], self.points,
                                                 [(0, r) for j, r in self.own if j == k])
                self._set(slice(None), lo, hi, np.full(len(lo), k))
                span[k] = s
        return self._freeze(), stuck

    def check(self, x) -> bool:
        """Test the rule at x, one ln eta per exponent row or one for all:
        each (row, piece) failing its G-K test at x bisects its worst panels
        (_quad.gk_step) until none does.  Whether the rule changed;
        piece_logs keeps the pieces' ln modulars at x, row after row."""
        x = np.reshape(x, (-1, 1, 1))
        for _round in range(_quad._MAX_ROUNDS):
            self.piece_logs, _err, split = _quad.gk_step(
                self.base - self.node_p * x, 0.5 * (self.hi - self.lo), self.rel_tol,
                self.ids, self.pieces)
            if not len(split):
                break
            whole, lo, hi = _quad.halve(self.lo, self.hi, split)
            self._set(whole, lo[whole.sum():], hi[whole.sum():], np.tile(self.ids[split], 2))
        return self._freeze()

    def fit(self, x) -> tuple[bool, np.ndarray]:
        """lay_out at x, then check there unless a row is stuck: (whether
        the rule changed, the rows stuck at x)."""
        changed, stuck = self.lay_out(x)
        if not stuck.any():
            changed = self.check(x) or changed
        return changed, stuck

    def _freeze(self) -> bool:
        """Lay out A, P and floor if the panels changed since they last
        were: whether they did."""
        if self.A is not None:
            return False
        self.A = (np.log(0.5 * (self.hi - self.lo))[:, None] + _LN_WK + self.base).reshape(
            self.count, -1)
        self.A += math.log(self.sigma)
        self.P = self.node_p.reshape(self.count, -1)
        self.floor = np.maximum(self.tail_floor, self.cap.max(axis=1))
        return True

    def log_f(self, x: float) -> tuple[float, float]:
        """(ln F, d ln F / dx) of the one exponent row on the frozen rule at
        x: +inf below floor and -inf where the rule has no term."""
        if x < self.floor[0]:
            return _INF, 0.0
        z = self.A - self.P * x
        top = z.max()
        if top == -_INF:
            return -_INF, 0.0
        w = np.exp(z - top)
        total = w.sum()
        return float(top + math.log(total)), -float(np.vdot(self.P, w)) / float(total)

    def log_fs(self, x: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
        """(ln F, d ln F / dx) at x of the exponent rows on the frozen rule,
        one log-sum-exp per row: +inf below the row's floor, and -inf and 0
        for a row without a term."""
        P = self.P[rows]
        z = P * x[:, None]
        np.subtract(self.A[rows], z, out=z)
        top = z.max(axis=1)
        with np.errstate(invalid="ignore"):
            z -= top[:, None]
        w = np.exp(z, out=z)
        total = w.sum(axis=1)
        none = top == -_INF
        if none.any():
            top, total = np.where(none, -_INF, top), np.where(none, 1.0, total)
            w[none] = 0.0
        h = np.where(x < self.floor[rows], _INF, top + np.log(total))
        return h, -np.einsum("ij,ij->i", P, w) / total

    def solve(self, x: float, max_iter: int) -> list[float]:
        """inf{eta : F_p(g/eta) <= 1} of each exponent row, from the rule
        laid out at x = ln eta, clamped to +-_LN_ETA_MAX: the root on the
        frozen rule by _roots, at which the rule is laid out again and,
        where that leaves it as it is, checked; solved again from there if
        either changed it.  ln F comes from log_f for one RadialExponent and
        from log_fs over the live rows for a batch.  A row stuck at a
        lay-out moves up by a doubling step, and is +inf past _LN_ETA_MAX,
        as is a dead row; such rows leave the rule.  max_iter caps each
        row's evaluations of ln F over all solves; BracketError past it."""
        out = [_INF] * self.count
        live = [i for i, dead in enumerate(self.dead.tolist()) if not dead]
        if len(live) < self.count:
            self.keep(live)

        def log_fs(x, rows):
            h, dh = self.log_fs(np.array(x), rows if len(rows) < self.count else slice(None))
            return zip(h.tolist(), dh.tolist())

        log_f = (lambda x, rows: [self.log_f(x[0])]) if self.one else log_fs
        x = [min(max(x, -_LN_ETA_MAX), _LN_ETA_MAX)] * len(live)
        step, eta, evals, solved = [1.0] * len(live), [_INF] * len(live), [0] * len(live), False
        while live:
            changed, stuck = self.lay_out(np.array(x))
            if True in stuck.tolist():
                # no tail cut at x: up by a doubling step, infinite past _LN_ETA_MAX
                for i in np.flatnonzero(stuck).tolist():
                    x[i] = _INF if x[i] >= _LN_ETA_MAX else min(x[i] + step[i], _LN_ETA_MAX)
                    step[i] *= 2.0
                solved = False
            # the G-K test runs only at roots the lay-out left as they were
            elif solved and not (changed or self.check(np.array(x))):
                break
            else:
                eta = _roots(log_f, x, self.floor.tolist(), evals, max_iter)
                x, solved = [math.log(e) for e in eta], True
            if _INF in x:
                keep = [i for i, v in enumerate(x) if v < _INF]
                live, x, step, eta, evals = ([v[i] for i in keep] for v in (live, x, step, eta, evals))
                self.keep(keep)
        for i, e in zip(live, eta):
            out[i] = e
        return out


def _newton(x: float, lo: float):
    """One row's certified Newton step from x, as a generator: it yields
    each x = ln eta where it needs (ln F, d ln F / dx), sent back by the
    caller, and returns eta with ln F(ln eta) <= 0 < ln F(ln(eta (1 -
    CERT_DELTA))), +inf when ln F > 0 up to _LN_ETA_MAX; BracketError when
    ln F <= 0 down to -_LN_ETA_MAX.  ln F is convex and decreasing, so the
    steps land at or below the root and climb to it, in the bracket [a, b]
    of evaluated points and in [lo, _LN_ETA_MAX].  A step below _TOL/4 ends
    at r: eta = e^(r + _TOL/4) is checked, and a failed check steps on."""
    a, b = -_INF, _INF
    x = min(max(x, lo), _LN_ETA_MAX)
    h, dh = yield x
    while True:
        if h > 0.0:
            if x >= _LN_ETA_MAX:
                return _INF
            a = x
        else:
            if x <= -_LN_ETA_MAX:
                raise BracketError("modular stays below 1 for arbitrarily small eta")
            b = x
        # with ln F <= 0 at the floor (or no term at all) the root is the floor
        r = max(lo, x - h / dh if h > -_INF else lo)
        if abs(r - x) > 0.25 * _TOL:
            if not a < r < b and -_INF < a and b < _INF:
                r = 0.5 * (a + b)
            x = min(r, _LN_ETA_MAX)
            h, dh = yield x
            continue
        eta = math.exp(r + 0.25 * _TOL)
        x = math.log(eta)
        h, dh = yield x
        if h <= 0.0:
            x = math.log(eta * (1.0 - CERT_DELTA))
            h, dh = yield x
            if h > 0.0:
                return eta


def _roots(log_f, x: list[float], floor: list[float], evals: list[int],
           max_iter: int) -> list[float]:
    """Each row's _newton from x, above its floor, in lock-step, one
    evaluation a round: log_f(x, rows) gives the (ln F, d ln F / dx) pairs
    of the rows still stepping, each at its x.  evals counts each row's
    evaluations; BracketError once one passes max_iter."""
    steps = [_newton(v, max(f, -_LN_ETA_MAX)) for v, f in zip(x, floor)]
    rows, at, eta = list(range(len(steps))), [next(s) for s in steps], [_INF] * len(steps)
    while rows:
        for i in rows:
            evals[i] += 1
            if evals[i] > max_iter:
                raise BracketError("norm root-find exceeded the iteration cap")
        done = []
        for k, hd in enumerate(log_f(at, rows)):
            try:
                at[k] = steps[k].send(hd)
            except StopIteration as stop:
                eta[rows[k]] = stop.value
                done.append(k)
        for k in reversed(done):
            del rows[k], steps[k], at[k]
    return eta


# ---------------------------------------------------------------------------
# norms of 1 over R^n, a batch of exponent rows on one rule


def _log_norms_of_one(p, n: int, rel_tol: float, max_iter: int = 200) -> np.ndarray:
    """ln of the Luxemburg norm of 1 over R^n against each of a batch of
    exponent rows p, as _Modular takes them, each as norm_of_one gives it:
    the rows of one _Modular of g = 1, solved together by its solve loop
    from eta = e (as norm_of_one from eta = 1, below the floor).  A dead
    row, such as one whose exponent is finite at infinity (its integrand
    tends to r^(n-1) at every eta), is +inf.
    max_iter caps each row's evaluations of ln F; BracketError past it.
    """
    mod = _Modular(PiecewisePowerFunction.one(), p, Region.all(), n, rel_tol)
    return np.log(mod.solve(1.0, max_iter))


def modular(g: PiecewisePowerFunction, p: RadialExponent, region: Region,
            n: int, rel_tol: float = 1e-9) -> float:
    """F_p(g * chi_region); may be +inf, never raises on divergence."""
    m, ln_m = _Modular(g, p, region, n, rel_tol).trial(1.0)
    return m if m is not None else _exp(ln_m)


def luxemburg_norm(g: PiecewisePowerFunction, p: RadialExponent, region: Region,
                   n: int, rel_tol: float = 1e-9, max_iter: int = 200, *,
                   guess: float = 1.0) -> float:
    """inf{eta > 0 : F_p(g/eta) <= 1}, certified on one quadrature rule.

    Returns 0 for the zero function and +inf when no eta up to 1e280 has
    F_p(g/eta) <= 1.  For constant p the norm has the closed form
    F_p(g)^(1/p), which is used directly.  Otherwise one quadrature rule
    for all the rows without a closed form is laid out at eta = guess
    (eta = 1 for a guess that is not finite and positive): its tail cuts
    and panels, untested.  On that frozen rule ln F_p(g/e^x) is one
    log-sum-exp, convex and decreasing in x = ln eta, and safeguarded
    Newton steps with its exact derivative find the root.  At the root the
    rule is tested (each tail's drop test, then each row's G-K error test);
    a row that fails is re-cut or refined and the root solved again, so
    the rule the norm ends on passes both at the returned eta, which has
    F_p(g/eta) <= 1 < F_p(g/(eta (1 - CERT_DELTA))) on it, whatever the
    guess.  max_iter caps the evaluations of ln F on the frozen rules, over
    all solves; BracketError past it.
    """
    mod = _Modular(g, p, region, n, rel_tol)
    if mod.empty:
        return 0.0
    if p.is_constant and math.isfinite(p.p_zero):
        return _constant_p_root(*mod.trial(1.0), p.p_zero)
    return mod.solve(math.log(guess) if 0.0 < guess < _INF else 0.0, max_iter)[0]


def ball_norms(g: PiecewisePowerFunction, p: RadialExponent, radii, n: int,
               rel_tol: float = 1e-9) -> list[float]:
    """The Luxemburg norm of g on each ball B(0, R) of the radii, each as
    luxemburg_norm(g.window(ball), p, ball, n, rel_tol) gives it, bit for bit.

    For a constant, finite p and g whose rows are all plain powers (finite
    expo) the balls take one pass.  A row that ends below R (1 - 2 _SNAP),
    like every row before it, lies whole in the ball, so its closed form is
    the same in every ball that holds it; only the rows from there up to R
    are clipped, per ball.  One log_power_integrals call takes the whole
    rows and the clipped ones, and each ball's norm is the closed form of
    its logs.  Otherwise each ball takes its own luxemburg_norm.
    """
    if not (p.is_constant and math.isfinite(p.p_zero)) or np.isnan(g.expo).any():
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
