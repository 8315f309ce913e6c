"""Evaluators for the twelve boundedness constants and the sharpness regions.

Every constant is a 1-D radial integral of the kernel against per-slot
factors built from the matrix families (norm powers, determinant powers,
dyadic locator sums) and, for the variable-exponent constants, the norm of
the constant function 1 against a per-radius residual exponent.  The
kernel times the matrix factors is one PiecewisePowerFunction of the
kernel radius and integrates exactly; with a norm-of-one node factor it
falls back to adaptive quadrature, whose nodes of each round take their
norms of one as one batch, solved as the exponent rows of one quadrature
rule.  Divergence and the pullback hypothesis are decided before
integrating, the hypothesis by the sign test of those rows at sampled
kernel radii and at the singular kernel ends, where the pullback of q tends
to the constant q(inf) or q(0), which also gives each node factor's end
slope in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _quad
from . import luxemburg
from .exponents import (
    _CHECK_ARRAY,
    RECIP_ZERO_TOL,
    Constant,
    PointwiseSum,
    RadialExponent,
    combine_reciprocal,
)
from .hausdorff import OperatorSpec
from .luxemburg import ExponentExpr, PiecewisePowerFunction, Segment
from .matrices import theta_star

__all__ = [
    "SlotParams",
    "BoundConfig",
    "BoundResult",
    "SharpnessSlot",
    "RegionCheck",
    "HypothesisError",
    "CONSTANT_IDS",
    "evaluate_constant",
    "lebesgue_constants",
    "herz_morrey_constants",
    "constparam_constants",
    "central_morrey_constants",
    "sharpness_region_check",
    "slot_region_values",
]

_INF = math.inf

CONSTANT_IDS = (
    "C1", "C2", "C2*", "C3", "C4", "C5", "C5*", "C6", "C6*",
    "C7", "C8", "C9", "C10", "C11", "C12",
)


class HypothesisError(ValueError):
    """A hypothesis needed by the requested constant fails."""


@dataclass(frozen=True)
class SlotParams:
    """Per-slot data: integrability index, weight power, smoothness index,
    Morrey decay, and outer summability index."""

    q: RadialExponent
    gamma: float = 0.0
    alpha: RadialExponent = Constant(0.0, signed=True)
    lam: float = 0.0
    p: float = 2.0


@dataclass(frozen=True)
class BoundConfig:
    operator: OperatorSpec
    slots: tuple[SlotParams, ...]
    zeta: float = 1.0
    rel_tol: float = 1e-9

    def __post_init__(self):
        if len(self.slots) != self.operator.m:
            raise ValueError("need one slot of parameters per operator slot")
        if not 0 < self.zeta < _INF:
            raise ValueError("zeta must be positive and finite")
        if not all(0 < s.p < _INF for s in self.slots):
            raise ValueError("outer indices p_i must be positive and finite")
        if not all(math.isfinite(s.gamma) and math.isfinite(s.lam) for s in self.slots):
            raise ValueError("slot parameters gamma_i and lam_i must be finite")

    # --- derived couplings -------------------------------------------------

    def combined_q(self) -> RadialExponent:
        return combine_reciprocal([s.q for s in self.slots])

    def gamma_sum(self) -> float:
        return math.fsum(s.gamma for s in self.slots)

    def alpha_sum(self) -> RadialExponent:
        if all(s.alpha.is_constant for s in self.slots):
            return Constant(math.fsum(s.alpha(1.0) for s in self.slots), signed=True)
        return PointwiseSum(tuple(s.alpha for s in self.slots))

    def lam_sum(self) -> float:
        return math.fsum(s.lam for s in self.slots)

    def p_combined(self) -> float:
        return 1.0 / math.fsum(1.0 / s.p for s in self.slots)

    def gamma_weighted(self) -> float:
        """gamma with gamma/q = sum gamma_i/q_i (constant exponents)."""
        q = self.combined_q()
        if not q.is_constant:
            raise HypothesisError("gamma/q coupling needs constant exponents")
        return q(1.0) * math.fsum(s.gamma / s.q(1.0) for s in self.slots)

    def gamma_central(self) -> float:
        qinf = self.combined_q().p_infty
        return qinf * math.fsum(s.gamma / s.q.p_infty for s in self.slots)

    def lam_central(self) -> float:
        n = self.operator.n
        g = self.gamma_central()
        return math.fsum((n + s.gamma) / (n + g) * s.lam for s in self.slots)


@dataclass(frozen=True)
class BoundResult:
    id: str
    value: float
    finite: bool
    breakdown: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """The result as strict JSON data: non-finite floats become None."""
        return finite_or_null({
            "id": self.id,
            "value": self.value,
            "finite": self.finite,
            "breakdown": self.breakdown,
        })


def finite_or_null(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_or_null(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# factors: piecewise powers of the kernel radius, plus node factors


def _power_factor(coef: float, expo: float, label: str):
    return PiecewisePowerFunction.single_power(coef, expo), label


def _extreme_factor(base_coef: float, base_expo: float, e1: float, e2: float,
                    want_max: bool, label: str):
    """max or min of (K r^b)^e1 and (K r^b)^e2 as piecewise powers."""
    pick = max if want_max else min
    if base_expo == 0.0:
        return _power_factor(pick(base_coef ** e1, base_coef ** e2), 0.0, label)
    if e1 == e2:
        return _power_factor(base_coef ** e1, base_expo * e1, label)
    hi_e, lo_e = (max(e1, e2), min(e1, e2)) if want_max else (min(e1, e2), max(e1, e2))
    r_star = base_coef ** (-1.0 / base_expo)  # where K r^b crosses 1
    # the winner above the crossing is hi_e; which side that is depends on b
    lo_side, hi_side = (lo_e, hi_e) if base_expo > 0 else (hi_e, lo_e)
    sides = ((0.0, r_star, lo_side), (r_star, _INF, hi_side))
    return PiecewisePowerFunction(tuple(
        Segment(lo, hi, base_coef ** e, ExponentExpr(base_expo * e))
        for lo, hi, e in sides if lo < hi
    )), label


def _inv_norm_piece(fam):
    return math.sqrt(fam.n) / abs(fam.s.c), -fam.s.a


def _norm_piece(fam):
    return math.sqrt(fam.n) * abs(fam.s.c), fam.s.a


def _inv_norm_powers(cfg: BoundConfig, exps_fn, check=None):
    """One factor ||A_i(t)^-1||^e_i per slot, with e_i = exps_fn(slot_i)."""
    factors = []
    for slot, fam in zip(cfg.slots, cfg.operator.families):
        if check:
            check(slot)
        ic, ie = _inv_norm_piece(fam)
        e = exps_fn(slot)
        factors.append(_power_factor(ic ** e, ie * e, "inv-norm"))
    return factors, []


def _inv_norm_weight(n: int, slot: SlotParams, fam, want_max: bool):
    """max (or min) of ||A^-1||^(n/q+ + gamma) and ||A^-1||^(n/q- + gamma)."""
    ic, ie = _inv_norm_piece(fam)
    return _extreme_factor(ic, ie, n / slot.q.p_plus + slot.gamma,
                           n / slot.q.p_minus + slot.gamma, want_max, "inv-norm-weight")


def _c_factor_pieces(fam, q: RadialExponent, gamma: float, label: str):
    """Weight-distortion times determinant-power factor, split where |s|=1.

    The pair max(||A||^-g, ||A^-1||^g) shares the radius power, so only the
    determinant max needs a split.
    """
    c, a = abs(fam.s.c), fam.s.a
    n = fam.n
    det, _ = _extreme_factor(c ** (-n), -a * n, 1.0 / q.p_plus, 1.0 / q.p_minus, True, "det")
    return det.scaled(n ** (abs(gamma) / 2.0) * c ** (-gamma)).weighted(-a * gamma), label


# a node factor takes its end behaviour past ln |s(t)| = -_LN_EDGE, and past
# +_LN_EDGE or where ln N passes 600, inside the norms' range
_LN_EDGE = 700.0


class _Residuals:
    """The residual exponents r_i, 1/r_i(x) = 1/q(x pull_i) - 1/(zeta q(x)),
    of a batch of rows, each the pullback of q by a factor pull_i = 1/|s(t_i)|.
    pull = inf and 0 stand for the limits as |s(t)| -> 0 and -> inf, where
    the pullback is the constant q(inf) or q(0).

    Construction runs ReciprocalDifference's sign test on every row at once:
    at 0, the check radii 1e-8 ... 1e8, every discontinuity of q and of its
    pullback and the geometric midpoints between neighbouring ones, and in
    the limits at 0 and at infinity.  The first failing row (where(i) names
    it) raises HypothesisError with its first failing |x|.  A row is flat,
    r = inf everywhere, where the difference is at most RECIP_ZERO_TOL on
    the check radii and in both limits.  The rows that are not flat, solve,
    are exponent rows as luxemburg._Modular takes them: a call gives their
    r_i and repeats the sign test at its radii, and p_zero and p_infty are
    their limits.
    """

    is_constant = False

    def __init__(self, q: RadialExponent, zeta: float, pull: np.ndarray, where):
        self.q, self.zeta, self.pull, self.where = q, zeta, pull[:, None], where
        # the pullback's limits at 0 and at infinity
        lim_0 = np.where(pull == _INF, q.p_infty, q.p_zero)
        lim_inf = np.where(pull == 0.0, q.p_zero, q.p_infty)
        d_0 = 1.0 / lim_0 - 1.0 / (zeta * q.p_zero)
        d_inf = 1.0 / lim_inf - 1.0 / (zeta * q.p_infty)
        breaks = np.array(q.discontinuities())
        radii = np.concatenate((_CHECK_ARRAY, [0.0]))
        self.breaks = ()
        if len(breaks):
            # a limit has no discontinuities of its own, so it repeats q's
            with np.errstate(over="ignore"):
                pulled = breaks / np.where((0.0 < pull) & (pull < _INF), pull, 1.0)[:, None]
            both = np.sort(np.concatenate((np.broadcast_to(breaks, pulled.shape), pulled), axis=1))
            mids = np.sqrt(both[:, 1:]) * np.sqrt(both[:, :-1])  # no overflow near 1e308
            radii = np.concatenate((np.broadcast_to(radii, (len(pull), len(radii))), both, mids),
                                   axis=1)
            self.breaks = tuple(both[(both > 0.0) & (both < _INF)].tolist())
        every = np.arange(len(pull))
        d = self._diff(radii, every)
        self._check(d, radii, every, (d_0 < -RECIP_ZERO_TOL) | (d_inf < -RECIP_ZERO_TOL))
        self.flat = ((d[:, :len(_CHECK_ARRAY)] <= RECIP_ZERO_TOL).all(axis=1)
                     & (d_0 <= RECIP_ZERO_TOL) & (d_inf <= RECIP_ZERO_TOL))
        self.solve = np.flatnonzero(~self.flat)
        with np.errstate(divide="ignore"):
            self.p_zero, self.p_infty = (np.where(d > RECIP_ZERO_TOL, 1.0 / d, _INF)[self.solve]
                                         for d in (d_0, d_inf))

    def _diff(self, r: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """1/q(pull r) - 1/(zeta q(r)), one line per row."""
        pull = self.pull[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            pulled = pull * r
        # 0 * inf: at a limit the pullback is q(inf) or q(0) at every radius
        pulled = np.where(np.isnan(pulled), np.where(pull == _INF, _INF, 0.0), pulled)
        return 1.0 / self.q(pulled) - 1.0 / (self.zeta * self.q(r))

    def _check(self, d: np.ndarray, r: np.ndarray, rows: np.ndarray,
               fails_at_limit=False) -> None:
        bad = d < -RECIP_ZERO_TOL
        fails = bad.any(axis=1) | fails_at_limit
        if fails.any():
            i = int(np.argmax(fails))
            witness = np.broadcast_to(r, d.shape)[i][bad[i]]
            raise HypothesisError(
                f"pullback bound q(A^-1(t) x) <= zeta q(x) fails {self.where(rows[i])}, "
                f"|x|={witness.min() if len(witness) else _INF:.4g}"
            )

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """The solved rows' r_i at the radii r, (len(solve), len(r)), inf
        where the difference is at most RECIP_ZERO_TOL."""
        d = self._diff(r, self.solve)
        self._check(d, r, self.solve)
        with np.errstate(divide="ignore"):
            return np.where(d > RECIP_ZERO_TOL, 1.0 / d, _INF)

    def discontinuities(self) -> tuple[float, ...]:
        return self.breaks


class _NormOne:
    """ln N(t) at s = ln t, N(t) the norm of 1 for the residual exponent
    1/r_t(x) = 1/q(x/|s(t)|) - 1/(zeta q(x)), |s(t)| = |c| t^a.  A call
    takes an array of s, and solves their norms together as the exponent
    rows of one quadrature rule (luxemburg._log_norms_of_one)."""

    def __init__(self, n: int, q: RadialExponent, fam, zeta: float, rel_tol: float):
        self.n, self.q, self.fam, self.zeta, self.rel_tol = n, q, fam, zeta, rel_tol
        # |s(1)| = |c|, SingularFamilyError where it is 0 or not finite
        self.ln_c, self.a = math.log(fam.dilation_scale(1.0)), fam.s.a
        # N grows like |s|^growth as |s| -> inf, d = 1/q(0) - 1/(zeta q(inf))
        self.growth = n * max(0.0, 1.0 / q.p_zero - 1.0 / (zeta * q.p_infty))
        self.ln_hi = min(_LN_EDGE, 600.0 / self.growth) if self.growth else _LN_EDGE
        self.ends = {}

    def _rows(self, s: np.ndarray, ln_scale: np.ndarray) -> _Residuals:
        """The residual rows ln |s(t)| = ln_scale at s = ln t.  A row pulls q
        back by 1/|s(t)| from the family where t is a normal float, by
        e^(-ln |s(t)|) where it is not, and by inf or 0 at a limit (ln |s(t)|
        = -inf or inf); a failing sign test names t, ln |s(t)| or the end."""
        t = _quad.radius(s)
        normal = (2.0 ** -1022 <= t) & (t < _INF) & np.isfinite(ln_scale)
        with np.errstate(over="ignore"):
            pull = np.exp(-ln_scale)
        for i in np.flatnonzero(normal).tolist():
            pull[i] = 1.0 / self.fam.dilation_scale(float(t[i]))

        def where(i):
            if math.isinf(ln_scale[i]):
                return f"as t -> {0 if (ln_scale[i] < 0.0) == (self.a > 0.0) else 'inf'}"
            return f"at t={t[i]:.4g}" if normal[i] else f"at ln |s(t)|={ln_scale[i]:.4g}"

        return _Residuals(self.q, self.zeta, pull, where)

    def _log_norms(self, s: np.ndarray, ln_scale: np.ndarray) -> np.ndarray:
        """ln N of the rows _rows(s, ln_scale), 0 where the residual is flat."""
        resid = self._rows(s, ln_scale)
        out = np.zeros(len(s))
        if len(resid.solve):
            out[resid.solve] = luxemburg._log_norms_of_one(resid, self.n, self.rel_tol)
        return out

    def __call__(self, s):
        """ln N at s = ln t, for a float s or an array of them."""
        flat = np.ravel(s).astype(float)
        ln_scale = self.ln_c + self.a * flat
        out = np.empty(len(flat))
        inside = np.ones(len(flat), dtype=bool) if self.a == 0.0 else (
            (-_LN_EDGE <= ln_scale) & (ln_scale <= self.ln_hi))
        for at_zero in (True, False):
            past = ~inside & (((ln_scale > 0.0) == (self.a < 0.0)) == at_zero)
            if past.any():
                s_edge, ln_edge, kappa = self.end(at_zero)
                with np.errstate(invalid="ignore"):
                    out[past] = ln_edge + kappa * (flat[past] - s_edge)
        out[inside] = self._log_norms(flat[inside], ln_scale[inside])
        return out.reshape(np.shape(s)) if isinstance(s, np.ndarray) else float(out[0])

    def end(self, at_zero: bool) -> tuple[float, float, float]:
        """(s_edge, ln N(t_edge), kappa) at the kernel end t -> 0 (at_zero) or
        t -> inf, with ln N(t_edge) + kappa (s - s_edge) past s_edge: the
        limit's norm where |s(t)| -> 0 and kappa = a growth where |s(t)| ->
        inf, both upper bounds; kappa is -inf (+inf) where N is infinite."""
        if at_zero not in self.ends:
            if self.a == 0.0:  # N is the same at every t
                s_edge, ln_n, kappa = 0.0, self(0.0), 0.0
            else:
                grows = (self.a < 0.0) == at_zero  # |s(t)| -> inf
                ln_s = self.ln_hi if grows else -_LN_EDGE
                s_edge = (ln_s - self.ln_c) / self.a
                # N at the edge where |s(t)| grows, the limit's (-inf) where it shrinks
                ln_n = float(self._log_norms(np.array([s_edge]),
                                             np.array([ln_s if grows else -_INF]))[0])
                kappa = self.growth * self.a if grows else 0.0
            if ln_n == _INF:
                kappa = -_INF if at_zero else _INF
            self.ends[at_zero] = (s_edge, ln_n, kappa)
        return self.ends[at_zero]


def _norm_one_nodes(cfg: BoundConfig, zeta: float) -> list[_NormOne]:
    """The slots' norm-of-one factors (none for constant q at zeta = 1), once
    each slot's rows (_NormOne._rows) pass their sign test, the pullback
    hypothesis, at nine sampled kernel radii t and at each singular kernel
    end (s = ln t = -inf or inf) where the family's scale moves."""
    k = cfg.operator.kernel
    lo = k.r_lo if k.r_lo > 0 else (k.r_hi if math.isfinite(k.r_hi) else 1.0) * 1e-6
    ts = [lo * (k.r_hi / lo) ** (i / 8.0) if math.isfinite(k.r_hi) else lo * 4.0 ** i
          for i in range(9)]
    ends = [-_INF] * (k.r_lo == 0.0) + [_INF] * math.isinf(k.r_hi)
    nodes = []
    for slot, fam in zip(cfg.slots, cfg.operator.families):
        node = _NormOne(cfg.operator.n, slot.q, fam, zeta, max(cfg.rel_tol, 1e-7))
        s = np.concatenate((np.log(ts), ends if node.a else []))
        node._rows(s, node.ln_c + node.a * s)
        if not (slot.q.is_constant and zeta == 1.0):
            nodes.append(node)
    return nodes


def _integrate_factors(spec: OperatorSpec, factors, node_fns, rel_tol: float):
    """Integrate the kernel against the product of all factors; (value,
    diagnostics).  At a singular kernel end the quadrature's power slope
    adds each node factor's closed-form end slope."""
    k = spec.kernel
    product = PiecewisePowerFunction.single_power(spec.sigma * k.c, k.a - 1.0, k.r_lo, k.r_hi)
    for factor, _label in factors:
        product = product.multiply(factor)
    segs = product.segments
    if not segs or (segs[0].r_lo, segs[-1].r_hi) != (k.r_lo, k.r_hi) or any(
            a.r_hi != b.r_lo for a, b in zip(segs, segs[1:])):
        raise RuntimeError("factor pieces do not cover the support")

    diag: dict = {"factors": [label for _f, label in factors] + ["norm-of-one"] * len(node_fns),
                  "pieces": []}

    total = []
    for seg in segs:
        lo, hi, coef, expo = seg.r_lo, seg.r_hi, seg.coef, seg.expr.const
        if not node_fns:
            val = coef * _quad.power_integral(lo, hi, expo)
            diag["pieces"].append({"lo": lo, "hi": hi, "coef": coef, "expo": expo})
            if math.isinf(val):
                diag["divergent_at"] = [lo, hi]
                return _INF, diag
            total.append(val)
            continue

        def log_integrand(s, coef=coef, expo=expo):
            return math.log(coef) + (expo + 1.0) * s + sum(fn(s) for fn in node_fns)

        slope_0 = expo + math.fsum(f.end(True)[2] for f in node_fns) if lo == 0.0 else None
        slope_inf = expo + math.fsum(f.end(False)[2] for f in node_fns) if math.isinf(hi) else None
        res = _quad.radial_integral(log_integrand, lo, hi, slope_0, slope_inf, rel_tol=rel_tol)
        if res.divergence is not None:
            diag["divergent_at"] = [lo, hi]
            if res.divergence == "power":
                # the end at inf is tested first and leaves s_hi infinite; JSON
                # has no infinities, so the slope of an infinite factor is null
                diag["endpoint_slope"] = finite_or_null(
                    slope_inf if math.isinf(res.s_hi) else slope_0)
            return _INF, diag
        diag["pieces"].append({"s_lo": res.s_lo, "s_hi": res.s_hi, "quadrature": True})
        total.append(res.value)
    return math.fsum(total), diag


# ---------------------------------------------------------------------------
# per-slot hypothesis checks


def _require(cond: bool, name: str) -> None:
    if not cond:
        raise HypothesisError(f"hypothesis violated: {name}")


def _theta_sum(theta: int, c: float) -> float:
    return math.fsum(2.0 ** (r * c) for r in range(theta - 1, 1))


# ---------------------------------------------------------------------------
# the constants


def _run_builders(cfg, builders, which, rel_tol):
    rel_tol = cfg.rel_tol if rel_tol is None else rel_tol
    out: dict[str, BoundResult] = {}
    for cid in which:
        factors, nodes = builders[cid]()
        val, diag = _integrate_factors(cfg.operator, factors, nodes, rel_tol)
        out[cid] = BoundResult(cid, val, math.isfinite(val), diag)
    return out


def lebesgue_constants(cfg: BoundConfig, rel_tol: float | None = None,
                       which=("C1", "C2", "C2*")) -> dict[str, BoundResult]:
    """C1 (zeta-dilated sources), C2 and C2* (undilated sources)."""
    n = cfg.operator.n

    def build_c1():
        nodes = _norm_one_nodes(cfg, cfg.zeta)
        return [_c_factor_pieces(fam, slot.q, slot.gamma, "c-factor")
                for slot, fam in zip(cfg.slots, cfg.operator.families)], nodes

    def build_c2(want_max: bool):
        nodes = _norm_one_nodes(cfg, 1.0)
        return [_inv_norm_weight(n, slot, fam, want_max)
                for slot, fam in zip(cfg.slots, cfg.operator.families)], nodes if want_max else []

    builders = {"C1": build_c1, "C2": lambda: build_c2(True), "C2*": lambda: build_c2(False)}
    return _run_builders(cfg, builders, which, rel_tol)


def herz_morrey_constants(cfg: BoundConfig, rel_tol: float | None = None,
                          which=("C3", "C4", "C5", "C5*", "C6", "C6*"),
                          ) -> dict[str, BoundResult]:
    """C3/C4 (zeta-dilated Morrey-Herz and Herz) and C5/C5*/C6/C6*.

    The integrands are defined at lam = 0 and the definitional reductions
    evaluate there, so only negative lam raises.
    """
    n = cfg.operator.n
    theta = theta_star(cfg.operator.families, 1.0)

    def a0_ainf(slot):
        return slot.alpha.p_zero, slot.alpha.p_infty

    def build_c3():
        nodes = _norm_one_nodes(cfg, cfg.zeta)
        factors = []
        for slot, fam in zip(cfg.slots, cfg.operator.families):
            a0, ainf = a0_ainf(slot)
            _require(a0 - ainf >= 0, "alpha(0) >= alpha(inf)")
            _require(slot.lam >= 0, "lam_i >= 0")
            factors.append(_c_factor_pieces(fam, slot.q, slot.gamma, "c-factor"))
            nc, ne = _norm_piece(fam)
            factors.append(
                _extreme_factor(nc, ne, slot.lam - a0, slot.lam - ainf, True, "norm-shift")
            )
            tsum = max(_theta_sum(theta, slot.lam - a0), _theta_sum(theta, slot.lam - ainf))
            factors.append(_power_factor(tsum, 0.0, "dyadic-sum"))
        return factors, nodes

    def build_c4():
        nodes = _norm_one_nodes(cfg, cfg.zeta)
        p = cfg.p_combined()
        factors = [_power_factor((2.0 - theta) ** (cfg.operator.m - 1.0 / p), 0.0, "theta-count")]
        for slot, fam in zip(cfg.slots, cfg.operator.families):
            a0, ainf = a0_ainf(slot)
            _require(abs(a0 - ainf) <= 1e-12, "alpha(0) == alpha(inf)")
            factors.append(_c_factor_pieces(fam, slot.q, slot.gamma, "c-factor"))
            nc, ne = _norm_piece(fam)
            factors.append(_power_factor(nc ** (-a0), -ne * a0, "norm-alpha0"))
            factors.append(_power_factor(_theta_sum(theta, -a0), 0.0, "dyadic-sum"))
        return factors, nodes

    def build_c5(star: bool):
        nodes = _norm_one_nodes(cfg, 1.0)
        factors = []
        for slot, fam in zip(cfg.slots, cfg.operator.families):
            a0, ainf = a0_ainf(slot)
            if not star:
                _require(a0 - ainf >= 0, "alpha(0) >= alpha(inf)")
            _require(slot.lam >= 0, "lam_i >= 0")
            ic, ie = _inv_norm_piece(fam)
            factors.append(_inv_norm_weight(n, slot, fam, not star))
            factors.append(_power_factor(ic ** (-slot.lam), -ie * slot.lam, "inv-norm-lam"))
            if star:
                if not slot.alpha.log_holder_certified:
                    raise HypothesisError(
                        "sharp-side constant needs a certified continuity constant for alpha"
                    )
                c0 = slot.alpha.c_log_zero
                factors.append(
                    _extreme_factor(ic, ie, a0 + c0, a0 - c0, False, "inv-norm-alpha-band")
                )
            else:
                factors.append(
                    _extreme_factor(ic, ie, a0, ainf, True, "inv-norm-alpha")
                )
        return factors, [] if star else nodes

    def build_c6(star: bool):
        nodes = _norm_one_nodes(cfg, 1.0)
        factors = []
        all_const_q = all(s.q.is_constant for s in cfg.slots)
        for slot, fam in zip(cfg.slots, cfg.operator.families):
            a0, ainf = a0_ainf(slot)
            ic, ie = _inv_norm_piece(fam)
            if star and all_const_q:
                e = a0 + n / slot.q(1.0) + slot.gamma
                factors.append(_power_factor(ic ** e, ie * e, "inv-norm-herz"))
                continue
            factors.append(_inv_norm_weight(n, slot, fam, not star))
            if star:
                lo, hi = slot.alpha.range_on(0.0, _INF)
                sup_alpha = max(abs(lo), abs(hi))
                factors.append(
                    _power_factor(ic ** sup_alpha, ie * sup_alpha, "inv-norm-alpha-sup")
                )
            else:
                _require(abs(a0 - ainf) <= 1e-12, "alpha(0) == alpha(inf)")
                factors.append(_power_factor(ic ** a0, ie * a0, "inv-norm-alpha0"))
        return factors, [] if star else nodes

    builders = {"C3": build_c3, "C4": build_c4,
                "C5": lambda: build_c5(False), "C5*": lambda: build_c5(True),
                "C6": lambda: build_c6(False), "C6*": lambda: build_c6(True)}
    return _run_builders(cfg, builders, which, rel_tol)


def constparam_constants(cfg: BoundConfig, rel_tol: float | None = None,
                         which=("C7", "C8", "C9")) -> dict[str, BoundResult]:
    """C7/C8 (constant-parameter Morrey-Herz and Herz targets) and C9
    (power-weight Lebesgue targets under equal-modulus dilations)."""
    n = cfg.operator.n
    for slot in cfg.slots:
        _require(slot.q.is_constant, "constant integrability exponents")
        _require(slot.alpha.is_constant, "constant smoothness indices")

    def build_c9():
        factors = []
        for slot, fam in zip(cfg.slots, cfg.operator.families):
            c, a = abs(fam.s.c), fam.s.a
            e = -(slot.alpha(1.0) + n / slot.p)
            factors.append(_power_factor(c ** e, a * e, "dilation-scale"))
        return factors, []

    builders = {
        "C7": lambda: _inv_norm_powers(
            cfg, lambda s: -s.lam + s.alpha(1.0) + (n + s.gamma) / s.q(1.0),
            check=lambda s: _require(s.lam >= 0, "lam_i >= 0"),
        ),
        "C8": lambda: _inv_norm_powers(cfg, lambda s: s.alpha(1.0) + (n + s.gamma) / s.q(1.0)),
        "C9": build_c9,
    }
    return _run_builders(cfg, builders, which, rel_tol)


def central_morrey_constants(cfg: BoundConfig, rel_tol: float | None = None,
                             which=("C10", "C11", "C12")) -> dict[str, BoundResult]:
    """C10 (variable-exponent two-weight), C11 and C12 (constant-exponent)."""
    n = cfg.operator.n
    for slot in cfg.slots:
        qinf = slot.q.p_infty
        _require(-1.0 / qinf < slot.lam < 0, "lam_i in (-1/q_inf, 0)")
        _require(slot.gamma > -n, "gamma_i > -n")
        _require(slot.alpha.is_constant, "constant inner weight powers")

    def build_c10():
        nodes = _norm_one_nodes(cfg, 1.0)
        factors = []
        for slot, fam in zip(cfg.slots, cfg.operator.families):
            nc, ne = _norm_piece(fam)
            e = (n + slot.gamma) * (1.0 / slot.q.p_infty + slot.lam)
            factors.append(_power_factor(nc ** e, ne * e, "norm-ball-growth"))
            factors.append(_c_factor_pieces(fam, slot.q, slot.alpha(1.0), "c-factor"))
        return factors, nodes

    builders = {
        "C10": build_c10,
        "C11": lambda: _inv_norm_powers(
            cfg, lambda s: s.alpha(1.0) - s.gamma / s.q.p_infty - s.lam * (n + s.gamma)
        ),
        "C12": lambda: _inv_norm_powers(cfg, lambda s: -(n + s.gamma) * s.lam),
    }
    return _run_builders(cfg, builders, which, rel_tol)


_GROUPS = {
    "C1": lebesgue_constants, "C2": lebesgue_constants, "C2*": lebesgue_constants,
    "C3": herz_morrey_constants, "C4": herz_morrey_constants,
    "C5": herz_morrey_constants, "C5*": herz_morrey_constants,
    "C6": herz_morrey_constants, "C6*": herz_morrey_constants,
    "C7": constparam_constants, "C8": constparam_constants, "C9": constparam_constants,
    "C10": central_morrey_constants, "C11": central_morrey_constants,
    "C12": central_morrey_constants,
}


def evaluate_constant(cfg: BoundConfig, cid: str, rel_tol: float | None = None) -> BoundResult:
    if cid not in _GROUPS:
        raise KeyError(f"unknown constant id {cid!r}")
    return _GROUPS[cid](cfg, rel_tol, which=(cid,))[cid]


# ---------------------------------------------------------------------------
# sharpness regions


@dataclass(frozen=True)
class SharpnessSlot:
    q_minus: float
    q_plus: float
    alpha0: float
    alpha_inf: float
    c0: float
    c_inf: float
    lam: float
    beta0: float
    beta_inf: float
    theta0: float
    theta_inf: float
    eta0: float
    eta1: float
    zeta0: float
    zeta1: float
    c_alpha: float

    @property
    def in_intervals(self) -> bool:
        return (
            self.eta0 - 1e-15 <= self.lam <= self.eta1 + 1e-15
            and self.zeta0 - 1e-15 <= self.lam <= self.zeta1 + 1e-15
        )

    @property
    def thetas_nonneg(self) -> bool:
        return self.theta0 >= 0.0 and self.theta_inf >= 0.0


def slot_region_values(q_minus, q_plus, alpha0, alpha_inf, c0, c_inf, lam) -> SharpnessSlot:
    """All region data for one slot from the raw parameter values."""
    ratio_up = q_plus / q_minus
    ratio_dn = q_minus / q_plus
    beta0 = ratio_up if lam - alpha0 + c0 >= 0 else ratio_dn
    beta_inf = ratio_up if lam - alpha_inf - c_inf < 0 else ratio_dn
    theta0 = lam - alpha_inf - (lam - alpha0 + c0) * beta0
    theta_inf = alpha0 + (lam - alpha_inf - c_inf) * beta_inf - lam

    if q_plus == q_minus:
        eta0 = zeta0 = -_INF
        eta1 = zeta1 = _INF
    else:
        eta0 = (c0 * ratio_dn - alpha0 * ratio_dn + alpha_inf) / (1.0 - ratio_dn)
        eta1 = (c0 * ratio_up - alpha0 * ratio_up + alpha_inf) / (1.0 - ratio_up)
        zeta0 = (c_inf * ratio_up - alpha0 + alpha_inf * ratio_up) / (ratio_up - 1.0)
        zeta1 = (c_inf * ratio_dn - alpha0 + alpha_inf * ratio_dn) / (ratio_dn - 1.0)
    c_alpha = q_minus * (alpha0 - alpha_inf) * (1.0 + ratio_up) / q_plus
    return SharpnessSlot(
        q_minus, q_plus, alpha0, alpha_inf, c0, c_inf, lam,
        beta0, beta_inf, theta0, theta_inf, eta0, eta1, zeta0, zeta1, c_alpha,
    )


@dataclass(frozen=True)
class RegionCheck:
    case: str  # "b1" | "b2" | "b3" | "none"
    satisfied: bool
    slots: tuple[SharpnessSlot, ...]
    herz_case: str  # same for the Herz-side conditions
    reciprocal_identity: bool  # sum 1/q_i- == 1/q+


def _slot_from_params(slot: SlotParams) -> SharpnessSlot:
    alpha = slot.alpha
    if not alpha.log_holder_certified:
        raise HypothesisError(
            "region membership needs certified continuity constants for alpha"
        )
    return slot_region_values(
        slot.q.p_minus, slot.q.p_plus,
        alpha.p_zero, alpha.p_infty,
        alpha.c_log_zero, alpha.c_log_infty,
        slot.lam,
    )


def sharpness_region_check(cfg: BoundConfig) -> RegionCheck:
    """Classify the configuration against the sharpness conditions.

    Case b1: equal exponent bounds with small continuity constants.
    Case b2: unequal bounds but flat smoothness index, lam pinned to it.
    Case b3: unequal bounds with lam inside the four-endpoint window; here
    the sign test theta0 >= 0 and theta_inf >= 0 must agree with interval
    membership, and that equivalence is verified numerically.
    """
    slots = tuple(_slot_from_params(s) for s in cfg.slots)

    def is_b1(s: SharpnessSlot):
        return (
            s.q_plus == s.q_minus
            and s.c0 <= s.alpha0 - s.alpha_inf + 1e-15
            and s.c_inf <= s.alpha0 - s.alpha_inf + 1e-15
        )

    def is_b2(s: SharpnessSlot):
        return (
            s.q_plus != s.q_minus
            and s.c0 == 0.0
            and s.c_inf == 0.0
            and s.lam == s.alpha0 == s.alpha_inf
        )

    def is_b3(s: SharpnessSlot):
        gap = s.alpha0 - s.alpha_inf
        return (
            s.q_plus != s.q_minus
            and s.c0 < gap
            and s.c_inf < gap
            and s.c0 + s.c_inf <= s.c_alpha + 1e-15
            and s.in_intervals
        )

    case = "none"
    if all(is_b1(s) for s in slots):
        case = "b1"
    elif all(is_b2(s) for s in slots):
        case = "b2"
    elif all(is_b3(s) for s in slots):
        case = "b3"
        for s in slots:
            if s.thetas_nonneg != s.in_intervals:
                raise RuntimeError(
                    "sign test disagrees with interval membership in case b3"
                )

    def herz_b2(slot: SlotParams, s: SharpnessSlot):
        lo, hi = slot.alpha.range_on(0.0, _INF)
        sup_alpha = max(abs(lo), abs(hi))
        return s.alpha0 < sup_alpha * s.q_minus / s.q_plus

    herz_case = "none"
    if all(s.q_plus == s.q_minus for s in slots):
        herz_case = "b1"
    elif all(herz_b2(sp, s) for sp, s in zip(cfg.slots, slots)):
        herz_case = "b2"

    q = cfg.combined_q()
    recip = abs(
        math.fsum(1.0 / s.q_minus for s in slots) - 1.0 / q.p_plus
    ) <= 1e-12

    return RegionCheck(case, case != "none", slots, herz_case, recip)
