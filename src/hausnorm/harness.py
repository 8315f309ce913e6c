"""Extremal test families, randomized upper-bound suites, and sharpness sweeps.

The extremal families are the near-maximizing power functions with the
structured exponents that drive the necessity arguments; each is verified
to have a finite nonzero source norm on construction.  Suites run
serially and are fully deterministic from their seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .bounds import BoundConfig, HypothesisError, evaluate_constant, sharpness_region_check
from .exponents import Constant, ExponentDomainError, scale_exponent
from .hausdorff import OperatorSpec, _image_ratio, operator_ratio
from .luxemburg import ExponentExpr, ExprTerm, PiecewisePowerFunction, Segment
from .matrices import rho_bound
from .spaces import SpaceSpec, space_norm

__all__ = [
    "EXTREMAL_KINDS",
    "ExtremalError",
    "SamplingError",
    "SuiteResult",
    "SweepResult",
    "extremal_family",
    "random_test_functions",
    "upper_bound_suite",
    "sharpness_sweep",
    "spaces_for_constant",
    "is_exact_configuration",
]

_INF = math.inf

EXTREMAL_KINDS = (
    "lebesgue_eps",
    "herz_b1_eps",
    "herz_b2_eps",
    "morrey_herz_power",
    "central_morrey_power",
)


class ExtremalError(ValueError):
    """An extremal function falls outside its space (configuration is out
    of the admissible range)."""


class SamplingError(RuntimeError):
    """No admissible random test function was drawn within the attempts."""


def spaces_for_constant(cfg: BoundConfig, cid: str) -> tuple[list[SpaceSpec], SpaceSpec]:
    """Source and target space descriptors matched to a constant id."""
    n = cfg.operator.n
    slots = cfg.slots

    if cid in ("C1", "C2", "C2*"):
        zeta = cfg.zeta if cid == "C1" else 1.0
        sources = [
            SpaceSpec("lebesgue", n, scale_exponent(s.q, zeta), gamma=s.gamma)
            for s in slots
        ]
        target = SpaceSpec("lebesgue", n, cfg.combined_q(), gamma=cfg.gamma_sum())
        return sources, target

    if cid in ("C3", "C4", "C5", "C5*", "C6", "C6*", "C7", "C8"):
        # Morrey-Herz (C3, C5, C5*, C7) or Herz, which is Morrey-Herz at lam = 0
        herz = cid in ("C4", "C6", "C6*", "C8")
        kind = "herz" if herz else "morrey_herz"
        zeta = cfg.zeta if cid in ("C3", "C4") else 1.0
        weighted = cid in ("C7", "C8")  # gamma/q couplings
        gamma_of = (lambda s: s.gamma / s.q(1.0)) if weighted else (lambda s: s.gamma)
        sources = [
            SpaceSpec(
                kind, n, scale_exponent(s.q, zeta),
                gamma=gamma_of(s), alpha=s.alpha, lam=0.0 if herz else s.lam, p_outer=s.p,
            )
            for s in slots
        ]
        tgt_gamma = cfg.gamma_weighted() / cfg.combined_q()(1.0) if weighted else cfg.gamma_sum()
        target = SpaceSpec(
            kind, n, cfg.combined_q(),
            gamma=tgt_gamma, alpha=cfg.alpha_sum(),
            lam=0.0 if herz else cfg.lam_sum(), p_outer=cfg.p_combined(),
        )
        return sources, target

    if cid == "C9":
        sources = [
            SpaceSpec("lebesgue", n, Constant(s.p), gamma=s.alpha(1.0)) for s in slots
        ]
        p = cfg.p_combined()
        alpha = math.fsum(s.alpha(1.0) for s in slots)
        target = SpaceSpec("lebesgue", n, Constant(p), gamma=alpha)
        return sources, target

    if cid in ("C10", "C11", "C12"):
        # the weight inside the norm: |x|^(gamma/q(inf)) for C12, |x|^alpha otherwise
        c12 = cid == "C12"
        inner = (lambda s: s.gamma / s.q.p_infty) if c12 else (lambda s: s.alpha(1.0))
        sources = [
            SpaceSpec("central_morrey", n, s.q, gamma=inner(s), gamma_outer=s.gamma, lam=s.lam)
            for s in slots
        ]
        g, q = cfg.gamma_central(), cfg.combined_q()
        target = SpaceSpec(
            "central_morrey", n, q,
            gamma=g / q.p_infty if c12 else math.fsum(s.alpha(1.0) for s in slots),
            gamma_outer=g, lam=cfg.lam_central(),
        )
        return sources, target

    raise KeyError(f"unknown constant id {cid!r}")


class _Family(list):
    """The members of an extremal family, with the source spaces their
    admissibility was checked in and each member's norm there."""

    sources: list[SpaceSpec]
    norms: list[float]


def extremal_family(kind: str, cfg: BoundConfig, eps: float | None = None,
                    k_range=(-40, 40), k0_range=(-40, 40), j_range=(-40, 40),
                    rel_tol: float = 1e-9) -> list[PiecewisePowerFunction]:
    """The near-maximizing functions for the given necessity argument.

    Epsilon variants need a finite eps > 0 and cut off below the inverse of
    the conditioning constant; the power variants are global power laws.
    Construction verifies each member has finite nonzero source norm; the
    list keeps those source spaces and norms as its sources and norms.
    """
    if kind not in EXTREMAL_KINDS:
        raise KeyError(f"unknown extremal kind {kind!r}")
    needs_eps = kind.endswith("_eps")
    if needs_eps and not (eps is not None and 0 < eps < _INF):
        raise ValueError("epsilon variants need a finite eps > 0")

    n = cfg.operator.n
    cutoff = 0.0
    if needs_eps:
        cutoff = 1.0 / rho_bound(cfg.operator.families, [1.0])

    out = []
    for slot in cfg.slots:
        if kind == "lebesgue_eps":
            const = -slot.gamma - eps
            terms = (ExprTerm(-float(n), slot.q, reciprocal=True),)
        elif kind == "herz_b1_eps":
            if not slot.q.is_constant:
                raise ExtremalError("this family needs constant integrability exponents")
            const = -slot.alpha.p_zero - slot.gamma - eps
            terms = (ExprTerm(-float(n), slot.q, reciprocal=True),)
        elif kind == "herz_b2_eps":
            lo, hi = slot.alpha.range_on(0.0, _INF)
            const = -max(abs(lo), abs(hi)) - slot.gamma - eps
            terms = (ExprTerm(-float(n), slot.q, reciprocal=True),)
        elif kind == "morrey_herz_power":
            const = slot.lam - slot.gamma
            terms = (
                ExprTerm(-float(n), slot.q, reciprocal=True),
                ExprTerm(-1.0, slot.alpha),
            )
        else:  # central_morrey_power
            const = (n + slot.gamma) * slot.lam
            terms = ()
        out.append(
            PiecewisePowerFunction(
                (Segment(cutoff, _INF, 1.0, ExponentExpr(const, terms)),)
            )
        )

    cid = {
        "lebesgue_eps": "C2",
        "herz_b1_eps": "C6",
        "herz_b2_eps": "C6",
        "morrey_herz_power": "C5",
        "central_morrey_power": "C12",
    }[kind]
    try:
        sources, _ = spaces_for_constant(cfg, cid)
    except ExponentDomainError as exc:
        raise ExtremalError(f"the {cid} spaces of this family are undefined: {exc}") from None
    family = _Family(out)
    family.sources, family.norms = sources, []
    for f, src in zip(out, sources):
        nr = space_norm(f, src, k_range, k0_range, j_range, rel_tol)
        hidden_mass = {"shell-norm-infinite", "truncation-suspect-low"} & set(nr.flags)
        if nr.value == 0.0 or math.isinf(nr.value) or hidden_mass:
            raise ExtremalError(
                f"extremal member has source norm {nr.value} (flags {nr.flags}); "
                "the configuration is outside the admissible range for this family"
            )
        family.norms.append(nr.value)
    return family


def random_test_functions(seed: int, count: int, space: SpaceSpec,
                          k_range=(-40, 40), k0_range=(-40, 40),
                          j_range=(-40, 40), rel_tol: float = 1e-9,
                          ) -> list[PiecewisePowerFunction]:
    """Deterministic piecewise power functions with finite norm in the space.

    Each function has 2 to 5 segments with constant exponents, supported in
    a bounded annulus, so every space in scope gives it a finite norm; the
    norm is still checked, once per draw, and offending draws are replaced.
    Raises SamplingError after 50 * count draws.
    """
    return [f for f, _norm in _draws(seed, count, space, k_range, k0_range, j_range, rel_tol)]


def _draws(seed, count, space, k_range, k0_range, j_range, rel_tol):
    """random_test_functions' (function, space norm) pairs."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count:
            raise SamplingError("could not sample admissible functions")
        n_seg = rng.randint(2, 5)
        edges = sorted(2.0 ** rng.uniform(-6.0, 6.0) for _ in range(n_seg + 1))
        segs = []
        for lo, hi in zip(edges, edges[1:]):
            if hi <= lo * (1 + 1e-9):
                continue
            coef = rng.uniform(0.1, 3.0)
            expo = rng.uniform(-1.5, 1.5)
            segs.append(Segment(lo, hi, coef, ExponentExpr(expo)))
        if not segs:
            continue
        f = PiecewisePowerFunction(tuple(segs))
        nr = space_norm(f, space, k_range, k0_range, j_range, rel_tol)
        if 0.0 < nr.value < _INF:
            out.append((f, nr.value))
    return out


@dataclass(frozen=True)
class SuiteResult:
    constant_id: str
    constant: float
    max_ratio: float
    rows: tuple[tuple[int, int, float], ...]  # (seed, index, ratio)
    violations: tuple[int, ...]  # indices with ratio > constant * (1 + tol)
    exact: bool


@dataclass(frozen=True)
class SweepResult:
    constant_id: str
    constant: float
    rows: tuple[tuple[float, float, float, float], ...]  # eps, ratio, C, ratio/C
    monotone: bool
    final_within_10pct: bool


def is_exact_configuration(cfg: BoundConfig, cid: str) -> bool:
    """Configurations where the constant equals the operator norm exactly."""
    if cfg.operator.n != 1:
        return False
    if not all(f.is_scalar for f in cfg.operator.families):
        return False
    if not all(s.q.is_constant and s.alpha.is_constant for s in cfg.slots):
        return False
    if cid == "C9":
        return True
    if cid == "C12":
        return cfg.operator.m == 1
    return False


def upper_bound_suite(op_spec: OperatorSpec, cfg: BoundConfig, constant_id: str,
                      n_samples: int, seed: int, *,
                      ratio_tol: float = 1e-3, workers: int = 1,
                      k_range=(-40, 40), k0_range=(-40, 40), j_range=(-40, 40),
                      grid_octaves=(-40, 48), points_per_octave: int = 24,
                      rel_tol: float = 1e-9) -> SuiteResult:
    """Measure operator ratios on random tuples against the named constant.

    In exact configurations a ratio above constant * (1 + ratio_tol) counts
    as a violation; otherwise violations stay empty and max_ratio is the
    empirical comparability constant.  A draw's source norm, computed once
    to accept it, is its ratio's denominator.  The tuples run serially;
    workers is accepted for compatibility and changes nothing.  A slot
    that draws too few admissible functions raises SamplingError.
    """
    res = evaluate_constant(cfg, constant_id)
    if not res.finite:
        raise HypothesisError(f"constant {constant_id} is not finite")
    sources, target = spaces_for_constant(cfg, constant_id)

    per_slot = [
        _draws(seed + 7919 * i, n_samples, src, k_range, k0_range, j_range, rel_tol)
        for i, src in enumerate(sources)
    ]
    ratios = []
    for draws in zip(*per_slot):
        fs, norms = zip(*draws)
        ratios.append(_image_ratio(
            op_spec, fs, norms, target,
            k_range, k0_range, j_range, grid_octaves, points_per_octave, rel_tol,
        ))

    exact = is_exact_configuration(cfg, constant_id)
    violations = tuple(
        j for j, r in enumerate(ratios)
        if exact and r > res.value * (1.0 + ratio_tol)
    )
    rows = tuple((seed, j, r) for j, r in enumerate(ratios))
    return SuiteResult(constant_id, res.value, max(ratios), rows, violations, exact)


def sharpness_sweep(op_spec: OperatorSpec, cfg: BoundConfig, kind: str,
                    eps_list: Sequence[float], *, constant_id: str | None = None,
                    k_range=(-40, 40), k0_range=(-40, 40), j_range=(-40, 40),
                    grid_octaves=(-40, 64), points_per_octave: int = 32,
                    rel_tol: float = 1e-9) -> SweepResult:
    """Ratio of the extremal family against the matching sharp constant.

    eps_list must be strictly decreasing, positive and finite.  An epsilon
    variant builds its family and ratio once per epsilon, an epsilon-free
    one once for all rows.  Where the family's source spaces are the
    constant's, the ratio divides by the norms the family was admitted
    with.  A constant outside (0, inf) raises HypothesisError.
    """
    eps_list = list(eps_list)
    if not eps_list or not all(0 < e < _INF for e in eps_list):
        raise ValueError("eps_list must be positive and finite")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if not all(f.is_scalar for f in cfg.operator.families):
        raise HypothesisError(
            "sharpness sweeps run only under scalar dilations; "
            "use the upper-bound suite for other families"
        )

    if constant_id is None:
        exact_leb = is_exact_configuration(cfg, "C9")
        constant_id = {
            "lebesgue_eps": "C9" if exact_leb else "C2*",
            "herz_b1_eps": "C6*",
            "herz_b2_eps": "C6*",
            "morrey_herz_power": "C5*",
            "central_morrey_power": "C12",
        }[kind]
    if constant_id == "C2*" and not all(s.q.is_constant for s in cfg.slots):
        if not sharpness_region_check(cfg).reciprocal_identity:
            raise HypothesisError(
                "variable-exponent necessity needs sum 1/q_i- == 1/q+; "
                "the identity fails for this configuration"
            )

    res = evaluate_constant(cfg, constant_id)
    if not 0.0 < res.value < _INF:
        raise HypothesisError(f"constant {constant_id} = {res.value} is not in (0, inf)")
    sources, target = spaces_for_constant(cfg, constant_id)

    needs_eps = kind.endswith("_eps")
    rows = []
    for eps in eps_list:
        if needs_eps or not rows:
            fs = extremal_family(kind, cfg, eps if needs_eps else None,
                                 k_range, k0_range, j_range, rel_tol)
            settings = (k_range, k0_range, j_range, grid_octaves, points_per_octave, rel_tol)
            if fs.sources == sources:
                ratio = _image_ratio(op_spec, fs, fs.norms, target, *settings)
            else:
                ratio = operator_ratio(op_spec, fs, sources, target, *settings)
        rows.append((eps, ratio, res.value, ratio / res.value))

    monotone = all(b[1] >= a[1] * (1 - 1e-9) for a, b in zip(rows, rows[1:]))
    final_ok = rows[-1][3] >= 0.9
    return SweepResult(constant_id, res.value, tuple(rows), monotone, final_ok)
