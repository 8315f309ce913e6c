"""Herz, Morrey-Herz, and two-weight central Morrey norms.

Herz and Morrey-Herz norms are built out of weighted variable-exponent shell
norms on the dyadic annuli 2^(k-1) < |x| <= 2^k, central Morrey norms out of
the Luxemburg norms on the balls |x| <= 2^j (ball_norms).  Truncation windows
are explicit: sums run over a finite k range, suprema scan a finite set of
indices, and the result carries flags when the truncation looks load-bearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exponents import PowerWeight, RadialExponent, ball_measure
from .luxemburg import PiecewisePowerFunction, Region, ball_norms, weighted_vexp_norm

__all__ = [
    "SpaceSpec",
    "NormReport",
    "shell_norm",
    "herz_norm",
    "morrey_herz_norm",
    "central_morrey_norm",
    "space_norm",
]

_INF = math.inf

SPACE_KINDS = ("lebesgue", "herz", "morrey_herz", "central_morrey")

# shell values that stop decaying at least this fast at the window ends
# mark the truncated sum as suspect
_TAIL_DECAY = 0.9


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of a target or source space.

    kind "lebesgue" uses (q, gamma); "herz"/"morrey_herz" add (alpha,
    p_outer, lam); "central_morrey" uses gamma_outer for the normalizing
    weight and gamma for the weight inside the norm.
    """

    kind: str
    n: int
    q: RadialExponent
    gamma: float = 0.0
    alpha: RadialExponent | None = None
    lam: float = 0.0
    p_outer: float = 1.0
    gamma_outer: float | None = None

    def __post_init__(self):
        if self.kind not in SPACE_KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if not all(map(math.isfinite, (self.gamma, self.lam, self.p_outer, self.gamma_outer or 0))):
            raise ValueError("gamma, lam, p_outer and gamma_outer must be finite")
        if self.kind in ("herz", "morrey_herz"):
            if self.alpha is None:
                raise ValueError("herz-type spaces need a smoothness index alpha")
            if self.p_outer <= 0:
                raise ValueError("outer exponent must be positive")
        if self.kind == "morrey_herz" and self.lam < 0:
            raise ValueError("morrey_herz requires lam >= 0")
        if self.kind == "central_morrey":
            go = self.gamma if self.gamma_outer is None else self.gamma_outer
            if go <= -self.n:
                raise ValueError("outer weight exponent must exceed -n")

    @property
    def weight(self) -> PowerWeight:
        return PowerWeight(self.gamma, self.n)

    @property
    def outer_weight(self) -> PowerWeight:
        g = self.gamma if self.gamma_outer is None else self.gamma_outer
        return PowerWeight(g, self.n)


@dataclass(frozen=True)
class NormReport:
    """Norm value plus truncation diagnostics."""

    value: float
    flags: tuple[str, ...] = ()
    argmax: int | None = None

    def __float__(self):
        return self.value


def shell_norm(f: PiecewisePowerFunction, spec: SpaceSpec, k: int,
               rel_tol: float = 1e-9) -> float:
    """Weighted norm of 2^{k alpha(.)} f on the k-th dyadic shell."""
    if spec.kind not in ("herz", "morrey_herz"):
        raise ValueError("shell norms apply to herz-type spaces")
    shell = Region.shell(k)
    g = f.window(shell).times_pow2(float(k), spec.alpha)
    return weighted_vexp_norm(g, spec.q, spec.weight, shell, rel_tol)


def _decays(triple) -> bool:
    a, b, c = triple
    if c == 0.0:
        return True
    return b <= _TAIL_DECAY * a and c <= _TAIL_DECAY * b


def _tail_flags(values: list[float], low_only: bool = False) -> tuple[str, ...]:
    flags = []
    if len(values) >= 3:
        if not _decays(values[:3][::-1]):
            flags.append("truncation-suspect-low")
        if not low_only and not _decays(values[-3:]):
            flags.append("truncation-suspect-high")
    return tuple(flags)


def _check_window(name: str, window: tuple[int, int]) -> None:
    if window[0] > window[1]:
        raise ValueError(f"reversed window {name}={tuple(window)}: need {name}[0] <= {name}[1]")


def _shell_values(f, spec, k_range, rel_tol):
    """The shell norms for k = k_range[0], ..., k_range[1], in that order; a
    shell outside the hull [lo, hi) of f's nonzero rows is exactly 0.0 without
    a shell_norm call, as _clip keeps none of the rows there."""
    _check_window("k_range", k_range)
    live = f.coef != 0.0
    lo, hi = (float(f.lo[live].min()), float(f.hi[live].max())) if live.any() else (_INF, 0.0)
    return [shell_norm(f, spec, k, rel_tol) if 2.0 ** k > lo and 2.0 ** (k - 1) < hi else 0.0
            for k in range(k_range[0], k_range[1] + 1)]


def herz_norm(f: PiecewisePowerFunction, spec: SpaceSpec,
              k_range: tuple[int, int] = (-40, 40),
              rel_tol: float = 1e-9) -> NormReport:
    """Truncated l^p sum over shells of the weighted shell norms; a shell
    outside the hull of f's nonzero rows is exactly 0.0, without a call."""
    vals = _shell_values(f, spec, k_range, rel_tol)
    if any(math.isinf(v) for v in vals):
        return NormReport(_INF, ("shell-norm-infinite",))
    p = spec.p_outer
    total = math.fsum(v ** p for v in vals)
    return NormReport(total ** (1.0 / p), _tail_flags(vals))


def morrey_herz_norm(f: PiecewisePowerFunction, spec: SpaceSpec,
                     k0_range: tuple[int, int] = (-40, 40),
                     k_range: tuple[int, int] = (-40, 40),
                     rel_tol: float = 1e-9) -> NormReport:
    """sup over k0 of 2^{-k0 lam} (sum_{k <= k0} shell^p)^{1/p}, truncated."""
    _check_window("k0_range", k0_range)
    if k0_range[1] < k_range[0]:
        # no k0 in the window has a shell k <= k0 to sum
        raise ValueError(f"window k0_range={tuple(k0_range)} ends below "
                         f"k_range={tuple(k_range)}: need k0_range[1] >= k_range[0]")
    vals = _shell_values(f, spec, k_range, rel_tol)
    if any(math.isinf(v) for v in vals):
        return NormReport(_INF, ("shell-norm-infinite",))
    p = spec.p_outer
    powered = [v ** p for v in vals]
    best, arg = 0.0, None
    # the shells k <= k0 are a prefix of the ascending k_range
    for k0 in range(max(k0_range[0], k_range[0]), k0_range[1] + 1):
        upto = powered[: k0 - k_range[0] + 1]
        cand = 2.0 ** (-k0 * spec.lam) * math.fsum(upto) ** (1.0 / p)
        if cand > best:
            best, arg = cand, k0
    # the inner sums run to -infinity, so only the low tail can hide mass
    flags = _tail_flags(vals, low_only=True)
    if arg is not None and spec.lam > 0 and arg in (k0_range[0], k0_range[1]):
        flags = flags + ("sup-suspect",)
    return NormReport(best, flags, arg)


def central_morrey_norm(f: PiecewisePowerFunction, spec: SpaceSpec,
                        j_range: tuple[int, int] = (-40, 40),
                        rel_tol: float = 1e-9) -> NormReport:
    """sup over R = 2^j of the normalized restricted norm.

    The normalization divides by outer_weight(B(0,R)) raised to
    lam + 1/q_infty.  The supremum over R > 0 is scanned on the dyadic
    grid only; an argmax at the window edge is flagged "sup-suspect"
    unless the scan is flat (scale-invariant fixtures).

    The restricted norms come from luxemburg.ball_norms: for a constant q
    and a function of plain powers, every ball's closed form in one array
    pass; otherwise one Luxemburg norm per ball.
    """
    if spec.kind != "central_morrey":
        raise ValueError("central_morrey_norm needs a central_morrey spec")
    _check_window("j_range", j_range)
    expo = spec.lam + 1.0 / spec.q.p_infty
    w_out = spec.outer_weight
    radii = [2.0 ** j for j in range(j_range[0], j_range[1] + 1)]
    restricted = ball_norms(f.weighted(spec.gamma), spec.q, radii, spec.n, rel_tol)
    vals = [v / ball_measure(w_out, radius) ** expo for v, radius in zip(restricted, radii)]
    if any(math.isinf(v) for v in vals):
        return NormReport(_INF, ("restricted-norm-infinite",))
    best = max(vals)
    if best == 0.0:
        return NormReport(0.0)
    arg_i = vals.index(best)
    flat = all(abs(v - best) <= 1e-12 * best for v in vals)
    flags: tuple[str, ...] = ()
    argmax: int | None = j_range[0] + arg_i
    if flat:
        argmax = None
    elif arg_i in (0, len(vals) - 1):
        flags = ("sup-suspect",)
    return NormReport(best, flags, argmax)


def space_norm(f: PiecewisePowerFunction, spec: SpaceSpec,
               k_range=(-40, 40), k0_range=(-40, 40), j_range=(-40, 40),
               rel_tol: float = 1e-9) -> NormReport:
    """Dispatch on the space kind."""
    if spec.kind == "lebesgue":
        val = weighted_vexp_norm(f, spec.q, spec.weight, Region.all(), rel_tol)
        return NormReport(val)
    if spec.kind == "herz":
        return herz_norm(f, spec, k_range, rel_tol)
    if spec.kind == "morrey_herz":
        return morrey_herz_norm(f, spec, k0_range, k_range, rel_tol)
    return central_morrey_norm(f, spec, j_range, rel_tol)
