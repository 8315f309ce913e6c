"""Experiment configuration: JSON schemas, validation, and round-tripping.

A config bundles the operator (dimension, kernel, families), the per-slot
space parameters, the requested space kind, optional explicit function and
space entries, and the quadrature settings.  Loading validates the
parameter couplings and records the derived target parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .bounds import BoundConfig, SlotParams
from .exponents import (
    Constant,
    LogInterp,
    PiecewiseRadial,
    RadialExponent,
)
from .hausdorff import OperatorSpec, RadialKernel
from .luxemburg import ExponentExpr, ExprTerm, PiecewisePowerFunction, Segment
from .matrices import Dilation, PowerMap
from .spaces import SPACE_KINDS, SpaceSpec

__all__ = [
    "ConfigError",
    "QuadratureSettings",
    "ExperimentConfig",
    "eps_list_from_json",
    "exponent_from_json",
    "exponent_to_json",
    "family_from_json",
    "family_to_json",
    "function_from_json",
    "load_config",
]

_INF = math.inf


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-9
    k_range: tuple[int, int] = (-40, 40)
    k0_range: tuple[int, int] = (-40, 40)
    r_grid_range: tuple[int, int] = (-40, 40)
    grid_octaves: tuple[int, int] = (-40, 48)
    points_per_octave: int = 24
    eps_list: tuple[float, ...] = (0.1, 0.03, 0.01)
    seed: int = 42
    n_samples: int = 100
    workers: int = 1  # accepted and round-tripped; suites run serially

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ConfigError(f"rel_tol {self.rel_tol} must lie in (0, 1)")
        if self.points_per_octave < 1:
            raise ConfigError(f"points_per_octave {self.points_per_octave} must be >= 1")
        if self.n_samples < 1:
            raise ConfigError(f"N {self.n_samples} must be >= 1")
        for key in ("k_range", "k0_range", "r_grid_range", "grid_octaves"):
            lo, hi = getattr(self, key)
            if not (lo < hi if key == "grid_octaves" else lo <= hi):
                raise ConfigError(f"{key} {[lo, hi]} is reversed")
        if self.k0_range[1] < self.k_range[0]:
            raise ConfigError(f"k0_range {list(self.k0_range)} ends below "
                              f"k_range {list(self.k_range)}")

    @classmethod
    def from_json(cls, obj: dict) -> "QuadratureSettings":
        kw: dict[str, Any] = {}
        for key in ("rel_tol", "points_per_octave", "seed", "workers"):
            if key in obj:
                kw[key] = obj[key]
        if "N" in obj:
            kw["n_samples"] = int(obj["N"])
        for key in ("k_range", "k0_range", "r_grid_range", "grid_octaves"):
            if key in obj:
                kw[key] = tuple(int(v) for v in obj[key])
        if "eps_list" in obj:
            kw["eps_list"] = eps_list_from_json(obj["eps_list"])
        return cls(**kw)

    def to_json(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "k_range": list(self.k_range),
            "k0_range": list(self.k0_range),
            "r_grid_range": list(self.r_grid_range),
            "grid_octaves": list(self.grid_octaves),
            "points_per_octave": self.points_per_octave,
            "eps_list": list(self.eps_list),
            "seed": self.seed,
            "N": self.n_samples,
            "workers": self.workers,
        }


def eps_list_from_json(values) -> tuple[float, ...]:
    """The epsilons of a sharpness sweep: finite, positive, strictly decreasing."""
    try:
        eps = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad eps_list {values!r}: {exc}") from exc
    if not (eps and all(0 < e < _INF for e in eps) and all(b < a for a, b in zip(eps, eps[1:]))):
        raise ConfigError(f"eps_list {list(eps)} must be finite, positive and strictly decreasing")
    return eps


# ---------------------------------------------------------------------------
# exponents


def exponent_from_json(obj: dict, signed: bool = False) -> RadialExponent:
    try:
        kind = obj["type"]
        if kind == "constant":
            return Constant(float(obj["value"]), signed=signed)
        if kind == "log_interp":
            return LogInterp(float(obj["p0"]), float(obj["p_inf"]), signed=signed)
        if kind == "piecewise":
            return PiecewiseRadial(
                tuple(float(b) for b in obj["breaks"]),
                tuple(float(v) for v in obj["values"]),
                signed=signed,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad exponent fragment {obj!r}: {exc}") from exc
    raise ConfigError(f"unknown exponent type {obj.get('type')!r}")


def exponent_to_json(p: RadialExponent) -> dict:
    if isinstance(p, Constant):
        return {"type": "constant", "value": p.value}
    if isinstance(p, LogInterp):
        return {"type": "log_interp", "p0": p.p0, "p_inf": p.p_inf}
    if isinstance(p, PiecewiseRadial):
        return {"type": "piecewise", "breaks": list(p.breaks), "values": list(p.values)}
    raise ConfigError(f"exponent {p!r} has no JSON form")


# ---------------------------------------------------------------------------
# families and kernels


def _power_map_from_json(obj: dict) -> PowerMap:
    return PowerMap(float(obj["c"]), float(obj["a"]))


def family_from_json(obj: dict, n: int) -> Dilation:
    """One Dilation A(t) = s(t) Q; the type says how Q is given: the
    identity (scalar_dilation), diag(signs) (diag_equal) or q_matrix
    (orth_scalar)."""
    try:
        kind = obj["type"]
        if kind == "scalar_dilation":
            q = None
        elif kind == "diag_equal":
            q = np.diag([int(x) for x in obj["signs"]])
        elif kind == "orth_scalar":
            q = obj["q_matrix"]
        else:
            raise ConfigError(f"unknown family type {kind!r}")
        s = _power_map_from_json(obj["s"])
        fam = Dilation(s, n if q is None else len(q), q)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad family fragment {obj!r}: {exc}") from exc
    if not (s.c != 0.0 and math.isfinite(s.c) and math.isfinite(s.a)):
        raise ConfigError(f"family map s(t) = {s.c} t^{s.a} needs finite c != 0 and finite a")
    if fam.n != n:
        raise ConfigError(f"family dimension {fam.n} does not match n = {n}")
    return fam


def family_to_json(fam: Dilation) -> dict:
    out = {"type": "scalar_dilation", "s": {"c": fam.s.c, "a": fam.s.a}}
    if fam.q is not None:
        out.update(type="orth_scalar", q_matrix=[list(r) for r in fam.q])
    return out


def kernel_from_json(obj: dict) -> RadialKernel:
    try:
        lo, hi = obj["support"]
        return RadialKernel(
            float(obj["c"]), float(obj["a"]),
            float(lo), _INF if hi in (None, "inf") else float(hi),
            one_sided=bool(obj.get("one_sided", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad kernel fragment {obj!r}: {exc}") from exc


def kernel_to_json(k: RadialKernel) -> dict:
    return {
        "c": k.c,
        "a": k.a,
        "support": [k.r_lo, None if math.isinf(k.r_hi) else k.r_hi],
        "one_sided": k.one_sided,
    }


# ---------------------------------------------------------------------------
# functions


def function_from_json(obj: dict, slots: tuple[SlotParams, ...] | None = None
                       ) -> PiecewisePowerFunction:
    """Function fragments: a single power, explicit segments, or a structured
    power tied to a slot's exponents via n/q and alpha coefficients."""
    try:
        kind = obj.get("type", "power")
        if kind == "power":
            lo = float(obj.get("lo", 0.0))
            hi = obj.get("hi")
            hi = _INF if hi in (None, "inf") else float(hi)
            return PiecewisePowerFunction.single_power(
                float(obj.get("c", 1.0)), float(obj.get("a", 0.0)), lo, hi
            )
        if kind == "segments":
            segs = []
            for s in obj["segments"]:
                hi = s.get("hi")
                hi = _INF if hi in (None, "inf") else float(hi)
                segs.append(
                    Segment(float(s.get("lo", 0.0)), hi, float(s["c"]),
                            ExponentExpr(float(s.get("a", 0.0))))
                )
            return PiecewisePowerFunction(tuple(segs))
        if kind == "structured":
            if not slots:
                raise ConfigError("structured functions need slot parameters")
            slot = slots[int(obj.get("slot", 0))]
            terms = []
            if obj.get("n_over_q", 0.0):
                terms.append(ExprTerm(float(obj["n_over_q"]), slot.q, reciprocal=True))
            if obj.get("alpha_coef", 0.0):
                terms.append(ExprTerm(float(obj["alpha_coef"]), slot.alpha))
            lo = float(obj.get("lo", 0.0))
            hi = obj.get("hi")
            hi = _INF if hi in (None, "inf") else float(hi)
            return PiecewisePowerFunction(
                (Segment(lo, hi, float(obj.get("c", 1.0)),
                         ExponentExpr(float(obj.get("a", 0.0)), tuple(terms))),)
            )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad function fragment {obj!r}: {exc}") from exc
    raise ConfigError(f"unknown function type {obj.get('type')!r}")


# ---------------------------------------------------------------------------
# the experiment config


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    m: int
    kernel: RadialKernel
    families: tuple[Dilation, ...]
    slots: tuple[SlotParams, ...]
    zeta: float = 1.0
    space_kind: str = "lebesgue"
    function: dict | None = None
    space: dict | None = None
    settings: QuadratureSettings = field(default_factory=QuadratureSettings)
    raw: dict = field(default_factory=dict, compare=False, repr=False)

    def operator(self) -> OperatorSpec:
        return OperatorSpec(self.n, self.m, self.kernel, self.families)

    def bound_config(self) -> BoundConfig:
        return BoundConfig(self.operator(), self.slots, self.zeta, self.settings.rel_tol)

    def the_function(self) -> PiecewisePowerFunction:
        if self.function is None:
            raise ConfigError("config carries no function entry")
        return function_from_json(self.function, self.slots)

    def the_space(self) -> SpaceSpec:
        if self.space is None:
            raise ConfigError("config carries no space entry")
        return space_from_json(self.space, self.n)

    def derived_report(self) -> dict:
        """The target parameters implied by the couplings."""
        bc = self.bound_config()
        rep: dict[str, Any] = {}
        try:
            q = bc.combined_q()
            rep["q"] = exponent_to_json(q) if q.is_constant or isinstance(
                q, (Constant, LogInterp, PiecewiseRadial)) else repr(q)
        except Exception as exc:  # combined exponent can leave the admissible class
            rep["q"] = f"invalid: {exc}"
        alpha = bc.alpha_sum()
        rep["alpha_at_0"] = alpha.p_zero
        rep["alpha_at_inf"] = alpha.p_infty
        rep["gamma"] = bc.gamma_sum()
        rep["lambda"] = bc.lam_sum()
        rep["p"] = bc.p_combined()
        if self.space_kind == "central_morrey":
            rep["gamma"] = bc.gamma_central()
            rep["lambda"] = bc.lam_central()
        return rep

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "kernel": kernel_to_json(self.kernel),
            "families": [family_to_json(f) for f in self.families],
            "slots": [
                {
                    "q": exponent_to_json(s.q),
                    "gamma": s.gamma,
                    "alpha": exponent_to_json(s.alpha),
                    "lambda": s.lam,
                    "p": s.p,
                }
                for s in self.slots
            ],
            "zeta": self.zeta,
            "space_kind": self.space_kind,
            **({"function": self.function} if self.function is not None else {}),
            **({"space": self.space} if self.space is not None else {}),
            "quadrature": self.settings.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        try:
            n = int(obj["n"])
            m = int(obj["m"])
            kernel = kernel_from_json(obj["kernel"])
            families = tuple(family_from_json(f, n) for f in obj["families"])
            slots = tuple(
                SlotParams(
                    q=exponent_from_json(s["q"]),
                    gamma=float(s.get("gamma", 0.0)),
                    alpha=exponent_from_json(
                        s.get("alpha", {"type": "constant", "value": 0.0}), signed=True
                    ),
                    lam=float(s.get("lambda", 0.0)),
                    p=float(s.get("p", 2.0)),
                )
                for s in obj["slots"]
            )
            if len(families) != m or len(slots) != m:
                raise ConfigError("families and slots must both have m entries")
            OperatorSpec(n, m, kernel, families)  # dimension and kernel couplings
            space_kind = obj.get("space_kind", "lebesgue")
            if space_kind not in SPACE_KINDS:
                raise ConfigError(f"unknown space kind {space_kind!r}")
            cfg = cls(
                n=n, m=m, kernel=kernel, families=families, slots=slots,
                zeta=float(obj.get("zeta", 1.0)),
                space_kind=space_kind,
                function=obj.get("function"),
                space=obj.get("space"),
                settings=QuadratureSettings.from_json(obj.get("quadrature", {})),
                raw=obj,
            )
            cfg.derived_report()  # validates the couplings eagerly
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        return cfg


def space_from_json(obj: dict, n: int) -> SpaceSpec:
    try:
        kind = obj["kind"]
        q = exponent_from_json(obj["q"])
        alpha = None
        if "alpha" in obj:
            alpha = exponent_from_json(obj["alpha"], signed=True)
        return SpaceSpec(
            kind=kind,
            n=int(obj.get("n", n)),
            q=q,
            gamma=float(obj.get("gamma", 0.0)),
            alpha=alpha,
            lam=float(obj.get("lambda", 0.0)),
            p_outer=float(obj.get("p", 1.0)),
            gamma_outer=obj.get("gamma_outer"),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad space fragment {obj!r}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_json(obj)
