"""Matrix dilation families, their Frobenius norms, and dyadic locators.

Three families are supported, all acting on radii as pure dilations
|A(t) x| = |s(t)| |x|: scalar multiples of the identity, diagonal matrices
with entries of equal modulus, and a fixed orthogonal matrix times a scalar
map.  The scalar map is always a PowerMap s(t) = c t^a, so image radii,
norms and determinants are powers of t and the radial integrals built on
them have known endpoint slopes.  Under the Frobenius norm each family
satisfies ||A|| ||A^-1|| = n exactly, which is the conditioning bound
every boundedness estimate relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exponents import RadialExponent

__all__ = [
    "PowerMap",
    "ScalarDilation",
    "DiagonalEqualModulus",
    "OrthogonalTimesScalar",
    "MatrixFamily",
    "SingularFamilyError",
    "frobenius_norm",
    "inverse_stats",
    "rho_bound",
    "dyadic_index",
    "dyadic_exponent",
    "theta_star",
    "c_factor",
    "family_power_data",
]


class SingularFamilyError(ValueError):
    """A(t) is not invertible at the requested t."""


@dataclass(frozen=True)
class PowerMap:
    """Signed power map s(r) = c * r^a."""

    c: float
    a: float

    def __call__(self, r: float) -> float:
        if r == 0.0:
            return 0.0 if self.a > 0 else (self.c if self.a == 0 else math.copysign(math.inf, self.c))
        return self.c * r ** self.a


def _scale_of(s, t: float) -> float:
    val = abs(s(t))
    if val == 0.0 or not math.isfinite(val):
        raise SingularFamilyError(f"family scale |s({t:.6g})| = {val} is not invertible")
    return val


class _RadialFamily:
    """Shared behaviour: dilation scale, Frobenius norms, explicit matrices."""

    radial_isometry = True

    def __post_init__(self):
        if not isinstance(self.s, PowerMap):
            raise TypeError(f"the scalar map must be a PowerMap, got {self.s!r}")

    @property
    def n(self) -> int:
        raise NotImplementedError

    def scalar(self, t: float) -> float:
        raise NotImplementedError

    def dilation_scale(self, t: float) -> float:
        return _scale_of(self.scalar, t)

    def matrix(self, t: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarDilation(_RadialFamily):
    """A(t) = s(t) * I_n."""

    s: PowerMap
    n_dim: int = 1

    @property
    def n(self):
        return self.n_dim

    def scalar(self, t):
        return self.s(t)

    def matrix(self, t):
        return self.s(t) * np.eye(self.n_dim)


@dataclass(frozen=True)
class DiagonalEqualModulus(_RadialFamily):
    """A(t) = diag(sign_1 s(t), ..., sign_n s(t)) with signs in {-1, +1}."""

    s: PowerMap
    signs: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        if not self.signs or any(x not in (-1, 1) for x in self.signs):
            raise ValueError("signs must be a nonempty vector of +-1")

    @property
    def n(self):
        return len(self.signs)

    def scalar(self, t):
        return self.s(t)

    def matrix(self, t):
        return np.diag([sg * self.s(t) for sg in self.signs])


@dataclass(frozen=True)
class OrthogonalTimesScalar(_RadialFamily):
    """A(t) = s(t) * Q with Q a fixed real orthogonal matrix."""

    q_matrix: tuple[tuple[float, ...], ...]
    s: PowerMap

    def __post_init__(self):
        super().__post_init__()
        q = np.asarray(self.q_matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("q_matrix must be square")
        if not np.allclose(q @ q.T, np.eye(q.shape[0]), atol=1e-10):
            raise ValueError("q_matrix is not orthogonal")
        object.__setattr__(self, "q_matrix", tuple(tuple(row) for row in q))

    @property
    def n(self):
        return len(self.q_matrix)

    def scalar(self, t):
        return self.s(t)

    def matrix(self, t):
        return self.s(t) * np.asarray(self.q_matrix)


MatrixFamily = ScalarDilation | DiagonalEqualModulus | OrthogonalTimesScalar


# ---------------------------------------------------------------------------
# operations


def frobenius_norm(fam: MatrixFamily, t_radius: float) -> float:
    """||A(t)|| = sqrt(n) * |s(t)| for every supported family."""
    return math.sqrt(fam.n) * abs(fam.scalar(t_radius))


def inverse_stats(fam: MatrixFamily, t_radius: float) -> tuple[float, float]:
    """(||A(t)^-1||, |det A(t)^-1|), with the determinant sandwich asserted.

    The sandwich ||A||^-n <= |det A^-1| <= ||A^-1||^n holds exactly for
    these families; a violation would mean the family implementation broke.
    """
    scale = fam.dilation_scale(t_radius)
    inv_norm = math.sqrt(fam.n) / scale
    det_inv = scale ** (-fam.n)
    lo = frobenius_norm(fam, t_radius) ** (-fam.n)
    hi = inv_norm ** fam.n
    if not (lo * (1 - 1e-9) <= det_inv <= hi * (1 + 1e-9)):
        raise RuntimeError("determinant sandwich violated; family is inconsistent")
    return inv_norm, det_inv


def rho_bound(fams: Sequence[MatrixFamily], t_samples: Sequence[float]) -> float:
    """max over slots and sampled t of ||A(t)|| ||A(t)^-1||.

    Identically n for the supported families, so the sampled maximum is the
    exact conditioning constant.
    """
    if not fams or not list(t_samples):
        raise ValueError("need at least one family and one sample")
    best = 0.0
    for fam in fams:
        for t in t_samples:
            inv_norm, _ = inverse_stats(fam, t)
            best = max(best, frobenius_norm(fam, t) * inv_norm)
    return best


def dyadic_index(x: float) -> int:
    """The integer l with 2^(l-1) < x <= 2^l; exact powers of two map to themselves."""
    if x <= 0:
        raise ValueError("need a positive value")
    m, e = math.frexp(x)  # x = m * 2^e, m in [0.5, 1)
    return e - 1 if m == 0.5 else e


def dyadic_exponent(fam: MatrixFamily, t_radius: float) -> int:
    """Dyadic locator of ||A(t)||."""
    return dyadic_index(frobenius_norm(fam, t_radius))


def theta_star(fams: Sequence[MatrixFamily], t_radius: float) -> int:
    """Greatest integer T with max_i ||A_i(t)|| ||A_i(t)^-1|| < 2^(-T)."""
    rho = rho_bound(fams, [t_radius])
    _m, e = math.frexp(rho)
    # floor(log2 rho) = e - 1 for every rho > 0
    return -(e - 1) - 1


def c_factor(fam: MatrixFamily, q: RadialExponent, gamma: float, t_radius: float) -> float:
    """Change-of-variables constant: weight distortion times determinant powers.

    max(||A||^-gamma, ||A^-1||^gamma) * max(|det A^-1|^(1/q+), |det A^-1|^(1/q-)).
    """
    norm = frobenius_norm(fam, t_radius)
    inv_norm, det_inv = inverse_stats(fam, t_radius)
    weight_part = max(norm ** (-gamma), inv_norm ** gamma)
    q_lo, q_hi = q.p_minus, q.p_plus
    det_part = max(det_inv ** (1.0 / q_hi), det_inv ** (1.0 / q_lo))
    return weight_part * det_part


def family_power_data(fam: MatrixFamily) -> tuple[float, float]:
    """(|c|, a) of the family's scalar map s(t) = c t^a."""
    return abs(fam.s.c), fam.s.a
