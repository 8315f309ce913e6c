"""Matrix dilation families, their Frobenius norms, and dyadic locators.

Every supported family is one type, A(t) = s(t) Q: a PowerMap s(t) = c t^a
times a fixed real orthogonal n x n matrix Q (the identity when Q is not
given, diag(signs) for equal-modulus diagonals).  Each acts on radii as a
pure dilation |A(t) x| = |s(t)| |x|, so image radii, norms and determinants
are powers of t and the radial integrals built on them have known endpoint
slopes.  Under the Frobenius norm every family satisfies
||A|| ||A^-1|| = n exactly, which is the conditioning bound every
boundedness estimate relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .exponents import RadialExponent

__all__ = [
    "PowerMap",
    "Dilation",
    "ScalarDilation",
    "DiagonalEqualModulus",
    "OrthogonalTimesScalar",
    "SingularFamilyError",
    "frobenius_norm",
    "inverse_stats",
    "rho_bound",
    "dyadic_index",
    "dyadic_exponent",
    "theta_star",
    "c_factor",
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


@dataclass(frozen=True)
class Dilation:
    """A(t) = s(t) * Q in dimension n, with Q = I_n when q is None.

    Only s and n enter the numerics; q shapes the explicit matrix and marks
    a family as a scalar dilation (q is None) or not.
    """

    s: PowerMap
    n: int = 1
    q: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if not isinstance(self.s, PowerMap):
            raise TypeError(f"the scalar map must be a PowerMap, got {self.s!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.q is None:
            return
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.n, self.n):
            raise ValueError(f"q must be a square {self.n} x {self.n} matrix")
        if not np.allclose(q @ q.T, np.eye(self.n), atol=1e-10):
            raise ValueError("q is not orthogonal")
        object.__setattr__(self, "q", tuple(map(tuple, q.tolist())))

    @property
    def is_scalar(self) -> bool:
        """A(t) = s(t) I_n; a diagonal or orthogonal Q never counts."""
        return self.q is None

    def dilation_scale(self, t: float) -> float:
        val = abs(self.s(t))
        if val == 0.0 or not math.isfinite(val):
            raise SingularFamilyError(f"family scale |s({t:.6g})| = {val} is not invertible")
        return val

    def matrix(self, t: float) -> np.ndarray:
        return self.s(t) * (np.eye(self.n) if self.q is None else np.asarray(self.q))


def ScalarDilation(s: PowerMap, n_dim: int = 1) -> Dilation:
    """A(t) = s(t) * I_n."""
    return Dilation(s, n_dim)


def DiagonalEqualModulus(s: PowerMap, signs: tuple[int, ...]) -> Dilation:
    """A(t) = diag(sign_1 s(t), ..., sign_n s(t)) with signs in {-1, +1}."""
    if not signs or any(x not in (-1, 1) for x in signs):
        raise ValueError("signs must be a nonempty vector of +-1")
    return Dilation(s, len(signs), np.diag(signs))


def OrthogonalTimesScalar(q_matrix: tuple[tuple[float, ...], ...], s: PowerMap) -> Dilation:
    """A(t) = s(t) * Q with Q a fixed real orthogonal matrix."""
    return Dilation(s, len(q_matrix), q_matrix)


# ---------------------------------------------------------------------------
# operations


def frobenius_norm(fam: Dilation, t_radius: float) -> float:
    """||A(t)|| = sqrt(n) * |s(t)| for every supported family."""
    return math.sqrt(fam.n) * abs(fam.s(t_radius))


def inverse_stats(fam: Dilation, t_radius: float) -> tuple[float, float]:
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


def rho_bound(fams: Sequence[Dilation], t_samples: Sequence[float]) -> float:
    """max over slots of ||A(t)|| ||A(t)^-1||, which is exactly n.

    Every sampled A(t) is checked for invertibility and the determinant
    sandwich; the value itself is the largest dimension, not a rounded
    float product.
    """
    t_samples = list(t_samples)
    if not fams or not t_samples:
        raise ValueError("need at least one family and one sample")
    for fam in fams:
        for t in t_samples:
            inverse_stats(fam, t)
    return float(max(fam.n for fam in fams))


def dyadic_index(x: float) -> int:
    """The integer l with 2^(l-1) < x <= 2^l; exact powers of two map to themselves."""
    if x <= 0:
        raise ValueError("need a positive value")
    m, e = math.frexp(x)  # x = m * 2^e, m in [0.5, 1)
    return e - 1 if m == 0.5 else e


def dyadic_exponent(fam: Dilation, t_radius: float) -> int:
    """Dyadic locator of ||A(t)||."""
    return dyadic_index(frobenius_norm(fam, t_radius))


def theta_star(fams: Sequence[Dilation], t_radius: float) -> int:
    """Greatest integer T with max_i ||A_i(t)|| ||A_i(t)^-1|| < 2^(-T).

    The product is n, so T = -floor(log2 n) - 1 = -n.bit_length() at every t.
    """
    return -int(rho_bound(fams, [t_radius])).bit_length()


def c_factor(fam: Dilation, q: RadialExponent, gamma: float, t_radius: float) -> float:
    """Change-of-variables constant: weight distortion times determinant powers.

    max(||A||^-gamma, ||A^-1||^gamma) * max(|det A^-1|^(1/q+), |det A^-1|^(1/q-)).
    """
    norm = frobenius_norm(fam, t_radius)
    inv_norm, det_inv = inverse_stats(fam, t_radius)
    weight_part = max(norm ** (-gamma), inv_norm ** gamma)
    q_lo, q_hi = q.p_minus, q.p_plus
    det_part = max(det_inv ** (1.0 / q_hi), det_inv ** (1.0 / q_lo))
    return weight_part * det_part
