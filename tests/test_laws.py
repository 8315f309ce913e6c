"""Metamorphic laws: exact identities between the norms or images of a
seeded function and of its dilates or multiples.

Here f_j(x) = f(2^j x) is f with its rows' radii divided by 2^j and each
coefficient times 2^(j expo).
"""

import math

import pytest

from hausnorm import PowerMap
from hausnorm.exponents import Constant, LogInterp
from hausnorm.harness import random_test_functions
from hausnorm.hausdorff import apply_pointwise, from_hardy_cesaro, from_multilinear_hardy_cesaro
from hausnorm.luxemburg import CERT_DELTA, PiecewisePowerFunction
from hausnorm.spaces import SpaceSpec, herz_norm, morrey_herz_norm, space_norm

TOL = 1e-12
SHIFTS = (-3, 2)


@pytest.fixture(scope="module")
def functions():
    """Six seeded piecewise powers of 2 to 5 rows in [2^-6, 2^6]."""
    return random_test_functions(7, 6, SpaceSpec("lebesgue", 1, Constant(2.0)))


def dilate(f: PiecewisePowerFunction, j: int) -> PiecewisePowerFunction:
    """f_j(x) = f(2^j x)."""
    scale = 2.0 ** j
    return PiecewisePowerFunction.from_columns(f.lo / scale, f.hi / scale,
                                               f.coef * 2.0 ** (j * f.expo), f.expo)


def test_homogeneity(functions):
    spec = SpaceSpec("lebesgue", 1, LogInterp(3.0, 2.0))
    for f in functions:
        norm = space_norm(f, spec).value
        for k in (-2, 3):
            scaled = space_norm(f.scaled(2.0 ** k), spec).value
            assert scaled == pytest.approx(2.0 ** k * norm, rel=2 * CERT_DELTA)


def herz_spec(kind: str) -> SpaceSpec:
    return SpaceSpec(kind, 1, Constant(2.5), gamma=0.2, alpha=Constant(0.3, signed=True),
                     lam=0.1 if kind == "morrey_herz" else 0.0, p_outer=1.5)


def test_herz_dilation(functions):
    spec = herz_spec("herz")
    for f in functions:
        for j in SHIFTS:
            factor = 2.0 ** (-j * (0.3 + 0.2 + 1 / 2.5))
            got = herz_norm(dilate(f, j), spec, (-30, 30)).value
            want = factor * herz_norm(f, spec, (-30 + j, 30 + j)).value
            assert got == pytest.approx(want, rel=TOL)


def test_morrey_herz_dilation(functions):
    spec = herz_spec("morrey_herz")
    for f in functions:
        for j in SHIFTS:
            factor = 2.0 ** (j * 0.1 - j * (0.3 + 0.2 + 1 / 2.5))
            got = morrey_herz_norm(dilate(f, j), spec, (-20, 20), (-30, 30)).value
            want = factor * morrey_herz_norm(f, spec, (-20 + j, 20 + j), (-30 + j, 30 + j)).value
            assert got == pytest.approx(want, rel=TOL)


def inside(f: PiecewisePowerFunction) -> tuple[float, float]:
    """Two radii where the images below are positive: the geometric mean
    and the end of f's hull."""
    lo, hi = float(f.lo[0]), float(f.hi[-1])
    return math.sqrt(lo * hi), hi


def test_operator_commutes_with_dilation(functions):
    op = from_hardy_cesaro(PowerMap(1.0, 0.5), PowerMap(1.0, 0.5))
    for f in functions:
        for j in SHIFTS:
            for y in inside(f):
                want = apply_pointwise(op, [f], y)
                assert want > 0.0
                assert apply_pointwise(op, [dilate(f, j)], y / 2.0 ** j) == pytest.approx(want,
                                                                                        rel=TOL)


def test_bilinear_scaling(functions):
    op = from_multilinear_hardy_cesaro(PowerMap(1.0, 0.0), [PowerMap(1.0, 1.0),
                                                            PowerMap(1.0, 0.5)])
    for f in functions:
        for x in inside(f):
            value = apply_pointwise(op, [f, f], x)
            assert 0.0 < value < math.inf
            assert apply_pointwise(op, [f.scaled(8.0), f], x) == pytest.approx(8.0 * value,
                                                                              rel=TOL)
