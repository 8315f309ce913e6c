import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausnorm.exponents import Constant, LogInterp
from hausnorm.matrices import (
    DiagonalEqualModulus,
    Dilation,
    OrthogonalTimesScalar,
    PowerMap,
    ScalarDilation,
    SingularFamilyError,
    c_factor,
    dyadic_exponent,
    dyadic_index,
    frobenius_norm,
    inverse_stats,
    rho_bound,
    theta_star,
)

from conftest import seeded

ROT = ((0.0, -1.0), (1.0, 0.0))


def scan_dyadic(x, lo=-60, hi=60):
    for ell in range(lo, hi + 1):
        if 2.0 ** (ell - 1) < x <= 2.0**ell:
            return ell
    raise AssertionError("value outside scan range")


def scan_theta(rho, lo=-60, hi=60):
    best = None
    for t in range(lo, hi + 1):
        if rho < 2.0 ** (-t):
            best = t
    return best


class TestScalarMap:
    @pytest.mark.parametrize(
        "make",
        [
            lambda s: ScalarDilation(s, 1),
            lambda s: DiagonalEqualModulus(s, (1, -1)),
            lambda s: OrthogonalTimesScalar(ROT, s),
        ],
    )
    def test_only_power_maps_accepted(self, make):
        assert make(PowerMap(1.0, 1.0)).dilation_scale(2.0) == 2.0
        with pytest.raises(TypeError):
            make(lambda t: t)


class TestDilation:
    def test_factories_build_one_type(self):
        s = PowerMap(-1.5, 0.5)
        flip = ((1.0, 0.0), (0.0, -1.0))
        assert ScalarDilation(s, 2) == Dilation(s, 2)
        assert DiagonalEqualModulus(s, (1, -1)) == OrthogonalTimesScalar(flip, s)
        assert OrthogonalTimesScalar([[1, 0], [0, -1]], s) == Dilation(s, 2, flip)
        assert len({Dilation(s, 2, flip), DiagonalEqualModulus(s, (1, -1))}) == 1

    def test_only_the_identity_is_scalar(self):
        s = PowerMap(1.0, 1.0)
        assert ScalarDilation(s, 3).is_scalar
        assert not DiagonalEqualModulus(s, (1, 1)).is_scalar
        assert not OrthogonalTimesScalar(ROT, s).is_scalar

    def test_signed_diagonal_matrix(self):
        s = PowerMap(-0.7, 1.1)
        fam = DiagonalEqualModulus(s, (1, -1, 1))
        for t in (0.3, 1.0, 4.0):
            np.testing.assert_array_equal(fam.matrix(t), np.diag([sg * s(t) for sg in (1, -1, 1)]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda s: Dilation(s, 0),
            lambda s: Dilation(s, 3, ROT),
            lambda s: Dilation(s, 1, ((1.0, 0.0),)),
            lambda s: Dilation(s, 2, ((1.0, 0.5), (0.0, 1.0))),
            lambda s: DiagonalEqualModulus(s, ()),
            lambda s: DiagonalEqualModulus(s, (1, 2)),
        ],
    )
    def test_invalid_shapes_rejected(self, make):
        with pytest.raises(ValueError):
            make(PowerMap(1.0, 1.0))


class TestFrobenius:
    def test_identity_3d(self):
        fam = ScalarDilation(PowerMap(1.0, 0.0), 3)
        assert frobenius_norm(fam, 1.0) == pytest.approx(math.sqrt(3.0))

    def test_twice_identity_2d(self):
        fam = ScalarDilation(PowerMap(2.0, 0.0), 2)
        assert frobenius_norm(fam, 1.0) == pytest.approx(math.sqrt(8.0))

    def test_signed_diagonal(self):
        fam = DiagonalEqualModulus(PowerMap(1.0, 0.0), (1, -1))
        assert frobenius_norm(fam, 1.0) == pytest.approx(math.sqrt(2.0))

    def test_matches_entrywise_matrix_norm(self):
        rng = seeded(3)
        fams = [
            ScalarDilation(PowerMap(1.4, 0.7), 2),
            DiagonalEqualModulus(PowerMap(-0.8, 1.2), (1, -1, 1)),
            OrthogonalTimesScalar(ROT, PowerMap(2.0, -0.5)),
        ]
        for fam in fams:
            for _ in range(10):
                t = rng.uniform(0.1, 5.0)
                entrywise = float(np.sqrt((fam.matrix(t) ** 2).sum()))
                assert frobenius_norm(fam, t) == pytest.approx(entrywise, rel=1e-12)


class TestInverseStats:
    def test_identity(self):
        fam = ScalarDilation(PowerMap(1.0, 0.0), 2)
        inv_norm, det_inv = inverse_stats(fam, 1.0)
        assert inv_norm == pytest.approx(math.sqrt(2.0))
        assert det_inv == pytest.approx(1.0)

    def test_dilation_by_two(self):
        fam = ScalarDilation(PowerMap(2.0, 0.0), 1)
        assert inverse_stats(fam, 1.0) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_singular_rejected(self):
        fam = ScalarDilation(PowerMap(1.0, 1.0), 1)
        with pytest.raises(SingularFamilyError):
            inverse_stats(fam, 0.0)

    def test_sandwich_on_samples(self):
        rng = seeded(9)
        fams = [
            ScalarDilation(PowerMap(0.7, 1.3), 1),
            DiagonalEqualModulus(PowerMap(1.1, -0.4), (1, -1)),
            OrthogonalTimesScalar(ROT, PowerMap(0.5, 2.0)),
        ]
        for _ in range(100):
            fam = rng.choice(fams)
            t = rng.uniform(0.05, 8.0)
            inv_norm, det_inv = inverse_stats(fam, t)
            assert frobenius_norm(fam, t) ** (-fam.n) <= det_inv * (1 + 1e-12)
            assert det_inv <= inv_norm ** fam.n * (1 + 1e-12)


class TestRhoAndTheta:
    def test_scalar_1d(self):
        fam = ScalarDilation(PowerMap(3.0, 1.0), 1)
        assert rho_bound([fam], [0.3, 1.0, 4.0]) == pytest.approx(1.0)

    def test_scalar_3d(self):
        fam = ScalarDilation(PowerMap(3.0, 1.0), 3)
        assert rho_bound([fam], [0.5]) == pytest.approx(3.0)

    def test_orthogonal_2d(self):
        fam = OrthogonalTimesScalar(ROT, PowerMap(1.0, 1.0))
        assert rho_bound([fam], [2.0]) == pytest.approx(2.0)
        assert frobenius_norm(fam, 1.0) <= math.sqrt(2.0) * abs(fam.s(1.0)) + 1e-12

    @pytest.mark.parametrize("rho,expected", [(1.0, -1), (3.0, -2), (1.5, -1), (4.0, -3)])
    def test_theta_examples(self, rho, expected):
        fam = ScalarDilation(PowerMap(1.0, 1.0), 1)
        # build the requested conditioning by hand through the scan oracle
        assert scan_theta(rho) == expected

    def test_theta_star_on_families(self):
        assert theta_star([ScalarDilation(PowerMap(1.0, 1.0), 1)], 0.7) == -1
        assert theta_star([ScalarDilation(PowerMap(1.0, 1.0), 3)], 0.7) == -2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_for_every_dimension(self, n):
        # the float product ||A|| ||A^-1|| rounds off n (at n = 1, t = 49 it
        # is 1 - 2^-53, whose locator is 0), so rho and theta* must come
        # from the integer n
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        signs = tuple(int(x) for x in rng.choice((-1, 1), size=n))
        fams = [
            ScalarDilation(PowerMap(1.0, 1.0), n),
            ScalarDilation(PowerMap(0.3, -1.7), n),
            DiagonalEqualModulus(PowerMap(-2.5, 0.6), signs),
            OrthogonalTimesScalar(q.tolist(), PowerMap(1.3, 2.0)),
        ]
        radii = [12.25, 49.0] + list(10.0 ** rng.uniform(-4.0, 4.0, size=20))
        for fam in fams:
            assert rho_bound([fam], radii) == float(n)
            for t in radii:
                assert rho_bound([fam], [t]) == float(n)
                assert theta_star([fam], t) == scan_theta(n)

    def test_mixed_dimensions_take_the_largest(self):
        fams = [ScalarDilation(PowerMap(1.0, 1.0), 5), ScalarDilation(PowerMap(2.0, 0.5), 2)]
        assert rho_bound(fams, [0.5, 49.0]) == 5.0
        assert theta_star(fams, 49.0) == scan_theta(5) == -3

    def test_singular_sample_still_raises(self):
        fam = ScalarDilation(PowerMap(1.0, 1.0), 2)
        with pytest.raises(SingularFamilyError):
            rho_bound([fam], [1.0, 0.0])
        with pytest.raises(SingularFamilyError):
            rho_bound([fam], (t for t in (1.0, 0.0)))
        with pytest.raises(SingularFamilyError):
            theta_star([fam], 0.0)


class TestDyadic:
    @pytest.mark.parametrize("x,expected", [(1.0, 0), (3.0, 2), (0.5, -1)])
    def test_examples(self, x, expected):
        assert dyadic_index(x) == expected

    def test_family_wrapper(self):
        fam = ScalarDilation(PowerMap(3.0, 0.0), 1)
        assert dyadic_exponent(fam, 1.0) == 2

    def test_bruteforce_thousand(self):
        rng = seeded(77)
        for _ in range(1000):
            x = 2.0 ** rng.uniform(-50.0, 50.0)
            assert dyadic_index(x) == scan_dyadic(x)

    def test_exact_powers_match_themselves(self):
        for k in range(-40, 41):
            assert dyadic_index(2.0**k) == k


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=1e-15, max_value=1e15))
def test_dyadic_index_property(x):
    ell = dyadic_index(x)
    assert 2.0 ** (ell - 1) < x <= 2.0**ell


class TestCFactor:
    def test_scale_two_q2(self):
        fam = ScalarDilation(PowerMap(2.0, 0.0), 1)
        assert c_factor(fam, Constant(2.0), 0.0, 1.0) == pytest.approx(math.sqrt(0.5))

    def test_scale_two_q2_gamma1(self):
        fam = ScalarDilation(PowerMap(2.0, 0.0), 1)
        assert c_factor(fam, Constant(2.0), 1.0, 1.0) == pytest.approx(0.5 * math.sqrt(0.5))

    def test_identity_family(self):
        fam = ScalarDilation(PowerMap(1.0, 0.0), 1)
        assert c_factor(fam, LogInterp(3.0, 2.0), 0.0, 1.0) == pytest.approx(1.0)


class TestConditioningInequalities:
    """The two-sided consequences of the conditioning bound with explicit
    constants rho^|sigma|."""

    def test_norm_power_transfer(self):
        rng = seeded(41)
        fams = [
            ScalarDilation(PowerMap(1.5, 0.8), 1),
            ScalarDilation(PowerMap(0.6, -1.1), 3),
            DiagonalEqualModulus(PowerMap(2.0, 0.5), (1, -1)),
            OrthogonalTimesScalar(ROT, PowerMap(0.9, 1.7)),
        ]
        for _ in range(100):
            fam = rng.choice(fams)
            t = rng.uniform(0.1, 6.0)
            sigma = rng.choice([-2.0, -1.0, 1.0, 2.0])
            rho = float(fam.n)
            norm = frobenius_norm(fam, t)
            inv_norm, _ = inverse_stats(fam, t)
            assert norm**sigma <= rho ** abs(sigma) * inv_norm ** (-sigma) * (1 + 1e-12)

    def test_pointwise_lower_bound(self):
        rng = seeded(43)
        fams = [
            ScalarDilation(PowerMap(1.5, 0.8), 2),
            DiagonalEqualModulus(PowerMap(2.0, 0.5), (1, -1)),
            OrthogonalTimesScalar(ROT, PowerMap(0.9, 1.7)),
        ]
        for _ in range(100):
            fam = rng.choice(fams)
            t = rng.uniform(0.1, 6.0)
            sigma = rng.choice([-2.0, -0.5, 0.5, 2.0])
            rho = float(fam.n)
            x = np.array([rng.uniform(-2, 2) for _ in range(fam.n)])
            if np.linalg.norm(x) < 1e-6:
                continue
            ax = float(np.linalg.norm(fam.matrix(t) @ x))
            inv_norm, _ = inverse_stats(fam, t)
            lhs = ax**sigma
            rhs = rho ** (-abs(sigma)) * inv_norm ** (-sigma) * float(np.linalg.norm(x)) ** sigma
            assert lhs >= rhs * (1 - 1e-12)
