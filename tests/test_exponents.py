import math
import warnings

import numpy as np
import pytest

from hausnorm.exponents import (
    _CHECK_RADII,
    RECIP_ZERO_TOL,
    Constant,
    ExponentDomainError,
    HarmonicSum,
    Infinite,
    LogInterp,
    PiecewiseRadial,
    PointwiseSum,
    PowerWeight,
    ReciprocalDifference,
    ReciprocalSignError,
    Rescaled,
    ScaledBy,
    UnsupportedFamilyError,
    ball_measure,
    combine_reciprocal,
    difference_reciprocal,
    eval_exponent,
    exponent_range,
    pullback_exponent,
    sphere_area,
)
from hausnorm.matrices import PowerMap, ScalarDilation

from conftest import midpoint_radial, seeded

E = math.e


class TestEval:
    def test_constant(self):
        assert eval_exponent(Constant(2.0), 5.0) == 2.0

    def test_log_interp_origin(self):
        assert eval_exponent(LogInterp(3.0, 2.0), 0.0) == 3.0

    def test_log_interp_closed_point(self):
        # ln(e + r) = 2 at r = e^2 - e
        assert eval_exponent(LogInterp(3.0, 2.0), E**2 - E) == pytest.approx(2.5, abs=1e-14)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            eval_exponent(Constant(2.0), -1.0)

    def test_value_within_bounds(self):
        p = LogInterp(3.0, 2.0)
        for r in [0.0, 0.3, 1.0, 7.0, 1e6]:
            assert p.p_minus <= eval_exponent(p, r) <= p.p_plus


ARRAY_RADII = np.array([[0.0, 1e-9, 0.3, 0.5], [1.0, 2.0, 7.0, 1e6], [1e12, 1e300, 3.5, math.inf]])


def every_exponent_type():
    q = LogInterp(3.0, 2.0)
    fam = ScalarDilation(PowerMap(1.0, 1.0), 1)
    return [
        Constant(2.5),
        q,
        PiecewiseRadial((0.5, 2.0), (3.0, 1.5, 2.5)),
        Rescaled(q, 0.25),
        ScaledBy(q, 1.5),
        HarmonicSum((q, LogInterp(4.0, 3.5))),
        PointwiseSum((LogInterp(0.5, 0.1, signed=True), Constant(0.2, signed=True))),
        Infinite(),
        difference_reciprocal(pullback_exponent(q, fam, 0.5), q, 1.0),
    ]


class TestArrayEvaluation:
    @pytest.mark.parametrize("p", every_exponent_type(), ids=lambda p: type(p).__name__)
    def test_array_matches_scalar_calls(self, p):
        got = p(ARRAY_RADII)
        assert isinstance(got, np.ndarray) and got.shape == ARRAY_RADII.shape
        for r, g in zip(ARRAY_RADII.ravel().tolist(), got.ravel().tolist()):
            want = p(r)
            assert type(want) is float
            if math.isinf(want):
                assert g == want
            else:
                assert g == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_rescaled_radius_past_the_float_range_is_inf(self):
        # 1e300 * 1e10 overflows to inf, where every exponent is defined
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Rescaled(LogInterp(3.0, 2.0), 1e300)(np.array([1e10]))
        assert got.tolist() == [2.0]

    def test_steps_pulled_near_the_float_range(self):
        # the pulled breaks are 0.5e304 and 2e304: the sign check's midpoint
        # between them is their geometric mean, 1e304, without overflow
        q = PiecewiseRadial((0.5, 2.0), (2.0, 2.5, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = difference_reciprocal(Rescaled(q, 1e-304), q, 1.0)
        assert r(1e304) == pytest.approx(1.0 / (1.0 / 2.5 - 1.0 / 3.0))

    def test_reciprocal_difference_is_infinite_where_the_difference_vanishes(self):
        p = every_exponent_type()[-1]
        assert isinstance(p, ReciprocalDifference)
        assert p(ARRAY_RADII)[0, 0] == math.inf == p(0.0)

    def test_sign_check_reports_the_first_failing_radius(self):
        # q increases, so the pullback by a shrinking dilation exceeds it
        q = LogInterp(2.0, 3.0)
        pulled = pullback_exponent(q, ScalarDilation(PowerMap(1.0, 1.0), 1), 0.5)
        first = next(
            r for r in (0.0,) + _CHECK_RADII
            if 1.0 / pulled(r) - 1.0 / q(r) < -RECIP_ZERO_TOL
        )
        with pytest.raises(ReciprocalSignError) as err:
            ReciprocalDifference(pulled, q, 1.0)
        assert err.value.radius == first
        assert err.value.value == 1.0 / pulled(first) - 1.0 / q(first)

    @pytest.mark.parametrize("lo, hi", [(1e-12, 1e-11), (1e9, 1e10), (1.0, 1.0 + 1e-9)])
    def test_sign_check_sees_every_step(self, lo, hi):
        # a = 3 > b = 2 only on [lo, hi): off the check grid, or narrower
        # than its spacing
        a = PiecewiseRadial((lo, hi), (2.0, 3.0, 3.0))
        b = PiecewiseRadial((hi,), (2.0, 3.0))
        with pytest.raises(ReciprocalSignError) as err:
            ReciprocalDifference(a, b, 1.0)
        assert err.value.radius == lo
        # the same steps in the admissible order pass
        assert ReciprocalDifference(b, a, 1.0)(lo) == pytest.approx(6.0)


class TestRange:
    def test_constant_any_annulus(self):
        assert exponent_range(Constant(2.0), 0.1, 9.0) == (2.0, 2.0)

    def test_log_interp_global(self):
        assert exponent_range(LogInterp(3.0, 2.0), 0.0, math.inf) == (2.0, 3.0)

    def test_log_interp_tail(self):
        lo, hi = exponent_range(LogInterp(3.0, 2.0), E**2 - E, math.inf)
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(2.5)

    def test_piecewise_exact_on_annulus(self):
        p = PiecewiseRadial((1.0, 4.0), (2.0, 3.0, 2.5))
        assert exponent_range(p, 1.5, 3.0) == (3.0, 3.0)
        assert exponent_range(p, 0.5, 10.0) == (2.0, 3.0)


class TestCombineReciprocal:
    def test_two_fours(self):
        q = combine_reciprocal([Constant(4.0), Constant(4.0)])
        assert isinstance(q, Constant) and q.value == pytest.approx(2.0)

    def test_identity(self):
        q3 = Constant(3.0)
        assert combine_reciprocal([q3]) is q3

    def test_loginterp_pointwise(self):
        q = combine_reciprocal([LogInterp(6.0, 4.0), Constant(4.0)])
        assert q(0.0) == pytest.approx(1.0 / (1.0 / 6.0 + 1.0 / 4.0))

    def test_sum_identity_on_grid(self):
        qs = [LogInterp(6.0, 4.0), Constant(4.0), LogInterp(5.0, 8.0)]
        q = combine_reciprocal(qs)
        for i in range(1000):
            r = 10.0 ** (-4 + 8 * i / 999)
            direct = math.fsum(1.0 / qi(r) for qi in qs)
            assert abs(1.0 / q(r) - direct) < 1e-14

    def test_reports_bound_violation(self):
        with pytest.raises(ExponentDomainError):
            combine_reciprocal([Constant(2.0), Constant(2.0)])


class TestDifferenceReciprocal:
    def test_degenerate_identical(self):
        r = difference_reciprocal(Constant(2.0), Constant(2.0), 1.0)
        assert isinstance(r, Infinite)
        assert r.infinite_everywhere

    def test_constant_zeta_two(self):
        r = difference_reciprocal(Constant(2.0), Constant(2.0), 2.0)
        assert r(1.0) == pytest.approx(4.0)

    def test_negative_difference_rejected(self):
        with pytest.raises(ReciprocalSignError):
            difference_reciprocal(Constant(3.0), Constant(2.0), 1.0)

    def test_witness_radius_reported(self):
        fam = ScalarDilation(PowerMap(1.0, 1.0), 1)
        pulled = pullback_exponent(LogInterp(2.0, 3.0), fam, 0.5)  # increasing q
        with pytest.raises(ReciprocalSignError) as err:
            difference_reciprocal(pulled, LogInterp(2.0, 3.0), 1.0)
        assert err.value.radius >= 0


class TestPullback:
    def test_constant_unchanged(self):
        fam = ScalarDilation(PowerMap(1.0, 1.0), 1)
        q = Constant(2.0)
        assert pullback_exponent(q, fam, 0.3) is q

    def test_identity_dilation_unchanged(self):
        fam = ScalarDilation(PowerMap(1.0, 0.0), 1)
        q = LogInterp(3.0, 2.0)
        assert pullback_exponent(q, fam, 5.0) is q

    def test_composition_oracle_on_grid(self):
        q = LogInterp(3.0, 2.0)
        scale = E**2 - E
        fam = ScalarDilation(PowerMap(scale, 0.0), 1)
        pulled = pullback_exponent(q, fam, 1.0)
        for i in range(100):
            r = 10.0 ** (-3 + 6 * i / 99)
            assert pulled(r) == pytest.approx(q(r / scale), rel=1e-14)

    def test_non_radial_rejected(self):
        class Bogus:
            radial_isometry = False

        with pytest.raises(UnsupportedFamilyError):
            pullback_exponent(Constant(2.0), Bogus(), 1.0)


class TestBallMeasure:
    def test_unit_disk(self):
        assert ball_measure(PowerWeight(0.0, 2), 1.0) == pytest.approx(math.pi)

    def test_one_dim_weighted(self):
        assert ball_measure(PowerWeight(1.0, 1), 2.0) == pytest.approx(4.0)

    def test_gamma_at_minus_n_rejected(self):
        with pytest.raises(ExponentDomainError):
            ball_measure(PowerWeight(-1.5, 1), 1.0)

    def test_against_midpoint_quadrature(self):
        # substitution r = t^5 regularizes the integrand near r = 0 so the
        # midpoint rule reaches the tolerance even for gamma near -n
        rng = seeded(7)
        for _ in range(20):
            n = rng.randint(1, 3)
            gamma = rng.uniform(-n + 0.2, 2.0)
            radius = rng.uniform(0.2, 4.0)
            w = PowerWeight(gamma, n)
            expo = n - 1 + gamma
            oracle = sphere_area(n) * midpoint_radial(
                lambda t: 5.0 * t**4 * (t**5) ** expo, 0.0, radius ** 0.2
            )
            assert ball_measure(w, radius) == pytest.approx(oracle, rel=1e-6)


class TestLogHolderCertificates:
    def test_log_interp_certificates(self):
        p = LogInterp(3.0, 2.0)
        c = abs(p.p0 - p.p_inf)
        assert p.c_log_zero == c and p.c_log_infty == c
        for i in range(200):
            r = 10.0 ** (-8 + 16 * i / 199)
            assert abs(p(r) - p.p_zero) * math.log(E + 1.0 / r) <= c * (1 + 1e-12)
            assert abs(p(r) - p.p_infty) * math.log(E + r) <= c * (1 + 1e-12)

    def test_piecewise_not_certified(self):
        p = PiecewiseRadial((1.0,), (2.0, 3.0))
        assert not p.log_holder_certified


class TestValidation:
    def test_constant_must_exceed_one(self):
        with pytest.raises(ExponentDomainError):
            Constant(1.0)

    def test_signed_twin_allows_anything(self):
        assert Constant(-0.5, signed=True)(3.0) == -0.5

    def test_sphere_area_values(self):
        assert sphere_area(1) == pytest.approx(2.0)
        assert sphere_area(2) == pytest.approx(2 * math.pi)
        assert sphere_area(3) == pytest.approx(4 * math.pi)
