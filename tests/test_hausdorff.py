import math

import pytest
from scipy import integrate

from hausnorm import _quad
from hausnorm.exponents import Constant, LogInterp
from hausnorm.hausdorff import (
    DivergentImageError,
    OperatorSpec,
    RadialKernel,
    RatioUndefinedError,
    apply_on_grid,
    apply_pointwise,
    from_hardy_cesaro,
    from_hardy_littlewood,
    from_multilinear_hardy_cesaro,
    operator_ratio,
)
from hausnorm.luxemburg import ExprTerm, PiecewisePowerFunction
from hausnorm.matrices import PowerMap, ScalarDilation
from hausnorm.spaces import SpaceSpec

from conftest import seeded

ONE = PiecewisePowerFunction.one()
LINEAR = PiecewisePowerFunction.single_power(1.0, 1.0)


def hardy_ratio_oracle(eps):
    """Hand-derived squared ratio for the cut power family on the averaging
    operator at integrability 2."""
    return math.sqrt((0.5 - eps) ** -2 * (1.0 - 4.0 * eps / (0.5 + eps) + 2.0 * eps))


class TestApplyPointwise:
    def test_average_of_one(self, hardy_op):
        assert apply_pointwise(hardy_op, [ONE], 1.0) == pytest.approx(1.0)

    def test_average_of_linear(self, hardy_op):
        assert apply_pointwise(hardy_op, [LINEAR], 3.0) == pytest.approx(1.5)

    def test_bilinear(self):
        bil = from_multilinear_hardy_cesaro(
            PowerMap(1.0, 0.0), [PowerMap(1.0, 1.0), PowerMap(1.0, 1.0)]
        )
        assert apply_pointwise(bil, [LINEAR, LINEAR], 1.0) == pytest.approx(1.0 / 3.0)

    def test_slot_count_checked(self, hardy_op):
        with pytest.raises(ValueError):
            apply_pointwise(hardy_op, [ONE, ONE], 1.0)

    def test_cutoff_sampled_value(self, hardy_op):
        f = PiecewisePowerFunction.single_power(1.0, -0.51, 1.0, math.inf)
        val = apply_pointwise(hardy_op, [f], 4.0)
        expected = (4.0**-0.51 - 4.0**-1.0) / 0.49
        assert val == pytest.approx(expected, rel=1e-12)

    def test_divergent_returns_inf(self, hardy_op):
        f = PiecewisePowerFunction.single_power(1.0, -1.2)
        assert apply_pointwise(hardy_op, [f], 1.0) == math.inf

    def test_m_linearity(self, hardy_op):
        rng = seeded(19)
        for _ in range(10):
            c = rng.uniform(0.1, 9.0)
            x = rng.uniform(0.5, 4.0)
            base = apply_pointwise(hardy_op, [LINEAR], x)
            assert apply_pointwise(hardy_op, [LINEAR.scaled(c)], x) == pytest.approx(
                c * base, rel=1e-12
            )

    def test_m_linearity_per_slot(self):
        bil = from_multilinear_hardy_cesaro(
            PowerMap(1.0, 0.0), [PowerMap(1.0, 1.0), PowerMap(1.0, 2.0)]
        )
        rng = seeded(21)
        for _ in range(10):
            c = rng.uniform(0.2, 5.0)
            x = rng.uniform(0.5, 3.0)
            base = apply_pointwise(bil, [LINEAR, LINEAR], x)
            scaled_first = apply_pointwise(bil, [LINEAR.scaled(c), LINEAR], x)
            assert scaled_first == pytest.approx(c * base, rel=1e-12)

    def test_monotone_in_inputs(self, hardy_op):
        small = PiecewisePowerFunction.single_power(0.5, 0.3, 0.1, 5.0)
        big = PiecewisePowerFunction.single_power(0.9, 0.3, 0.1, 5.0)
        for x in [0.3, 1.0, 4.0]:
            assert apply_pointwise(hardy_op, [big], x) >= apply_pointwise(hardy_op, [small], x)


class TestQuadraturePath:
    """Inputs with a variable exponent have no closed-form image."""

    Q = LogInterp(3.0, 2.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_reciprocal_term_matches_scipy(self, hardy_op, monkeypatch, sign, x):
        # g(r) = r^(+-1/q(r)); the minus sign is singular at r = 0
        g = PiecewisePowerFunction.power_with_terms(
            1.0, 0.0, [ExprTerm(sign, self.Q, reciprocal=True)]
        )
        calls = []
        quad_s = _quad.quad_s

        def counted(*args):
            calls.append(args)
            return quad_s(*args)

        monkeypatch.setattr(_quad, "quad_s", counted)
        val = apply_pointwise(hardy_op, [g], x)
        assert calls
        oracle, _err = integrate.quad(
            lambda t: g(t * x), 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200
        )
        assert val == pytest.approx(oracle, rel=1e-9)

    def test_divergent_variable_exponent_returns_inf(self, hardy_op):
        # r^(-1 - 1/q(r)) behaves like r^(-4/3) at r = 0
        g = PiecewisePowerFunction.power_with_terms(
            1.0, -1.0, [ExprTerm(-1.0, self.Q, reciprocal=True)]
        )
        assert apply_pointwise(hardy_op, [g], 1.0) == math.inf


class TestApplyOnGrid:
    def test_exact_power_image(self, hardy_op):
        img = apply_on_grid(hardy_op, [LINEAR])
        assert len(img.segments) == 1
        assert img.value(2.0) == pytest.approx(1.0)
        assert img.segments[0].expr.constant_value() == pytest.approx(1.0)

    def test_power_eigenrelation(self):
        # single powers map to single powers, exponent preserved, coefficient
        # equal to the kernel integral
        spec = from_hardy_cesaro(PowerMap(1.0, 0.0), PowerMap(1.0, 2.0))
        f = PiecewisePowerFunction.single_power(1.0, 1.0)
        img = apply_on_grid(spec, [f])
        assert img.segments[0].expr.constant_value() == pytest.approx(1.0)
        assert img.value(1.0) == pytest.approx(1.0 / 3.0)

    def test_sampled_matches_closed_form_off_cutoff(self, hardy_op):
        f = PiecewisePowerFunction.single_power(1.0, -0.51, 1.0, math.inf)
        img = apply_on_grid(hardy_op, [f], points_per_octave=32)
        for x in [8.0, 64.0, 1024.0]:
            expected = (x**-0.51 - x**-1.0) / 0.49
            assert img.value(x) == pytest.approx(expected, rel=2e-4)

    def test_divergent_image_raises(self, hardy_op):
        f = PiecewisePowerFunction.single_power(1.0, -1.2)
        with pytest.raises(DivergentImageError):
            apply_on_grid(hardy_op, [f])


class TestConstructors:
    def test_hardy_littlewood_kernel(self):
        spec = from_hardy_littlewood(PowerMap(1.0, 0.0))
        assert spec.kernel.one_sided and spec.kernel.r_hi == 1.0
        assert spec.kernel.phi(0.5) / 0.5 == pytest.approx(1.0)

    def test_weighted_psi(self):
        spec = from_hardy_littlewood(PowerMap(1.0, 1.0))
        # phi(r)/r recovers psi(r) = r
        assert spec.kernel.phi(0.5) / 0.5 == pytest.approx(0.5)
        assert apply_pointwise(spec, [ONE], 1.0) == pytest.approx(0.5)

    def test_cesaro_reduces_to_hardy(self, hardy_op):
        spec = from_hardy_cesaro(PowerMap(1.0, 0.0), PowerMap(1.0, 1.0))
        assert spec == hardy_op

    def test_quadratic_curve(self):
        spec = from_hardy_cesaro(PowerMap(1.0, 0.0), PowerMap(1.0, 2.0))
        assert apply_pointwise(spec, [LINEAR], 1.0) == pytest.approx(1.0 / 3.0)

    def test_dimension_restriction(self):
        with pytest.raises(ValueError):
            from_hardy_littlewood(PowerMap(1.0, 0.0), n=2)

    def test_one_sided_needs_dim_one(self):
        kern = RadialKernel(1.0, 1.0, 0.0, 1.0, one_sided=True)
        with pytest.raises(ValueError):
            OperatorSpec(2, 1, kern, (ScalarDilation(PowerMap(1.0, 1.0), 2),))


class TestOperatorRatio:
    def test_scaling_invariance(self, hardy_op):
        space = SpaceSpec("lebesgue", 1, Constant(2.0))
        f = PiecewisePowerFunction.single_power(1.0, -0.4, 1.0, 16.0)
        r1 = operator_ratio(hardy_op, [f], [space], space)
        r2 = operator_ratio(hardy_op, [f.scaled(7.5)], [space], space)
        assert r2 == pytest.approx(r1, rel=1e-9)

    def test_cut_power_family_oracle(self, hardy_op):
        space = SpaceSpec("lebesgue", 1, Constant(2.0))
        eps = 0.01
        f = PiecewisePowerFunction.single_power(1.0, -0.5 - eps, 1.0, math.inf)
        ratio = operator_ratio(
            hardy_op, [f], [space], space,
            grid_octaves=(-40, 64), points_per_octave=32,
        )
        assert ratio == pytest.approx(hardy_ratio_oracle(eps), abs=5e-4)
        assert ratio == pytest.approx(1.980, abs=5e-3)

    def test_zero_denominator_rejected(self, hardy_op):
        space = SpaceSpec("lebesgue", 1, Constant(2.0))
        with pytest.raises(RatioUndefinedError):
            operator_ratio(hardy_op, [PiecewisePowerFunction.zero()], [space], space)

    def test_central_morrey_eigen_ratio(self):
        kern = RadialKernel(1.0, 0.0, 1.0, 2.0, one_sided=False)
        op = OperatorSpec(1, 1, kern, (ScalarDilation(PowerMap(1.0, 1.0), 1),))
        space = SpaceSpec("central_morrey", 1, Constant(2.0), gamma=0.0, lam=-0.1, gamma_outer=0.0)
        f = PiecewisePowerFunction.single_power(1.0, -0.1)
        ratio = operator_ratio(op, [f], [space], space)
        expected = 2.0 * (2.0**-0.1 - 1.0) / (-0.1)
        assert ratio == pytest.approx(expected, rel=1e-6)
