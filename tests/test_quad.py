import math

import numpy as np
import pytest

from hausnorm._quad import power_integral, power_integrals, radial_integral

from conftest import seeded


def power_log_integrand(coef, beta):
    """ln of coef * r**beta * r at r = e^s: the power integrand in log-radius,
    for a float s or an array of nodes."""
    return lambda s: math.log(coef) + (beta + 1.0) * s


class TestRadialIntegral:
    @pytest.mark.parametrize(
        "lo, hi, beta",
        [(0.5, 3.0, 1.3), (0.0, 2.0, -0.5), (1.5, math.inf, -2.5), (0.0, 0.25, 4.0)],
    )
    def test_matches_power_integral(self, lo, hi, beta):
        res = radial_integral(
            power_log_integrand(1.7, beta), lo, hi, slope_at_0=beta, slope_at_inf=beta
        )
        assert res.divergence is None
        assert res.value == pytest.approx(1.7 * power_integral(lo, hi, beta), rel=1e-10)

    def test_both_ends_singular(self):
        # r^0.5 below r = 1 and r^-3 above it: integral 1/1.5 + 1/2
        def log_integrand(s):
            return np.where(s < 0.0, 1.5, -2.0) * s

        res = radial_integral(log_integrand, 0.0, math.inf, 0.5, -3.0, breaks=(1.0,))
        assert res.divergence is None
        assert res.s_lo < 0.0 < res.s_hi
        assert res.value == pytest.approx(1.0 / 1.5 + 0.5, rel=1e-10)

    @pytest.mark.parametrize(
        "lo, hi, beta", [(0.0, 1.0, -1.0), (0.0, 1.0, -1.5), (1.0, math.inf, -1.0),
                         (1.0, math.inf, -0.5)],
    )
    def test_power_divergence_at_each_end(self, lo, hi, beta):
        res = radial_integral(
            power_log_integrand(1.0, beta), lo, hi, slope_at_0=beta, slope_at_inf=beta
        )
        assert res.divergence == "power"
        assert res.value == math.inf

    def test_unknown_slopes_search_both_tails(self):
        # integral of r e^-r dr over (0, inf) is Gamma(2) = 1
        res = radial_integral(lambda s: 2.0 * s - np.exp(s), 0.0, math.inf)
        assert res.divergence is None
        assert math.isfinite(res.s_lo) and math.isfinite(res.s_hi)
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_unknown_slope_without_decay_is_a_cutoff_divergence(self):
        res = radial_integral(lambda s: 0.0 * s, 1.0, math.inf)
        assert res.divergence == "cutoff"
        assert res.value == math.inf

    def test_narrow_peak_is_refined(self):
        # a Gaussian of width 1e-2 in s, far narrower than its panel-grid cell
        w = 1e-2
        res = radial_integral(lambda s: -(((s - 0.3) / w) ** 2), 0.1, 100.0)
        exact = math.sqrt(math.pi) * w
        assert res.value == pytest.approx(exact, rel=1e-9)
        assert abs(res.value - exact) <= math.exp(res.log_error)

    def test_breaks_honoured_for_step(self):
        # 1 on the narrow window [2, 2.0001] of [1, 1e6], 0 elsewhere
        lo_w, hi_w = math.log(2.0), math.log(2.0001)

        def log_integrand(s):
            return np.where((lo_w <= s) & (s < hi_w), 0.0, -math.inf)

        res = radial_integral(log_integrand, 1.0, 1e6, breaks=(2.0, 2.0001))
        assert res.value == pytest.approx(hi_w - lo_w, rel=1e-9)


class TestPowerIntegrals:
    @pytest.mark.parametrize("beta", [-2.5, -1.0, -1.0 + 1e-13, -0.4, 0.0, -1.0 - 1e-13, 1.7])
    def test_matches_scalar_power_integral(self, beta):
        rng = seeded(int(1e3 * abs(beta)) + 5)
        pairs = [(0.0, 2.0), (0.5, math.inf), (3.0, 3.0 * (1 + 1e-9))]
        for _ in range(40):
            u = 2.0 ** rng.uniform(-30, 30)
            pairs.append((u, u * 2.0 ** rng.uniform(1e-6, 20)))
        u, v = (np.array(col) for col in zip(*pairs))
        got = power_integrals(u, v, beta)
        for ui, vi, gi in zip(u.tolist(), v.tolist(), got.tolist()):
            want = power_integral(ui, vi, beta)
            if math.isinf(want):
                assert gi == math.inf
            else:
                assert gi == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("beta", [-2.5, -1.0, -0.4, 1.7])
    def test_whole_half_line_diverges(self, beta):
        # a power diverges at one end of (0, inf) or the other
        assert power_integral(0.0, math.inf, beta) == math.inf
        assert power_integrals(np.array([0.0]), np.array([math.inf]), beta)[0] == math.inf
