import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausnorm import _quad
from hausnorm._quad import (
    DIV_TOL,
    log_power_integral,
    log_power_integrals,
    power_integral,
    radial_integral,
)

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

    def test_cached_cutoffs_are_reused_while_they_pass(self):
        # Gaussians exp(-(s/w)^2) over (0, inf), searched at both tails from
        # s = +-1 with the target 80 below the start: a cutoff of 17 holds
        # while (17/w)^2 > 80 + 1/w^2, and a wider w makes the search walk
        # on to 49.  A frozen rule keeps its tails while tail_holds passes
        # the drop test on them, and searches them again otherwise.
        tails = None
        # (w, tails kept, cutoff)
        steps = [(1.0, False, 17.0), (1.5, True, 17.0), (3.0, False, 49.0), (2.0, True, 49.0),
                 (1.0, True, 49.0)]
        for w, kept, cut in steps:
            def log_integrand(s, w=w):
                return -((s / w) ** 2)

            holds = tails is not None and all(_quad.tail_holds(log_integrand, *t) for t in tails)
            assert holds == kept
            if not holds:
                tails = radial_integral(log_integrand, 0.0, math.inf).tails
            assert tails == ((1.0, cut), (-1.0, -cut))
            ln_value, _ln_err, _panels = _quad.quad_s(log_integrand, -cut, cut)
            cold = radial_integral(log_integrand, 0.0, math.inf)
            assert math.exp(ln_value) == pytest.approx(cold.value, rel=1e-9)
            assert math.exp(ln_value) == pytest.approx(w * math.sqrt(math.pi), rel=1e-9)

    def test_panels_that_pass_come_back_unchanged(self):
        # a rule refined for one integrand is re-checked, not rebuilt, for
        # another it integrates as well, and refined from where it stands
        # for one it does not
        def gaussian(w):
            return lambda s: -(((s - 0.3) / w) ** 2)

        ln_value, _err, panels = _quad.quad_s(gaussian(0.1), -1.0, 2.0)
        again = _quad.quad_s(gaussian(0.1), -1.0, 2.0, panels=panels)
        assert again[2] is panels and again[0] == ln_value
        _value, _err, finer = _quad.quad_s(gaussian(0.01), -1.0, 2.0, panels=panels)
        assert len(finer[0]) > len(panels[0])
        assert set(panels[0].tolist()) <= set(finer[0].tolist())


# The one-point searches that the array cut replaced, kept as its oracles:
# each evaluates the log-integrand at one float point at a time, stopping at
# the first that is below the target.
def _cut_target(log_integrand, s_ref: float, drop: float) -> float:
    level = log_integrand(s_ref)
    if not math.isfinite(level):
        level = 0.0
    return max(level - drop, _quad._LOG_FLOOR)


def lazy_search_points(s_start, direction, step0=8.0, s_limit=3e5):
    s, step = s_start, step0
    for _ in range(80):
        yield s
        step *= 2.0
        s += direction * step
        if abs(s) > s_limit:
            return


def lazy_search_cutoff(log_integrand, s_start, direction, drop=_quad._DROP, step0=8.0,
                       s_limit=3e5):
    target = _cut_target(log_integrand, s_start, drop)
    return next((s for s in lazy_search_points(s_start, direction, step0, s_limit)
                 if log_integrand(s) < target), None)


def lazy_linear_points(s_ref, rate, direction, drop=_quad._DROP):
    s = s_ref + direction * (drop + 20.0) / rate
    for _ in range(50):
        yield s
        s += direction * drop / rate
        if abs(s) > 1e7:
            return


def lazy_linear_cutoff(log_integrand, s_ref, rate, direction, drop=_quad._DROP):
    if rate <= 0:
        return None
    target = _cut_target(log_integrand, s_ref, drop)
    return next((s for s in lazy_linear_points(s_ref, rate, direction, drop)
                 if log_integrand(s) < target), None)


# log-integrands on a float s or an array of them, none of which overflows
# on the points either search tests
CUT_CASES = {
    **{f"gaussian-{w}-{c}": (lambda s, w=w, c=c: -(((s - c) / w) ** 2))
       for w in (0.5, 1.0, 3.0, 30.0, 300.0) for c in (-5.0, 0.0, 5.0)},
    # power tails r^beta dr, log-integrand rate * -|s|, at several rates;
    # at rate 5 the level at s = +-16 is the target of a search from 0
    **{f"power-{rate}": (lambda s, rate=rate: 2.0 - rate * np.abs(s))
       for rate in (1e-3, 0.05, 0.5, 1.0, 5.0, 7.0)},
    "minus-inf-at-start": lambda s: np.where(np.abs(s) <= 1.0, -np.inf, -np.abs(s)),
    "plus-inf-at-start": lambda s: np.where(np.abs(s) <= 1.0, np.inf, -0.5 * np.abs(s)),
    "step": lambda s: np.where(np.abs(s) < 30.0, 0.0, -np.inf),
    "no-cutoff": lambda s: 0.0 * s,
    "rising": lambda s: 1e-3 * np.abs(s),
}


class TestCut:
    """The array cut against the one-point searches it replaced: the same
    cutoff, or None, on every case, from several starts, in both
    directions."""

    @pytest.mark.parametrize("name", sorted(CUT_CASES))
    def test_search_matches_one_point_search(self, name):
        f = CUT_CASES[name]
        for s_ref in (-1.0, 0.0, 1.0, 4.0):
            for direction in (+1, -1):
                want = lazy_search_cutoff(f, s_ref, direction)
                got = _quad.search_cutoff(f, s_ref, _quad.search_points(s_ref, direction))
                assert got == want, (s_ref, direction)

    @pytest.mark.parametrize("name", sorted(CUT_CASES))
    def test_linear_search_matches_one_point_search(self, name):
        f = CUT_CASES[name]
        for s_ref in (-1.0, 0.0, 1.0):
            for rate in (1e-3, 0.3, 1.0, 2.5, 40.0):
                for direction in (+1, -1):
                    want = lazy_linear_cutoff(f, s_ref, rate, direction)
                    points = _quad.linear_points(s_ref, rate, direction)
                    got = _quad.search_cutoff(f, s_ref, points)
                    assert got == want, (s_ref, rate, direction)
                    assert _quad.linear_cutoff(f, s_ref, rate, direction) == got

    def test_cases_reach_every_outcome(self):
        # a cut at the start, past it, and none at all
        f = CUT_CASES
        assert _quad.search_cutoff(f["minus-inf-at-start"], 1.0, _quad.search_points(1.0, 1)) == 1.0
        assert _quad.search_cutoff(f["step"], 1.0, _quad.search_points(1.0, 1)) == 49.0
        assert _quad.search_cutoff(f["step"], -1.0, _quad.search_points(-1.0, -1)) == -49.0
        assert _quad.search_cutoff(f["no-cutoff"], 1.0, _quad.search_points(1.0, 1)) is None
        assert _quad.search_cutoff(f["rising"], 0.0, _quad.linear_points(0.0, 1.0, -1)) is None
        # a level at the target does not cut
        assert _quad.search_cutoff(f["power-5.0"], 0.0, _quad.search_points(0.0, 1)) == 48.0

    def test_tail_holds_is_the_cut_on_one_point(self):
        for name, f in sorted(CUT_CASES.items()):
            for s_ref, s_cut in ((1.0, 17.0), (1.0, 49.0), (-1.0, -17.0), (0.0, -200.0),
                                 (1.0, 1.0)):
                want = f(s_cut) < _cut_target(f, s_ref, _quad._DROP)
                assert _quad.tail_holds(f, s_ref, s_cut) == want, (name, s_ref, s_cut)

    def test_row_axes_match_one_call_per_row(self):
        rng = np.random.default_rng(71)
        s = np.cumsum(rng.uniform(0.5, 20.0, 12))
        levels = rng.uniform(-900.0, 50.0, (2, 3, 12))
        levels[0, 1, :4] = -np.inf
        levels[1, 2] = np.inf
        levels[1, 0, 5] = np.nan
        level_ref = rng.uniform(-700.0, 50.0, (2, 3))
        level_ref[0, 0], level_ref[0, 2], level_ref[1, 1] = -np.inf, np.inf, np.nan
        got = _quad.cut(level_ref, s, levels)
        assert got.shape == (2, 3)
        want = [[_quad.cut(level_ref[i, j], s, levels[i, j]) for j in range(3)]
                for i in range(2)]
        np.testing.assert_array_equal(got, np.array(want))
        # and the flattened rows give the same cuts
        np.testing.assert_array_equal(_quad.cut(level_ref.ravel(), s, levels.reshape(6, 12)),
                                      got.ravel())
        assert np.isnan(got[1, 2])


class TestPowerIntegrals:
    """The operator image integrates its plain pieces as
    exp(log_power_integrals): that against the scalar power_integral.  The
    same +inf verdicts, and finite values within a few ulp of the exponent,
    the rounding of both closed forms."""

    @pytest.mark.parametrize("beta", [-2.5, -1.0, -1.0 + 1e-13, -0.4, 0.0, -1.0 - 1e-13, 1.7])
    def test_matches_scalar_power_integral(self, beta):
        rng = seeded(int(1e3 * abs(beta)) + 5)
        pairs = [(0.0, 2.0), (0.5, math.inf), (3.0, 3.0 * (1 + 1e-9))]
        for _ in range(40):
            u = 2.0 ** rng.uniform(-30, 30)
            pairs.append((u, u * 2.0 ** rng.uniform(1e-6, 20)))
        u, v = (np.array(col) for col in zip(*pairs))
        logs = log_power_integrals(u, v, np.full(len(u), beta))
        for ui, vi, li in zip(u.tolist(), v.tolist(), logs.tolist()):
            want = power_integral(ui, vi, beta)
            if math.isinf(want):
                assert li == math.inf
            else:
                rel = 8 * 2.0 ** -52 * (1.0 + abs(li))
                assert math.exp(li) == pytest.approx(want, rel=rel, abs=0.0)

    @pytest.mark.parametrize("beta", [-2.5, -1.0, -0.4, 1.7])
    def test_whole_half_line_diverges(self, beta):
        # a power diverges at one end of (0, inf) or the other
        assert power_integral(0.0, math.inf, beta) == math.inf
        whole = log_power_integrals(np.array([0.0]), np.array([math.inf]), np.array([beta]))
        assert whole[0] == math.inf


def assert_logs_agree(u, v, beta):
    """log_power_integrals against log_power_integral row by row: the same
    +-inf verdicts, and finite values within 4 ulp of the largest term of
    the closed form (b ln(end), ln(1 - e^-|b span|), ln|b| or ln span)."""
    u, v, beta = (np.array(col, dtype=float) for col in (u, v, beta))
    got = log_power_integrals(u, v, beta)
    for ui, vi, bi, gi in zip(u.tolist(), v.tolist(), beta.tolist(), got.tolist()):
        want = log_power_integral(ui, vi, bi)
        if math.isinf(want):
            assert gi == want, (ui, vi, bi)
            continue
        b = bi + 1.0
        terms = [abs(want), abs(math.log(abs(b))) if b else 0.0]
        terms += [abs(b * math.log(end)) for end in (ui, vi) if 0.0 < end < math.inf]
        if 0.0 < ui and vi < math.inf:
            span = math.log(vi / ui)
            x = abs(b * span)
            terms += [abs(math.log(span))] + ([abs(math.log(-math.expm1(-x)))] if x else [])
        assert abs(gi - want) <= 4 * math.ulp(max(terms)), (ui, vi, bi, gi, want)


class TestLogPowerIntegrals:
    @pytest.mark.parametrize("u, v", [(0.0, 2.0), (0.0, 1e-3), (0.5, math.inf),
                                      (1e-3, math.inf), (0.0, math.inf)])
    def test_singular_ends(self, u, v):
        # b on either side of the divergence boundary, at it and within DIV_TOL
        betas = [-1.0 + d for d in (-3.0, -0.5, -2 * DIV_TOL, -0.5 * DIV_TOL, 0.0,
                                    0.5 * DIV_TOL, 2 * DIV_TOL, 0.5, 3.0)]
        assert_logs_agree([u] * len(betas), [v] * len(betas), betas)

    def test_small_scaled_exponent(self):
        # |b ln(v/u)| below, at and just above 1e-10, and b = 0 exactly
        u, v = [0.5, 0.5, 0.5, 0.5, 2.0, 2.0], [1.5, 1.5, 1.5, 1.5, 2.0 * (1 + 1e-9), 8.0]
        span = math.log(3.0)
        betas = [-1.0, -1.0 + 1e-11 / span, -1.0 + 1e-10 / span, -1.0 - 3e-10 / span,
                 -0.5, -1.0 + 1e-12]
        assert_logs_agree(u, v, betas)

    @pytest.mark.parametrize("beta", [-1e3, -250.0, -3.5, 0.7, 250.0, 1e3])
    def test_large_exponents(self, beta):
        rng = seeded(int(abs(beta)) + 11)
        u = [2.0 ** rng.uniform(-8, 8) for _ in range(30)]
        v = [x * 2.0 ** rng.uniform(1e-6, 4) for x in u]
        assert_logs_agree(u, v, [beta] * len(u))

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.floats(-40, 40), st.floats(1e-12, 40), st.floats(-40, 40)),
            min_size=1, max_size=12,
        )
    )
    def test_random_rows(self, rows):
        u = [2.0 ** a for a, _w, _b in rows]
        v = [2.0 ** (a + w) for a, w, _b in rows]
        assert_logs_agree(u, v, [b for _a, _w, b in rows])
