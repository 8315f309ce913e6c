import math
from pathlib import Path

import pytest
from scipy import integrate

from hausnorm import _quad, hausdorff
from hausnorm.config import load_config
from hausnorm.exponents import Constant, LogInterp
from hausnorm.harness import upper_bound_suite
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
from hausnorm.luxemburg import ExponentExpr, ExprTerm, PiecewisePowerFunction, Segment
from hausnorm.matrices import PowerMap, ScalarDilation, SingularFamilyError
from hausnorm.spaces import SpaceSpec

from conftest import seeded, snapped_edges

FIXTURES = Path(__file__).parent / "fixtures"
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


def kernel_oracle(spec, fs, x):
    """sigma * int phi(r)/r * prod f_i(|s_i(r)| x) dr by scipy quad, split at
    the pullback radii of every segment end."""
    k = spec.kernel
    cuts = {k.r_lo, k.r_hi}
    for f, fam in zip(fs, spec.families):
        if fam.s.a == 0.0:
            continue
        for seg in f.segments:
            for edge in (seg.r_lo, seg.r_hi):
                if 0.0 < edge < math.inf:
                    r = (edge / (abs(fam.s.c) * x)) ** (1.0 / fam.s.a)
                    if k.r_lo < r < k.r_hi:
                        cuts.add(r)
    edges = sorted(cuts)

    def integrand(r):
        out = k.phi(r) / r
        for f, fam in zip(fs, spec.families):
            out *= f(fam.dilation_scale(r) * x)
        return out

    total = 0.0
    for u, v in zip(edges, edges[1:]):
        val, _err = integrate.quad(integrand, u, v, epsabs=0.0, epsrel=1e-12, limit=200)
        total += val
    return spec.sigma * total


def one_sided(c, a, r_lo, r_hi, *maps):
    return OperatorSpec(1, len(maps), RadialKernel(c, a, r_lo, r_hi, one_sided=True),
                        tuple(ScalarDilation(PowerMap(*cm), 1) for cm in maps))


# plain powers with a gap between 2.5 and 3
PLAIN = PiecewisePowerFunction((
    Segment(0.3, 0.9, 1.4, ExponentExpr(0.6)),
    Segment(0.9, 2.5, 0.7, ExponentExpr(-0.8)),
    Segment(3.0, 6.0, 2.2, ExponentExpr(0.25)),
))
PLAIN2 = PiecewisePowerFunction((
    Segment(0.5, 1.5, 0.9, ExponentExpr(-0.3)),
    Segment(1.5, 4.0, 1.6, ExponentExpr(1.1)),
))
# a decaying tail to infinity
TAIL = PiecewisePowerFunction((
    Segment(0.3, 0.9, 1.4, ExponentExpr(0.6)),
    Segment(0.9, math.inf, 0.7, ExponentExpr(-1.6)),
))
# a constant-exponent segment next to a LogInterp one
MIXED = PiecewisePowerFunction((
    Segment(0.2, 1.0, 1.3, ExponentExpr(0.4)),
    Segment(1.0, 5.0, 0.8,
            ExponentExpr(-0.2, (ExprTerm(1.0, LogInterp(3.0, 2.0), reciprocal=True),))),
))

KERNEL_CASES = {
    "m1_a_pos": (one_sided(1.0, 0.5, 0.0, 1.0, (1.5, 2.0)), [PLAIN]),
    "m1_a_neg_tail_to_zero": (one_sided(1.0, 0.5, 0.0, 1.0, (0.7, -1.0)), [TAIL]),
    "m1_a_zero": (one_sided(1.0, 1.0, 0.0, 1.0, (2.0, 0.0)), [PLAIN]),
    "m1_r_lo_pos": (one_sided(2.0, -0.5, 0.5, 4.0, (1.0, 1.0)), [PLAIN]),
    "m1_r_hi_inf": (one_sided(1.0, -0.5, 1.0, math.inf, (1.0, 1.0)), [TAIL]),
    "n3_two_sided": (
        OperatorSpec(3, 1, RadialKernel(1.0, 1.0, 0.25, 2.0),
                     (ScalarDilation(PowerMap(1.0, 1.0), 3),)),
        [PLAIN],
    ),
    "m2_a_pos_and_neg": (one_sided(1.0, 1.0, 0.25, 2.0, (1.0, 1.5), (0.8, -0.5)),
                         [PLAIN, PLAIN2]),
    "m2_a_zero_and_pos": (one_sided(1.0, 0.0, 0.0, 1.0, (1.2, 0.0), (1.0, 1.0)),
                          [PLAIN2, TAIL]),
    "snapped_edges": (one_sided(1.0, 1.0, 0.0, 1.0, (1.0, 1.0)), [snapped_edges()]),
    "mixed_loginterp": (one_sided(1.0, 1.0, 0.0, 1.0, (1.0, 1.0)), [MIXED]),
    "m2_mixed_loginterp": (one_sided(1.0, 1.0, 0.0, 1.0, (1.0, 1.0), (0.8, -0.5)),
                           [MIXED, PLAIN2]),
}


def grid_samples(spec, fs, monkeypatch):
    """The (radii, values) that apply_on_grid hands to the interpolant; an
    explicit grid where the image needs quadrature."""
    seen = []
    interpolant = hausdorff._loglog_interpolant

    def spy(xs, vals):
        seen.append((list(xs), list(vals)))
        return interpolant(xs, vals)

    monkeypatch.setattr(hausdorff, "_loglog_interpolant", spy)
    quadrature = any(not seg.plain_power for f in fs for seg in f.segments)
    r_grid = [2.0 ** (j / 4.0) for j in range(-16, 16)] if quadrature else None
    apply_on_grid(spec, fs, r_grid=r_grid)
    monkeypatch.undo()
    ((xs, vals),) = seen
    return xs, vals


class TestImageKernel:
    """The segment-combination image routine against independent oracles."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matches_scipy_oracle(self, case):
        spec, fs = KERNEL_CASES[case]
        nonzero = 0
        for x in (0.05, 0.3, 0.6, 1.0, 1.8, 2.7, 5.0, 40.0):
            oracle = kernel_oracle(spec, fs, x)
            val = apply_pointwise(spec, fs, x)
            assert val == pytest.approx(oracle, rel=1e-9, abs=1e-300)
            nonzero += oracle > 0.0
        assert nonzero >= 3

    def test_a_zero_is_a_constant_times_f(self):
        # s(r) = 2: the image is f(2x) times int_0^1 phi(r)/r dr = 1
        spec, (f,) = KERNEL_CASES["m1_a_zero"]
        # 2x = 0.9, 2.5 and 3.0 sit on segment ends: segments are half-open
        for x in (0.2, 0.4, 0.45, 1.0, 1.25, 1.3, 1.5, 2.9):
            assert apply_pointwise(spec, [f], x) == pytest.approx(f(2.0 * x), rel=1e-15)

    @pytest.mark.parametrize("x", [2.0, 4.0])
    def test_snapped_overlap_counted_once(self, x):
        # a kernel window of relative width 2e-12 around r = 1 sees only the
        # snapped edge at x: the segments overlap by 2e-13 at x = 2 and leave
        # a 2e-13 gap at x = 4; double counting the overlap adds about 10%
        spec = one_sided(1.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, (1.0, 1.0))
        f = snapped_edges()
        val = apply_pointwise(spec, [f], x)
        assert val == pytest.approx(kernel_oracle(spec, [f], x), rel=1e-3, abs=0.0)

    def test_closed_form_two_sided_power(self):
        # n = 3, phi = r on [1/4, 2]: sigma * int r^0 (r x)^0.6 dr for r x in [0.3, 0.9)
        spec = KERNEL_CASES["n3_two_sided"][0]
        f = PiecewisePowerFunction.single_power(1.4, 0.6, 0.3, 0.9)
        x = 1.0
        expected = 4.0 * math.pi * 1.4 * (0.9 ** 1.6 - 0.3 ** 1.6) / 1.6
        assert apply_pointwise(spec, [f], x) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_grid_samples_equal_pointwise_bit_for_bit(self, case, monkeypatch):
        spec, fs = KERNEL_CASES[case]
        xs, vals = grid_samples(spec, fs, monkeypatch)
        assert len(xs) >= 32
        assert sum(v > 0.0 for v in vals) >= 4
        for x, v in zip(xs, vals):
            assert apply_pointwise(spec, fs, x) == v

    def test_divergent_factor_gives_inf(self):
        # r^-1.5 times r^0.3 near r = 0 is not integrable
        spec = one_sided(1.0, 1.0, 0.0, 1.0, (1.0, 1.0), (1.0, 1.0))
        fs = [PiecewisePowerFunction.single_power(1.0, -1.5, 0.0, 1.0),
              PiecewisePowerFunction.single_power(1.0, 0.3, 0.0, 2.0)]
        assert apply_pointwise(spec, fs, 0.5) == math.inf
        with pytest.raises(DivergentImageError):
            apply_on_grid(spec, fs)

    def test_infinite_piece_is_inf_not_nan(self):
        # at x = 1e-10 the coefficient underflows to 0 and x^-32 overflows;
        # the piece still diverges at r = 0
        spec = one_sided(1.0, 1.0, 0.0, 1.0, (1.0, 1.0), (1.0, 1.0))
        fs = [PiecewisePowerFunction.single_power(1e-300, 30.0),
              PiecewisePowerFunction.single_power(1.0, -32.0)]
        assert apply_pointwise(spec, fs, 1e-10) == math.inf


def scalar_support(spec, fs, samples=600):
    """(x_lo, x_hi) by the per-radius scan of the kernel radii; oracle for
    hausdorff._image_support."""
    k = spec.kernel
    lo_k = k.r_lo if k.r_lo > 0 else min(k.r_hi * 1e-18, 1e-18)
    hi_k = k.r_hi if math.isfinite(k.r_hi) else max(k.r_lo, 1.0) * 1e18
    x_lo, x_hi = math.inf, 0.0
    for i in range(samples + 1):
        r = lo_k * (hi_k / lo_k) ** (i / samples)
        lo_req, hi_req = 0.0, math.inf
        for f, fam in zip(fs, spec.families):
            su = fam.dilation_scale(r)
            f_lo, f_hi = f.support()
            lo_req = max(lo_req, f_lo / su)
            hi_req = min(hi_req, f_hi / su)
        if lo_req < hi_req:
            x_lo = min(x_lo, lo_req)
            x_hi = max(x_hi, hi_req)
    return x_lo, x_hi


def scalar_representable_slope(x0, v0, slope):
    ln_v = math.log(v0)
    lo, hi = max(-700.0, ln_v - 700.0), min(700.0, ln_v + 700.0)
    ln_pow = slope * math.log(x0)
    if lo <= ln_pow <= hi:
        return slope
    return min(max(ln_pow, lo), hi) / math.log(x0)


def scalar_interpolant(xs, vals):
    """(r_lo, r_hi, x0, v0, slope) per piece, (x0, v0) the sample its power
    passes through, by the sample-by-sample loop; oracle for
    hausdorff._loglog_interpolant."""
    out = []
    prev_x = prev_v = None
    last_slope = None
    for x, v in zip(xs, vals):
        if v <= 0.0 or math.isinf(v) or math.isnan(v):
            prev_x = prev_v = None
            continue
        if prev_x is not None:
            slope = math.log(v / prev_v) / math.log(x / prev_x)
            steep = scalar_representable_slope(prev_x, prev_v, slope) != slope
            x0, v0 = (x, v) if steep and v > prev_v else (prev_x, prev_v)
            slope = scalar_representable_slope(x0, v0, slope)
            out.append((prev_x, x, x0, v0, slope))
            last_slope = slope
        prev_x, prev_v = x, v
    if prev_x is not None and last_slope is not None:
        slope = scalar_representable_slope(prev_x, prev_v, last_slope)
        out.append((prev_x, math.inf, prev_x, prev_v, slope))
    return out


def assert_matches_scalar_interpolant(xs, vals):
    xs, vals = [float(x) for x in xs], [float(v) for v in vals]
    img = hausdorff._loglog_interpolant(xs, vals)
    ref = scalar_interpolant(xs, vals)
    assert len(img.segments) == len(ref)
    for seg, (lo, hi, x0, v0, slope) in zip(img.segments, ref):
        assert (seg.r_lo, seg.r_hi) == (lo, hi)
        assert abs(seg.expr.const - slope) <= 2 * math.ulp(slope)
        # an ulp of slope moves v0 / x0**slope by about |slope ln x0| ulp, so
        # the coefficient is checked at the slope the piece carries
        assert abs(seg.coef - v0 / x0 ** seg.expr.const) <= 2 * math.ulp(seg.coef)
    return img


class TestScalarOracles:
    """The array forms of the support scan and the interpolant against the
    scalar loops they replaced: the same support, the same pieces through
    the same samples, slopes within 2 ulp (numpy's log against libm's)."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_cases(self, case, monkeypatch):
        spec, fs = KERNEL_CASES[case]
        assert hausdorff._image_support(spec, fs) == scalar_support(spec, fs)
        assert_matches_scalar_interpolant(*grid_samples(spec, fs, monkeypatch))

    @pytest.mark.parametrize("seed", [3, 10])
    @pytest.mark.parametrize("fixture", ["hardy_p2.json", "bilinear_p4.json"])
    def test_seeded_suite_images(self, fixture, seed, monkeypatch):
        supports, samples = [], []
        support, interpolant = hausdorff._image_support, hausdorff._loglog_interpolant

        def support_spy(spec, fs):
            out = support(spec, fs)
            supports.append((spec, fs, out))
            return out

        def interpolant_spy(xs, vals):
            samples.append((xs, vals))
            return interpolant(xs, vals)

        monkeypatch.setattr(hausdorff, "_image_support", support_spy)
        monkeypatch.setattr(hausdorff, "_loglog_interpolant", interpolant_spy)
        cfg = load_config(str(FIXTURES / fixture))
        upper_bound_suite(cfg.operator(), cfg.bound_config(), "C9", 40, seed)
        monkeypatch.undo()
        # an image with an empty support is zero and never sampled
        live = [out for _spec, _fs, out in supports if out[0] < out[1]]
        assert len(supports) == 40 and len(samples) == len(live) >= 35
        for spec, fs, out in supports:
            assert out == scalar_support(spec, fs)
        for xs, vals in samples:
            assert_matches_scalar_interpolant(xs, vals)

    def test_broken_chains_and_lone_last_sample(self):
        xs = [2.0 ** (j / 4.0) for j in range(13)]
        vals = [0.0, 1.0, 2.0, 0.0, 3.0, 4.0, math.inf, 5.0, 6.5, math.nan, -1.0, 0.0, 7.0]
        img = assert_matches_scalar_interpolant(xs, vals)
        # pieces only between neighbouring positive finite samples
        assert [s.r_lo for s in img.segments] == [xs[1], xs[4], xs[7], xs[12]]
        # the lone last sample carries the slope of the chain before it
        tail = img.segments[-1]
        assert tail.r_hi == math.inf and tail.expr.const == img.segments[-2].expr.const
        assert tail.value(xs[12]) == pytest.approx(7.0, rel=1e-15)

    @pytest.mark.parametrize("vals", [
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 2.0, 0.0],
        [0.0, 1.0, 0.0, 3.0],
        [1.0, 2.0, 3.0, 0.0],
        [0.00104, 0.620, 0.0, 0.75, 0.80],
        [1e-200, 1e100, 2e100, 1e-200, 3e-200],
    ])
    def test_sample_vectors(self, vals):
        xs = [0.024057 * 2.0 ** (j / 24.0) for j in range(len(vals))]
        assert_matches_scalar_interpolant(xs, vals)


class TestLogLogInterpolant:
    def test_steep_jump_gets_a_representable_piece(self):
        # the image jumps from 1e-3 to 0.62 within one grid step at x = 0.024
        step = 2.0 ** (1.0 / 24.0)
        xs = [0.024057 * step ** j for j in range(5)]
        vals = [0.00104, 0.620, 0.75, 0.80, 0.82]
        img = hausdorff._loglog_interpolant(xs, vals)
        steep = img.segments[0]
        assert 0.0 < steep.coef < math.inf
        assert steep.value(xs[0]) > vals[0]
        assert steep.value(xs[1] * (1 - 1e-15)) == pytest.approx(vals[1], rel=1e-12)
        for seg, x0, x1, v0, v1 in zip(img.segments[1:], xs[1:], xs[2:], vals[1:], vals[2:]):
            slope = math.log(v1 / v0) / math.log(x1 / x0)
            assert seg.coef == v0 / x0 ** slope
            assert seg.expr.const == slope
        tail = img.segments[-1]
        assert tail.r_hi == math.inf and tail.value(xs[-1]) == pytest.approx(vals[-1])

    def test_seed_10_hardy_suite_within_c9(self):
        cfg = load_config(str(FIXTURES / "hardy_p2.json"))
        suite = upper_bound_suite(cfg.operator(), cfg.bound_config(), "C9", 40, 10)
        assert len(suite.rows) == 40
        assert all(r <= 2.0 * (1 + 1e-3) for _s, _i, r in suite.rows)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_central_morrey_seeds_complete(self, seed):
        cfg = load_config(str(FIXTURES / "central_morrey_m1.json"))
        suite = upper_bound_suite(cfg.operator(), cfg.bound_config(), "C12", 6, seed)
        assert len(suite.rows) == 6
        assert all(0.0 < r < math.inf for _s, _i, r in suite.rows)


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

    def test_explicit_grid_radii_must_be_distinct(self, hardy_op):
        f = PiecewisePowerFunction.single_power(1.0, 0.5, 0.5, 2.0)
        with pytest.raises(ValueError, match="distinct"):
            apply_on_grid(hardy_op, [f], r_grid=[1.0, 1.0, 2.0])

    @pytest.mark.parametrize("r_grid", [[], [1.0]])
    def test_explicit_grid_needs_two_radii(self, hardy_op, r_grid):
        # H f(1) > 0, so one radius cannot stand for the image
        f = PiecewisePowerFunction.single_power(1.0, 0.5, 0.5, 2.0)
        with pytest.raises(ValueError, match="two grid radii"):
            apply_on_grid(hardy_op, [f], r_grid=r_grid)

    def test_vanishing_family_scale_raises(self):
        spec = from_hardy_cesaro(PowerMap(1.0, 0.0), PowerMap(0.0, 1.0))
        f = PiecewisePowerFunction.single_power(1.0, 0.5, 0.5, 2.0)
        with pytest.raises(SingularFamilyError):
            apply_on_grid(spec, [f])


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
