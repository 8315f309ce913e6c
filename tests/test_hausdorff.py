import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from hausnorm import _quad, hausdorff, luxemburg
from hausnorm.config import load_config
from hausnorm.exponents import Constant, LogInterp, sphere_area
from hausnorm.harness import spaces_for_constant, upper_bound_suite
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
from hausnorm.luxemburg import (
    ExponentExpr,
    ExprTerm,
    PiecewisePowerFunction,
    Region,
    Segment,
    luxemburg_norm,
)
from hausnorm.matrices import PowerMap, ScalarDilation, SingularFamilyError
from hausnorm.spaces import SpaceSpec

from conftest import closed_form_log, seeded, snapped_edges

FIXTURES = Path(__file__).parent / "fixtures"
ONE = PiecewisePowerFunction.one()
LINEAR = PiecewisePowerFunction.single_power(1.0, 1.0)


def hardy_ratio_oracle(eps):
    """Hand-derived squared ratio for the cut power family on the averaging
    operator at integrability 2."""
    return math.sqrt((0.5 - eps) ** -2 * (1.0 - 4.0 * eps / (0.5 + eps) + 2.0 * eps))


@pytest.mark.parametrize("c, a", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                  (1.0, -math.inf)])
def test_kernel_parameters_are_finite(c, a):
    with pytest.raises(ValueError, match="kernel coefficient must be nonnegative and finite"):
        RadialKernel(c, a, 0.0, 1.0)


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

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_radius_must_be_positive_and_finite(self, hardy_op, x):
        with pytest.raises(ValueError, match="positive and finite"):
            apply_pointwise(hardy_op, [ONE], x)

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
    # s_1 = r and s_2 = r^2: the support [0.5, inf) is only an outer bound,
    # since r x < 6 and r^2 x >= 0.5 leave no r from x = 72 on
    "m2_a_differ_outer_support": (one_sided(1.0, 1.0, 0.0, 1.0, (1.0, 1.0), (1.0, 2.0)),
                                  [PLAIN, PLAIN2]),
}


def grid_samples(spec, fs, monkeypatch):
    """The (radii, values) that apply_on_grid hands to the interpolant; an
    explicit grid where the image needs quadrature."""
    seen = []
    interpolant = hausdorff._loglog_interpolant

    def spy(xs, vals, *ends):
        seen.append((list(xs), list(vals)))
        return interpolant(xs, vals, *ends)

    monkeypatch.setattr(hausdorff, "_loglog_interpolant", spy)
    quadrature = any(np.isnan(f.expo).any() for f in fs)
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


def _requirement(bound, scale):
    """bound / scale with the limits of the support edges at a kernel end:
    0 for a zero bound, inf for an infinite bound or a zero scale."""
    if bound == 0.0:
        return 0.0
    return math.inf if scale == 0.0 or math.isinf(bound) else bound / scale


def dense_support(spec, fs, samples=2000):
    """(x_lo, x_hi): the hull of the windows of x that keep every
    |s_i(r)| x in the hull of f_i, over `samples` kernel radii r geometric
    between the ends (from 1e-18 or to 1e18 at an end at 0 or inf) and the
    ends themselves, whose windows are limits and count where their
    neighbour's window is live; oracle for hausdorff._image_support."""
    k = spec.kernel
    lo_k = k.r_lo if k.r_lo > 0 else min(k.r_hi * 1e-18, 1e-18)
    hi_k = k.r_hi if math.isfinite(k.r_hi) else max(k.r_lo, 1.0) * 1e18
    radii = [lo_k * (hi_k / lo_k) ** (i / samples) for i in range(samples + 1)]
    windows = []
    for r in [k.r_lo, *radii, k.r_hi]:
        lo_req, hi_req = 0.0, math.inf
        for f, fam in zip(fs, spec.families):
            su = abs(fam.s(r))
            f_lo, f_hi = f.support()
            lo_req = max(lo_req, _requirement(f_lo, su))
            hi_req = min(hi_req, _requirement(f_hi, su))
        windows.append((lo_req, hi_req))
    live = [lo < hi for lo, hi in windows]
    live[0], live[-1] = live[1], live[-2]
    counted = [w for w, on in zip(windows, live) if on]
    if not counted:
        return math.inf, 0.0
    return min(lo for lo, _hi in counted), max(hi for _lo, hi in counted)


def assert_support_covers(spec, fs, support):
    """The closed-form support is never narrower than the oracle's, and it
    is equal for one input or maps that share one exponent."""
    x_lo, x_hi = dense_support(spec, fs)
    if len({fam.s.a for fam in spec.families}) == 1:
        assert support == (x_lo, x_hi)
    elif x_lo < x_hi:
        assert support[0] <= x_lo and support[1] >= x_hi
    return support


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
    """The columns of the interpolant against the oracle's rows; every row
    is plain, and the segments are those rows."""
    xs, vals = [float(x) for x in xs], [float(v) for v in vals]
    img = hausdorff._loglog_interpolant(xs, vals)
    ref = scalar_interpolant(xs, vals)
    assert len(img.lo) == len(ref) and not img.side
    rows = zip(img.lo.tolist(), img.hi.tolist(), img.coef.tolist(), img.expo.tolist())
    for (lo, hi, coef, expo), (r_lo, r_hi, x0, v0, slope) in zip(rows, ref):
        assert (lo, hi) == (r_lo, r_hi)
        assert abs(expo - slope) <= 2 * math.ulp(slope)
        # an ulp of slope moves v0 / x0**slope by about |slope ln x0| ulp, so
        # the coefficient is checked at the slope the piece carries
        assert abs(coef - v0 / x0 ** expo) <= 2 * math.ulp(coef)
    assert img.segments == tuple(
        Segment(lo, hi, coef, ExponentExpr(expo))
        for lo, hi, coef, expo in zip(img.lo, img.hi, img.coef, img.expo)
    )
    return img


def segment_norm_oracle(g, p, n):
    """Constant-p Luxemburg norm of g over all radii, one Segment at a time:
    the scalar closed form per clipped segment, summed by _log_sum.  Oracle
    for the column path of luxemburg_norm."""
    logs = [closed_form_log(seg, u, v, p, n)
            for seg, u, v in g.pieces_in(Region.all())]
    m, ln_m = luxemburg._log_sum(logs, sphere_area(n))
    return m ** (1.0 / p.p_zero) if m is not None else math.exp(ln_m / p.p_zero)


class TestScalarOracles:
    """The closed-form support against a dense kernel-radius scan, and the
    array interpolant against the scalar loop it replaced: the same pieces
    through the same samples, slopes within 2 ulp (numpy's log against
    libm's)."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_cases(self, case, monkeypatch):
        spec, fs = KERNEL_CASES[case]
        assert_support_covers(spec, fs, hausdorff._image_support(spec, fs))
        assert_matches_scalar_interpolant(*grid_samples(spec, fs, monkeypatch))

    @pytest.mark.parametrize("seed", [3, 10, 15])
    @pytest.mark.parametrize("fixture", ["hardy_p2.json", "bilinear_p4.json"])
    def test_seeded_suite_images(self, fixture, seed, monkeypatch):
        supports, samples = [], []
        support, interpolant = hausdorff._image_support, hausdorff._loglog_interpolant

        def support_spy(spec, fs):
            out = support(spec, fs)
            supports.append((spec, fs, out))
            return out

        def interpolant_spy(xs, vals, *ends):
            samples.append((xs, vals))
            return interpolant(xs, vals, *ends)

        monkeypatch.setattr(hausdorff, "_image_support", support_spy)
        monkeypatch.setattr(hausdorff, "_loglog_interpolant", interpolant_spy)
        cfg = load_config(str(FIXTURES / fixture))
        upper_bound_suite(cfg.operator(), cfg.bound_config(), "C9", 40, seed)
        monkeypatch.undo()
        # an image with an empty support is zero and never sampled
        live = [out for _spec, _fs, out in supports if out[0] < out[1]]
        assert len(supports) == 40 and len(samples) == len(live) >= 35
        for spec, fs, out in supports:
            assert_support_covers(spec, fs, out)
        target = spaces_for_constant(cfg.bound_config(), "C9")[1]
        for xs, vals in samples:
            img = assert_matches_scalar_interpolant(xs, vals).weighted(target.gamma)
            got = luxemburg_norm(img, target.q, Region.all(), target.n)
            assert got == pytest.approx(segment_norm_oracle(img, target.q, target.n),
                                        rel=1e-13)

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


def pullback_windows_oracle(f, s, xs):
    """(segment, r_lo, r_hi) per nonzero segment of f, by the per-segment
    loop: arrays over xs of the kernel radii r with |s(r)| x in
    [seg.r_lo, min(seg.r_hi, next start)); reference for
    hausdorff._pullback_windows."""
    cx = abs(s.c) * xs
    out = []
    for seg, hi in zip(f.segments, f.starts[1:] + (math.inf,)):
        if seg.coef == 0.0:
            continue
        hi = min(seg.r_hi, hi)
        if s.a == 0.0:
            on = (seg.r_lo <= cx) & (cx < hi)
            out.append((seg, np.where(on, 0.0, math.inf), np.where(on, math.inf, 0.0)))
        else:
            ends = ((seg.r_lo / cx) ** (1.0 / s.a), (hi / cx) ** (1.0 / s.a))
            out.append((seg, *(ends if s.a > 0 else ends[::-1])))
    return out


def image_values_oracle(spec, fs, xs, rel_tol):
    """The per-combination loop that hausdorff._image_values replaced: each
    combination over the whole grid, empty or not, its windows stacked, and
    its exponent as one array entry per radius."""
    k = spec.kernel
    for fam in spec.families:
        hausdorff._scale_range(fam, k)
    total = np.zeros(len(xs))
    if k.c == 0.0:
        return total
    with np.errstate(all="ignore"):
        windows = [pullback_windows_oracle(f, fam.s, xs)
                   for f, fam in zip(fs, spec.families)]
        log_cx = [np.log(abs(fam.s.c) * xs) for fam in spec.families]
        for combo in itertools.product(*windows):
            segs, los, his = zip(*combo)
            u = np.maximum(k.r_lo, np.max(los, axis=0))
            v = np.minimum(k.r_hi, np.min(his, axis=0))
            idx = np.flatnonzero(u < v)
            if not all(seg.plain_power for seg in segs):
                for i in idx:
                    total[i] += hausdorff._quadrature_piece(spec, segs, xs[i], u[i], v[i],
                                                            rel_tol)
                continue
            log_coef, expo = math.log(k.c), k.a - 1.0
            for seg, fam, ln_cx in zip(segs, spec.families, log_cx):
                b = seg.expr.constant_value()
                log_coef += math.log(seg.coef) + b * ln_cx[idx]
                expo += fam.s.a * b
            beta = np.full(len(idx), expo)
            total[idx] += np.exp(log_coef + _quad.log_power_integrals(u[idx], v[idx], beta))
    return spec.sigma * total


def image_calls(monkeypatch, run):
    """(spec, fs, xs, rel_tol, values) of every _image_values call in run()."""
    calls = []
    image_values = hausdorff._image_values

    def spy(spec, fs, xs, rel_tol):
        vals = image_values(spec, fs, xs, rel_tol)
        calls.append((spec, fs, xs, rel_tol, vals))
        return vals

    monkeypatch.setattr(hausdorff, "_image_values", spy)
    run()
    monkeypatch.undo()
    return calls


def assert_image_matches_oracle(spec, fs, xs, rel_tol, vals):
    assert vals.tobytes() == image_values_oracle(spec, fs, xs, rel_tol).tobytes()


class TestImageOracle:
    """_image_values against the per-combination loop it replaced, bit for
    bit: empty combinations skipped, windows met pairwise and one scalar
    exponent per combination change no sample."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_cases(self, case, monkeypatch):
        spec, fs = KERNEL_CASES[case]
        xs = np.array(grid_samples(spec, fs, monkeypatch)[0])
        vals = hausdorff._image_values(spec, fs, xs, 1e-9)
        assert_image_matches_oracle(spec, fs, xs, 1e-9, vals)

    @pytest.mark.parametrize("seed", [3, 10, 15])
    @pytest.mark.parametrize("fixture", ["hardy_p2.json", "bilinear_p4.json"])
    def test_seeded_suite_images(self, fixture, seed, monkeypatch):
        cfg = load_config(str(FIXTURES / fixture))
        calls = image_calls(monkeypatch, lambda: upper_bound_suite(
            cfg.operator(), cfg.bound_config(), "C9", 40, seed))
        assert len(calls) >= 35
        for call in calls:
            assert_image_matches_oracle(*call)

    def test_support_only_an_outer_bound(self, monkeypatch):
        spec, fs = KERNEL_CASES["m2_a_differ_outer_support"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ((_spec, _fs, xs, rel_tol, vals),) = image_calls(
                monkeypatch, lambda: apply_on_grid(spec, fs))
        assert_image_matches_oracle(spec, fs, xs, rel_tol, vals)
        # the grid runs from the outer bound's 0.5 to 2^48, and every
        # combination is empty from x = 72 on, where the image is exactly 0
        assert xs[0] < 0.6 and xs[-1] > 2.0 ** 47
        assert (vals[xs >= 72.0] == 0.0).all() and (vals[xs < 72.0] > 0.0).sum() >= 24
        combos = itertools.product(*(pullback_windows_oracle(f, fam.s, xs)
                                     for f, fam in zip(fs, spec.families)))
        live = [np.maximum(lo1, lo2) < np.minimum(np.minimum(hi1, hi2), 1.0)
                for (_s1, lo1, hi1), (_s2, lo2, hi2) in combos]
        assert not any(on.all() for on in live)
        # some combinations have support somewhere, some nowhere
        assert 0 < sum(on.any() for on in live) < len(live)


def full_grid(spec, fs):
    """The default dyadic grid over the image support, every radius of it."""
    x_lo, x_hi = hausdorff._image_support(spec, fs)
    return hausdorff._geometric_grid(max(x_lo, 2.0 ** -40), min(x_hi, 2.0 ** 48), 24)


def live_runs(spec, fs, xs):
    """Per segment combination, the indices of the radii xs where its
    pullback windows meet inside the kernel support."""
    k = spec.kernel
    windows = [pullback_windows_oracle(f, fam.s, xs) for f, fam in zip(fs, spec.families)]
    with np.errstate(all="ignore"):
        for combo in itertools.product(*windows):
            _segs, los, his = zip(*combo)
            u = np.maximum(k.r_lo, np.max(los, axis=0))
            v = np.minimum(k.r_hi, np.min(his, axis=0))
            yield np.flatnonzero(u < v)


def assert_live_runs_contiguous(spec, fs):
    """Every combination's live radii are one run of the full grid, which
    is what lets _image_values slice instead of gather; returns how many
    combinations are live."""
    runs = [idx for idx in live_runs(spec, fs, full_grid(spec, fs)) if len(idx)]
    for idx in runs:
        assert idx[-1] - idx[0] + 1 == len(idx)
    return len(runs)


class TestLiveRuns:
    """Window ends are affine in ln x under a PowerMap family, so each
    combination is live on one interval of ln x: one run of the grid."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_cases(self, case):
        spec, fs = KERNEL_CASES[case]
        assert assert_live_runs_contiguous(spec, fs) >= 1

    @pytest.mark.parametrize("fixture", ["hardy_p2.json", "bilinear_p4.json"])
    def test_seeded_suite_images(self, fixture, monkeypatch):
        cfg = load_config(str(FIXTURES / fixture))
        calls = image_calls(monkeypatch, lambda: upper_bound_suite(
            cfg.operator(), cfg.bound_config(), "C9", 40, 3))
        assert len(calls) >= 35
        assert sum(assert_live_runs_contiguous(spec, fs) for spec, fs, *_rest in calls) >= 100


def assert_windows_match_oracle(f, s, xs):
    rows, lo, hi = hausdorff._pullback_windows(f, s, xs)
    ref = pullback_windows_oracle(f, s, xs)
    assert [f.segments[r] for r in rows.tolist()] == [seg for seg, _lo, _hi in ref]
    assert lo.shape == hi.shape == (len(ref), len(xs))
    for got_lo, got_hi, (_seg, ref_lo, ref_hi) in zip(lo, hi, ref):
        assert got_lo.tobytes() == ref_lo.tobytes() and got_hi.tobytes() == ref_hi.tobytes()


class TestPullbackWindows:
    """The windows of all rows of an input as one array pair, against the
    per-segment loop, bit for bit."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_cases(self, case):
        spec, fs = KERNEL_CASES[case]
        xs = full_grid(spec, fs)
        with np.errstate(all="ignore"):
            for f, fam in zip(fs, spec.families):
                assert_windows_match_oracle(f, fam.s, xs)

    @pytest.mark.parametrize("s", [PowerMap(1.0, 1.0), PowerMap(-0.8, -0.5),
                                   PowerMap(2.0, 0.0), PowerMap(1.0, 0.03)])
    def test_zero_rows_and_snapped_edges(self, s):
        # zero rows are skipped, but their starts still end the row before
        f = PiecewisePowerFunction((*snapped_edges().segments[:5],
                                    Segment(0.5, 0.75, 0.0, ExponentExpr(1.0)),
                                    Segment(0.75, math.inf, 2.0, ExponentExpr(-1.2))))
        xs = np.array([2.0 ** (j / 3.0) for j in range(-30, 30)])
        with np.errstate(all="ignore"):
            assert_windows_match_oracle(f, s, xs)
            assert_windows_match_oracle(PiecewisePowerFunction.zero(), s, xs)

    @pytest.mark.parametrize("fixture", ["hardy_p2.json", "bilinear_p4.json"])
    def test_seeded_suite_images(self, fixture, monkeypatch):
        cfg = load_config(str(FIXTURES / fixture))
        calls = image_calls(monkeypatch, lambda: upper_bound_suite(
            cfg.operator(), cfg.bound_config(), "C9", 40, 15))
        assert len(calls) >= 35
        with np.errstate(all="ignore"):
            for spec, fs, xs, *_rest in calls:
                for f, fam in zip(fs, spec.families):
                    assert_windows_match_oracle(f, fam.s, xs)


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

    def test_end_rows_through_the_end_samples(self):
        xs = [0.5 * 2.0 ** (j / 4.0) for j in range(6)]
        vals = [1.0, 1.2, 1.5, 1.4, 1.1, 0.9]
        chords = hausdorff._loglog_interpolant(xs, vals)
        img = hausdorff._loglog_interpolant(xs, vals, -2.0, (0.1, 0.5))
        # the chords are the plain interpolant's; its tail takes slope -2.0
        for col in ("lo", "hi", "coef", "expo"):
            assert getattr(img, col)[1:-1].tobytes() == getattr(chords, col)[:-1].tobytes()
        assert (img.lo[0], img.hi[0], img.expo[0]) == (0.1, xs[0], 0.5)
        assert img.coef[0] == vals[0] / xs[0] ** 0.5
        assert (img.lo[-1], img.hi[-1], img.expo[-1]) == (xs[-1], math.inf, -2.0)
        assert img.coef[-1] == vals[-1] / xs[-1] ** -2.0
        # a lone positive sample still takes both end rows
        lone = hausdorff._loglog_interpolant(xs[:2], [0.0, 3.0], -2.0, (0.1, 0.5))
        assert (lone.lo.tolist(), lone.hi.tolist()) == ([xs[1]], [math.inf])

    def test_zero_end_samples_add_no_end_rows(self):
        xs = [0.5 * 2.0 ** (j / 4.0) for j in range(6)]
        vals = [0.0, 1.2, 1.5, 1.4, 1.1, 0.0]
        img = hausdorff._loglog_interpolant(xs, vals, -2.0, (0.1, 0.5))
        assert img == hausdorff._loglog_interpolant(xs, vals)
        assert img.lo[0] == xs[1] and img.hi[-1] == xs[4]

    def test_steep_end_slopes_kept_representable(self):
        # x^-1e4 through (8, 1) would need the coefficient 8^1e4; the end
        # rows take the steepest slopes whose coefficients stay below e^700
        xs, vals = [8.0, 16.0], [1.0, 1.0]
        img = hausdorff._loglog_interpolant(xs, vals, -1e4, (1e-3, 1e4))
        assert img.expo.tolist() == [700.0 / math.log(8.0), 0.0, -700.0 / math.log(16.0)]
        assert np.isfinite(img.coef).all() and (img.coef > 0.0).all()

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


def loop_grid(lo, hi, points_per_octave):
    """The image grid built one multiplication at a time; test oracle."""
    step = 2.0 ** (1.0 / points_per_octave)
    grid = []
    x = lo * step
    while x < hi * (1 + 1e-12):
        grid.append(x)
        x *= step
    return grid


class TestGeometricGrid:
    def test_bit_identical_to_loop(self):
        rng = seeded(2024)
        for _ in range(2000):
            lo = 2.0 ** rng.uniform(-45.0, 45.0)
            hi = lo * 2.0 ** rng.choice([rng.uniform(-1.0, 90.0), rng.uniform(0.0, 0.05), 0.0])
            ppo = rng.randint(1, 256)
            assert hausdorff._geometric_grid(lo, hi, ppo).tolist() == loop_grid(lo, hi, ppo)

    def test_hardy_image_grid(self, monkeypatch):
        # kinks at x = 0.25 and 8: the grid is sampled from the support edge
        # 0.25 to one radius past the first at or above 8, and the image
        # beyond is the closed-form row x^-1 through the last sample
        spec = from_hardy_littlewood(PowerMap(1.0, 0.0))
        f = PiecewisePowerFunction.single_power(1.0, -0.3, 0.25, 8.0)
        xs, vals = grid_samples(spec, [f], monkeypatch)
        x_lo, x_hi = hausdorff._image_support(spec, [f])
        grid = loop_grid(max(x_lo, 2.0 ** -40), min(x_hi, 2.0 ** 48), 24)
        j = next(i for i, x in enumerate(grid) if x >= 8.0)
        assert xs == grid[:j + 2]
        assert len(xs) > 100 and len(grid) > 1000
        img = apply_on_grid(spec, [f])
        assert img.lo[0] == grid[0]
        assert (img.lo[-1], img.hi[-1], img.expo[-1]) == (xs[-1], math.inf, -1.0)
        assert img.coef[-1] == vals[-1] / xs[-1] ** -1.0
        assert img.lo[:-1].tolist() == xs[:-1]


def log_image(img, x):
    """ln of a plain-row image at x from its row's columns, so that a value
    past the float range keeps its digits; -inf off its rows."""
    i = int(np.searchsorted(img.lo, x, side="right")) - 1
    if i < 0 or not x < img.hi[i] or img.coef[i] == 0.0:
        return -math.inf
    return math.log(img.coef[i]) + img.expo[i] * math.log(x)


# (kernel exponent, r_lo, r_hi) of the power-run oracle's one-sided kernels
POWER_RUN_KERNELS = {
    "0_1": (1.0, 0.0, 1.0),
    "1_49": (-0.5, 1.0, 49.0),
    "0_inf": (1.0, 0.0, math.inf),
}
_LN_NORMAL = (-1022 * math.log(2.0), 1024 * math.log(2.0))


class TestPowerRuns:
    """Beyond its extreme kinks the image of plain inputs under families
    that share one exponent a is one exact power x^(-kernel.a / a): the
    grid is sampled only between the kinks, and each run beyond is one
    closed-form row."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kernel", sorted(POWER_RUN_KERNELS))
    @pytest.mark.parametrize("a", [1.0, 0.3, 0.03, 0.01, -1.0])
    def test_matches_the_full_grid(self, a, kernel, m):
        k_a, r_lo, r_hi = POWER_RUN_KERNELS[kernel]
        spec = one_sided(1.0, k_a, r_lo, r_hi, *[(1.0, a), (0.8, a)][:m])
        fs = [PLAIN, PLAIN2][:m]
        grid = full_grid(spec, fs)
        full = hausdorff._loglog_interpolant(grid, hausdorff._image_values(spec, fs, grid, 1e-9))
        img = apply_on_grid(spec, fs)
        # the sampled oracle is exact only where every pullback window end
        # (e / (|c| x))^(1/a) is a float: past that, its window is clipped
        edges = np.log([e for f in fs for e in (*f.lo, *f.hi)])
        ln_c = np.log([abs(fam.s.c) for fam in spec.families])
        compared = 0
        # one radius past the grid end compares the tails
        for x in [*grid.tolist(), 2.0 * grid[-1]]:
            ln_full = log_image(full, x)
            ln_ends = (edges[:, None] - ln_c - math.log(x)) / a
            if _LN_NORMAL[0] <= ln_full < _LN_NORMAL[1] and np.abs(ln_ends).max() < 700.0:
                assert log_image(img, x) == pytest.approx(ln_full, rel=0.0, abs=1e-12)
                compared += 1
        assert compared >= 48
        # a kernel with an end at 0 has a run; [1, 49] has none
        if kernel == "1_49":
            assert img == full
        else:
            assert len(img.lo) < len(full.lo) / 3

    @pytest.mark.parametrize("a, norm", [
        (0.1, 1.3667831042858305),
        (0.03, 1.3980582057153979),
        (0.01, 1.3992100347519154),
    ])
    def test_steep_family_norms(self, a, norm):
        # H chi[1, 2) under s(t) = t^a is (2^(1/a) - 1) x^(-1/a) from x = 2
        # on; sampled out to 2^48 it underflows for small a, so a slope taken
        # there would break the image at the kink
        spec = from_hardy_cesaro(PowerMap(1.0, 0.0), PowerMap(1.0, a))
        f = PiecewisePowerFunction.single_power(1.0, 0.0, 1.0, 2.0)
        img = apply_on_grid(spec, [f])
        assert img.expo[-1] == -1.0 / a
        got = luxemburg_norm(img, Constant(2.0), Region.all(), 1)
        assert got == pytest.approx(norm, rel=1e-12)

    def test_differing_exponents_keep_the_full_grid(self, monkeypatch):
        spec, fs = KERNEL_CASES["m2_a_differ_outer_support"]
        xs, _vals = grid_samples(spec, fs, monkeypatch)
        assert xs == full_grid(spec, fs).tolist()

    def test_explicit_grid_keeps_its_radii(self, monkeypatch):
        spec, fs = KERNEL_CASES["m1_a_pos"]
        seen = []
        interpolant = hausdorff._loglog_interpolant
        monkeypatch.setattr(
            hausdorff, "_loglog_interpolant",
            lambda xs, vals, *ends: seen.append(list(xs)) or interpolant(xs, vals, *ends))
        r_grid = [2.0 ** (j / 4.0) for j in range(-16, 64)]
        apply_on_grid(spec, fs, r_grid=r_grid)
        assert seen == [r_grid]


# the exponent 1 - 1/2 written with a constant term, and the plain power it is
STRUCTURED_TWIN = PiecewisePowerFunction.power_with_terms(
    1.3, 1.0, (ExprTerm(-1.0, Constant(2.0), reciprocal=True),), 0.5, 2.0)
PLAIN_TWIN = PiecewisePowerFunction.single_power(1.3, 0.5, 0.5, 2.0)


def assert_same_columns(a, b):
    for col in ("lo", "hi", "coef", "expo"):
        assert getattr(a, col).tobytes() == getattr(b, col).tobytes()


class TestStructuredTwin:
    """A row whose exponent terms are constant is the plain power it
    equals: its expo column holds that exponent, so its images take the
    plain path, bit for bit."""

    def test_columns(self):
        assert STRUCTURED_TWIN.side and not PLAIN_TWIN.side
        # the segments keep the row as written
        assert STRUCTURED_TWIN != PLAIN_TWIN
        assert_same_columns(STRUCTURED_TWIN, PLAIN_TWIN)

    @pytest.mark.parametrize("r_grid", [None, [2.0 ** (j / 4.0) for j in range(-16, 16)]],
                             ids=["dyadic", "explicit"])
    def test_images(self, hardy_op, r_grid):
        img = apply_on_grid(hardy_op, [STRUCTURED_TWIN], r_grid=r_grid)
        assert_same_columns(img, apply_on_grid(hardy_op, [PLAIN_TWIN], r_grid=r_grid))
        if r_grid is None:
            # sampled between the kinks 0.5 and 2 only, with one power row
            # beyond them
            assert len(img.lo) == 49 and img.expo[-1] == -1.0
        for x in (0.3, 1.0, 1.7, 5.0):
            assert (apply_pointwise(hardy_op, [STRUCTURED_TWIN], x)
                    == apply_pointwise(hardy_op, [PLAIN_TWIN], x))

    def test_bilinear_image(self):
        # PLAIN with its last row, 2.2 r^0.25, written as 2.2 r^(0.75 - 1/2)
        spec = KERNEL_CASES["m2_a_pos_and_neg"][0]
        f = PiecewisePowerFunction((*PLAIN.segments[:2], Segment(
            3.0, 6.0, 2.2, ExponentExpr(0.75, (ExprTerm(-1.0, Constant(2.0), reciprocal=True),)))))
        assert_same_columns(f, PLAIN)
        assert_same_columns(apply_on_grid(spec, [f, PLAIN2]), apply_on_grid(spec, [PLAIN, PLAIN2]))


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

    @pytest.mark.parametrize("r_grid", [[1.5, 3.0, math.inf], [1.0, math.inf],
                                        [math.nan, 1.0, 2.0], [0.0, 1.0]],
                             ids=["inf-tail", "inf-only", "nan", "zero"])
    def test_explicit_grid_radii_must_be_positive_and_finite(self, hardy_op, r_grid):
        # an infinite radius dropped the image's tail row, or gave the zero image
        f = PiecewisePowerFunction.single_power(1.0, 0.5, 1.0, 2.0)
        with pytest.raises(ValueError, match="positive and finite"):
            apply_on_grid(hardy_op, [f], r_grid=r_grid)

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

    def test_vanishing_family_scale_raises_at_given_radii(self):
        # s(t) = 0 maps every kernel radius to f(0) = 1; the image is not the
        # 0.0 that the pullback windows give, so both paths refuse the family
        spec = from_hardy_cesaro(PowerMap(1.0, 0.0), PowerMap(0.0, 1.0))
        f = PiecewisePowerFunction.single_power(1.0, 0.0, 0.0, 2.0)
        with pytest.raises(SingularFamilyError):
            apply_pointwise(spec, [f], 1.0)
        with pytest.raises(SingularFamilyError):
            apply_on_grid(spec, [f], r_grid=[1.0, 2.0])

    def test_support_reaches_the_kernel_end_limit(self):
        # s(t) = t^0.1 on [0, 1] and f = chi[1, 2): the image is
        # (2^10 - 1) x^-10 for every x >= 2, however small t must get; a
        # kernel scan from t = 1e-18 ends at x = 2 / 1e-1.8 = 126.19
        spec = from_hardy_cesaro(PowerMap(1.0, 0.0), PowerMap(1.0, 0.1))
        f = PiecewisePowerFunction.single_power(1.0, 0.0, 1.0, 2.0)
        assert hausdorff._image_support(spec, [f]) == (1.0, math.inf)
        img = apply_on_grid(spec, [f])
        # beyond the kink x = 2 the image is one closed-form row to infinity
        assert (img.hi[-1], img.expo[-1]) == (math.inf, -10.0)
        for x in (4.0, 1e3, 1e9):
            assert apply_pointwise(spec, [f], x) == pytest.approx(1023.0 * x ** -10.0, rel=1e-12)
            assert img.value(x) == pytest.approx(1023.0 * x ** -10.0, rel=1e-9)

    @pytest.mark.parametrize("f", [
        PiecewisePowerFunction.single_power(1.0, -1.2),  # divergent at c != 0
        PiecewisePowerFunction.single_power(1.0, 0.5, 0.5, 2.0),
        MIXED,  # a LogInterp segment takes the quadrature path
    ], ids=["divergent", "plain", "quadrature"])
    def test_zero_kernel_gives_the_zero_image(self, f):
        spec = from_hardy_littlewood(PowerMap(0.0, 0.0))
        assert spec.kernel.c == 0.0
        for x in (0.3, 1.0, 4.0):
            assert apply_pointwise(spec, [f], x) == 0.0
        img = apply_on_grid(spec, [f])
        assert all(img.value(x) == 0.0 for x in (0.3, 1.0, 4.0))


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
