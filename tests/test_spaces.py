import math
import re
from pathlib import Path

import pytest

from hausnorm import _quad, luxemburg, spaces
from hausnorm.config import load_config
from hausnorm.exponents import Constant, LogInterp, PowerWeight, ball_measure
from hausnorm.harness import random_test_functions, spaces_for_constant
from hausnorm.hausdorff import apply_on_grid
from hausnorm.luxemburg import (
    ExponentExpr,
    PiecewisePowerFunction,
    Region,
    Segment,
    luxemburg_norm,
    weighted_vexp_norm,
)
from hausnorm.spaces import (
    NormReport,
    SpaceSpec,
    central_morrey_norm,
    herz_norm,
    morrey_herz_norm,
    shell_norm,
)

from conftest import midpoint_radial, seeded, snapped_edges

HERZ_A03 = Path(__file__).parents[1] / "perfbench" / "configs" / "herz_a03.json"

ALPHA0 = Constant(0.0, signed=True)
ALPHA1 = Constant(1.0, signed=True)

CHI_SHELL0 = PiecewisePowerFunction.single_power(1.0, 0.0, 0.5, 1.0)
CHI_SHELL1 = PiecewisePowerFunction.single_power(1.0, 0.0, 1.0, 2.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["gamma", "lam", "p_outer", "gamma_outer"])
def test_space_parameters_are_finite(name, value):
    # an infinite p_outer would make every Herz norm (sum of shells)^0 = 1
    with pytest.raises(ValueError, match="must be finite"):
        SpaceSpec("herz", 1, Constant(2.0), alpha=ALPHA0, **{name: value})


@pytest.mark.parametrize("gamma", [math.nan, -math.inf])
def test_weight_power_is_finite(gamma):
    with pytest.raises(ValueError, match="gamma must be finite"):
        PowerWeight(gamma, 1)


def random_compact(rng, n_seg=3):
    edges = sorted(2.0 ** rng.uniform(-5.0, 5.0) for _ in range(n_seg + 1))
    segs = []
    for lo, hi in zip(edges, edges[1:]):
        if hi <= lo * (1 + 1e-9):
            continue
        segs.append((lo, hi, rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)))
    from hausnorm.luxemburg import ExponentExpr, Segment

    return PiecewisePowerFunction(
        tuple(Segment(lo, hi, c, ExponentExpr(a)) for lo, hi, c, a in segs)
    )


class TestShellNorm:
    def test_single_shell(self):
        spec = SpaceSpec("herz", 1, Constant(2.0), alpha=ALPHA0, p_outer=2.0)
        assert shell_norm(CHI_SHELL0, spec, 0) == pytest.approx(1.0)

    def test_disjoint_support(self):
        spec = SpaceSpec("herz", 1, Constant(2.0), alpha=ALPHA0, p_outer=2.0)
        assert shell_norm(CHI_SHELL0, spec, 5) == 0.0

    def test_alpha_multiplier(self):
        spec = SpaceSpec("herz", 1, Constant(2.0), alpha=ALPHA1, p_outer=2.0)
        assert shell_norm(CHI_SHELL1, spec, 1) == pytest.approx(2.0 * math.sqrt(2.0))


class TestHerzNorm:
    def test_single_shell(self):
        spec = SpaceSpec("herz", 1, Constant(2.0), alpha=ALPHA0, p_outer=2.0)
        assert herz_norm(CHI_SHELL0, spec).value == pytest.approx(1.0)

    def test_two_shell_sum(self):
        both = PiecewisePowerFunction(CHI_SHELL0.segments + CHI_SHELL1.segments)
        spec = SpaceSpec("herz", 1, Constant(2.0), alpha=ALPHA1, p_outer=1.0)
        assert herz_norm(both, spec).value == pytest.approx(1.0 + 2.0 * math.sqrt(2.0))

    def test_reduces_to_lebesgue(self):
        # alpha = 0, outer p equal to q: the shell sum rebuilds the full norm
        rng = seeded(13)
        for _ in range(20):
            p = rng.choice([1.5, 2.0, 3.0])
            f = random_compact(rng)
            spec = SpaceSpec("herz", 1, Constant(p), alpha=ALPHA0, p_outer=p)
            lhs = herz_norm(f, spec, (-20, 20)).value
            rhs = luxemburg_norm(f, Constant(p), Region.all(), 1)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_power_weight_identity_band(self):
        # alpha/p against the weighted integral norm: shells cost at most 2^(|alpha|/p)
        rng = seeded(29)
        for _ in range(10):
            p = rng.choice([1.5, 2.0, 3.0])
            alpha = rng.uniform(-1.0, 1.0)
            f = random_compact(rng)
            spec = SpaceSpec(
                "herz", 1, Constant(p),
                alpha=Constant(alpha / p, signed=True), p_outer=p,
            )
            lhs = herz_norm(f, spec, (-20, 20)).value
            direct = weighted_vexp_norm(
                f, Constant(p), PowerWeight(alpha / p, 1), Region.all()
            )
            band = 2.0 ** (abs(alpha) / p)
            assert lhs <= direct * band * (1 + 1e-9)
            assert lhs >= direct / band * (1 - 1e-9)

    def test_truncation_flag_on_slow_tail(self):
        slow = PiecewisePowerFunction.single_power(1.0, -0.51, 1.0, math.inf)
        spec = SpaceSpec("herz", 1, Constant(2.0), alpha=ALPHA0, p_outer=2.0)
        rep = herz_norm(slow, spec, (-10, 10))
        assert "truncation-suspect-high" in rep.flags


class TestMorreyHerz:
    def test_lambda_zero_equals_herz_exactly(self):
        rng = seeded(37)
        for _ in range(5):
            f = random_compact(rng)
            spec_h = SpaceSpec("herz", 1, Constant(2.0), alpha=ALPHA1, p_outer=1.5)
            spec_m = SpaceSpec("morrey_herz", 1, Constant(2.0), alpha=ALPHA1, lam=0.0, p_outer=1.5)
            assert morrey_herz_norm(f, spec_m).value == herz_norm(f, spec_h).value

    def test_single_shell_sup(self):
        spec = SpaceSpec("morrey_herz", 1, Constant(2.0), alpha=ALPHA0, lam=0.5, p_outer=2.0)
        rep = morrey_herz_norm(CHI_SHELL0, spec)
        assert rep.value == pytest.approx(1.0)
        assert rep.argmax == 0

    def test_zero_function(self):
        spec = SpaceSpec("morrey_herz", 1, Constant(2.0), alpha=ALPHA0, lam=0.5, p_outer=2.0)
        assert morrey_herz_norm(PiecewisePowerFunction.zero(), spec).value == 0.0

    @pytest.mark.parametrize("k0_range", [(-10, 10), (-14, 6), (-6, 14), (-3, 2), (12, 15)])
    def test_prefix_sums_match_scan(self, k0_range):
        # the sum over k <= k0 of the k_range shells, scanned k by k
        rng = seeded(59)
        f = random_compact(rng)
        spec = SpaceSpec("morrey_herz", 1, Constant(2.0), alpha=ALPHA1, lam=0.2, p_outer=1.5)
        k_range = (-10, 10)
        ks = range(k_range[0], k_range[1] + 1)
        powered = [shell_norm(f, spec, k) ** 1.5 for k in ks]
        scan = [
            2.0 ** (-k0 * spec.lam) * math.fsum(pv for k, pv in zip(ks, powered) if k <= k0) ** (1 / 1.5)
            for k0 in range(k0_range[0], k0_range[1] + 1)
            if k0 >= ks[0]
        ]
        assert morrey_herz_norm(f, spec, k0_range, k_range).value == max(scan, default=0.0)

    @pytest.mark.parametrize("k0_range", [(-60, -50), (-60, -41)])
    def test_k0_window_below_the_shells_raises(self, k0_range):
        # no k0 in the window has a shell k <= k0, so the scan would be
        # empty and read 0 for a nonzero function
        f = PiecewisePowerFunction.single_power(1.0, 0.1, 0.0, 2.0)
        spec = SpaceSpec("morrey_herz", 1, Constant(2.0), alpha=Constant(0.3, signed=True),
                         lam=0.1, p_outer=2.0)
        message = f"k0_range={k0_range} ends below k_range=(-40, 40)"
        with pytest.raises(ValueError, match=re.escape(message)):
            morrey_herz_norm(f, spec, k0_range=k0_range)
        # a window that reaches the lowest shell scans it
        assert morrey_herz_norm(f, spec, k0_range=(-60, -40)).value > 0.0

    def test_monotone_in_window(self):
        rng = seeded(53)
        f = random_compact(rng)
        spec = SpaceSpec("morrey_herz", 1, Constant(2.0), alpha=ALPHA1, lam=0.2, p_outer=2.0)
        small = morrey_herz_norm(f, spec, (-10, 10), (-10, 10)).value
        large = morrey_herz_norm(f, spec, (-20, 20), (-20, 20)).value
        assert large >= small


class TestCentralMorrey:
    def test_power_fixture_closed_form(self):
        spec = SpaceSpec("central_morrey", 1, Constant(2.0), gamma=0.0, lam=-0.1, gamma_outer=0.0)
        f = PiecewisePowerFunction.single_power(1.0, -0.1)
        rep = central_morrey_norm(f, spec)
        expected = 0.5 ** (-0.1) * (1.0 + 2.0 * (-0.1)) ** (-0.5)
        assert rep.value == pytest.approx(expected, rel=1e-9)
        assert rep.argmax is None  # scale-invariant scan is flat

    def test_zero_function(self):
        spec = SpaceSpec("central_morrey", 1, Constant(2.0), lam=-0.1)
        assert central_morrey_norm(PiecewisePowerFunction.zero(), spec).value == 0.0

    def test_constant_exponent_oracle(self):
        # two-weight form with (w, w^(1/q)) against the direct integral norm
        rng = seeded(61)
        for _ in range(10):
            q = rng.choice([1.5, 2.0, 3.0])
            gamma = rng.uniform(-0.5, 1.0)
            lam = rng.uniform(-1.0 / q + 0.05, -0.02)
            a = rng.uniform(-0.05, 0.4)
            f = PiecewisePowerFunction.single_power(1.0, a, 0.0, rng.uniform(0.5, 4.0))
            spec = SpaceSpec(
                "central_morrey", 1, Constant(q),
                gamma=gamma / q, lam=lam, gamma_outer=gamma,
            )
            lib = central_morrey_norm(f, spec, (-30, 30)).value

            def direct():
                # substitution r = t^5 keeps the midpoint rule accurate at
                # the (integrable) singularity of the weight at the origin
                best = 0.0
                w = PowerWeight(gamma, 1)
                for j in range(-30, 31):
                    radius = 2.0**j
                    hi = min(radius, f.support()[1])
                    if hi <= 0:
                        continue
                    integral = 2.0 * midpoint_radial(
                        lambda t: 5.0 * t**4 * f.value(t**5) ** q * (t**5) ** gamma,
                        0.0,
                        hi ** 0.2,
                        4000,
                    )
                    from hausnorm.exponents import ball_measure

                    best = max(
                        best,
                        (integral ** (1.0 / q))
                        / ball_measure(w, radius) ** (1.0 / q + lam),
                    )
                return best

            assert lib == pytest.approx(direct(), rel=1e-4)

    def test_reversed_windows_raise(self):
        f = PiecewisePowerFunction.single_power(1.0, 0.1, 0.0, 8.0)
        herz = SpaceSpec("herz", 1, Constant(2.0), alpha=ALPHA0, p_outer=2.0)
        mh = SpaceSpec("morrey_herz", 1, Constant(2.0), alpha=ALPHA0, lam=0.2, p_outer=2.0)
        cm = SpaceSpec("central_morrey", 1, Constant(2.0), lam=-0.2)
        with pytest.raises(ValueError, match=r"reversed window k_range=\(5, -5\)"):
            herz_norm(f, herz, (5, -5))
        with pytest.raises(ValueError, match=r"reversed window k0_range=\(5, -5\)"):
            morrey_herz_norm(f, mh, k0_range=(5, -5))
        with pytest.raises(ValueError, match=r"reversed window j_range=\(5, -5\)"):
            central_morrey_norm(f, cm, (5, -5))

    def test_monotone_in_grid(self):
        spec = SpaceSpec("central_morrey", 1, Constant(2.0), lam=-0.2)
        f = PiecewisePowerFunction.single_power(1.0, 0.1, 0.0, 8.0)
        small = central_morrey_norm(f, spec, (-5, 5)).value
        large = central_morrey_norm(f, spec, (-10, 10)).value
        assert large >= small


class TestLemmaDecay:
    def test_shell_ratio_band(self):
        # power-law member with variable smoothness index; plain shell norms
        # must track the decay rates dictated by the endpoint values of alpha
        from hausnorm.luxemburg import ExponentExpr, ExprTerm, Segment

        q = Constant(2.0)
        alpha = LogInterp(0.6, 0.2, signed=True)
        lam = 0.3
        expr = ExponentExpr(lam, (ExprTerm(-1.0, q, reciprocal=True), ExprTerm(-1.0, alpha)))
        f = PiecewisePowerFunction((Segment(0.0, math.inf, 1.0, expr),))
        spec = SpaceSpec("morrey_herz", 1, q, alpha=alpha, lam=lam, p_outer=2.0)
        mk = morrey_herz_norm(f, spec).value
        assert 0.0 < mk < math.inf
        w = PowerWeight(0.0, 1)
        ratios = []
        for j in list(range(-40, -4)) + list(range(5, 41)):
            plain = weighted_vexp_norm(f, q, w, Region.shell(j))
            rate = lam - (alpha.p_zero if j <= -5 else alpha.p_infty)
            ratios.append(plain / (2.0 ** (j * rate) * mk))
        assert max(ratios) / min(ratios) < 1e3


# ---------------------------------------------------------------------------
# windowed shell and ball norms against full copies of the function


@pytest.fixture(scope="module")
def herz_image():
    """Image of a seeded random input under the herz_a03 operator, with the
    target space of its upper suite."""
    cfg = load_config(HERZ_A03)
    sources, target = spaces_for_constant(cfg.bound_config(), "C8")
    f = random_test_functions(3, 1, sources[0])[0]
    return apply_on_grid(cfg.operator(), [f]), target


def weighted_copy(f, gamma):
    """f * |x|^gamma copied segment by segment, also for gamma = 0."""
    return PiecewisePowerFunction(tuple(
        Segment(s.r_lo, s.r_hi, s.coef, s.expr.shifted(gamma), s.pow2) for s in f.segments
    ))


def full_copy_shells(f, spec, ks):
    return [
        luxemburg_norm(
            weighted_copy(f.times_pow2(float(k), spec.alpha), spec.gamma),
            spec.q, Region.shell(k), spec.n,
        )
        for k in ks
    ]


def full_copy_herz(f, spec, ks):
    vals = full_copy_shells(f, spec, ks)
    p = spec.p_outer
    return math.fsum(v ** p for v in vals) ** (1.0 / p)


def full_copy_morrey_herz(f, spec, ks):
    p = spec.p_outer
    powered = [v ** p for v in full_copy_shells(f, spec, ks)]
    return max(
        2.0 ** (-k0 * spec.lam) * math.fsum(powered[: i + 1]) ** (1.0 / p)
        for i, k0 in enumerate(ks)
    )


def full_copy_central_morrey(f, spec, js):
    expo = spec.lam + 1.0 / spec.q.p_infty
    return max(
        luxemburg_norm(weighted_copy(f, spec.gamma), spec.q, Region.ball(2.0 ** j), spec.n)
        / ball_measure(spec.outer_weight, 2.0 ** j) ** expo
        for j in js
    )


def full_copy_ball_norms(g, p, radii, n, rel_tol=1e-9):
    """luxemburg.ball_norms as one full-copy Luxemburg norm per ball."""
    copy = PiecewisePowerFunction(g.segments)
    return [luxemburg_norm(copy, p, Region.ball(r), n, rel_tol) for r in radii]


# functions for the central-Morrey matrix besides the herz_a03 image
CM_SOURCES = {
    "snapped_edges": snapped_edges,
    # rows ending 9e-13 below each dyadic radius: inside the snap tolerance,
    # but nine times further from the radius than snapped_edges' ends
    "near_edges": lambda: PiecewisePowerFunction(tuple(
        Segment(2.0 ** j * (1 - 9e-13), 2.0 ** (j + 1) * (1 - 9e-13), 1.0 + 0.1 * j,
                ExponentExpr(0.05 * j))
        for j in range(-6, 6)
    )),
    "zero": PiecewisePowerFunction.zero,
    # every ball up to 2^2 is empty
    "empty_balls": lambda: PiecewisePowerFunction.single_power(1.3, 0.2, 4.0, 8.0),
    # |x|^-1 on (0, 1): every ball's restricted norm diverges at 0
    "divergent": lambda: PiecewisePowerFunction.single_power(1.0, -1.0, 0.0, 1.0),
}


HERZ_SPECS = {
    "constant_alpha": dict(alpha=Constant(0.3, signed=True)),
    "loginterp_alpha": dict(alpha=LogInterp(0.6, 0.2, signed=True)),
    "gamma": dict(alpha=Constant(0.3, signed=True), gamma=0.3),
}


def _segments(*rows):
    return PiecewisePowerFunction(tuple(
        Segment(lo, hi, c, ExponentExpr(a)) for lo, hi, c, a in rows
    ))


# functions whose nonzero hull ends, or whose gaps, fall on or near shells
HULL_SOURCES = {
    "zero_rows_outside": lambda: _segments(
        (2.0 ** -9, 2.0 ** -6, 0.0, 0.4), (2.0 ** -3, 2.0, 1.2, 0.3),
        (2.0, 4.0, 0.7, -0.4), (2.0 ** 5, 2.0 ** 8, 0.0, 0.1)),
    # nothing between 2^-3 and 2^3: six whole shells
    "gap": lambda: _segments((2.0 ** -4, 2.0 ** -3, 1.0, 0.2), (2.0 ** 3, 12.0, 0.8, -0.3)),
    "ends_above_edges": lambda: _segments(
        (0.25 * (1 + 1e-13), 1.0, 1.1, 0.2), (1.0, 8.0 * (1 + 1e-13), 0.9, -0.1)),
    "ends_below_edges": lambda: _segments(
        (0.25 * (1 - 1e-13), 1.0, 1.1, 0.2), (1.0, 8.0 * (1 - 1e-13), 0.9, -0.1)),
    "from_zero_to_inf": lambda: _segments(
        (0.0, 2.0 ** -5, 1.0, 0.5), (2.0 ** 4, math.inf, 1.0, -2.0)),
    "zero": PiecewisePowerFunction.zero,
}

HULL_ALPHAS = {
    "constant_alpha": Constant(0.3, signed=True),
    "loginterp_alpha": LogInterp(0.6, 0.2, signed=True),
}


class TestWindowedNormsBitIdentical:
    @pytest.mark.parametrize("case", sorted(HERZ_SPECS))
    @pytest.mark.parametrize("source", ["image", "snapped_edges"])
    def test_herz_and_morrey_herz(self, herz_image, case, source):
        f = herz_image[0] if source == "image" else snapped_edges()
        ks = range(-40, 41) if source == "image" else range(-10, 11)
        k_range = (ks[0], ks[-1])
        herz = SpaceSpec("herz", 1, Constant(2.0), p_outer=2.0, **HERZ_SPECS[case])
        rep = herz_norm(f, herz, k_range)
        assert 0.0 < rep.value < math.inf
        assert rep.value == full_copy_herz(f, herz, ks)
        mh = SpaceSpec("morrey_herz", 1, Constant(2.0), lam=0.2, p_outer=2.0, **HERZ_SPECS[case])
        assert morrey_herz_norm(f, mh, k_range, k_range).value == full_copy_morrey_herz(f, mh, ks)

    @pytest.mark.parametrize("alpha", sorted(HULL_ALPHAS))
    @pytest.mark.parametrize("q", [Constant(2.0), LogInterp(3.0, 2.0)], ids=["q2", "q_loginterp"])
    @pytest.mark.parametrize("source", sorted(HULL_SOURCES))
    def test_shells_outside_the_hull(self, source, q, alpha):
        """Shells skipped outside the nonzero hull are the 0.0 the every-shell
        scan computes, so the norms match it bit for bit."""
        f = HULL_SOURCES[source]()
        ks = range(-12, 13)
        k_range = (ks[0], ks[-1])
        herz = SpaceSpec("herz", 1, q, alpha=HULL_ALPHAS[alpha], p_outer=2.0)
        scan = full_copy_shells(f, herz, ks)
        assert spaces._shell_values(f, herz, k_range, 1e-9) == scan
        assert (max(scan) > 0.0) == (source != "zero")
        assert herz_norm(f, herz, k_range).value == full_copy_herz(f, herz, ks)
        mh = SpaceSpec("morrey_herz", 1, q, alpha=HULL_ALPHAS[alpha], lam=0.2, p_outer=2.0)
        assert morrey_herz_norm(f, mh, k_range, k_range).value == full_copy_morrey_herz(f, mh, ks)

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("source", ["image", "snapped_edges"])
    def test_central_morrey(self, herz_image, gamma, source):
        f = herz_image[0] if source == "image" else snapped_edges()
        spec = SpaceSpec("central_morrey", 1, Constant(2.0), gamma=gamma, lam=-0.2)
        rep = central_morrey_norm(f, spec)
        assert 0.0 < rep.value < math.inf
        assert rep.value == full_copy_central_morrey(f, spec, range(-40, 41))

    @pytest.mark.parametrize("window", [(-40, 40), (-5, 5)])
    @pytest.mark.parametrize("gamma, gamma_outer", [(-0.2, None), (0.0, None), (0.3, 0.5)])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("source", ["image", *CM_SOURCES])
    def test_central_morrey_matrix(self, herz_image, monkeypatch, source, q, gamma,
                                   gamma_outer, window):
        f = herz_image[0] if source == "image" else CM_SOURCES[source]()
        spec = SpaceSpec("central_morrey", 1, Constant(q), gamma=gamma, lam=-0.2,
                         gamma_outer=gamma_outer)
        rep = central_morrey_norm(f, spec, window)
        assert rep.value == full_copy_central_morrey(f, spec, range(window[0], window[1] + 1))
        if source == "divergent":
            assert rep == NormReport(math.inf, ("restricted-norm-infinite",))
        # flags and argmax as the per-ball values give them
        monkeypatch.setattr(spaces, "ball_norms", full_copy_ball_norms)
        assert central_morrey_norm(f, spec, window) == rep

    def test_central_morrey_one_pass(self, herz_image, monkeypatch):
        calls = {"luxemburg_norm": 0, "log_power_integrals": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(luxemburg, "luxemburg_norm")
        counted(_quad, "log_power_integrals")
        spec = SpaceSpec("central_morrey", 1, Constant(2.0), gamma=0.3, lam=-0.2)
        assert 0.0 < central_morrey_norm(herz_image[0], spec).value < math.inf
        assert calls == {"luxemburg_norm": 0, "log_power_integrals": 1}
        # a variable q keeps one Luxemburg norm per ball
        f = snapped_edges()
        spec = SpaceSpec("central_morrey", 1, LogInterp(3.0, 2.0), gamma=0.3, lam=-0.2)
        value = central_morrey_norm(f, spec, (-10, 10)).value
        assert calls["luxemburg_norm"] == 21
        assert value == full_copy_central_morrey(f, spec, range(-10, 11))

    def test_herz_norm_builds_only_window_segments(self, herz_image, monkeypatch):
        g, spec = herz_image
        ks = range(-40, 41)
        window_total = sum(len(g.window(Region.shell(k)).segments) for k in ks)
        assert window_total < 2 * len(g.segments)
        built = []
        inner = Segment.__post_init__

        def counted(seg):
            built.append(1)
            inner(seg)

        monkeypatch.setattr(Segment, "__post_init__", counted)
        herz_norm(g, spec)
        assert len(built) <= window_total + 4 * len(ks)

    def test_shell_norm_called_only_inside_the_hull(self, herz_image, monkeypatch):
        called = []
        inner = spaces.shell_norm

        def counted(f, spec, k, rel_tol=1e-9):
            called.append(k)
            return inner(f, spec, k, rel_tol)

        monkeypatch.setattr(spaces, "shell_norm", counted)
        spec = SpaceSpec("herz", 1, Constant(2.0), alpha=Constant(0.3, signed=True), p_outer=2.0)
        # nonzero on (4, 8]: only the shell k = 3
        f = PiecewisePowerFunction.single_power(1.3, 0.2, 4.0, 8.0)
        assert herz_norm(f, spec, (-40, 40)).value > 0.0
        assert called == [3]
        called.clear()
        # zero rows on (2^-9, 2^-6) and (2^5, 2^8) widen no hull
        herz_norm(HULL_SOURCES["zero_rows_outside"](), spec, (-40, 40))
        assert called == [-2, -1, 0, 1, 2]
        called.clear()
        assert herz_norm(PiecewisePowerFunction.zero(), spec, (-40, 40)).value == 0.0
        assert called == []
        g, target = herz_image
        live = g.coef != 0.0
        lo, hi = g.lo[live].min(), g.hi[live].max()
        meet = [k for k in range(-40, 41) if 2.0 ** k > lo and 2.0 ** (k - 1) < hi]
        assert 0 < len(meet) < 81
        herz_norm(g, target, (-40, 40))
        assert called == meet
