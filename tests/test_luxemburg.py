import math
import statistics
import warnings
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hausnorm import luxemburg
from hausnorm.config import load_config
from hausnorm.exponents import (
    Constant,
    Infinite,
    LogInterp,
    PiecewiseRadial,
    PowerWeight,
    difference_reciprocal,
    pullback_exponent,
)
from hausnorm.harness import random_test_functions
from hausnorm.luxemburg import (
    ExponentExpr,
    ExprTerm,
    PiecewisePowerFunction,
    Region,
    Segment,
    luxemburg_norm,
    modular,
    norm_of_one,
    weighted_vexp_norm,
)
from hausnorm.spaces import SpaceSpec

from conftest import closed_form_log, midpoint_radial, seeded, snapped_edges

FIXTURES = Path(__file__).parent / "fixtures"

CHI_UNIT = PiecewisePowerFunction.single_power(1.0, 0.0, 0.0, 1.0)

# golden value for the unit-ball indicator against LogInterp(3, 2),
# frozen from the eta-scan oracle below
LOGINTERP_UNIT_NORM = 1.2739053164545030


def scan_oracle_norm(p_fn, r_hi=1.0, step=1e-6):
    """Independent eta-scan oracle: Simpson modular, coarse-to-fine scan."""

    def modular_at(eta):
        return 2.0 * midpoint_radial(lambda r: (1.0 / eta) ** p_fn(r), 0.0, r_hi, 4000)

    lo, hi = 1.0, 2.0
    while hi - lo > step:
        mid = 0.5 * (lo + hi)
        if modular_at(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


class TestModular:
    def test_zero_function(self):
        assert modular(PiecewisePowerFunction.zero(), Constant(2.0), Region.all(), 1) == 0.0

    def test_unit_ball_indicator(self):
        assert modular(CHI_UNIT, Constant(2.0), Region.all(), 1) == pytest.approx(2.0)

    def test_linear_cube(self):
        g = PiecewisePowerFunction.single_power(1.0, 1.0, 0.0, 1.0)
        assert modular(g, Constant(3.0), Region.all(), 1) == pytest.approx(0.5)

    def test_divergent_tail_reported(self):
        g = PiecewisePowerFunction.one()
        assert modular(g, Constant(2.0), Region.all(), 1) == math.inf

    def test_region_restriction(self):
        g = PiecewisePowerFunction.one()
        assert modular(g, Constant(2.0), Region.ball(1.0), 1) == pytest.approx(2.0)


class TestLuxemburgNorm:
    def test_zero(self):
        assert luxemburg_norm(PiecewisePowerFunction.zero(), Constant(2.0), Region.all(), 1) == 0.0

    def test_unit_ball_indicator(self):
        val = luxemburg_norm(CHI_UNIT, Constant(2.0), Region.all(), 1)
        assert val == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_log_interp_golden(self):
        val = luxemburg_norm(CHI_UNIT, LogInterp(3.0, 2.0), Region.all(), 1)
        assert val == pytest.approx(LOGINTERP_UNIT_NORM, abs=2e-6)

    def test_log_interp_certificate(self):
        p = LogInterp(3.0, 2.0)
        eta = luxemburg_norm(CHI_UNIT, p, Region.all(), 1)
        assert modular(CHI_UNIT.scaled(1.0 / eta), p, Region.all(), 1) <= 1.0 + 1e-12
        shrunk = eta * (1 - 1e-9)
        assert modular(CHI_UNIT.scaled(1.0 / shrunk), p, Region.all(), 1) >= 1.0 - 1e-9

    def test_scan_oracle_agrees(self):
        oracle = scan_oracle_norm(LogInterp(3.0, 2.0))
        lib = luxemburg_norm(CHI_UNIT, LogInterp(3.0, 2.0), Region.all(), 1)
        assert lib == pytest.approx(oracle, abs=5e-6)

    def test_infinite_norm(self):
        assert luxemburg_norm(PiecewisePowerFunction.one(), Constant(2.0), Region.all(), 1) == math.inf

    def test_homogeneity(self):
        rng = seeded(11)
        p = LogInterp(2.5, 2.0)
        for _ in range(50):
            c = rng.uniform(0.01, 50.0)
            a = rng.uniform(-0.4, 1.0)
            g = PiecewisePowerFunction.single_power(rng.uniform(0.1, 2.0), a, 0.25, 3.0)
            base = luxemburg_norm(g, p, Region.all(), 1)
            scaled = luxemburg_norm(g.scaled(c), p, Region.all(), 1)
            assert scaled == pytest.approx(c * base, rel=1e-9)

    def test_modular_monotone_in_eta(self):
        p = LogInterp(3.0, 2.0)
        vals = [
            modular(CHI_UNIT.scaled(1.0 / eta), p, Region.all(), 1)
            for eta in [0.5, 0.8, 1.0, 1.3, 2.0, 4.0]
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestWeightedNorm:
    def test_unweighted_matches(self):
        w = PowerWeight(0.0, 1)
        assert weighted_vexp_norm(CHI_UNIT, Constant(2.0), w, Region.all()) == pytest.approx(
            luxemburg_norm(CHI_UNIT, Constant(2.0), Region.all(), 1)
        )

    def test_gamma_two_closed_form(self):
        w = PowerWeight(2.0, 1)
        val = weighted_vexp_norm(CHI_UNIT, Constant(2.0), w, Region.all())
        assert val == pytest.approx(math.sqrt(2.0 / 5.0), rel=1e-12)

    def test_lp_weight_relation(self):
        # for constant p: norm in L^p with weight w^(1/p) equals (int |f|^p w)^(1/p)
        rng = seeded(23)
        for _ in range(10):
            p = rng.choice([1.5, 2.0, 3.0])
            gamma = rng.uniform(-0.4, 1.2)
            a = rng.uniform(-0.2, 1.0)
            c = rng.uniform(0.2, 2.0)
            lo, hi = sorted(rng.uniform(0.1, 4.0) for _ in range(2))
            if hi - lo < 0.05:
                continue
            f = PiecewisePowerFunction.single_power(c, a, lo, hi)
            w = PowerWeight(gamma / p, 1)
            lib = weighted_vexp_norm(f, Constant(p), w, Region.all())
            direct = (
                2.0 * midpoint_radial(lambda r: (c * r**a) ** p * r**gamma, lo, hi)
            ) ** (1.0 / p)
            assert lib == pytest.approx(direct, rel=1e-6)


class TestNormOfOne:
    def test_everywhere_infinite(self):
        assert norm_of_one(Infinite(), Region.all(), 1) == 1.0

    def test_constant_on_ball(self):
        assert norm_of_one(Constant(2.0), Region.ball(1.0), 1) == pytest.approx(math.sqrt(2.0))

    def test_constant_on_all_diverges(self):
        assert norm_of_one(Constant(2.0), Region.all(), 1) == math.inf


class TestPaperBracketing:
    """If the modular of f is C, the norm sits between min/max of C^(1/p+-)."""

    def test_bracketing_random(self):
        rng = seeded(5)
        p = LogInterp(3.0, 2.0)
        lo_p, hi_p = p.p_minus, p.p_plus
        for _ in range(60):
            c = rng.uniform(0.05, 5.0)
            a = rng.uniform(-0.4, 1.2)
            u, v = sorted(rng.uniform(0.05, 6.0) for _ in range(2))
            if v - u < 0.05:
                continue
            f = PiecewisePowerFunction.single_power(c, a, u, v)
            C = modular(f, p, Region.all(), 1)
            norm = luxemburg_norm(f, p, Region.all(), 1)
            upper = max(C ** (1 / lo_p), C ** (1 / hi_p))
            lower = min(C ** (1 / lo_p), C ** (1 / hi_p))
            assert norm <= upper * (1 + 1e-9)
            assert norm >= lower * (1 - 1e-9)


class TestHolderAndEmbedding:
    def test_constant_exponent_holder(self):
        rng = seeded(31)
        for _ in range(200):
            q1 = rng.uniform(1.5, 6.0)
            q2 = rng.uniform(1.5, 6.0)
            q = 1.0 / (1.0 / q1 + 1.0 / q2)
            u, v = sorted(rng.uniform(0.05, 5.0) for _ in range(2))
            if v - u < 0.02:
                continue
            f = PiecewisePowerFunction.single_power(rng.uniform(0.1, 2), rng.uniform(-0.3, 1), u, v)
            g = PiecewisePowerFunction.single_power(rng.uniform(0.1, 2), rng.uniform(-0.3, 1), u, v)
            lhs = luxemburg_norm(f.multiply(g), Constant(q, signed=True), Region.all(), 1)
            rhs = luxemburg_norm(f, Constant(q1), Region.all(), 1) * luxemburg_norm(
                g, Constant(q2), Region.all(), 1
            )
            assert lhs <= rhs * (1 + 1e-9)

    def test_constant_exponent_embedding(self):
        # on a ball, q < p embeds with constant ||1||_r, r from the exponent gap
        rng = seeded(17)
        region = Region.ball(2.0)
        for _ in range(100):
            p_v = rng.uniform(2.2, 5.0)
            q_v = rng.uniform(1.3, p_v - 0.5)
            r_v = 1.0 / (1.0 / q_v - 1.0 / p_v)
            u, v = sorted(rng.uniform(0.01, 2.0) for _ in range(2))
            if v - u < 0.02:
                continue
            f = PiecewisePowerFunction.single_power(rng.uniform(0.1, 3), rng.uniform(-0.2, 1), u, v)
            nq = luxemburg_norm(f, Constant(q_v), region, 1)
            np_ = luxemburg_norm(f, Constant(p_v), region, 1)
            none = norm_of_one(Constant(r_v, signed=True), region, 1)
            assert nq <= 2.0 * none * np_ * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(min_value=0.05, max_value=20.0),
    a=st.floats(min_value=-0.45, max_value=1.5),
    p=st.floats(min_value=1.1, max_value=6.0),
)
def test_single_power_norm_closed_form(c, a, p):
    """Library norm against the hand closed form for powers on [1, 2]."""
    f = PiecewisePowerFunction.single_power(c, a, 1.0, 2.0)
    beta = a * p
    if abs(beta + 1.0) < 1e-6:
        expected = (c**p * 2.0 * math.log(2.0)) ** (1.0 / p)
    else:
        expected = (c**p * 2.0 * (2.0 ** (beta + 1) - 1.0) / (beta + 1.0)) ** (1.0 / p)
    val = luxemburg_norm(f, Constant(p, signed=True), Region.all(), 1)
    assert val == pytest.approx(expected, rel=1e-10)


class TestRegions:
    def test_shell_matches_dyadic(self):
        r = Region.shell(3)
        assert r.r_lo == 4.0 and r.r_hi == 8.0

    def test_segment_snap_at_shell_boundary(self):
        seg = Segment(0.5 * (1 + 1e-14), 1.0, 1.0, ExponentExpr(0.0))
        f = PiecewisePowerFunction((seg,))
        pieces = list(f.pieces_in(Region.shell(0)))
        assert len(pieces) == 1
        _, lo, hi = pieces[0]
        assert lo == pytest.approx(0.5) and hi == 1.0


class TestWindow:
    def regions(self):
        out = [Region.shell(k) for k in range(-9, 10)]
        out += [Region.ball(2.0 ** j) for j in range(-9, 10)]
        return out + [Region.all(), Region.annulus(0.3, 0.7), Region.annulus(1e3, math.inf)]

    def test_pieces_match_whole_function(self):
        rng = seeded(17)
        fs = [snapped_edges()] + [random_piecewise(rng) for _ in range(20)]
        for f in fs:
            for region in self.regions():
                win = f.window(region)
                assert set(win.segments) <= set(f.segments)
                assert list(win.pieces_in(region)) == list(f.pieces_in(region))

    def test_window_is_narrow(self):
        f = snapped_edges()
        for k in range(-5, 6):
            assert len(f.window(Region.shell(k)).segments) <= 3

    def test_starts_are_cached_not_compared(self):
        f = snapped_edges()
        assert f.starts == tuple(s.r_lo for s in f.segments)
        assert "starts" not in repr(f)
        assert f == PiecewisePowerFunction(tuple(reversed(f.segments)))
        for r in (0.01, 2.0 ** -6 * (1 + 2e-13), 0.75, 1.0, 3.0, 100.0):
            hits = [s for s in f.segments if s.r_lo <= r < s.r_hi]
            assert f.segment_at(r) in (hits or [None])


# ---------------------------------------------------------------------------
# the column storage against the per-segment definitions

SNAP = luxemburg._SNAP
LOG_Q = LogInterp(3.0, 2.0)


def row_segment(kind, lo, hi, coef, expo):
    """A plain row, or a side row: exponent terms (variable or constant) or
    a pow2 factor."""
    if kind == "terms":
        return Segment(lo, hi, coef, ExponentExpr(expo, (ExprTerm(-1.0, LOG_Q, True),)))
    if kind == "constant_term":
        return Segment(lo, hi, coef, ExponentExpr(expo, (ExprTerm(0.5, Constant(2.0)),)))
    if kind == "pow2":
        return Segment(lo, hi, coef, ExponentExpr(expo), ((1.0, LOG_Q),))
    return Segment(lo, hi, coef, ExponentExpr(expo))


@st.composite
def mixed_segments(draw):
    """2-7 disjoint rows on dyadic-ish edges, some touching, some with gaps,
    the first possibly from 0 and the last possibly to infinity, each plain
    or a side row, with a zero coefficient now and then; shuffled."""
    quarters = sorted(draw(st.lists(st.integers(-24, 24), min_size=3, max_size=8, unique=True)))
    edges = [2.0 ** (j / 4) for j in quarters]
    if draw(st.booleans()):
        edges[0] = 0.0
    if draw(st.booleans()):
        edges[-1] = math.inf
    segs = []
    for lo, hi in zip(edges, edges[1:]):
        if segs and draw(st.integers(0, 3)) == 0:
            continue  # a gap
        kind = draw(st.sampled_from(["plain", "plain", "terms", "constant_term", "pow2"]))
        coef = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
        segs.append(row_segment(kind, lo, hi, coef, draw(st.floats(-1.5, 1.5))))
    return draw(st.permutations(segs))


def regions_of(segs):
    """Shells, balls and annuli, some with ends within the snap tolerance of
    a segment edge."""
    out = [Region.all(), Region.shell(0), Region.shell(3), Region.ball(0.7),
           Region.annulus(0.05, 20.0)]
    for s in segs[:3]:
        if 0.0 < s.r_lo and math.isfinite(s.r_hi):
            out.append(Region.annulus(s.r_lo * (1 + 3e-13), s.r_hi * (1 - 3e-13)))
            out.append(Region.annulus(s.r_lo * (1 - 3e-13), s.r_hi * (1 + 3e-13)))
            out.append(Region.ball(s.r_hi * (1 + 3e-13)))
    return out


def pieces_oracle(segs, region):
    """pieces_in as the per-segment loop it replaced."""
    for s in segs:
        if s.coef == 0.0:
            continue
        lo, hi = max(s.r_lo, region.r_lo), min(s.r_hi, region.r_hi)
        if hi <= lo * (1 + SNAP) and not (lo == 0.0 and hi > 0.0):
            continue
        if lo > 0 and abs(lo - region.r_lo) <= SNAP * region.r_lo:
            lo = region.r_lo
        if math.isfinite(hi) and region.r_hi > 0 and math.isfinite(region.r_hi):
            if abs(hi - region.r_hi) <= SNAP * region.r_hi:
                hi = region.r_hi
        if hi > lo:
            yield s, lo, hi


def window_oracle(segs, region):
    starts = [s.r_lo for s in segs]
    i = max(bisect_right(starts, region.r_lo * (1 - 4 * SNAP)) - 1, 0)
    return segs[i:bisect_left(starts, region.r_hi)]


def piece_log_value(seg, u, v, p, n):
    """ln of one quadrature row's modular at eta = 1 for a constant, finite
    p, by _quad.radial_integral on that row alone; +inf if it diverges."""
    q = p.p_zero
    a0, a_inf = seg.exponent_limits()
    res = luxemburg._quad.radial_integral(
        lambda s: n * s + q * seg.log_amplitude_s(s), u, v, n - 1 + a0 * q, n - 1 + a_inf * q,
        seg.discontinuities())
    return res.log_value


def constant_p_oracle(segs, region, p, n=1):
    """The constant-p norm summed one Segment at a time: the scalar closed
    form where it applies, a radial_integral of its own otherwise."""
    logs = []
    for seg, u, v in pieces_oracle(segs, region):
        closed = closed_form_log(seg, u, v, p, n)
        logs.append(closed if closed is not None else piece_log_value(seg, u, v, p, n))
    if not logs:
        return 0.0
    if math.inf in logs:
        return math.inf
    m, ln_m = luxemburg._log_sum(logs, 2.0)
    return m ** (1.0 / p.p_zero) if m is not None else math.exp(ln_m / p.p_zero)


def assert_expo_column(g):
    """expo is finite exactly on the rows that are plain powers, and there
    it is the row's exponent, bit for bit."""
    for b, seg in zip(g.expo.tolist(), g.segments):
        if seg.plain_power:
            assert b.hex() == seg.expr(1.0).hex()
        else:
            assert math.isnan(b)


def plain_twin(g):
    """g with every side row that is a plain power written as one."""
    return PiecewisePowerFunction(tuple(
        Segment(s.r_lo, s.r_hi, s.coef, ExponentExpr(s.expr(1.0))) if s.plain_power else s
        for s in g.segments))


class TestColumns:
    @settings(max_examples=150, deadline=None)
    @given(segs=mixed_segments())
    def test_segments_round_trip(self, segs):
        f = PiecewisePowerFunction(segs)
        ordered = tuple(sorted(segs, key=lambda s: s.r_lo))
        assert f.segments == ordered and f.starts == tuple(s.r_lo for s in ordered)
        assert set(f.side) == {i for i, s in enumerate(ordered) if s.expr.terms or s.pow2}
        # a side row with a constant exponent and no pow2 factor is plain
        assert_expo_column(f)
        # rebuilt from the columns and side rows
        again = f.scaled(1.0)
        assert again.segments == ordered and again == f and hash(again) == hash(f)
        for r in (0.0, 0.3, 1.0, 7.0, 1e3):
            hits = [s for s in ordered if s.r_lo <= r < s.r_hi]
            assert again.segment_at(r) in (hits or [None])
            assert again.value(r) == f.value(r)

    @settings(max_examples=150, deadline=None)
    @given(segs=mixed_segments(), c=st.sampled_from([0.0, 0.5, 3.0, 1e150]),
           gamma=st.sampled_from([0.0, -0.7, 0.25]), m=st.sampled_from([-2.0, 0.0, 3.0]),
           a=st.floats(-1.0, 1.0))
    def test_algebra_matches_segment_definitions(self, segs, c, gamma, m, a):
        f = PiecewisePowerFunction(segs)
        rows = f.segments

        def per_segment(fn):
            return PiecewisePowerFunction(tuple(fn(s) for s in rows))

        assert f.scaled(c) == per_segment(
            lambda s: Segment(s.r_lo, s.r_hi, c * s.coef, s.expr, s.pow2))
        assert f.weighted(gamma) == per_segment(
            lambda s: Segment(s.r_lo, s.r_hi, s.coef, s.expr.shifted(gamma), s.pow2))
        fold = 2.0 ** (m * a)
        assert f.times_pow2(m, Constant(a, signed=True)) == per_segment(
            lambda s: Segment(s.r_lo, s.r_hi, s.coef * fold, s.expr, s.pow2))
        assert f.times_pow2(m, LOG_Q) == per_segment(
            lambda s: Segment(s.r_lo, s.r_hi, s.coef, s.expr, s.pow2 + ((m, LOG_Q),)))
        # the columns agree with the segments they derive
        for g in (f.scaled(c), f.weighted(gamma), f.times_pow2(m, LOG_Q),
                  f.times_pow2(m, Constant(a, signed=True))):
            assert g.coef.tolist() == [s.coef for s in g.segments]
            assert g.lo.tolist() == [s.r_lo for s in g.segments]
            assert_expo_column(g)

    @settings(max_examples=150, deadline=None)
    @given(segs=mixed_segments(), k=st.integers(-3, 3))
    def test_window_and_pieces_match_segment_loops(self, segs, k):
        f = PiecewisePowerFunction(segs)
        rows = f.segments
        for region in regions_of(rows):
            win = f.window(region)
            assert win.segments == window_oracle(rows, region)
            assert_expo_column(win)
            want = list(pieces_oracle(rows, region))
            assert list(f.pieces_in(region)) == want
            assert list(win.pieces_in(region)) == want
            # side rows keep their place through window, times_pow2 and weighted
            chained = win.times_pow2(float(k), Constant(0.3, signed=True)).weighted(0.2)
            assert chained.segments == tuple(
                Segment(s.r_lo, s.r_hi, s.coef * 2.0 ** (k * 0.3), s.expr.shifted(0.2), s.pow2)
                for s in window_oracle(rows, region)
            )
            assert_expo_column(chained)

    @settings(max_examples=40, deadline=None)
    @given(segs=mixed_segments(), q=st.sampled_from([1.5, 2.0, 3.0]))
    def test_constant_p_norm_matches_segment_sum(self, segs, q):
        f = PiecewisePowerFunction(segs)
        for region in (Region.all(), Region.annulus(0.05, 20.0)):
            want = constant_p_oracle(f.segments, region, Constant(q))
            got = luxemburg_norm(f, Constant(q), region, 1)
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_constant_p_norm_is_the_root_of_the_modular(self, q):
        # one modular path: the closed-form norm is the modular's own p-th
        # root, bit for bit
        p, region = Constant(q), Region.all()
        for f in random_test_functions(3, 200, SpaceSpec("lebesgue", 1, Constant(2.0))):
            assert luxemburg_norm(f, p, region, 1) == modular(f, p, region, 1) ** (1.0 / q)

    @settings(max_examples=60, deadline=None)
    @given(segs=mixed_segments(), shift=st.floats(0.05, 0.95))
    def test_errors_unchanged(self, segs, shift):
        f = PiecewisePowerFunction(segs)
        rows = f.segments
        s = rows[0]
        hi = s.r_hi if math.isfinite(s.r_hi) else s.r_lo + 1.0
        intruder = Segment(s.r_lo + shift * (hi - s.r_lo), hi + 1.0, 1.0)
        with pytest.raises(ValueError, match="segments overlap"):
            PiecewisePowerFunction(rows + (intruder,))
        with pytest.raises(ValueError, match="nonnegative scalings"):
            f.scaled(-shift)
        with pytest.raises(ValueError, match="coefficient must be nonnegative"):
            Segment(s.r_lo, s.r_hi, -shift, s.expr, s.pow2)

    @pytest.mark.parametrize("lo, hi, coef", [
        ([2.0, 1.0], [3.0, 2.0], [1.0, 1.0]),  # unsorted
        ([1.0, 1.5], [2.0, 3.0], [1.0, 1.0]),  # overlapping
        ([1.0, 2.0], [2.0, 2.0], [1.0, 1.0]),  # empty row
        ([1.0, 2.0], [2.0, 3.0], [1.0, -1.0]),  # negative coefficient
    ])
    def test_from_columns_checks_rows(self, lo, hi, coef):
        with pytest.raises(ValueError, match="sorted without overlap"):
            PiecewisePowerFunction.from_columns(*map(np.array, (lo, hi, coef, [0.0, 0.0])))

    @pytest.mark.parametrize("coef, expo", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)])
    def test_from_columns_values_are_finite(self, coef, expo):
        with pytest.raises(ValueError, match="0 <= coef < inf, finite expo"):
            PiecewisePowerFunction.from_columns(
                *map(np.array, ([1.0, 2.0], [2.0, 3.0], [1.0, coef], [0.0, expo])))

    @pytest.mark.parametrize("coef, expo", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)])
    def test_segment_values_are_finite(self, coef, expo):
        with pytest.raises(ValueError, match="coefficient must be nonnegative and finite"):
            Segment(1.0, 2.0, coef, ExponentExpr(expo))


class TestStructuredTwin:
    """A side row whose exponent is constant, without pow2 factors, has its
    exponent in expo, so g and its plain twin have the same columns and
    the same norms, bit for bit."""

    TWIN = PiecewisePowerFunction.power_with_terms(
        1.3, 1.0, (ExprTerm(-1.0, Constant(2.0), reciprocal=True),), 0.5, 2.0)

    @pytest.mark.parametrize("q", [Constant(2.0), Constant(1.5), LOG_Q], ids=str)
    def test_single_row(self, q):
        g, twin = self.TWIN, PiecewisePowerFunction.single_power(1.3, 0.5, 0.5, 2.0)
        assert g.side and g.expo.tobytes() == twin.expo.tobytes()
        for region in (Region.all(), Region.ball(1.0), Region.annulus(0.7, 1.5)):
            assert luxemburg_norm(g, q, region, 1) == luxemburg_norm(twin, q, region, 1)
        radii = [0.6, 1.0, 2.0 * (1 - 1e-13), 2.0, 8.0]
        assert luxemburg.ball_norms(g, q, radii, 1) == luxemburg.ball_norms(twin, q, radii, 1)

    @settings(max_examples=30, deadline=None)
    @given(segs=mixed_segments(), q=st.sampled_from([Constant(2.0), Constant(3.0), LOG_Q]))
    def test_mixed_rows(self, segs, q):
        g = PiecewisePowerFunction(segs)
        twin = plain_twin(g)
        for col in ("lo", "hi", "coef", "expo"):
            assert getattr(g, col).tobytes() == getattr(twin, col).tobytes()
        for region in (Region.all(), Region.annulus(0.05, 20.0)):
            assert luxemburg_norm(g, q, region, 1) == luxemburg_norm(twin, q, region, 1)
        radii = [0.3, 1.0, 7.0]
        assert luxemburg.ball_norms(g, q, radii, 1) == luxemburg.ball_norms(twin, q, radii, 1)


class TestConstantExponentRange:
    @pytest.mark.parametrize("c", [1e-200, 1e-150, 1e150, 1e200])
    def test_indicator_norm(self, c):
        val = luxemburg_norm(CHI_UNIT.scaled(c), Constant(3.0), Region.all(), 1)
        assert val == pytest.approx(c * 2.0 ** (1.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("c", [1e-200, 1e-150, 1e150, 1e200])
    def test_homogeneity(self, c):
        rng = seeded(23)
        for _ in range(10):
            g = random_piecewise(rng)
            p = Constant(rng.choice([1.5, 2.0, 3.0]))
            base = luxemburg_norm(g, p, Region.all(), 1)
            assert luxemburg_norm(g.scaled(c), p, Region.all(), 1) == pytest.approx(
                c * base, rel=1e-12
            )

    def test_overflowing_modular_is_inf(self):
        assert modular(CHI_UNIT.scaled(1e150), Constant(3.0), Region.all(), 1) == math.inf

    def test_overflowing_variable_exponent_modular_is_inf(self):
        # (1e150)^p(r) with p >= 2.76 on [0, 1] is past the float range
        assert modular(CHI_UNIT.scaled(1e150), LogInterp(3.0, 2.0), Region.all(), 1) == math.inf

    @pytest.mark.parametrize("c", [1e-200, 1e-150, 1e150, 1e200])
    def test_quadrature_piece_homogeneity(self, c):
        # a variable pow2 factor puts the piece on the quadrature path
        g = CHI_UNIT.times_pow2(1.0, LogInterp(0.6, 0.2, signed=True))
        base = luxemburg_norm(g, Constant(3.0), Region.all(), 1)
        scaled = luxemburg_norm(g.scaled(c), Constant(3.0), Region.all(), 1)
        assert scaled / c == pytest.approx(base, rel=1e-12)

    def test_in_range_norm_is_the_modular_root(self):
        # within float range the pieces are summed as plain floats, bit for bit
        rng = seeded(29)
        for _ in range(20):
            g = random_piecewise(rng).scaled(10.0 ** rng.uniform(-60.0, 60.0))
            q = rng.choice([1.5, 2.0, 3.0])
            expected = modular(g, Constant(q), Region.all(), 1) ** (1.0 / q)
            assert luxemburg_norm(g, Constant(q), Region.all(), 1) == expected


# ---------------------------------------------------------------------------
# the log-space root-find


def c1_residual(t):
    """The residual exponent of the C1 norm-of-one node factor at kernel
    radius t, for the operator and exponent of loginterp_norm.json."""
    cfg = load_config(FIXTURES / "loginterp_norm.json").bound_config()
    q = cfg.slots[0].q
    pulled = pullback_exponent(q, cfg.operator.families[0], t)
    return difference_reciprocal(pulled, q, cfg.zeta)


def random_piecewise(rng):
    """Piecewise power function with 2-3 segments on an annulus in [1/8, 8]."""
    edges = sorted(2.0 ** rng.uniform(-3.0, 3.0) for _ in range(rng.randint(3, 4)))
    segs = tuple(
        Segment(lo, hi, rng.uniform(0.1, 3.0), ExponentExpr(rng.uniform(-0.4, 1.2)))
        for lo, hi in zip(edges, edges[1:])
        if hi > lo * (1 + 1e-6)
    )
    return PiecewisePowerFunction(segs) if segs else random_piecewise(rng)


def bisection_oracle(g, p, region=Region.all(), n=1):
    """Plain bisection in ln eta on the public modular."""

    def above_one(x):
        return modular(g.scaled(math.exp(-x)), p, region, n) > 1.0

    lo, hi = -30.0, 30.0
    assert above_one(lo) and not above_one(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if above_one(mid):
            lo = mid
        else:
            hi = mid
    return math.exp(hi)


ROOT_EXPONENTS = {
    "loginterp": LogInterp(3.0, 2.0),
    "jump": PiecewiseRadial((1.0,), (3.0, 1.5)),
    "c1_residual": c1_residual(0.5),
}


def root_find_cases(name):
    """(g, p) pairs of the root-find checks: 30 seeded functions, and for the
    C1 residual the node factor itself (F(1) = inf, so the search from
    eta = 1 runs upward)."""
    rng = seeded(41)
    gs = [random_piecewise(rng) for _ in range(30)]
    if name == "c1_residual":
        gs.append(PiecewisePowerFunction.one())
    return [(g, ROOT_EXPONENTS[name]) for g in gs]


def certified_norm(g, p, guess=1.0, region=Region.all()):
    """The norm luxemburg_norm returns from this guess, checked on the rule
    it ends on: F <= 1 at eta and F > 1 at eta (1 - 1e-10) on that one
    frozen rule, which passes its tail re-cut and G-K test at eta
    unchanged, and a fresh modular fitted at eta within rel_tol of 1.
    Any RuntimeWarning (an inf * 0 at a node where p is infinite, say)
    fails the check."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mod = luxemburg._Modular(g, p, region, 1, 1e-9)
        eta = mod.solve(math.log(guess), 200)[0]
        assert eta == luxemburg_norm(g, p, region, 1, guess=guess)
        assert 0.0 < eta < math.inf
        assert mod.log_f(math.log(eta))[0] <= 0.0
        assert mod.log_f(math.log(eta * (1 - 1e-10)))[0] > 0.0
        changed, stuck = mod.fit(math.log(eta))
        assert not changed and not stuck.any()
        m, ln_m = luxemburg._Modular(g, p, region, 1, 1e-9).trial(eta)
        assert (m if m is not None else math.exp(ln_m)) <= 1.0 + 1e-9
    return eta


class TestLogRootFind:
    @pytest.mark.parametrize("name", sorted(ROOT_EXPONENTS))
    def test_certificate_and_oracle(self, name):
        region = Region.all()
        for g, p in root_find_cases(name):
            eta = certified_norm(g, p)
            # the public modular just below the returned eta
            shrunk = eta * (1 - 1e-9)
            assert modular(g.scaled(1.0 / shrunk), p, region, 1) >= 1.0 - 1e-9
            assert eta == pytest.approx(bisection_oracle(g, p, region), rel=1e-9)

    @pytest.mark.parametrize("name", sorted(ROOT_EXPONENTS))
    def test_far_guesses(self, name):
        # the rule may be fitted anywhere: the certificate on the rule the
        # norm ends on, and the root, do not depend on where
        region = Region.all()
        for g, p in root_find_cases(name):
            oracle = bisection_oracle(g, p, region)
            for guess in (1e-25, 1e-2, 1e2, 1e25):
                eta = certified_norm(g, p, guess)
                shrunk = eta * (1 - 1e-9)
                assert modular(g.scaled(1.0 / shrunk), p, region, 1) >= 1.0 - 1e-9
                assert eta == pytest.approx(oracle, rel=1e-9)

    def test_root_on_the_tail_floor(self):
        # g = c on [2, inf) against r with 1/r = 1/2 - 1/b, b = 3 below 2.25
        # and 2 from there on: r = 6, then infinite.  g tends to c against an
        # exponent infinite at infinity, so F is +inf below the tail floor
        # ln c - ln(1 - 1e-12); above it only sigma * 0.25 * (c/eta)^6 <= 0.5
        # is left, so the root is the floor, certified at e^(floor + TOL/4)
        c = 0.7
        g = PiecewisePowerFunction.single_power(c, 0.0, 2.0)
        p = difference_reciprocal(Constant(2.0), PiecewiseRadial((2.25,), (3.0, 2.0)), 1.0)
        assert (p(2.1), p(2.3), p.p_infty) == (pytest.approx(6.0), math.inf, math.inf)
        floor = math.log(c) - math.log1p(-1e-12)
        eta = luxemburg_norm(g, p, Region.all(), 1)
        assert eta == pytest.approx(math.exp(floor + 0.25 * luxemburg._TOL), rel=1e-14, abs=0.0)

    def test_tails_are_cut_again_at_every_fit(self, monkeypatch):
        # fitted at eta = 1e25, both tails of the C1 node factor are cut at
        # the first candidates past the search starts s = +-1, s = +-17,
        # (1/eta)^p(r) having vanished there; the norm's first lay-out, at
        # the same eta, cuts them there again; at the root eta = 1.05 the
        # cut at infinity moves out to s = 49 and the rule grows from 17 to
        # span it, keeping the edges of its panels; at the next two roots
        # both cuts lie inside the rule, its G-K check refines it at the
        # first and passes unchanged at the second
        cuts = []
        cut = luxemburg._quad.cut

        def recorded(*args):
            cuts.append(cut(*args).tolist())
            return np.array(cuts[-1])

        monkeypatch.setattr(luxemburg._quad, "cut", recorded)
        one = PiecewisePowerFunction.one()
        p = ROOT_EXPONENTS["c1_residual"]
        mod = luxemburg._Modular(one, p, Region.all(), 1, 1e-9)
        assert mod.fit(math.log(1e25))[0]
        first = set(mod.lo.tolist()) | set(mod.hi.tolist())
        eta = mod.solve(math.log(1e25), 200)[0]
        assert mod.pieces == 1
        assert cuts == [[17.0], [-17.0]] * 2 + [[49.0], [-17.0]] * 3
        # the rule spans the cuts it ends with, grown from the first rule
        assert (mod.lo.min(), mod.hi.max()) == (-17.0, 49.0)
        assert 17.0 in first
        assert first <= set(mod.lo.tolist()) | set(mod.hi.tolist())
        changed, stuck = mod.fit(math.log(eta))
        assert not changed and not stuck.any()
        assert eta == pytest.approx(certified_norm(one, p), rel=1e-9)

    def test_evaluation_cap_spans_every_solve(self, monkeypatch):
        # from eta = 1e25 the C1 node factor solves three times (the rule
        # grows at the first root, its G-K check refines it at the second)
        # and the re-check passes at the third: max_iter caps the
        # evaluations of ln F over all solves, not each
        one, p = PiecewisePowerFunction.one(), ROOT_EXPONENTS["c1_residual"]
        at_lay_out, evals = [], [0]
        lay_out, log_f = luxemburg._Modular.lay_out, luxemburg._Modular.log_f

        def counted_lay_out(self, x):
            at_lay_out.append(evals[0])
            return lay_out(self, x)

        def counted_log_f(self, x):
            evals[0] += 1
            return log_f(self, x)

        monkeypatch.setattr(luxemburg._Modular, "lay_out", counted_lay_out)
        monkeypatch.setattr(luxemburg._Modular, "log_f", counted_log_f)
        eta = luxemburg_norm(one, p, Region.all(), 1, guess=1e25)
        first, total = at_lay_out[1], evals[0]
        assert len(at_lay_out) == 4 and 0 < first < total
        assert luxemburg_norm(one, p, Region.all(), 1, max_iter=total, guess=1e25) == eta
        for k in (first, total - 1):
            with pytest.raises(luxemburg.BracketError, match="iteration cap"):
                luxemburg_norm(one, p, Region.all(), 1, max_iter=k, guess=1e25)

    @pytest.mark.parametrize("guess", [math.inf, math.nan, 0.0])
    def test_unusable_guess_starts_at_one(self, guess):
        for name in sorted(ROOT_EXPONENTS):
            cases = root_find_cases(name)
            for g, p in cases[:5] + cases[-1:]:
                assert luxemburg_norm(g, p, Region.all(), 1, guess=guess) == luxemburg_norm(
                    g, p, Region.all(), 1
                )

    def test_guess_beyond_search_range_is_clamped(self):
        p = LogInterp(3.0, 2.0)
        base = luxemburg_norm(CHI_UNIT, p, Region.all(), 1)
        for guess in (1e-300, 1e300):
            assert luxemburg_norm(CHI_UNIT, p, Region.all(), 1, guess=guess) == pytest.approx(
                base, rel=1e-9
            )
            # a norm above the search range stays infinite from a guess at it
            assert luxemburg_norm(CHI_UNIT.scaled(1e290), p, Region.all(), 1,
                                  guess=guess) == math.inf

    def test_c1_residual_modular_infinite_at_one(self):
        one = PiecewisePowerFunction.one()
        assert modular(one, ROOT_EXPONENTS["c1_residual"], Region.all(), 1) == math.inf

    def test_infinite_exponent_is_sup_norm(self):
        assert luxemburg_norm(CHI_UNIT.scaled(0.5), Infinite(), Region.all(), 1) == pytest.approx(
            0.5, abs=1e-9
        )

    @pytest.mark.parametrize("c", [1e-200, 1e-160, 1e160, 1e200])
    def test_homogeneity_at_extreme_scales(self, c):
        p = LogInterp(3.0, 2.0)
        base = luxemburg_norm(CHI_UNIT, p, Region.all(), 1)
        assert luxemburg_norm(CHI_UNIT.scaled(c), p, Region.all(), 1) == pytest.approx(
            c * base, rel=1e-9
        )

    def test_norm_beyond_search_range_is_infinite(self):
        p = LogInterp(3.0, 2.0)
        assert luxemburg_norm(CHI_UNIT.scaled(1e300), p, Region.all(), 1) == math.inf

    def test_evaluation_budget(self, monkeypatch):
        # one rule build per norm, and a second only where the re-check at
        # the root fails; a handful of ln F evaluations on the frozen rule
        builds, evals = [], []
        lay_out, check, log_f = (luxemburg._Modular.lay_out, luxemburg._Modular.check,
                                 luxemburg._Modular.log_f)

        def counted_lay_out(self, x):
            changed, stuck = lay_out(self, x)
            builds[-1] += changed
            return changed, stuck

        def counted_check(self, x):
            changed = check(self, x)
            builds[-1] += changed
            return changed

        def counted_log_f(self, x):
            evals[-1] += 1
            return log_f(self, x)

        monkeypatch.setattr(luxemburg._Modular, "lay_out", counted_lay_out)
        monkeypatch.setattr(luxemburg._Modular, "check", counted_check)
        monkeypatch.setattr(luxemburg._Modular, "log_f", counted_log_f)

        def count(fn):
            builds.append(0)
            evals.append(0)
            fn()

        q = LogInterp(3.0, 2.0)
        rng = seeded(7)
        for _ in range(40):
            count(lambda: luxemburg_norm(random_piecewise(rng), q, Region.all(), 1))
        for t in (1e-6, 1e-3, 0.1, 0.5, 0.9):
            resid = c1_residual(t)
            count(lambda: norm_of_one(resid, Region.all(), 1, rel_tol=1e-7))
        assert statistics.median(builds) <= 2 and max(builds) <= 3
        assert statistics.median(builds[-5:]) <= 2
        assert statistics.median(evals) <= 10 and max(evals) <= 20


def synthetic_rows(seed, rows, terms=5):
    """(A, P) of rows of a synthetic ln F(x) = logsumexp(A - P x), P > 0:
    convex and decreasing in x, as ln F_p(g/e^x) is on a frozen rule."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-8.0, 8.0, (rows, terms)), rng.uniform(0.5, 4.0, (rows, terms))


def synthetic_log_f(A, P):
    """log_f(x, rows) of _roots for the rows of (A, P): (ln F, d ln F / dx)
    of each of the rows at its x."""

    def log_f(x, rows):
        out = []
        for v, i in zip(x, rows):
            z = A[i] - P[i] * v
            top = z.max()
            w = np.exp(z - top)
            out.append((float(top + math.log(w.sum())), -float(P[i] @ w) / float(w.sum())))
        return out

    return log_f


def synthetic_root(A, P):
    """The root of ln F = 0 on a row, by bisection in x."""
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.logaddexp.reduce(A - P * mid) > 0.0 else (lo, mid)
    return hi


def newton_roots(A, P, x, max_iter=200, evals=None):
    """_roots on the rows of (A, P) from x, with no floor."""
    evals = [0] * len(x) if evals is None else evals
    floor = [-math.inf] * len(x)
    return luxemburg._roots(synthetic_log_f(A, P), list(x), floor, evals, max_iter)


class TestNewtonStep:
    """The one certified Newton step, on synthetic ln F = logsumexp(A - P x)
    drawn from a seed, with no quadrature rule."""

    def test_certificate_from_both_sides(self):
        A, P = synthetic_rows(5, 12)
        log_f = synthetic_log_f(A, P)
        for i in range(len(A)):
            root = synthetic_root(A[i], P[i])
            for start in (root - 30.0, root - 1.0, root - 1e-9, root + 1e-9, root + 1.0,
                          root + 30.0):
                evals = [0]
                eta = newton_roots(A[i:i + 1], P[i:i + 1], [start], evals=evals)[0]
                assert log_f([math.log(eta)], [i])[0][0] <= 0.0
                assert log_f([math.log(eta * (1 - luxemburg.CERT_DELTA))], [i])[0][0] > 0.0
                assert math.log(eta) == pytest.approx(root, abs=1e-9)
                assert evals[0] <= 30

    def test_certificate_survives_a_wrong_slope(self):
        # the certificate does not rest on Newton's accuracy: with the slope
        # sent scaled by k, the steps are too long or too short, and the
        # checks at eta and eta (1 - CERT_DELTA) walk eta to the root
        A, P = synthetic_rows(11, 4)
        for i in range(len(A)):
            log_f, root = synthetic_log_f(A[i:i + 1], P[i:i + 1]), synthetic_root(A[i], P[i])
            for k, offsets in ((0.25, (-1.0, 1e-8, 1.0)), (4.0, (-1.0, 1e-8, 1.0)),
                               (1e3, (-1e-8, 1e-8))):
                def skewed(x, rows):
                    return [(h, k * dh) for h, dh in log_f(x, rows)]

                for offset in offsets:
                    eta = luxemburg._roots(skewed, [root + offset], [-math.inf], [0], 10_000)[0]
                    assert log_f([math.log(eta)], [0])[0][0] <= 0.0
                    assert log_f([math.log(eta * (1 - luxemburg.CERT_DELTA))], [0])[0][0] > 0.0

    def test_infinite_above_the_search_range(self):
        # ln F > 0 up to ln 1e280: a norm past the search range is +inf
        A, P = synthetic_rows(6, 3)
        A += 2000.0
        assert newton_roots(A, P, [0.0, 700.0, -700.0]) == [math.inf] * 3

    def test_below_the_search_range_raises(self):
        # ln F = -700 - x/2 <= 0 from x = -1400 on, below -ln 1e280
        A, P = np.array([[-700.0]]), np.array([[0.5]])
        for x in (0.0, -700.0, 700.0):
            with pytest.raises(luxemburg.BracketError, match="arbitrarily small eta"):
                newton_roots(A, P, [x])
        # and inside a batch, at once instead of at the iteration cap
        B, Q = synthetic_rows(7, 4)
        A, P = np.vstack((B[:2], np.full((1, 5), -700.0), B[2:])), np.vstack(
            (Q[:2], np.full((1, 5), 0.5), Q[2:]))
        with pytest.raises(luxemburg.BracketError, match="arbitrarily small eta"):
            newton_roots(A, P, [0.0] * 5, max_iter=20)

    def test_iteration_cap(self):
        A, P = synthetic_rows(8, 6)
        x, evals = [25.0] * 6, [0] * 6
        eta = newton_roots(A, P, x, evals=evals)
        cap = max(evals)
        assert newton_roots(A, P, x, max_iter=cap) == eta
        with pytest.raises(luxemburg.BracketError, match="iteration cap"):
            newton_roots(A, P, x, max_iter=cap - 1)
        # the cap spans every solve: counts carried in from before count too
        with pytest.raises(luxemburg.BracketError, match="iteration cap"):
            newton_roots(A, P, x, max_iter=cap, evals=[1] * 6)
        # each row against its own count: the row done first may carry in
        # up to the cap, and the others step on after it is done
        first = evals.index(min(evals))
        assert evals[first] < cap
        prior = [0] * 6
        prior[first] = cap - evals[first]
        assert newton_roots(A, P, x, max_iter=cap, evals=prior) == eta
        assert prior == [cap if i == first else evals[i] for i in range(6)]

    def test_batch_is_each_row_alone(self):
        A, P = synthetic_rows(9, 40)
        x = np.random.default_rng(10).uniform(-40.0, 40.0, 40).tolist()
        evals = [0] * 40
        batch = newton_roots(A, P, x, evals=evals)
        for i in range(40):
            alone = [0]
            assert newton_roots(A[i:i + 1], P[i:i + 1], x[i:i + 1], evals=alone) == [batch[i]]
            assert alone == [evals[i]]


class TestNewtonProperty:
    """The Newton norm against bisection on a dense fixed rule, for seeded
    piecewise powers on bounded annuli (2-3 rows, or up to 60 with side rows
    among them) and p = LogInterp(p0, p_inf)."""

    @staticmethod
    def dense_bisection(g, p, n=1):
        # Gauss-Legendre, 40 nodes on every eighth of a unit in ln r
        t, w = np.polynomial.legendre.leggauss(40)
        A, P = [], []
        for seg in g.segments:
            cells = max(int(math.ceil(8 * math.log(seg.r_hi / seg.r_lo))), 1)
            edges = np.linspace(math.log(seg.r_lo), math.log(seg.r_hi), cells + 1)
            half = 0.5 * np.diff(edges)[:, None]
            s = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * t
            pv = p(np.exp(s))
            A.append((np.log(half * w) + n * s + pv * seg.log_amplitude_s(s)).ravel())
            P.append(pv.ravel())
        A, P = np.concatenate(A) + math.log(2.0), np.concatenate(P)

        def above_one(x):
            z = A - P * x
            return z.max() + math.log(np.exp(z - z.max()).sum()) > 0.0

        lo, hi = -40.0, 40.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if above_one(mid) else (lo, mid)
        return math.exp(hi)

    @staticmethod
    def random_rows(rng, side):
        """2-60 rows on an annulus in [1/8, 8], touching or with gaps, each a
        plain power or, with side, at random a side row: a reciprocal
        LogInterp exponent term or a pow2 factor with a LogInterp alpha."""
        edges = sorted({2.0 ** rng.uniform(-3.0, 3.0) for _ in range(rng.randint(3, 61))})
        segs = []
        for lo, hi in zip(edges, edges[1:]):
            if hi <= lo * (1 + 1e-6) or rng.random() < 0.1:
                continue
            kind = rng.choice(["plain", "terms", "pow2"]) if side else "plain"
            expr = ExponentExpr(rng.uniform(-0.4, 1.2))
            pow2 = ((rng.choice([-1.0, 1.0]), LogInterp(0.6, 0.2, signed=True)),)
            if kind == "terms":
                expr = ExponentExpr(expr.const, (ExprTerm(-1.0, LOG_Q, True),))
            segs.append(Segment(lo, hi, rng.uniform(0.1, 3.0), expr,
                                pow2 if kind == "pow2" else ()))
        return PiecewisePowerFunction(segs) if segs else random_piecewise(rng)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), p0=st.floats(1.2, 6.0), p_inf=st.floats(1.2, 6.0),
           guess=st.sampled_from([1.0, 1e-8, 1e8]), rows=st.sampled_from(["few", "many", "side"]))
    def test_newton_matches_dense_bisection(self, seed, p0, p_inf, guess, rows):
        # p0 = p_inf is a constant exponent, which takes the closed form;
        # many rows and side rows check the rule's per-piece G-K test and
        # its side-row amplitudes
        assume(p0 != p_inf)
        rng = seeded(seed)
        g = random_piecewise(rng) if rows == "few" else self.random_rows(rng, rows == "side")
        p = LogInterp(p0, p_inf)
        eta = certified_norm(g, p, guess)
        assert eta == pytest.approx(self.dense_bisection(g, p), rel=1e-9)
