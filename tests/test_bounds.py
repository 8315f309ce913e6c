import json
import math
from pathlib import Path

import numpy as np
import pytest

from hausnorm import _quad
from hausnorm import bounds, luxemburg
from hausnorm.bounds import (
    CONSTANT_IDS,
    BoundConfig,
    HypothesisError,
    SlotParams,
    central_morrey_constants,
    constparam_constants,
    evaluate_constant,
    herz_morrey_constants,
    lebesgue_constants,
    sharpness_region_check,
    slot_region_values,
)
from hausnorm.config import ExperimentConfig, load_config
from hausnorm.exponents import (
    _CHECK_RADII,
    RECIP_ZERO_TOL,
    Constant,
    LogInterp,
    PiecewiseRadial,
    pullback_exponent,
)
from hausnorm.hausdorff import OperatorSpec, RadialKernel, from_multilinear_hardy_cesaro
from hausnorm.matrices import (
    DiagonalEqualModulus,
    OrthogonalTimesScalar,
    PowerMap,
    ScalarDilation,
    c_factor,
    frobenius_norm,
    inverse_stats,
)

from conftest import seeded

FIXTURES = Path(__file__).parent / "fixtures"


def central_cfg(lam=-0.1, gamma=0.0, q=2.0):
    kern = RadialKernel(1.0, 0.0, 1.0, 2.0, one_sided=False)
    op = OperatorSpec(1, 1, kern, (ScalarDilation(PowerMap(1.0, 1.0), 1),))
    return BoundConfig(op, (SlotParams(q=Constant(q), gamma=gamma, lam=lam),))


def scaled_kernel_cfg(scale):
    kern = RadialKernel(scale, 0.0, 1.0, 2.0, one_sided=False)
    op = OperatorSpec(1, 1, kern, (ScalarDilation(PowerMap(1.0, 1.0), 1),))
    return BoundConfig(op, (SlotParams(q=Constant(2.0), lam=-0.1),))


def dilation_shapes(n, seed):
    """A scalar, a signed-diagonal and an orthogonal family in dimension n,
    each under a different power map."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    signs = tuple(int(x) for x in rng.choice((-1, 1), size=n))
    return [
        ScalarDilation(PowerMap(1.7, 0.6), n),
        DiagonalEqualModulus(PowerMap(-0.4, -1.3), signs),
        OrthogonalTimesScalar(q.tolist(), PowerMap(2.5, 0.0)),
    ]


def piece_value(factor, t):
    (seg,) = [s for s in factor.segments if s.r_lo <= t < s.r_hi]
    return seg.value(t)


class TestFactorAlgebra:
    """The piecewise-power factors the constants integrate equal the
    pointwise matrix functions they stand for."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pieces_match_matrix_functions(self, n):
        rng = seeded(100 + n)
        for fam in dilation_shapes(n, seed=n):
            nc, ne = bounds._norm_piece(fam)
            ic, ie = bounds._inv_norm_piece(fam)
            for _ in range(50):
                t = 10.0 ** rng.uniform(-3.0, 3.0)
                assert nc * t ** ne == pytest.approx(frobenius_norm(fam, t), rel=1e-12)
                assert ic * t ** ie == pytest.approx(inverse_stats(fam, t)[0], rel=1e-12)
                for q in (Constant(2.5), LogInterp(3.0, 1.5)):
                    gamma = rng.uniform(-2.0, 2.0)
                    factor, _ = bounds._c_factor_pieces(fam, q, gamma, "c")
                    assert piece_value(factor, t) == pytest.approx(
                        c_factor(fam, q, gamma, t), rel=1e-12)


class TestLebesgueConstants:
    def test_identity_family_collapse(self):
        # identity dilations with constant exponents: every matrix factor is 1
        kern = RadialKernel(1.0, 0.0, 1.0, 2.0, one_sided=False)
        op = OperatorSpec(1, 1, kern, (ScalarDilation(PowerMap(1.0, 0.0), 1),))
        cfg = BoundConfig(op, (SlotParams(q=Constant(2.0)),))
        res = lebesgue_constants(cfg)
        expected = 2.0 * math.log(2.0)  # sigma * int_1^2 dr/r
        for cid in ("C1", "C2", "C2*"):
            assert res[cid].value == pytest.approx(expected, rel=1e-12)

    def test_hardy_value(self, hardy_cfg):
        res = lebesgue_constants(hardy_cfg)
        assert res["C2"].value == pytest.approx(2.0, abs=1e-12)
        assert res["C2*"].value == pytest.approx(2.0, abs=1e-12)
        assert res["C1"].value == pytest.approx(2.0, abs=1e-12)

    def test_constant_exponent_collapse(self, hardy_cfg):
        res = lebesgue_constants(hardy_cfg)
        assert abs(res["C2"].value - res["C2*"].value) <= 1e-12

    def test_variable_exponent_c1_finite(self, hardy_op):
        cfg = BoundConfig(hardy_op, (SlotParams(q=LogInterp(3.0, 2.0)),), rel_tol=1e-6)
        res = evaluate_constant(cfg, "C1", rel_tol=1e-6)
        assert res.finite
        assert 2.0 < res.value < 4.0
        # the breakdown `hausnorm constants` prints for this configuration
        breakdown = res.to_json()["breakdown"]
        assert breakdown["factors"] == ["c-factor", "norm-of-one"]
        assert "divergent_at" not in breakdown
        (piece,) = breakdown["pieces"]
        assert set(piece) == {"s_lo", "s_hi", "quadrature"}
        assert piece["quadrature"] is True
        assert piece["s_lo"] < piece["s_hi"] == 0.0

    def test_node_factor_evaluated_once_per_radius(self, monkeypatch):
        # each node factor value pulls the exponent back once at its radius;
        # the hypothesis check samples pullbacks at radii of its own
        cfg = load_config(str(FIXTURES / "loginterp_norm.json")).bound_config()
        monkeypatch.setattr(bounds, "_check_pullback_hypothesis", lambda cfg, zeta: None)
        radii = []

        def recording(q, fam, t):
            radii.append(t)
            return pullback_exponent(q, fam, t)

        monkeypatch.setattr(bounds, "pullback_exponent", recording)
        res = evaluate_constant(cfg, "C1")
        assert res.finite
        assert len(radii) > 100  # the quadrature path ran
        assert len(set(radii)) == len(radii)

    def test_node_factor_work(self, monkeypatch):
        # each node's norm builds one frozen rule from its neighbour's norm,
        # and a second only where the re-check at the root fails
        cfg = load_config(str(FIXTURES / "loginterp_norm.json")).bound_config()
        calls = {"norm_of_one": 0, "builds": 0, "search_cutoff": 0}

        def counted(owner, name, key=None):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                out = inner(*args, **kwargs)
                calls[key or name] += out if key else 1
                return out

            monkeypatch.setattr(owner, name, wrapper)

        counted(bounds, "norm_of_one")
        # fit returns True when it built or changed the rule
        counted(luxemburg._Modular, "fit", "builds")
        counted(_quad, "search_cutoff")
        res = evaluate_constant(cfg, "C1", rel_tol=1e-6)
        nodes = calls["norm_of_one"]
        assert nodes == 139
        assert calls["builds"] <= 1.25 * nodes
        assert calls["search_cutoff"] <= 3 * nodes
        assert res.value == pytest.approx(2.2349737949480826, rel=1e-10)

    def test_outer_index_must_be_positive(self, hardy_op):
        with pytest.raises(ValueError, match="outer indices p_i must be positive"):
            BoundConfig(hardy_op, (SlotParams(q=Constant(2.0), p=0.0),))

    def test_zeta_two_divergence_reported(self, hardy_op):
        cfg = BoundConfig(hardy_op, (SlotParams(q=Constant(2.0)),), zeta=2.0)
        res = evaluate_constant(cfg, "C1", rel_tol=1e-6)
        assert not res.finite and res.value == math.inf

    def test_pullback_hypothesis_named(self, hardy_op):
        # increasing exponent breaks the pullback bound for shrinking dilations
        cfg = BoundConfig(hardy_op, (SlotParams(q=LogInterp(2.0, 3.0)),))
        with pytest.raises(HypothesisError):
            evaluate_constant(cfg, "C2")

    def test_pullback_witness_is_the_first_failure(self):
        # kernel radii 1e-6 ... 1, each decided by its residual exponent's
        # sign test at 0 and the check radii 1e-8 ... 1e8
        q = LogInterp(2.0, 3.0)
        op = from_multilinear_hardy_cesaro(PowerMap(1.0, 0.0), [PowerMap(1.0, 1.0)])
        cfg = BoundConfig(op, (SlotParams(q=q),))
        fam, k = op.families[0], op.kernel
        lo = k.r_lo if k.r_lo > 0 else k.r_hi * 1e-6
        ts = [lo * (k.r_hi / lo) ** (i / 8.0) for i in range(9)]
        t, r = next(
            (t, r) for t in ts for r in (0.0,) + _CHECK_RADII
            if 1.0 / pullback_exponent(q, fam, t)(r) - 1.0 / q(r) < -RECIP_ZERO_TOL
        )
        with pytest.raises(HypothesisError) as err:
            evaluate_constant(cfg, "C2")
        assert f"t={t:.4g}, |x|={r:.4g}" in str(err.value)

    @pytest.mark.parametrize("brk", [1e-7, 1e-3])
    @pytest.mark.parametrize("cid", ["C1", "C2", "C2*"])
    def test_step_exponent_fails_at_any_scale(self, hardy_op, brk, cid):
        # q rises from 2 to 3 at brk, so q(x/t) > q(x) on [t brk, brk) for
        # every kernel radius t < 1, whether or not brk is on the check grid
        q = PiecewiseRadial((brk,), (2.0, 3.0))
        cfg = BoundConfig(hardy_op, (SlotParams(q=q),))
        with pytest.raises(HypothesisError) as err:
            evaluate_constant(cfg, cid)
        # the first failure: the smallest kernel radius, at the pulled break
        assert f"t=1e-06, |x|={1e-6 * brk:.4g}" in str(err.value)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_every_result_is_strict_json(self, name):
        cfg = load_config(str(FIXTURES / name)).bound_config()
        for cid in CONSTANT_IDS:
            try:
                res = evaluate_constant(cfg, cid)
            except HypothesisError:
                continue
            data = json.loads(json.dumps(res.to_json(), allow_nan=False))
            assert data["id"] == cid and data["finite"] is res.finite
            assert data["value"] == (res.value if res.finite else None)


class TestHerzMorreyConstants:
    def test_hardy_reductions(self, hardy_cfg):
        res = herz_morrey_constants(hardy_cfg)
        # constant exponents, alpha = 0, lam = 0: the sharp pairs collapse
        assert abs(res["C5"].value - res["C5*"].value) <= 1e-12
        assert abs(res["C6"].value - res["C6*"].value) <= 1e-12
        assert res["C6"].value == pytest.approx(2.0, abs=1e-12)
        # lam = 0 and matching endpoint values make the two integrands equal
        assert res["C5"].value == pytest.approx(res["C6"].value, abs=1e-12)

    @pytest.mark.parametrize("support", [(1.0, 49.0), (12.25, 49.0)])
    def test_exact_conditioning_closed_forms(self, support):
        # hardy_p2 on a kernel support [a, b] away from 0: n = 1, so
        # theta* = -1 and the dyadic sums count 2 - theta* = 3 terms; the
        # kernel integral is int_a^b t^(-1/2) dt = 2 (sqrt(b) - sqrt(a)),
        # C3 = 3 * that and C4 = 3^(1/2) * 3 * that
        obj = json.loads((FIXTURES / "hardy_p2.json").read_text())
        obj["kernel"]["support"] = list(support)
        cfg = ExperimentConfig.from_json(obj).bound_config()
        base = 2.0 * (math.sqrt(support[1]) - math.sqrt(support[0]))
        res = herz_morrey_constants(cfg)
        assert res["C3"].value == pytest.approx(3.0 * base, rel=1e-12)
        assert res["C4"].value == pytest.approx(3.0 ** 1.5 * base, rel=1e-12)
        expected = {(1.0, 49.0): (36.0, 62.353829072479584),
                    (12.25, 49.0): (21.0, 36.373066958946424)}[support]
        assert (res["C3"].value, res["C4"].value) == pytest.approx(expected, rel=1e-12)
        for cid in ("C5", "C5*", "C6", "C6*"):
            assert res[cid].value == pytest.approx(base, rel=1e-12)

    def test_alpha_order_hypothesis(self, hardy_op):
        cfg = BoundConfig(
            hardy_op,
            (SlotParams(q=Constant(2.0), alpha=LogInterp(0.2, 0.6, signed=True), lam=0.3),),
        )
        with pytest.raises(HypothesisError):
            evaluate_constant(cfg, "C3")

    def test_negative_lambda_rejected(self, hardy_op):
        cfg = BoundConfig(hardy_op, (SlotParams(q=Constant(2.0), lam=-0.5),))
        with pytest.raises(HypothesisError):
            evaluate_constant(cfg, "C5")


class TestConstParam:
    def test_lambda_zero_collapse(self, hardy_cfg):
        res = constparam_constants(hardy_cfg)
        assert abs(res["C7"].value - res["C8"].value) <= 1e-12

    def test_hardy_c9(self, hardy_cfg):
        assert constparam_constants(hardy_cfg)["C9"].value == pytest.approx(2.0, abs=1e-12)

    def test_bilinear_c9(self):
        bil = from_multilinear_hardy_cesaro(
            PowerMap(1.0, 0.0), [PowerMap(1.0, 1.0), PowerMap(1.0, 1.0)]
        )
        cfg = BoundConfig(
            bil,
            (SlotParams(q=Constant(2.0), p=4.0), SlotParams(q=Constant(2.0), p=4.0)),
        )
        assert evaluate_constant(cfg, "C9").value == pytest.approx(2.0, abs=1e-12)

    def test_variable_exponent_rejected(self, hardy_op):
        cfg = BoundConfig(hardy_op, (SlotParams(q=LogInterp(3.0, 2.0)),))
        with pytest.raises(HypothesisError):
            evaluate_constant(cfg, "C9")


class TestCentralMorrey:
    def test_fixture_value(self):
        cfg = central_cfg()
        expected = 2.0 * (2.0**-0.1 - 1.0) / (-0.1)
        res = central_morrey_constants(cfg)
        assert res["C12"].value == pytest.approx(expected, rel=1e-12)

    def test_c11_equals_c12_when_alpha_matches(self):
        # inner weight power gamma/q makes the exponents cancel
        kern = RadialKernel(1.0, 0.0, 1.0, 2.0, one_sided=False)
        op = OperatorSpec(1, 1, kern, (ScalarDilation(PowerMap(1.0, 1.0), 1),))
        gamma, q = 0.5, 2.0
        cfg = BoundConfig(
            op,
            (SlotParams(q=Constant(q), gamma=gamma,
                        alpha=Constant(gamma / q, signed=True), lam=-0.1),),
        )
        res = central_morrey_constants(cfg)
        assert res["C11"].value == pytest.approx(res["C12"].value, rel=1e-12)

    def test_lambda_range_checked(self):
        with pytest.raises(HypothesisError):
            central_morrey_constants(central_cfg(lam=0.1))

    def test_collapse_for_identity_weights(self):
        cfg = central_cfg()
        res = central_morrey_constants(cfg)
        # gamma = 0, alpha = 0, constant q: all three integrands coincide
        assert res["C10"].value == pytest.approx(res["C12"].value, rel=1e-12)


class TestScalingCovariance:
    def test_kernel_scaling(self):
        base = central_morrey_constants(scaled_kernel_cfg(1.0))
        tripled = central_morrey_constants(scaled_kernel_cfg(3.0))
        for cid in ("C10", "C11", "C12"):
            assert tripled[cid].value == pytest.approx(3.0 * base[cid].value, rel=1e-12)

    def test_kernel_scaling_lebesgue(self, hardy_op):
        cfg1 = BoundConfig(hardy_op, (SlotParams(q=Constant(2.0)),))
        kern5 = RadialKernel(5.0, 1.0, 0.0, 1.0, one_sided=True)
        op5 = OperatorSpec(1, 1, kern5, hardy_op.families)
        cfg5 = BoundConfig(op5, (SlotParams(q=Constant(2.0)),))
        assert evaluate_constant(cfg5, "C2").value == pytest.approx(
            5.0 * evaluate_constant(cfg1, "C2").value, rel=1e-12
        )


def test_infinite_node_factor_diverges_by_power_test(monkeypatch):
    # the norm-of-one factor of divergent_c1.json is +inf at every radius:
    # the endpoint slope is -inf, so no tail cutoff is attempted
    calls = []
    monkeypatch.setattr(_quad, "linear_cutoff", lambda *args, **kw: calls.append(args))
    cfg = load_config(FIXTURES / "divergent_c1.json").bound_config()
    res = evaluate_constant(cfg, "C1")
    assert not res.finite
    assert res.breakdown["endpoint_slope"] is None
    assert calls == []


class TestFinitenessConsistency:
    """Analytic divergence test against brute quadrature growth under
    bracket refinement, on ten divergent and ten convergent fixtures."""

    def _c9_value(self, a_exp, p):
        kern = RadialKernel(1.0, 1.0, 0.0, 1.0, one_sided=True)
        op = OperatorSpec(1, 1, kern, (ScalarDilation(PowerMap(1.0, a_exp), 1),))
        cfg = BoundConfig(op, (SlotParams(q=Constant(2.0), p=p),))
        return evaluate_constant(cfg, "C9")

    def _brute(self, expo, eps, n=200000):
        # log-spaced trapezoid for the integral of t^expo over [eps, 1]
        total = 0.0
        prev_t = eps
        prev_v = eps**expo
        for i in range(1, n + 1):
            t = eps ** (1.0 - i / n)
            v = t**expo
            total += 0.5 * (prev_v + v) * (t - prev_t)
            prev_t, prev_v = t, v
        return total

    DIVERGENT = [(1.2, 1.4), (1.5, 1.5), (2.0, 1.6), (2.5, 1.8), (3.0, 2.0),
                 (1.4, 2.2), (1.8, 2.5), (2.2, 2.8), (2.8, 3.0), (3.5, 3.5)]
    CONVERGENT = [(1.5, 0.5), (2.0, 0.5), (2.5, 0.3), (3.0, 0.7), (4.0, 0.25),
                  (1.2, 0.9), (1.8, 0.6), (2.2, 0.45), (2.8, 0.8), (3.5, 0.1)]

    def test_divergent_cases(self):
        # slot exponent a makes the integrand t^(-a) near zero; a > 1 diverges
        for p, a_over_p in self.DIVERGENT:
            res = self._c9_value(a_over_p * p, p)
            assert not res.finite and res.value == math.inf
            brute = [self._brute(-a_over_p, eps, 20000) for eps in (1e-8, 1e-16, 1e-32)]
            assert brute[-1] > 1e12
            assert brute[0] < brute[1] < brute[2]

    def test_convergent_cases(self):
        # substitution t = u^20 regularizes the integrable singularity so a
        # plain midpoint rule is an accurate independent oracle
        for p, a_over_p in self.CONVERGENT:
            res = self._c9_value(a_over_p * p, p)
            assert res.finite
            k = 20.0
            n = 20000
            brute = math.fsum(
                k * ((i + 0.5) / n) ** (k * (1.0 - a_over_p) - 1.0) / n
                for i in range(n)
            )
            assert res.value == pytest.approx(brute, rel=1e-6)


class TestSharpnessRegion:
    def test_b1_case(self, hardy_op):
        cfg = BoundConfig(
            hardy_op,
            (SlotParams(q=Constant(2.0), alpha=LogInterp(0.6, 0.2, signed=True), lam=0.3),),
        )
        rc = sharpness_region_check(cfg)
        assert rc.case == "b1" and rc.satisfied
        assert rc.herz_case == "b1"
        assert rc.reciprocal_identity

    def test_b2_case_thetas_vanish(self, hardy_op):
        cfg = BoundConfig(
            hardy_op,
            (SlotParams(q=LogInterp(3.0, 2.0), alpha=Constant(0.25, signed=True), lam=0.25),),
        )
        rc = sharpness_region_check(cfg)
        assert rc.case == "b2"
        assert rc.slots[0].theta0 == pytest.approx(0.0, abs=1e-14)
        assert rc.slots[0].theta_inf == pytest.approx(0.0, abs=1e-14)

    def test_b3_grid_equivalence(self):
        # the sign test and the interval membership agree along a lambda grid
        rng = seeded(101)
        for _ in range(20):
            q_minus = rng.uniform(1.2, 3.0)
            q_plus = q_minus + rng.uniform(0.2, 2.0)
            gap = rng.uniform(0.3, 1.5)
            alpha_inf = rng.uniform(-0.5, 0.5)
            alpha0 = alpha_inf + gap
            c_alpha = q_minus * gap * (1.0 + q_plus / q_minus) / q_plus
            c0 = rng.uniform(0.0, min(0.9 * gap, c_alpha))
            c_inf = rng.uniform(0.0, min(0.9 * gap, c_alpha - c0))
            probe = slot_region_values(q_minus, q_plus, alpha0, alpha_inf, c0, c_inf, 0.0)
            lo = min(probe.eta0, probe.zeta0) - 0.5
            hi = max(probe.eta1, probe.zeta1) + 0.5
            lam = lo
            while lam <= hi:
                s = slot_region_values(q_minus, q_plus, alpha0, alpha_inf, c0, c_inf, lam)
                near_edge = any(
                    abs(lam - e) <= 1e-3 for e in (s.eta0, s.eta1, s.zeta0, s.zeta1)
                )
                if not near_edge:
                    assert s.thetas_nonneg == s.in_intervals, (
                        f"disagree at lam={lam} for {s}"
                    )
                lam += 1e-3

    def test_split_points_inside_intervals(self):
        s = slot_region_values(2.0, 3.0, 0.8, 0.1, 0.2, 0.15, 0.5)
        assert s.eta0 <= s.alpha0 - s.c0 <= s.eta1
        assert s.zeta0 <= s.alpha_inf + s.c_inf <= s.zeta1
