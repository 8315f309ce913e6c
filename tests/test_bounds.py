import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ReciprocalSignError,
    Rescaled,
    difference_reciprocal,
    pullback_exponent,
)
from hausnorm.hausdorff import (
    OperatorSpec,
    RadialKernel,
    from_hardy_cesaro,
    from_multilinear_hardy_cesaro,
)
from hausnorm.matrices import (
    DiagonalEqualModulus,
    OrthogonalTimesScalar,
    PowerMap,
    ScalarDilation,
    SingularFamilyError,
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
        # each node factor value is one row of a batch of residual
        # exponents, pulled back once at its radius; the hypothesis check
        # builds rows of its own, which it does not solve
        cfg = load_config(str(FIXTURES / "loginterp_norm.json")).bound_config()
        radii = []
        log_norms = bounds._NormOne._log_norms

        def recording(self, s, ln_scale):
            radii.extend(s.tolist())
            return log_norms(self, s, ln_scale)

        monkeypatch.setattr(bounds._NormOne, "_log_norms", recording)
        res = evaluate_constant(cfg, "C1")
        assert res.finite
        assert len(radii) > 100  # the quadrature path ran
        assert len(set(radii)) == len(radii)

    def test_node_factor_work(self, monkeypatch):
        # each batch of nodes (a quad_s round, the end value, a tail cut's
        # start and candidates) solves as the rows of one rule: laid out at
        # the cold start, and changed at most once more where the re-check
        # at the roots fails; every lay-out cuts each row's two tails (three
        # candidate groups for the end limit's finite p(0)) once.  The
        # kernel's tail at t -> 0 is cut in one batch: its start s = 0, a
        # flat row (t = 1) that takes no rule, and the 4 candidates -200,
        # -360, -520 and -680 inside the end's edge.  The 135 nodes take one
        # round, and the end t -> 0 one more row, the limit's
        cfg = load_config(str(FIXTURES / "loginterp_norm.json")).bound_config()
        calls = {"rows": 0, "batches": 0, "builds": 0, "tail_searches": 0}
        solve, cut = luxemburg._log_norms_of_one, _quad.cut
        lay_out, check = luxemburg._Modular.lay_out, luxemburg._Modular.check

        def counted_solve(p, *args):
            calls["rows"] += len(p.p_zero)
            calls["batches"] += 1
            return solve(p, *args)

        def counted_lay_out(self, x):
            changed, stuck = lay_out(self, x)
            calls["builds"] += changed
            return changed, stuck

        def counted_check(self, x):
            changed = check(self, x)
            calls["builds"] += changed
            return changed

        def counted_cut(level_ref, s, levels):
            # the rows' cuts; the kernel's own tail cuts have no row axis
            calls["tail_searches"] += len(level_ref) if np.ndim(level_ref) else 0
            return cut(level_ref, s, levels)

        monkeypatch.setattr(luxemburg, "_log_norms_of_one", counted_solve)
        monkeypatch.setattr(luxemburg._Modular, "lay_out", counted_lay_out)
        monkeypatch.setattr(luxemburg._Modular, "check", counted_check)
        monkeypatch.setattr(_quad, "cut", counted_cut)
        res = evaluate_constant(cfg, "C1", rel_tol=1e-6)
        assert calls["rows"] == 4 + 135 + 1
        assert calls["builds"] <= 2 * calls["batches"]
        assert calls["tail_searches"] <= 7 * calls["rows"]
        assert res.value == pytest.approx(2.2349737949480826, rel=1e-10)

    @pytest.mark.parametrize("cid", ["C1", "C2", "C2*", "C4"])
    def test_vanishing_family_is_singular(self, cid):
        # s(t) = 0 at every t: no pullback, no norm of one
        op = from_hardy_cesaro(PowerMap(1.0, 0.0), PowerMap(0.0, 1.0))
        cfg = BoundConfig(op, (SlotParams(q=LogInterp(3.0, 2.0)),))
        with pytest.raises(SingularFamilyError):
            evaluate_constant(cfg, cid)

    @pytest.mark.parametrize("zeta, slot", [
        (math.nan, {}), (math.inf, {}), (1.0, {"p": math.inf}), (1.0, {"p": math.nan}),
        (1.0, {"gamma": math.nan}), (1.0, {"lam": -math.inf}),
    ])
    def test_parameters_are_finite(self, hardy_op, zeta, slot):
        with pytest.raises(ValueError, match="finite"):
            BoundConfig(hardy_op, (SlotParams(q=Constant(2.0), **slot),), zeta=zeta)

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
    # the endpoint slope is -inf, so no tail is cut (the one stop rule,
    # _quad.cut, never runs), and the residual's finite limit at infinity
    # decides it without a rule: no exponent is evaluated at a node or a
    # tail candidate
    calls = []
    monkeypatch.setattr(_quad, "cut", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(luxemburg._Modular, "_node_data", lambda *args: calls.append(args))
    cfg = load_config(FIXTURES / "divergent_c1.json").bound_config()
    res = evaluate_constant(cfg, "C1")
    assert not res.finite
    assert res.breakdown["endpoint_slope"] is None
    assert calls == []


def loginterp_cfg(kernel_a=1.0, s=(1.0, 1.0), q=(3.0, 2.0), zeta=1.0, support=(0.0, 1.0)):
    """loginterp_norm.json with its kernel power, support, family map, q
    and zeta replaced."""
    obj = json.loads((FIXTURES / "loginterp_norm.json").read_text())
    obj["kernel"].update(a=kernel_a, support=[support[0], None if math.isinf(support[1])
                                              else support[1]])
    obj["families"][0]["s"] = {"c": s[0], "a": s[1]}
    obj["slots"][0]["q"] = {"type": "log_interp", "p0": q[0], "p_inf": q[1]}
    obj["zeta"] = zeta
    return ExperimentConfig.from_json(obj).bound_config()


def gauss_legendre_s(integrand, s_lo: float) -> float:
    """Integral of integrand(s) over [s_lo, 0]: 16-point Gauss-Legendre on
    44 equal panels, a fixed rule."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(s_lo, 0.0, 45)
    return math.fsum(0.5 * (hi - lo) * wi * integrand(0.5 * (lo + hi) + 0.5 * (hi - lo) * xi)
                     for lo, hi in zip(edges[:-1], edges[1:]) for xi, wi in zip(x, w))


def c1_oracle(kernel_a: float) -> float:
    """C1 of loginterp_cfg(kernel_a): a fixed rule in s = ln t over [-709, 0],
    each node one norm of one, and past s = -709 the closed form, with the
    c-factor t^(-1/2) and the norm of one at its limit exponent
    1/r = 1/2 - 1/q."""
    cfg = loginterp_cfg(kernel_a)
    op = cfg.operator
    fam, q, k = op.families[0], cfg.slots[0].q, op.kernel

    def integrand(s):
        t = math.exp(s)
        eta = luxemburg.norm_of_one(difference_reciprocal(pullback_exponent(q, fam, t), q, 1.0),
                                    luxemburg.Region.all(), 1)
        return op.sigma * k.c * t ** kernel_a * c_factor(fam, q, 0.0, t) * eta

    limit = luxemburg.norm_of_one(difference_reciprocal(Constant(2.0), q, 1.0),
                                  luxemburg.Region.all(), 1)
    t_edge = math.exp(-709.0)
    c_edge = c_factor(fam, q, 0.0, t_edge) * math.sqrt(t_edge)
    rest = op.sigma * k.c * c_edge * limit * t_edge ** (kernel_a - 0.5) / (kernel_a - 0.5)
    return gauss_legendre_s(integrand, -709.0) + rest


class TestKernelEnds:
    """A constant's power slope at a singular kernel end adds each
    norm-of-one factor's closed-form end slope kappa: 0 where |s(t)| -> 0,
    and n a max(0, 1/q(0) - 1/(zeta q(inf))) where |s(t)| -> inf."""

    @pytest.mark.parametrize("q, n, s, at_zero, radii, kappa, measured, tol", [
        (PiecewiseRadial((1.0,), (2.0, 3.0)), 1, PowerMap(1.0, -1.0), True,
         (1e-128, 1e-256), -1.0 / 6.0, -0.16667, 1e-5),
        (PiecewiseRadial((0.5, 2.0), (2.0, 2.5, 3.0)), 1, PowerMap(1.0, 2.0), False,
         (1e128, 1e150), 1.0 / 3.0, 0.33333, 1e-5),
        (LogInterp(2.0, 3.0), 2, PowerMap(1.0, -1.0), True,
         (1e-128, 1e-256), -1.0 / 3.0, -0.33254, 1e-5),
        (LogInterp(1.5, 4.0), 1, PowerMap(3.0, -0.5), True,
         (1e-128, 1e-256), -0.5 * (1.0 / 1.5 - 1.0 / 4.0), -0.20735, 1e-5),
    ], ids=["steps-1/t", "steps-t^2", "loginterp-n2", "loginterp-3t^-0.5"])
    def test_end_slope_matches_the_measured_slope(self, q, n, s, at_zero, radii, kappa,
                                                  measured, tol):
        factor = bounds._NormOne(n, q, DiagonalEqualModulus(s, (1,) * n), 1.0, 1e-9)
        assert factor.end(at_zero)[2] == pytest.approx(kappa, rel=1e-12)
        (t1, t2) = radii
        ln1, ln2 = (factor(math.log(t)) for t in radii)
        assert (ln2 - ln1) / math.log(t2 / t1) == pytest.approx(measured, abs=tol)

    @pytest.mark.parametrize("kernel_a", [0.52, 0.54, 0.6, 0.7])
    def test_slow_tails_are_finite(self, kernel_a):
        # the node factor tends to a finite limit, so the end slope is the
        # closed-form factors' a - 3/2 > -1; a probed slope read these as
        # divergent, or sent the tail past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = evaluate_constant(loginterp_cfg(kernel_a), "C1")
        assert res.finite
        assert res.value == pytest.approx(c1_oracle(kernel_a), rel=1e-9)

    def test_boundary_slope_is_exact(self):
        res = evaluate_constant(loginterp_cfg(0.5), "C1")
        assert not res.finite
        assert res.breakdown["endpoint_slope"] == -1.0

    @pytest.mark.parametrize("kernel_a", [0.06, 0.07, 0.08])
    def test_growing_factor_diverges_by_its_closed_form_slope(self, kernel_a):
        # s = 3 t^(-1/2): the c-factor is 3^(-1/4) t^(1/8) near 0, and kappa
        # = -(1/2)(1/1.5 - 1/4), so the end slope is a - 1 + 1/8 + kappa
        cfg = loginterp_cfg(kernel_a, s=(3.0, -0.5), q=(1.5, 4.0))
        res = evaluate_constant(cfg, "C1")
        assert not res.finite
        expected = kernel_a - 1.0 + 0.125 - 0.5 * (1.0 / 1.5 - 0.25)
        assert res.breakdown["endpoint_slope"] == pytest.approx(expected, rel=1e-12)

    def test_growing_factor_past_the_float_range(self):
        # s = 1/t, kernel a = -0.1: the tail runs past ln |s(t)| = 700, where
        # the factor is N(t_edge) (t / t_edge)^kappa
        res = evaluate_constant(loginterp_cfg(-0.1, s=(1.0, -1.0), q=(2.0, 3.0)), "C1")
        assert res.finite and 0.0 < res.value < math.inf
        assert res.breakdown["pieces"][0]["s_lo"] < -700.0

    def test_growing_factor_against_oracle(self):
        # s = 3 t^(-1/2), q = LogInterp(1.5, 4), kernel a = 0.1: t underflows
        # from s = -745 on, but ln |s(t)| stays inside +-700 down to s = -1398.
        # Oracle: a fixed rule in s over [-1398, 0], the norms of one from
        # ln |s(t)| alone, the c-factor |s(t)|^(-1/4), and past the edge the
        # tail of N(t_edge) (t/t_edge)^kappa
        cfg = loginterp_cfg(0.1, s=(3.0, -0.5), q=(1.5, 4.0))
        q, sigma = cfg.slots[0].q, cfg.operator.sigma

        def integrand(s):
            ln_s = math.log(3.0) - 0.5 * s
            eta = luxemburg.norm_of_one(difference_reciprocal(Rescaled(q, math.exp(-ln_s)), q, 1.0),
                                        luxemburg.Region.all(), 1)
            return sigma * math.exp(0.1 * s - 0.25 * ln_s) * eta

        s_edge = 2.0 * (math.log(3.0) - 700.0)
        rate = 0.1 + 0.125 - 0.5 * (1.0 / 1.5 - 0.25)
        oracle = gauss_legendre_s(integrand, s_edge) + integrand(s_edge) / rate
        res = evaluate_constant(cfg, "C1")
        assert res.breakdown["pieces"][0]["s_lo"] < s_edge
        assert res.value == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("kernel_a, value", [(0.8, 10.059085995482503),
                                                 (1.0, 6.9426805733164745)])
    def test_growing_factor_stays_in_the_norms_range(self, kernel_a, value):
        # n = 2, s = 1/t, q = LogInterp(1.2, 4): N grows like |s|^(7/6), so
        # at ln |s| = 700 it would pass the largest norm; the edge moves in
        # to ln N = 600, and C1 keeps its value
        kern = RadialKernel(1.0, kernel_a, 0.0, 1.0)
        op = OperatorSpec(2, 1, kern, (ScalarDilation(PowerMap(1.0, -1.0), 2),))
        res = evaluate_constant(BoundConfig(op, (SlotParams(q=LogInterp(1.2, 4.0)),)), "C1")
        assert res.value == pytest.approx(value, rel=1e-12)

    def test_growing_factor_value(self):
        res = evaluate_constant(loginterp_cfg(1.0, s=(1.0, -1.0), q=(2.0, 3.0)), "C1")
        assert res.value == pytest.approx(0.8082265243661072, rel=1e-12)

    def test_pullback_limit_at_zero(self, hardy_op):
        # sup_x q(x/t)/q(x) -> q(inf)/q(0) = 3/2 as t -> 0, above zeta = 1.45,
        # though every sampled kernel radius passes
        cfg = BoundConfig(hardy_op, (SlotParams(q=LogInterp(2.0, 3.0)),), zeta=1.45)
        with pytest.raises(HypothesisError, match="fails as t -> 0"):
            evaluate_constant(cfg, "C1")

    def test_pullback_limit_at_infinity(self):
        # s = t^(1/2) on [0, inf): q(x/s(t)) -> q(0) = 3 > q(inf) = 2
        cfg = loginterp_cfg(0.3, s=(1.0, 0.5), support=(0.0, math.inf))
        for cid in ("C1", "C2", "C5"):
            with pytest.raises(HypothesisError, match="fails as t -> inf"):
                evaluate_constant(cfg, cid)


def per_node_log_norm(q, fam, zeta, n, t):
    """ln N(t) by the public per-node path, or the HypothesisError text the
    constants give where the pullback bound fails at t."""
    try:
        resid = difference_reciprocal(pullback_exponent(q, fam, t), q, zeta)
    except ReciprocalSignError as exc:
        return f"pullback bound q(A^-1(t) x) <= zeta q(x) fails at t={t:.4g}, |x|={exc.radius:.4g}"
    eta = luxemburg.norm_of_one(resid, luxemburg.Region.all(), n, rel_tol=1e-7)
    return math.log(eta)


class ExponentRows:
    """A batch of exponent rows as luxemburg._Modular takes them: p_at(r)
    gives each row's exponent at the radii r, and every row claims
    infinite limits at 0 and at infinity."""

    is_constant = False

    def __init__(self, p_at, count: int):
        self.p_at, self.p_zero, self.p_infty = p_at, np.full(count, math.inf), np.full(count, math.inf)

    def __call__(self, r):
        return self.p_at(r)

    def discontinuities(self):
        return ()


class TestBatchedNormsOfOne:
    """A node factor solves a whole array of kernel radii as one batch on
    one shared rule; every row matches the per-node norm of one."""

    QS = {
        "loginterp-down": LogInterp(3.0, 2.0),
        "loginterp-up": LogInterp(2.0, 3.0),
        "steps-down": PiecewiseRadial((0.5, 2.0), (3.0, 2.5, 2.0)),
        "steps-up": PiecewiseRadial((0.5, 2.0), (2.0, 2.5, 3.0)),
    }

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), q=st.sampled_from(sorted(QS)),
           a=st.sampled_from([1.0, -1.0, 0.5]), zeta=st.sampled_from([1.0, 1.3]),
           n=st.sampled_from([1, 2]))
    def test_rows_match_the_per_node_norms(self, seed, q, a, zeta, n):
        q, rng = self.QS[q], seeded(seed)
        fam = ScalarDilation(PowerMap(1.0, a), n)
        s = np.array(sorted(rng.uniform(-6.0, 6.0) for _ in range(rng.randint(1, 8))))
        expected = [per_node_log_norm(q, fam, zeta, n, t) for t in np.exp(s).tolist()]
        failure = next((e for e in expected if isinstance(e, str)), None)
        factor = bounds._NormOne(n, q, fam, zeta, 1e-7)
        if failure is not None:
            # the first failing t in order, with its first failing |x|
            with pytest.raises(HypothesisError) as err:
                factor(s)
            assert str(err.value) == failure
            return
        rules, rule_type = [], luxemburg._Modular
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(luxemburg, "_Modular",
                       lambda *args: rules.append(rule_type(*args)) or rules[-1])
            got = factor(s)
        for g, e in zip(got.tolist(), expected):
            assert g == e if math.isinf(e) else abs(g - e) <= 1e-9
        # each solved row's certificate holds on its batch's final rule,
        # whose rows are the solved ones; a batch of dead rows fits no rule
        solved = [g for g in got.tolist() if 0.0 < g < math.inf]
        rules = [rule for rule in rules if rule.lo is not None]
        assert len(rules) == (1 if solved else 0)
        if solved:
            x = np.array(solved)
            rows = slice(None)
            assert rules[0].count == len(solved)
            assert np.all(rules[0].log_fs(x, rows)[0] <= 0.0)
            below = np.log(np.exp(x) * (1.0 - luxemburg.CERT_DELTA))
            assert np.all(rules[0].log_fs(below, rows)[0] > 0.0)

    def test_flat_rows_take_no_rule(self, monkeypatch):
        # t at or next to 1 pulls q back to itself within RECIP_ZERO_TOL:
        # the residual is flat and ln N is exactly 0, with no rule built
        cfg = load_config(str(FIXTURES / "loginterp_norm.json")).bound_config()
        fam, q = cfg.operator.families[0], cfg.slots[0].q
        monkeypatch.setattr(luxemburg, "_Modular", None)
        factor = bounds._NormOne(1, q, fam, 1.0, 1e-7)
        assert factor(np.array([-1e-13, 0.0, 1e-13])).tolist() == [0.0, 0.0, 0.0]

    def test_row_without_tail_cutoff_is_infinite(self):
        # p = 1 gives the integrand e^(s - x), which drops below the search
        # target nowhere up to x = ln 1e280, so that row climbs to the end
        # of the search range and is infinite; the other row solves on the
        # rule all the same.  Both rows claim infinite limits, so both ends
        # take search_points.  With a row whose exponent is finite at
        # infinity in front, dead from the start (its integrand tends to
        # r^(n-1) at every eta), that row is infinite too, and so are the
        # modular and the norm of 1 against its exponent alone
        dead = LogInterp(3.0, 2.0)

        def p_at(r):
            return np.stack((dead(r), np.ones(r.shape), 2.0 + np.log1p(r) ** 2))

        alone = luxemburg._log_norms_of_one(ExponentRows(lambda r: p_at(r)[2:], 1), 1, 1e-9)
        for first in (1, 0):
            rows = ExponentRows(lambda r: p_at(r)[first:], 3 - first)
            if first == 0:
                rows.p_zero[0], rows.p_infty[0] = dead.p_zero, dead.p_infty
            got = luxemburg._log_norms_of_one(rows, 1, 1e-9)
            assert got[:-1].tolist() == [math.inf] * (2 - first)
            assert abs(got[-1] - alone[0]) <= 1e-9
        one = luxemburg.PiecewisePowerFunction.one()
        assert luxemburg.modular(one, dead, luxemburg.Region.all(), 1) == math.inf
        assert luxemburg.luxemburg_norm(one, dead, luxemburg.Region.all(), 1) == math.inf

    def test_evaluation_cap(self):
        # each Newton solve of a row takes more than two evaluations of ln F
        rows = ExponentRows(lambda r: (2.0 + np.log1p(r) ** 2)[None], 1)
        assert np.isfinite(luxemburg._log_norms_of_one(rows, 1, 1e-9)).all()
        with pytest.raises(luxemburg.BracketError, match="iteration cap"):
            luxemburg._log_norms_of_one(rows, 1, 1e-9, max_iter=2)


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
