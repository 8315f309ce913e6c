import math
from dataclasses import replace
from pathlib import Path

import pytest

from hausnorm import harness, hausdorff
from hausnorm.bounds import BoundConfig, HypothesisError, SlotParams
from hausnorm.config import load_config
from hausnorm.exponents import Constant, LogInterp
from hausnorm.harness import (
    ExtremalError,
    SamplingError,
    extremal_family,
    is_exact_configuration,
    random_test_functions,
    sharpness_sweep,
    spaces_for_constant,
    upper_bound_suite,
)
from hausnorm.hausdorff import OperatorSpec, RadialKernel, operator_ratio
from hausnorm.luxemburg import Region, luxemburg_norm
from hausnorm.matrices import PowerMap, ScalarDilation
from hausnorm.spaces import SpaceSpec, space_norm


ROOT = Path(__file__).parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
CONFIGS = ROOT / "perfbench" / "configs"


def count_calls(monkeypatch, module, name):
    """Rebind module.name to a wrapper; the returned list grows by one per call."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def central_cfg():
    kern = RadialKernel(1.0, 0.0, 1.0, 2.0, one_sided=False)
    op = OperatorSpec(1, 1, kern, (ScalarDilation(PowerMap(1.0, 1.0), 1),))
    return op, BoundConfig(op, (SlotParams(q=Constant(2.0), lam=-0.1),))


class TestExtremalFamily:
    def test_central_morrey_power(self):
        _op, cfg = central_cfg()
        fs = extremal_family("central_morrey_power", cfg)
        assert len(fs) == 1
        assert fs[0].segments[0].expr.constant_value() == pytest.approx(-0.1)
        src, _ = spaces_for_constant(cfg, "C12")
        norm = space_norm(fs[0], src[0]).value
        assert norm == pytest.approx(0.5**-0.1 * 0.8**-0.5, rel=1e-9)

    def test_lebesgue_eps_norm(self, hardy_op, hardy_cfg):
        eps = 0.01
        fs = extremal_family("lebesgue_eps", hardy_cfg, eps)
        f = fs[0]
        seg = f.segments[0]
        assert seg.r_lo == pytest.approx(1.0)  # conditioning constant is 1 here
        assert seg.expr(5.0) == pytest.approx(-0.51)
        norm_sq = luxemburg_norm(f, Constant(2.0), Region.all(), 1) ** 2
        assert norm_sq == pytest.approx(1.0 / eps, rel=1e-9)

    def test_eps_required(self, hardy_cfg):
        with pytest.raises(ValueError):
            extremal_family("lebesgue_eps", hardy_cfg, None)
        with pytest.raises(ValueError):
            extremal_family("lebesgue_eps", hardy_cfg, 0.0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_eps_must_be_finite(self, hardy_cfg, eps):
        with pytest.raises(ValueError, match="finite eps > 0"):
            extremal_family("lebesgue_eps", hardy_cfg, eps)

    def test_morrey_herz_power_needs_admissible_cfg(self, hardy_op):
        # decreasing alpha violates the admissible window: infinite norm reported
        cfg = BoundConfig(
            hardy_op,
            (SlotParams(q=Constant(2.0), alpha=Constant(0.5, signed=True), lam=0.0),),
        )
        with pytest.raises(ExtremalError):
            extremal_family("morrey_herz_power", cfg)

    def test_herz_b2_eps_expr(self, hardy_op):
        cfg = BoundConfig(
            hardy_op,
            (SlotParams(q=LogInterp(3.0, 2.0), alpha=Constant(0.3, signed=True), lam=0.0),),
        )
        fs = extremal_family("herz_b2_eps", cfg, 0.05)
        # exponent is -sup|alpha| - n/q(r) - eps at each radius
        f = fs[0]
        r = 2.0
        assert f.segments[0].expr(r) == pytest.approx(-0.3 - 1.0 / LogInterp(3.0, 2.0)(r) - 0.05)


class TestRandomFunctions:
    def test_deterministic(self):
        space = SpaceSpec("lebesgue", 1, Constant(2.0))
        a = random_test_functions(1, 3, space)
        b = random_test_functions(1, 3, space)
        assert a == b

    def test_finite_norms(self):
        space = SpaceSpec("herz", 1, Constant(2.0), alpha=Constant(0.4, signed=True), p_outer=2.0)
        for f in random_test_functions(5, 5, space):
            v = space_norm(f, space).value
            assert 0.0 < v < math.inf

    def test_no_admissible_draw_is_a_sampling_error(self):
        # the functions live in 2^-6 < r < 2^6, so every shell norm of the window is 0
        space = SpaceSpec("herz", 1, Constant(2.0), alpha=Constant(0.3, signed=True), p_outer=2.0)
        with pytest.raises(SamplingError, match="could not sample admissible functions"):
            random_test_functions(3, 2, space, k_range=(20, 30))
        assert issubclass(SamplingError, RuntimeError)

    def test_supports_straddle_unity(self):
        space = SpaceSpec("lebesgue", 1, Constant(2.0))
        found = False
        for seed in range(1, 101):
            for f in random_test_functions(seed, 1, space):
                lo, hi = f.support()
                if lo < 1.0 < hi:
                    found = True
        assert found


class TestSpacesForConstant:
    @pytest.mark.parametrize(
        "cid, kind, dilated, gamma_over_q",
        [
            ("C3", "morrey_herz", True, False),
            ("C4", "herz", True, False),
            ("C5", "morrey_herz", False, False),
            ("C5*", "morrey_herz", False, False),
            ("C6", "herz", False, False),
            ("C6*", "herz", False, False),
            ("C7", "morrey_herz", False, True),
            ("C8", "herz", False, True),
        ],
    )
    def test_herz_type_spaces(self, hardy_op, cid, kind, dilated, gamma_over_q):
        # Herz is Morrey-Herz at lam = 0; only C3/C4 take the zeta-dilated
        # exponent and only C7/C8 couple gamma through q
        cfg = BoundConfig(
            hardy_op, (SlotParams(q=Constant(2.0), gamma=0.3, lam=0.2, p=3.0),), zeta=1.5)
        (src,), tgt = spaces_for_constant(cfg, cid)
        lam = 0.2 if kind == "morrey_herz" else 0.0
        gamma = 0.15 if gamma_over_q else 0.3
        assert (src.kind, tgt.kind) == (kind, kind)
        assert (src.lam, tgt.lam) == (lam, lam)
        assert src.q(1.0) == pytest.approx(3.0 if dilated else 2.0)
        assert tgt.q(1.0) == pytest.approx(2.0)
        assert (src.gamma, tgt.gamma) == (pytest.approx(gamma), pytest.approx(gamma))
        assert (src.p_outer, tgt.p_outer) == (3.0, pytest.approx(3.0))


class TestUpperBoundSuite:
    def test_hardy_no_violations(self, hardy_op, hardy_cfg):
        suite = upper_bound_suite(hardy_op, hardy_cfg, "C9", 20, 42)
        assert suite.exact
        assert suite.constant == pytest.approx(2.0)
        assert not suite.violations
        assert suite.max_ratio <= 2.0 * (1 + 1e-3)

    def test_reproducible_to_the_bit(self, hardy_op, hardy_cfg):
        a = upper_bound_suite(hardy_op, hardy_cfg, "C9", 10, 7)
        b = upper_bound_suite(hardy_op, hardy_cfg, "C9", 10, 7)
        assert a.rows == b.rows

    def test_worker_count_invariance(self, hardy_op, hardy_cfg):
        a = upper_bound_suite(hardy_op, hardy_cfg, "C9", 8, 3, workers=1)
        b = upper_bound_suite(hardy_op, hardy_cfg, "C9", 8, 3, workers=4)
        assert a.rows == b.rows

    def test_divergent_constant_raises(self, hardy_op):
        cfg = BoundConfig(hardy_op, (SlotParams(q=Constant(2.0)),), zeta=2.0)
        with pytest.raises(HypothesisError):
            upper_bound_suite(hardy_op, cfg, "C1", 5, 42)

    @pytest.mark.parametrize("path, cid, k_range, min_draws", [
        (FIXTURES / "hardy_p2.json", "C9", None, 3),
        (FIXTURES / "bilinear_p4.json", "C9", None, 6),
        (CONFIGS / "herz_a03.json", "C8", None, 3),
        # shells k >= 6 miss some draws, which are replaced
        (CONFIGS / "herz_a03.json", "C8", (6, 40), 4),
        (CONFIGS / "morrey_herz_a03.json", "C7", None, 3),
    ], ids=["hardy_p2", "bilinear_p4", "herz_a03", "herz_a03_k6", "morrey_herz_a03"])
    def test_rows_match_operator_ratio(self, path, cid, k_range, min_draws, monkeypatch):
        """The suite divides by the norms its draws were accepted with: one
        space norm per draw, replaced draws included, and one per image."""
        cfg = load_config(str(path))
        st = cfg.settings
        if k_range is not None:
            st = replace(st, k_range=k_range, k0_range=k_range)
        op, bc = cfg.operator(), cfg.bound_config()
        windows = (st.k_range, st.k0_range, st.r_grid_range)
        grid = (st.grid_octaves, st.points_per_octave, st.rel_tol)
        n, seed = 3, 3
        norms = count_calls(monkeypatch, harness, "space_norm")
        image_norms = count_calls(monkeypatch, hausdorff, "space_norm")
        draws = count_calls(monkeypatch, harness, "PiecewisePowerFunction")
        suite = upper_bound_suite(
            op, bc, cid, n, seed, k_range=st.k_range, k0_range=st.k0_range,
            j_range=st.r_grid_range, grid_octaves=st.grid_octaves,
            points_per_octave=st.points_per_octave, rel_tol=st.rel_tol,
        )
        assert len(draws) >= min_draws
        assert (len(norms), len(image_norms)) == (len(draws), n)
        monkeypatch.undo()

        sources, target = spaces_for_constant(bc, cid)
        per_slot = [
            random_test_functions(seed + 7919 * i, n, src, *windows, st.rel_tol)
            for i, src in enumerate(sources)
        ]
        oracle = [
            operator_ratio(op, fs, sources, target, *windows, *grid)
            for fs in zip(*per_slot)
        ]
        assert [r for _s, _i, r in suite.rows] == oracle

    def test_exactness_predicate(self, hardy_cfg):
        assert is_exact_configuration(hardy_cfg, "C9")
        assert not is_exact_configuration(hardy_cfg, "C2")
        _op, ccfg = central_cfg()
        assert is_exact_configuration(ccfg, "C12")


class TestSharpnessSweep:
    @pytest.mark.parametrize("eps_list", [[math.inf, 0.1], [0.1, math.nan], [math.nan]])
    def test_eps_list_must_be_finite(self, hardy_op, hardy_cfg, eps_list):
        # an infinite epsilon gave the row inf, nan; NaN passed every check
        with pytest.raises(ValueError, match="positive and finite"):
            sharpness_sweep(hardy_op, hardy_cfg, "lebesgue_eps", eps_list)

    def test_hardy_rows_match_oracle(self, hardy_op, hardy_cfg):
        sweep = sharpness_sweep(hardy_op, hardy_cfg, "lebesgue_eps", [0.1, 0.03, 0.01])
        assert sweep.constant_id == "C9"
        assert sweep.monotone and sweep.final_within_10pct
        assert sweep.rows[-1][1] == pytest.approx(1.980, abs=5e-3)
        for eps, ratio, _c, _rc in sweep.rows:
            oracle = math.sqrt(
                (0.5 - eps) ** -2 * (1.0 - 4.0 * eps / (0.5 + eps) + 2.0 * eps)
            )
            assert ratio == pytest.approx(oracle, abs=1e-4)

    def test_central_rows_constant(self, monkeypatch):
        op, cfg = central_cfg()
        families = count_calls(monkeypatch, harness, "extremal_family")
        images = count_calls(monkeypatch, hausdorff, "apply_on_grid")
        sweep = sharpness_sweep(op, cfg, "central_morrey_power", [0.1, 0.05])
        expected = 2.0 * (2.0**-0.1 - 1.0) / (-0.1)
        for row in sweep.rows:
            assert row[1] == pytest.approx(expected, rel=1e-9)
            assert row[3] == pytest.approx(1.0, rel=1e-9)
        # the epsilon-free family is built and imaged once for both rows
        assert (len(families), len(images)) == (1, 1)

    @pytest.mark.parametrize("name, kind, cid, builds", [
        ("central_morrey_m1.json", "central_morrey_power", "C12", 1),
        ("hardy_p2.json", "lebesgue_eps", "C9", 3),
    ])
    def test_rows_match_per_eps_oracle(self, name, kind, cid, builds, monkeypatch):
        cfg = load_config(str(FIXTURES / name))
        st = cfg.settings
        op, bc = cfg.operator(), cfg.bound_config()
        eps_list = st.eps_list
        assert len(eps_list) == 3
        windows = (st.k_range, st.k0_range, st.r_grid_range)
        # the grid the CLI gives a sweep
        grid = ((st.grid_octaves[0], max(st.grid_octaves[1], 64)),
                max(st.points_per_octave, 32), st.rel_tol)
        families = count_calls(monkeypatch, harness, "extremal_family")
        images = count_calls(monkeypatch, hausdorff, "apply_on_grid")
        sweep = sharpness_sweep(
            op, bc, kind, eps_list, constant_id=cid, k_range=st.k_range,
            k0_range=st.k0_range, j_range=st.r_grid_range, grid_octaves=grid[0],
            points_per_octave=grid[1], rel_tol=st.rel_tol,
        )
        assert (len(families), len(images)) == (builds, builds)
        monkeypatch.undo()

        sources, target = spaces_for_constant(bc, cid)
        oracle = []
        for eps in eps_list:
            fs = extremal_family(kind, bc, eps if kind.endswith("_eps") else None,
                                 *windows, st.rel_tol)
            ratio = operator_ratio(op, fs, sources, target, *windows, *grid)
            oracle.append((eps, ratio, sweep.constant, ratio / sweep.constant))
        assert list(sweep.rows) == oracle

    def test_source_norms_computed_once(self, monkeypatch):
        # the lebesgue_eps family is admitted in the C2 sources, which on
        # hardy_p2 equal C9's: each member's norm is its ratio's denominator,
        # so one source norm and one image norm per epsilon, not 3 of 9
        cfg = load_config(str(FIXTURES / "hardy_p2.json"))
        st = cfg.settings
        source_norms = count_calls(monkeypatch, harness, "space_norm")
        image_norms = count_calls(monkeypatch, hausdorff, "space_norm")
        sweep = sharpness_sweep(cfg.operator(), cfg.bound_config(), "lebesgue_eps",
                                st.eps_list, rel_tol=st.rel_tol)
        assert (len(source_norms), len(image_norms)) == (3, 3)
        want = [1.8257346257459031, 1.9425694205368578, 1.9802943104152242]
        assert [r[1] for r in sweep.rows] == pytest.approx(want, rel=1e-12)

    def test_eps_list_validation(self, hardy_op, hardy_cfg):
        with pytest.raises(ValueError):
            sharpness_sweep(hardy_op, hardy_cfg, "lebesgue_eps", [0.01, 0.1])
        with pytest.raises(ValueError):
            sharpness_sweep(hardy_op, hardy_cfg, "lebesgue_eps", [])
