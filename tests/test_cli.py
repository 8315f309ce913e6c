import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from hausnorm.bounds import CONSTANT_IDS
from hausnorm.cli import main
from hausnorm.config import ConfigError, ExperimentConfig, family_from_json, load_config
from hausnorm.harness import upper_bound_suite
from hausnorm.matrices import DiagonalEqualModulus, OrthogonalTimesScalar, PowerMap

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))
HERZ_A03 = Path(__file__).parents[1] / "perfbench" / "configs" / "herz_a03.json"


def reject_non_finite(token):
    raise ValueError(f"non-finite JSON number {token}")


HARDY_SLOT = {"q": {"type": "constant", "value": 2.0}, "gamma": 0.0,
              "alpha": {"type": "constant", "value": 0.0}, "lambda": 0.0, "p": 2.0}

# Morrey-Herz with alpha = 0.3, lambda = 0.1: the power family's source
# norm is flagged as truncated
MORREY_HERZ_A03_L01 = {
    "n": 1,
    "m": 1,
    "kernel": {"c": 1.0, "a": 1.0, "support": [0.0, 1.0], "one_sided": True},
    "families": [{"type": "scalar_dilation", "s": {"c": 1.0, "a": 1.0}}],
    "slots": [
        {"q": {"type": "constant", "value": 2.0}, "gamma": 0.0,
         "alpha": {"type": "constant", "value": 0.3}, "lambda": 0.1, "p": 2.0}
    ],
    "zeta": 1.0,
    "space_kind": "morrey_herz",
    "quadrature": {"rel_tol": 1e-9, "seed": 42},
}


def hardy_with(**change):
    return {**json.loads((FIXTURES / "hardy_p2.json").read_text()), **change}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "hausnorm.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


class TestNorm:
    def test_lebesgue_fixture(self, capsys):
        code = main(["norm", "--config", str(FIXTURES / "hardy_p2.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["norm"] == pytest.approx(1.4142136, abs=1e-6)

    def test_central_morrey_fixture(self, capsys):
        code = main(["norm", "--config", str(FIXTURES / "central_morrey_m1.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["norm"] == pytest.approx(1.19828, abs=1e-4)

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["norm", "--config", str(bad)]) == 2

    def test_below_search_range_exits_1(self):
        # c = 1e-300 on [1, 2): the norm is below the root-find's 1e-280
        proc = run_cli("norm", "--config", str(FIXTURES / "tiny_norm.json"))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            "root-find error: modular stays below 1 for arbitrarily small eta\n")


class TestConstants:
    def test_hardy_c9(self, capsys):
        code = main(["constants", "--config", str(FIXTURES / "hardy_p2.json"), "--which", "C9"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] == pytest.approx(2.0, abs=1e-9)
        assert out["finite"] is True

    def test_central_c12(self, capsys):
        code = main(
            ["constants", "--config", str(FIXTURES / "central_morrey_m1.json"), "--which", "C12"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] == pytest.approx(1.33934, abs=1e-5)

    def test_divergent_breakdown(self, capsys):
        code = main(
            ["constants", "--config", str(FIXTURES / "divergent_c1.json"), "--which", "C1"]
        )
        out = json.loads(capsys.readouterr().out, parse_constant=reject_non_finite)
        assert code == 0
        assert out["value"] is None and out["finite"] is False
        assert out["breakdown"] == {
            "divergent_at": [0.0, 1.0],
            "endpoint_slope": None,
            "factors": ["c-factor", "norm-of-one"],
            "pieces": [],
        }

    def test_slow_tail_exits_0(self, capsys):
        # kernel a = 0.6: the node factor's end slope is 0, so C1's
        # integrand is like t^-0.9 at 0, and its tail runs past the float range
        code = main(["constants", "--config", str(FIXTURES / "loginterp_c1_a06.json"),
                     "--which", "C1"])
        out = json.loads(capsys.readouterr().out, parse_constant=reject_non_finite)
        assert code == 0 and out["finite"] is True
        assert out["value"] == pytest.approx(12.633969055503831, rel=1e-9)

    def test_pullback_limit_at_zero_exits_1(self, capsys):
        # q = LogInterp(2, 3), zeta = 1.45: the bound fails only as t -> 0
        code = main(["constants", "--config", str(FIXTURES / "loginterp_zeta_limit.json"),
                     "--which", "C1"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("hypothesis error: pullback bound") and "as t -> 0" in err

    def test_pullback_limit_at_infinity_exits_1(self, tmp_path, capsys):
        # s = t^(1/2) on [0, inf) with q = LogInterp(3, 2): it fails as t -> inf
        obj = json.loads((FIXTURES / "loginterp_norm.json").read_text())
        obj["kernel"].update(a=0.3, support=[0.0, None])
        obj["families"][0]["s"]["a"] = 0.5
        path = tmp_path / "unbounded.json"
        path.write_text(json.dumps(obj))
        code = main(["constants", "--config", str(path), "--which", "C1"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("hypothesis error: pullback bound") and "as t -> inf" in err

    @pytest.mark.parametrize("which", ["C3", "C4", "C5", "C5*", "C6", "C6*"])
    def test_kernel_away_from_zero_exits_0(self, which, capsys):
        code = main(["constants", "--config", str(FIXTURES / "hardy_kernel_1_49.json"),
                     "--which", which])
        out = json.loads(capsys.readouterr().out, parse_constant=reject_non_finite)
        assert code == 0
        assert out["finite"] is True
        expected = {"C3": 36.0, "C4": 62.353829072479584}.get(which, 12.0)
        assert out["value"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_constant_is_strict_json(self, name, capsys):
        for cid in CONSTANT_IDS:
            code = main(["constants", "--config", str(FIXTURES / name), "--which", cid])
            out = capsys.readouterr().out
            if code == 0:
                obj = json.loads(out, parse_constant=reject_non_finite)
                assert obj["id"] == cid
            else:
                assert code == 1 and out == ""

    @pytest.mark.parametrize("brk", [1e-7, 1e-3])
    @pytest.mark.parametrize("which", ["C1", "C2", "C2*"])
    def test_step_exponent_is_a_hypothesis_error(self, which, brk, tmp_path, capsys):
        path = FIXTURES / "hardy_step_q_1e-7.json"
        if brk != 1e-7:
            step = {"type": "piecewise", "breaks": [brk], "values": [2.0, 3.0]}
            path = tmp_path / "step.json"
            path.write_text(json.dumps(hardy_with(slots=[{**HARDY_SLOT, "q": step}])))
        code = main(["constants", "--config", str(path), "--which", which])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("hypothesis error: pullback bound")

    def test_unknown_id_exits_2(self, capsys):
        code = main(["constants", "--config", str(FIXTURES / "hardy_p2.json"), "--which", "C13"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"families": [{"type": "diag_equal", "s": {"c": 1, "a": 1}, "signs": [1, -1]}]},
            {"n": 2},  # the one-sided kernel exists only at n = 1
            {"families": [{"type": "scalar_dilation", "s": {"c": 0, "a": 1}}]},
            {"slots": [{**HARDY_SLOT, "p": 0}]},
            {"zeta": 0},
        ],
        ids=["family-dimension", "one-sided-kernel", "vanishing-map", "zero-p", "zero-zeta"],
    )
    def test_config_errors_exit_2(self, change, tmp_path, capsys):
        obj = json.loads((FIXTURES / "hardy_p2.json").read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**obj, **change}))
        code = main(["constants", "--config", str(path), "--which", "C9"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestNonFiniteParameters:
    """A non-finite parameter is a config error where it enters (exit 2),
    never a traceback, a null result that reads as infinite, or a number."""

    @pytest.mark.parametrize("fixture, keys, value, argv", [
        ("hardy_p2.json", ("space", "gamma"), math.nan, ["norm"]),
        ("hardy_p2.json", ("function", "c"), math.nan, ["norm"]),
        ("hardy_p2.json", ("function", "a"), math.nan, ["norm"]),
        ("loginterp_norm.json", ("function", "c"), math.inf, ["norm"]),
        ("hardy_p2.json", ("kernel", "c"), math.nan, ["constants", "--which", "C9"]),
        ("loginterp_norm.json", ("zeta",), math.nan, ["constants", "--which", "C1"]),
        ("hardy_p2.json", ("slots", 0, "gamma"), math.nan, ["constants", "--which", "C1"]),
    ], ids=["space-gamma", "function-c-nan", "function-a", "function-c-inf", "kernel-c", "zeta",
            "slot-gamma"])
    def test_exits_2(self, fixture, keys, value, argv, tmp_path, capsys):
        obj = json.loads((FIXTURES / fixture).read_text())
        node = obj
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = main([argv[0], "--config", str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("config error:") and "Traceback" not in captured.err


class TestArgumentErrors:
    """Bad arguments exit 2 with argparse's usage error, never a traceback,
    and never fall back to the config's value."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "upper", "--which", "C99"],
            ["verify", "--suite", "sharpness", "--kind", "bogus"],
            ["sweep", "--which", "C99"],
            ["sweep", "--kind", "bogus"],
            ["verify", "--suite", "upper", "--n", "0"],
            ["verify", "--suite", "upper", "--n", "-2"],
            ["apply", "--x", "0"],
            ["apply", "--x", "-1"],
            ["apply", "--x", "nan"],
            ["apply", "--x", "inf"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exit_2(self, argv, capsys):
        hardy = str(FIXTURES / "hardy_p2.json")
        assert main([argv[0], "--config", hardy, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: argument" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "quadrature, message",
        [
            ({"points_per_octave": 0}, "points_per_octave 0 must be >= 1"),
            ({"grid_octaves": [48, -40]}, "grid_octaves [48, -40] is reversed"),
            ({"k_range": [40, -40]}, "k_range [40, -40] is reversed"),
            ({"k0_range": [-60, -50]}, "k0_range [-60, -50] ends below k_range [-40, 40]"),
            ({"rel_tol": -1}, "rel_tol -1 must lie in (0, 1)"),
            ({"rel_tol": 1.0}, "rel_tol 1.0 must lie in (0, 1)"),
            ({"N": 0}, "N 0 must be >= 1"),
        ],
        ids=["points-per-octave", "grid-octaves", "k-range", "k0-below-k", "rel-tol",
             "rel-tol-one", "N"],
    )
    def test_quadrature_settings_are_config_errors(self, quadrature, message, tmp_path,
                                                   capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(hardy_with(quadrature=quadrature)))
        code = main(["verify", "--config", str(path), "--suite", "upper", "--n", "2"])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("rel_tol", ["-1", "0", "1", "nan"])
    def test_rel_tol_flag_is_a_config_error(self, rel_tol, capsys):
        code = main(["constants", "--config", str(FIXTURES / "hardy_p2.json"),
                     "--which", "C9", "--rel-tol", rel_tol])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: rel_tol")


class TestApply:
    def test_values_emitted(self, capsys):
        code = main(
            ["apply", "--config", str(FIXTURES / "central_morrey_m1.json"), "--x", "1.0", "2.0"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        vals = [json.loads(l) for l in lines]
        expected = 2.0 * (2.0**-0.1 - 1.0) / (-0.1)
        assert vals[0]["value"] == pytest.approx(expected * 1.0 ** -0.1, rel=1e-9)
        assert vals[1]["value"] == pytest.approx(expected * 2.0 ** -0.1, rel=1e-9)


class TestSweep:
    def test_csv_header_and_final_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", str(FIXTURES / "hardy_p2.json"),
             "--kind", "lebesgue_eps", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,ratio,constant,ratio_over_constant"
        final = lines[-1].split(",")
        assert float(final[0]) == pytest.approx(0.01)
        assert float(final[3]) >= 0.9

    def test_bad_eps_flag_exits_2(self, capsys):
        code = main(["sweep", "--config", str(FIXTURES / "hardy_p2.json"), "--eps", "0.01,0.1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: eps_list [0.01, 0.1]")

    @pytest.mark.parametrize("eps, shown", [("inf,0.1", "[inf, 0.1]"), ("0.1,nan", "[0.1, nan]")])
    def test_non_finite_eps_flag_exits_2(self, eps, shown, capsys):
        # inf wrote the row inf,nan,2,nan and exited 0
        code = main(["sweep", "--config", str(FIXTURES / "hardy_p2.json"),
                     "--kind", "lebesgue_eps", "--eps", eps])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: eps_list {shown}")


class TestSharpnessFailures:
    """sweep and verify --suite sharpness share one front end: a bad eps
    list is a config error, and a failing sweep writes one failed check."""

    @pytest.mark.parametrize(
        "command",
        [["sweep"], ["verify", "--suite", "sharpness"]],
        ids=["sweep", "verify"],
    )
    @pytest.mark.parametrize(
        "config, kind, code, expected",
        [
            (hardy_with(slots=[{**HARDY_SLOT, "gamma": -5}]), "lebesgue_eps", 1,
             "ratio_defined,fail,source norm is inf"),
            (hardy_with(kernel={"c": 0.0, "a": 1.0, "support": [0.0, 1.0], "one_sided": True}),
             "lebesgue_eps", 1, "constant_finite,fail,constant C9 = 0.0 is not in (0, inf)"),
            (hardy_with(quadrature={"eps_list": [0.01, 0.1]}), "lebesgue_eps", 2,
             "config error: eps_list [0.01, 0.1] must be finite, positive and strictly decreasing"),
            (MORREY_HERZ_A03_L01, "morrey_herz_power", 1,
             "extremal_admissible,fail,extremal member has source norm"),
            # two q = 2 slots combine to q = 1, outside the Lebesgue range
            (json.loads((FIXTURES / "bilinear_p4.json").read_text()), "lebesgue_eps", 1,
             "extremal_admissible,fail,the C2 spaces of this family are undefined"),
        ],
        ids=["source-norm-inf", "zero-constant", "eps-increasing", "inadmissible-family",
             "combined-q-one"],
    )
    def test_failures_are_reported(self, command, config, kind, code, expected,
                                   tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out.csv"
        got = main([*command, "--config", str(path), "--kind", kind, "--out", str(out)])
        err = capsys.readouterr().err
        assert got == code
        if code == 2:
            assert err.startswith(expected)
            assert not out.exists()
        else:
            rows = out.read_text().splitlines()
            assert rows[0] == "check,status,detail"
            assert rows[1].startswith(expected)
            assert len(rows) == 2


class TestVerify:
    def test_invariants_green(self, tmp_path):
        out = tmp_path / "inv.csv"
        code = main(
            ["verify", "--config", str(FIXTURES / "hardy_p2.json"),
             "--suite", "invariants", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "check,status,detail"
        assert all(",pass," in row for row in rows[1:])

    def test_upper_suite_green(self, tmp_path):
        out = tmp_path / "up.csv"
        code = main(
            ["verify", "--config", str(FIXTURES / "hardy_p2.json"),
             "--suite", "upper", "--n", "8", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "seed,index,ratio"
        assert len(rows) == 9

    def test_divergent_constant_exits_1(self, tmp_path, capsys):
        out = tmp_path / "div.csv"
        code = main(
            ["verify", "--config", str(FIXTURES / "divergent_c1.json"),
             "--suite", "upper", "--which", "C1", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 1
        assert "constant_finite,fail" in out.read_text()

    def test_no_admissible_draw_exits_1(self):
        # the Herz window 2^20..2^30 misses every draw, which lives in 2^-6..2^6
        proc = run_cli("verify", "--config", str(FIXTURES / "herz_window_misses.json"),
                       "--suite", "upper", "--n", "2", "--seed", "3")
        assert proc.returncode == 1
        detail = "could not sample admissible functions"
        assert proc.stdout.splitlines() == ["check,status,detail",
                                            f"sample_admissible,fail,{detail}"]
        assert proc.stderr == f"no admissible draws: {detail}\n"

    def test_sharpness_suite_green(self, tmp_path):
        out = tmp_path / "sharp.csv"
        code = main(
            ["verify", "--config", str(FIXTURES / "hardy_p2.json"),
             "--suite", "sharpness", "--kind", "lebesgue_eps", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "epsilon,ratio,constant,ratio_over_constant"
        assert float(rows[-1].split(",")[3]) >= 0.9

    def test_inadmissible_extremal_family_is_a_failed_check(self, tmp_path, capsys):
        path = tmp_path / "morrey_herz.json"
        path.write_text(json.dumps(MORREY_HERZ_A03_L01), encoding="utf-8")
        out = tmp_path / "sharp.csv"
        code = main(["verify", "--config", str(path), "--suite", "sharpness",
                     "--out", str(out)])
        assert code == 1
        rows = out.read_text().splitlines()
        assert rows[0] == "check,status,detail"
        assert rows[1].startswith("extremal_admissible,fail,extremal member has source norm")
        assert len(rows) == 2
        assert "extremal family not admissible" in capsys.readouterr().err

    def test_determinism_across_runs_and_workers(self, tmp_path):
        outs = []
        for i, workers in enumerate((1, 1, 3)):
            out = tmp_path / f"det{i}.csv"
            code = main(
                ["verify", "--config", str(FIXTURES / "hardy_p2.json"),
                 "--suite", "upper", "--n", "6", "--seed", "42",
                 "--workers", str(workers), "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


    @pytest.mark.parametrize("which", ["C1", "C2", "C3", "C5", "C9"])
    def test_unbounded_kernel_diverges_without_traceback(self, which, capsys):
        # phi(r) = 1/r on [0, inf): the pullback check samples finite radii
        config = str(FIXTURES / "hardy_unbounded_kernel.json")
        code = main(["constants", "--config", config, "--which", which])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] is None and out["finite"] is False


class TestVariableExponentRatios:
    """Operator ratios whose target norms take the variable-exponent
    quadrature: about 1250 rows per sampled image, pinned to 1e-9."""

    def test_loginterp_c1_ratios(self, tmp_path):
        out = tmp_path / "c1.csv"
        code = main(["verify", "--config", str(FIXTURES / "loginterp_norm.json"),
                     "--suite", "upper", "--which", "C1", "--n", "4", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "seed,index,ratio"
        ratios = [float(row.split(",")[2]) for row in rows[1:]]
        want = [1.2335326695084801, 1.134266670214922, 0.94611395621696814,
                1.2375229860070647]
        assert ratios == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_herz_loginterp_c4_ratios(self):
        # perfbench/configs/herz_a03.json with q = LogInterp(3, 2)
        obj = json.loads(HERZ_A03.read_text())
        obj["slots"][0]["q"] = {"type": "log_interp", "p0": 3.0, "p_inf": 2.0}
        cfg = ExperimentConfig.from_json(obj)
        st = cfg.settings
        suite = upper_bound_suite(
            cfg.operator(), cfg.bound_config(), "C4", 2, 3,
            k_range=st.k_range, k0_range=st.k0_range, j_range=st.r_grid_range,
            grid_octaves=st.grid_octaves, points_per_octave=st.points_per_octave,
            rel_tol=st.rel_tol,
        )
        assert suite.constant == pytest.approx(38.90341412114988, rel=1e-9, abs=0.0)
        assert [r for _s, _i, r in suite.rows] == pytest.approx(
            [2.3592612107313169, 2.3278845926426697], rel=1e-9, abs=0.0)
        assert not suite.violations


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_round_trips(self, name):
        cfg = load_config(str(FIXTURES / name))
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    @pytest.mark.parametrize(
        "family, expected",
        [
            ({"type": "diag_equal", "s": {"c": -0.5, "a": 1.5}, "signs": [1, -1]},
             DiagonalEqualModulus(PowerMap(-0.5, 1.5), (1, -1))),
            ({"type": "orth_scalar", "s": {"c": 2.0, "a": -0.5},
              "q_matrix": [[0.0, -1.0], [1.0, 0.0]]},
             OrthogonalTimesScalar(((0.0, -1.0), (1.0, 0.0)), PowerMap(2.0, -0.5))),
        ],
        ids=["diag_equal", "orth_scalar"],
    )
    def test_matrix_family_round_trips(self, family, expected):
        obj = json.loads((FIXTURES / "central_morrey_m1.json").read_text())
        obj.update(n=2, families=[family])
        cfg = ExperimentConfig.from_json(obj)
        assert cfg.families == (expected,)
        assert not expected.is_scalar
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_family_checked_against_n(self):
        fam = {"type": "diag_equal", "s": {"c": 1.0, "a": 1.0}, "signs": [1, -1]}
        assert family_from_json(fam, 2) == DiagonalEqualModulus(PowerMap(1.0, 1.0), (1, -1))
        with pytest.raises(ConfigError, match="dimension 2 does not match n = 1"):
            family_from_json(fam, 1)

    def test_schema_errors_named(self):
        with pytest.raises(Exception) as err:
            ExperimentConfig.from_json({"n": 1, "m": 1})
        assert "config" in str(err.value) or "malformed" in str(err.value)


class TestSubprocessEntry:
    def test_import_leaves_scipy_out(self):
        # scipy is a test-only dependency; importing the CLI must not load it
        code = "import hausnorm, hausnorm.cli, sys; assert 'scipy' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_module_invocation(self):
        proc = run_cli("constants", "--config", str(FIXTURES / "hardy_p2.json"), "--which", "C9")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(2.0)

    def test_bad_flags_exit_2(self):
        proc = run_cli("constants", "--config", str(FIXTURES / "hardy_p2.json"))
        assert proc.returncode == 2
