"""Batch front end: norm | apply | constants | sweep | verify.

All numeric output is emitted as JSON lines on stdout or as CSV when --out
ends in .csv.  Exit codes: 0 success, 1 check failures, 2 config errors
and bad arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .bounds import (
    CONSTANT_IDS,
    HypothesisError,
    evaluate_constant,
    finite_or_null,
    lebesgue_constants,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    eps_list_from_json,
    function_from_json,
    load_config,
)
from .exponents import Constant
from .harness import (
    EXTREMAL_KINDS,
    ExtremalError,
    SamplingError,
    SweepResult,
    random_test_functions,
    sharpness_sweep,
    upper_bound_suite,
)
from .hausdorff import RatioUndefinedError, apply_pointwise
from .luxemburg import BracketError
from .matrices import Dilation, PowerMap, dyadic_index, inverse_stats, theta_star
from .spaces import SpaceSpec, herz_norm, morrey_herz_norm, space_norm

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_rows(path: str | None, header: str, rows: list[str]) -> None:
    text = header + "\n" + "".join(r + "\n" for r in rows)
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict) -> None:
    """Strict JSON: infinities and NaNs are written as null."""
    sys.stdout.write(json.dumps(finite_or_null(obj), sort_keys=True, allow_nan=False) + "\n")


def cmd_norm(cfg: ExperimentConfig, args) -> int:
    f = cfg.the_function()
    spec = cfg.the_space()
    st = cfg.settings
    report = space_norm(
        f, spec, st.k_range, st.k0_range, st.r_grid_range, st.rel_tol
    )
    _emit_json(
        {
            "space": spec.kind,
            "norm": report.value,
            "diagnostics": {
                "flags": list(report.flags),
                "argmax": report.argmax,
                "derived": cfg.derived_report(),
            },
        }
    )
    return EXIT_OK


def cmd_apply(cfg: ExperimentConfig, args) -> int:
    op = cfg.operator()
    raw = cfg.raw.get("functions")
    if raw is None and cfg.function is not None:
        raw = [cfg.function] * cfg.m
    if raw is None or len(raw) != cfg.m:
        raise ConfigError("apply needs m function entries (functions or function)")
    fs = [function_from_json(obj, cfg.slots) for obj in raw]
    xs = sorted(args.x) if args.x else [2.0 ** k for k in range(-4, 5)]
    for x in xs:
        val = apply_pointwise(op, fs, x, cfg.settings.rel_tol)
        _emit_json({"x": x, "value": val})
    return EXIT_OK


def cmd_constants(cfg: ExperimentConfig, args) -> int:
    bc = cfg.bound_config()
    res = evaluate_constant(bc, args.which)
    _emit_json(res.to_json())
    return EXIT_OK


def _failed_check(path: str | None, check: str, exc: Exception, what: str) -> int:
    """Write one failed check,status,detail row; EXIT_FAIL."""
    _write_rows(path, "check,status,detail", [f"{check},fail,{exc}"])
    sys.stderr.write(f"{what}: {exc}\n")
    return EXIT_FAIL


def _sharpness(cfg: ExperimentConfig, kind: str, eps, cid: str | None,
               path: str | None) -> SweepResult | None:
    """Run the sharpness sweep and write its CSV; on a failed check write
    that check's row instead and return None."""
    st = cfg.settings
    try:
        result = sharpness_sweep(
            cfg.operator(), cfg.bound_config(), kind, eps, constant_id=cid,
            k_range=st.k_range, k0_range=st.k0_range, j_range=st.r_grid_range,
            grid_octaves=(st.grid_octaves[0], max(st.grid_octaves[1], 64)),
            points_per_octave=max(st.points_per_octave, 32),
            rel_tol=st.rel_tol,
        )
    except HypothesisError as exc:
        _failed_check(path, "constant_finite", exc, "constant not usable")
        return None
    except ExtremalError as exc:
        _failed_check(path, "extremal_admissible", exc, "extremal family not admissible")
        return None
    except RatioUndefinedError as exc:
        _failed_check(path, "ratio_defined", exc, "operator ratio undefined")
        return None
    rows = [
        ",".join((_fmt(e), _fmt(r), _fmt(c), _fmt(rc)))
        for e, r, c, rc in result.rows
    ]
    _write_rows(path, "epsilon,ratio,constant,ratio_over_constant", rows)
    return result


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    eps = eps_list_from_json(args.eps.split(",")) if args.eps else cfg.settings.eps_list
    result = _sharpness(cfg, args.kind, eps, args.which, args.out)
    return EXIT_OK if result is not None else EXIT_FAIL


def _invariant_checks(cfg: ExperimentConfig) -> list[tuple[str, bool, str]]:
    """Quick definitional checks that ship green on the bundled fixtures."""
    st = cfg.settings
    checks: list[tuple[str, bool, str]] = []

    f = random_test_functions(st.seed, 1, SpaceSpec("lebesgue", 1, Constant(2.0)))[0]
    spec_h = SpaceSpec("herz", 1, Constant(2.0), alpha=Constant(0.3, signed=True),
                       p_outer=2.0)
    spec_mh = SpaceSpec("morrey_herz", 1, Constant(2.0),
                        alpha=Constant(0.3, signed=True), lam=0.0, p_outer=2.0)
    small = (-20, 20)
    h = herz_norm(f, spec_h, small, st.rel_tol).value
    mh = morrey_herz_norm(f, spec_mh, small, small, st.rel_tol).value
    checks.append(("morrey_herz_lambda0_equals_herz", h == mh, f"{h} vs {mh}"))

    bc = cfg.bound_config()
    try:
        cs = lebesgue_constants(bc)
        if all(s.q.is_constant for s in bc.slots):
            ok = (
                cs["C2"].finite == cs["C2*"].finite
                and (not cs["C2"].finite or abs(cs["C2"].value - cs["C2*"].value) <= 1e-12 * cs["C2"].value)
            )
            checks.append(("constant_exponent_c2_collapse", ok,
                           f"{cs['C2'].value} vs {cs['C2*'].value}"))
    except HypothesisError as exc:
        checks.append(("constant_exponent_c2_collapse", False, str(exc)))

    fam = cfg.families[0]
    t = 0.5 * (cfg.kernel.r_lo + min(cfg.kernel.r_hi, cfg.kernel.r_lo + 2.0)) or 0.5
    try:
        inverse_stats(fam, t)
        checks.append(("determinant_sandwich", True, "holds"))
    except Exception as exc:
        checks.append(("determinant_sandwich", False, str(exc)))

    ok = all(
        dyadic_index(2.0 ** k) == k for k in range(-10, 11)
    )
    checks.append(("dyadic_index_powers_of_two", ok, "scan -10..10"))

    ok = all(
        theta_star([Dilation(PowerMap(1.0, 1.0), n)], t)
        == max(k for k in range(-10, 11) if n < 2.0 ** (-k))
        for n in range(1, 9)
        for t in (0.3, 1.0, 12.25, 49.0)
    )
    checks.append(("theta_star_matches_scan", ok, "scan grid"))
    return checks


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    st = cfg.settings
    seed = args.seed if args.seed is not None else st.seed

    if args.suite == "invariants":
        checks = _invariant_checks(cfg)
        rows = [f"{name},{'pass' if ok else 'fail'},{detail}" for name, ok, detail in checks]
        _write_rows(args.out, "check,status,detail", rows)
        return EXIT_OK if all(ok for _n, ok, _d in checks) else EXIT_FAIL

    if args.suite == "upper":
        cid = args.which or _default_constant(cfg)
        n = st.n_samples if args.n is None else args.n
        try:
            suite = upper_bound_suite(
                cfg.operator(), cfg.bound_config(), cid, n, seed,
                k_range=st.k_range, k0_range=st.k0_range, j_range=st.r_grid_range,
                grid_octaves=st.grid_octaves,
                points_per_octave=st.points_per_octave,
                rel_tol=st.rel_tol,
            )
        except HypothesisError as exc:
            return _failed_check(args.out, "constant_finite", exc, "constant not usable")
        except SamplingError as exc:
            return _failed_check(args.out, "sample_admissible", exc, "no admissible draws")
        rows = [f"{s},{i},{_fmt(r)}" for s, i, r in suite.rows]
        _write_rows(args.out, "seed,index,ratio", rows)
        return EXIT_OK if not suite.violations else EXIT_FAIL

    # sharpness
    result = _sharpness(cfg, args.kind or _default_kind(cfg), st.eps_list,
                        args.which or _default_constant(cfg), args.out)
    ok = result is not None and result.monotone and result.final_within_10pct
    return EXIT_OK if ok else EXIT_FAIL


def _default_constant(cfg: ExperimentConfig) -> str:
    return {
        "lebesgue": "C9",
        "herz": "C8",
        "morrey_herz": "C7",
        "central_morrey": "C12",
    }[cfg.space_kind]


def _default_kind(cfg: ExperimentConfig) -> str:
    return {
        "lebesgue": "lebesgue_eps",
        "herz": "herz_b1_eps",
        "morrey_herz": "morrey_herz_power",
        "central_morrey": "central_morrey_power",
    }[cfg.space_kind]


def _count(text: str) -> int:
    """An argparse type: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not an integer >= 1")
    return n


def _radius(text: str) -> float:
    """An argparse type: a finite float > 0."""
    x = float(text)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a finite radius > 0")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hausnorm",
        description="Variable-exponent space norms and Hausdorff operator bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output path (.csv for CSV)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rel-tol", type=float, default=None, dest="rel_tol")
        p.add_argument("--workers", type=int, default=None,
                       help="accepted for compatibility; suites run serially")

    p = sub.add_parser("norm", help="norm of the configured function")
    common(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("apply", help="operator image values")
    common(p)
    p.add_argument("--x", type=_radius, nargs="*", default=None)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("constants", help="evaluate a bound constant")
    common(p)
    p.add_argument("--which", required=True, choices=CONSTANT_IDS)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("sweep", help="sharpness sweep over epsilon")
    common(p)
    p.add_argument("--eps", default=None, help="comma-separated, decreasing")
    p.add_argument("--kind", default="lebesgue_eps", choices=EXTREMAL_KINDS)
    p.add_argument("--which", default=None, choices=CONSTANT_IDS)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=("invariants", "upper", "sharpness"),
                   required=True)
    p.add_argument("--which", default=None, choices=CONSTANT_IDS)
    p.add_argument("--kind", default=None, choices=EXTREMAL_KINDS)
    p.add_argument("--n", type=_count, default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has written the usage and the error (exit 2), or the help
        return exc.code
    try:
        cfg = load_config(args.config)
        overrides = {}
        if args.rel_tol is not None:
            overrides["rel_tol"] = args.rel_tol
        if args.seed is not None and args.command != "verify":
            overrides["seed"] = args.seed
        if overrides:
            cfg = replace(cfg, settings=replace(cfg.settings, **overrides))
        return args.fn(cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except HypothesisError as exc:
        sys.stderr.write(f"hypothesis error: {exc}\n")
        return EXIT_FAIL
    except BracketError as exc:
        sys.stderr.write(f"root-find error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
