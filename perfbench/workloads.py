"""The three benchmark workloads and the checks on their outputs.

A workload is a list of operations. Each operation is one top-level call
into hausnorm, made the way a user makes it: a CLI run through
``hausnorm.cli.main`` or a library call. One repetition runs every
operation once. All inputs come from the benchmark seed: the CLI receives
``--seed`` and the library calls receive functions drawn from it.

Each operation can check its own output. The check returns the numbers
the operation emitted, for comparison with the recorded reference values,
and the failures it found. A failure is a non-zero CLI exit, a ratio above
its constant in an exact configuration, or a pinned value outside its
tolerance; an unexpected exception is caught by the caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"
CONFIGS = HERE / "configs"
REFERENCE_DIR = HERE / "reference"

# CLI seeds on which an operation failed when the benchmark was written;
# README.md, "Known defects", gives the reproducer. INPUT_SEEDS skips them
# so that every benchmark operation succeeds.
FAILING_SEEDS = {10: "hardy_p2 upper suite, tuple 31: ZeroDivisionError in _loglog_interpolant"}
# Benchmark seeds map onto these input seeds; each has reference values
# recorded by record_reference.py.
INPUT_SEEDS = tuple(s for s in range(17) if s not in FAILING_SEEDS)
# Benchmark seed not used while the benchmark was tuned. A claim made with
# seeds 0-9 is re-checked with --seed HELD_OUT_SEED.
HELD_OUT_SEED = 15

# tuples per upper-bound suite
HARDY_TUPLES = 40
SHELL_TUPLES = 3
# Luxemburg norms per repetition of the variable-exponent batch, timed in
# chunks spread between the constants so the rate samples the whole run
NORM_BATCH = 400
NORM_CHUNKS = 8

# pinned values and tolerances, as in tests/test_acceptance.py
C9 = 2.0
C9_TOL = 1e-9
SWEEP_FINAL = 1.980
SWEEP_TOL = 5e-3
C12 = 1.33934
C12_TOL = 1e-5
# the extremal central-Morrey ratio equals C12 to this relative tolerance
C12_RATIO_TOL = 1e-6
# the suite's violation tolerance in exact configurations
RATIO_TOL = 1e-3

WORKLOADS = ("hardy_suite", "shell_suite", "vexp_constants")


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    # output -> (emitted numbers, failure messages)
    check: Callable[[object], tuple[list[float], list[str]]]
    # headline items it yields: operator ratios or Luxemburg norms
    items: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    input_set: int
    ops: tuple[Op, ...]
    # config loaded by the set-up measurement
    setup_config: Path
    # which headline item items_per_s counts
    item_kind: str


def input_set(seed: int) -> int:
    """The input seed a benchmark seed stands for."""
    return INPUT_SEEDS[seed % len(INPUT_SEEDS)]


def build(name: str, seed: int) -> Workload:
    """The operations of one workload for a benchmark seed."""
    return build_input(name, input_set(seed))


def build_input(name: str, s: int) -> Workload:
    """The operations of one workload for an input seed."""
    if name == "hardy_suite":
        return Workload(name, s, _hardy_ops(s), FIXTURES / "hardy_p2.json", "ratios")
    if name == "shell_suite":
        return Workload(name, s, _shell_ops(s), CONFIGS / "herz_a03.json", "ratios")
    if name == "vexp_constants":
        return Workload(name, s, _vexp_ops(s), FIXTURES / "divergent_c1.json", "norms")
    raise KeyError(f"unknown workload {name!r}")


def required_files() -> list[Path]:
    """Files of the checkout that the workloads read."""
    return [
        FIXTURES / "hardy_p2.json",
        FIXTURES / "bilinear_p4.json",
        FIXTURES / "central_morrey_m1.json",
        FIXTURES / "divergent_c1.json",
        CONFIGS / "herz_a03.json",
        CONFIGS / "morrey_herz_a03.json",
    ]


# ---------------------------------------------------------------------------
# CLI operations


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        from hausnorm import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def _upper(config: Path, seed: int, n: int, workers: int = 1) -> Callable:
    return _cli(["verify", "--config", str(config), "--suite", "upper",
                 "--n", str(n), "--seed", str(seed), "--workers", str(workers)])


def _csv_rows(text: str, header: str) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected CSV header {header!r}, got {lines[:1]!r}")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _check_upper(seed: int, n: int, exact_constant: float | None):
    def check(out):
        code, text = out
        rows = _csv_rows(text, "seed,index,ratio")
        fails = []
        if code != 0:
            fails.append(f"exit code {code}")
        if [(int(s), int(i)) for s, i, _r in rows] != [(seed, i) for i in range(n)]:
            fails.append(f"expected rows ({seed}, 0..{n - 1})")
        ratios = [r for _s, _i, r in rows]
        if exact_constant is not None:
            over = [r for r in ratios if r > exact_constant * (1.0 + RATIO_TOL)]
            if over:
                fails.append(f"{len(over)} ratios above {exact_constant} in an exact configuration")
        # disjoint supports make a multilinear image, and its ratio, zero
        if not all(0.0 <= r < math.inf for r in ratios):
            fails.append("ratio negative or not finite")
        return ratios, fails

    return check


def _sweep_rows(out) -> tuple[list[list[float]], list[str]]:
    code, text = out
    rows = _csv_rows(text, "epsilon,ratio,constant,ratio_over_constant")
    return rows, [f"exit code {code}"] if code != 0 else []


def _check_c9_sweep(out):
    rows, fails = _sweep_rows(out)
    ratios = [row[1] for row in rows]
    if any(abs(row[2] - C9) > C9_TOL for row in rows):
        fails.append(f"C9 = {rows[0][2]!r}, pinned {C9} +- {C9_TOL}")
    if not ratios or abs(ratios[-1] - SWEEP_FINAL) > SWEEP_TOL:
        fails.append(f"sweep ratio(0.01) = {ratios[-1:]!r}, pinned {SWEEP_FINAL} +- {SWEEP_TOL}")
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        fails.append("sweep ratios not increasing")
    return [v for row in rows for v in row], fails


def _check_c12_sweep(out):
    rows, fails = _sweep_rows(out)
    if not rows:
        fails.append("empty sweep")
    if any(abs(row[2] - C12) > C12_TOL for row in rows):
        fails.append(f"C12 = {rows[0][2]!r}, pinned {C12} +- {C12_TOL}")
    if any(abs(row[1] - row[2]) > C12_RATIO_TOL * row[2] for row in rows):
        fails.append(f"extremal ratio differs from C12 by more than {C12_RATIO_TOL:g}")
    return [v for row in rows for v in row], fails


def _check_divergent(out):
    code, text = out
    obj = json.loads(text)
    fails = [f"exit code {code}"] if code != 0 else []
    if obj["finite"] or obj["value"] is not None:
        fails.append(f"{obj['id']} = {obj['value']}, expected inf")
    return [], fails


def _hardy_ops(s: int) -> tuple[Op, ...]:
    return (
        Op("upper_m1", _upper(FIXTURES / "hardy_p2.json", s, HARDY_TUPLES, workers=2),
           _check_upper(s, HARDY_TUPLES, C9), HARDY_TUPLES),
        Op("upper_m2", _upper(FIXTURES / "bilinear_p4.json", s, HARDY_TUPLES, workers=2),
           _check_upper(s, HARDY_TUPLES, C9), HARDY_TUPLES),
        Op("sharpness",
           _cli(["verify", "--config", str(FIXTURES / "hardy_p2.json"), "--suite", "sharpness"]),
           _check_c9_sweep, 3),
    )


def _shell_ops(s: int) -> tuple[Op, ...]:
    cm = FIXTURES / "central_morrey_m1.json"
    return (
        Op("herz", _upper(CONFIGS / "herz_a03.json", s, SHELL_TUPLES),
           _check_upper(s, SHELL_TUPLES, None), SHELL_TUPLES),
        Op("morrey_herz", _upper(CONFIGS / "morrey_herz_a03.json", s, SHELL_TUPLES),
           _check_upper(s, SHELL_TUPLES, None), SHELL_TUPLES),
        # The seeded upper suite on this fixture fails on some seeds at this
        # commit (see README.md), so the central-Morrey target runs the
        # fixture's extremal sweep, whose ratio is C12 exactly.
        Op("central_morrey",
           _cli(["verify", "--config", str(cm), "--suite", "sharpness"]),
           _check_c12_sweep, 3),
    )


# ---------------------------------------------------------------------------
# variable-exponent operations


def _vexp_bound_config():
    from hausnorm import LogInterp, PowerMap, from_hardy_littlewood
    from hausnorm.bounds import BoundConfig, SlotParams

    op = from_hardy_littlewood(PowerMap(1.0, 0.0))
    return BoundConfig(op, (SlotParams(q=LogInterp(3.0, 2.0)),), rel_tol=1e-6)


def _constant(cid: str):
    cfg = _vexp_bound_config()

    def run():
        from hausnorm import bounds

        return bounds.evaluate_constant(cfg, cid)

    def check(res):
        if not res.finite:
            return [], [f"{cid} not finite"]
        return [res.value], []

    return run, check


def norm_batch(s: int, count: int = NORM_BATCH):
    """Seeded random piecewise power functions on bounded annuli."""
    from hausnorm.luxemburg import ExponentExpr, PiecewisePowerFunction, Segment

    rng = random.Random(1_000_003 * (s + 1))
    out = []
    while len(out) < count:
        edges = sorted(2.0 ** rng.uniform(-3.0, 3.0) for _ in range(rng.randint(3, 4)))
        segs = tuple(
            Segment(lo, hi, rng.uniform(0.1, 3.0), ExponentExpr(rng.uniform(-0.4, 1.2)))
            for lo, hi in zip(edges, edges[1:])
            if hi > lo * (1 + 1e-6)
        )
        if segs:
            out.append(PiecewisePowerFunction(segs))
    return out


def _norms(fs: list):
    from hausnorm import LogInterp, Region

    q = LogInterp(3.0, 2.0)

    def run():
        from hausnorm import luxemburg

        return [luxemburg.luxemburg_norm(f, q, Region.all(), 1) for f in fs]

    def check(norms):
        # the modular level C brackets the norm between C^(1/p+-), as in
        # acceptance criterion 2
        from hausnorm import luxemburg

        fails = []
        bad = 0
        for f, norm in zip(fs, norms):
            if not 0.0 < norm < math.inf:
                bad += 1
                continue
            c = luxemburg.modular(f, q, Region.all(), 1)
            lo, hi = sorted((c ** (1 / q.p_minus), c ** (1 / q.p_plus)))
            if not lo * (1 - 1e-9) <= norm <= hi * (1 + 1e-9):
                bad += 1
        if bad:
            fails.append(f"{bad} norms outside their modular bracket")
        return list(norms), fails

    return run, check


def _vexp_ops(s: int) -> tuple[Op, ...]:
    fs = norm_batch(s)
    size = NORM_BATCH // NORM_CHUNKS
    chunks = [Op(f"norms{i}", *_norms(fs[i * size:(i + 1) * size]), size)
              for i in range(NORM_CHUNKS)]
    return (
        *chunks[:2],
        Op("C1", *_constant("C1")),
        *chunks[2:6],
        Op("C5", *_constant("C5")),
        *chunks[6:],
        Op("divergent_c1",
           _cli(["constants", "--config", str(FIXTURES / "divergent_c1.json"), "--which", "C1"]),
           _check_divergent),
    )


# ---------------------------------------------------------------------------
# reference values


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, s: int) -> dict[str, list[float]] | None:
    path = reference_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(s))


def rel_dev(got: list[float], ref: list[float]) -> float:
    """Largest relative deviation of got from ref; inf on a length mismatch."""
    if len(got) != len(ref):
        return math.inf
    dev = 0.0
    for g, r in zip(got, ref):
        if g == r:
            continue
        dev = max(dev, abs(g - r) / abs(r) if r != 0.0 else math.inf)
    return dev
