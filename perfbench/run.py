"""hausnorm benchmark: one workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload hardy_suite --seed 3 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` the run repeats the workload with no wrappers installed,
measures set-up time in fresh interpreters between operations, and reports
the end-to-end metrics. With ``--trace 1`` it runs one untraced
repetition, installs the span recorder, repeats the workload traced and
reports the per-layer metrics, per repetition. Every repetition checks its
outputs against the pinned values and the reference values recorded for
the seed's input seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for a reader, with the ones the JSON leaves out.
"""

from __future__ import annotations

import os
import sys

# String hashing is randomized per process, and the layout of attribute
# dicts it decides changes the library's speed from one process to the
# next (README.md, "Noise"). Every run uses the same layout.
HASH_SEED = "0"
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable, *sys.argv])

# at most two threads: the suite's worker pool, never a BLAS pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
SRC = ROOT / "src"
SETUP_RUNS = 5
# largest relative deviation from the recorded reference values that still
# counts as correct: room for summation-order changes, none for new numerics
REF_TOL = 1e-6

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import hausnorm.cli; from hausnorm.config import load_config; load_config(sys.argv[2])"
)


def die(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def check_checkout() -> None:
    missing = [p for p in [SRC / "hausnorm" / "__init__.py", *workloads.required_files()]
               if not p.is_file()]
    if missing:
        die("not a hausnorm checkout; missing " + ", ".join(
            str(p.relative_to(ROOT)) for p in missing))


def import_library() -> None:
    sys.path.insert(0, str(SRC))
    import hausnorm
    import hausnorm.cli  # noqa: F401  (binds every module the tracer wraps)

    if Path(hausnorm.__file__).resolve().parent != SRC / "hausnorm":
        die(f"imported hausnorm from {hausnorm.__file__}, not from {SRC}")


class SetupSampler:
    """Times a fresh interpreter that imports hausnorm and loads a config.

    The SETUP_RUNS samples are spread evenly over the timed loop, between
    operations, so that they see the same host as the repetitions do. The
    time they take is left out of the loop's clock.
    """

    def __init__(self, config: Path, seconds: float):
        self.config = config
        self.seconds = seconds
        self.times: list[float] = []
        self.raw: list[float] = []
        self.spent = 0.0
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.spent

    def sample(self) -> None:
        t0 = time.perf_counter()
        before = hostspeed.sample()
        t1 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(self.config)],
                       cwd=ROOT, check=True)
        raw = time.perf_counter() - t1
        self.raw.append(raw)
        self.times.append(hostspeed.adjust(raw, before, hostspeed.sample()))
        self.spent += time.perf_counter() - t0

    def maybe_sample(self) -> bool:
        """Take the next sample if it is due; True if one was taken."""
        if (len(self.times) < SETUP_RUNS
                and self.elapsed() >= len(self.times) * self.seconds / SETUP_RUNS):
            self.sample()
            return True
        return False

    def finish(self) -> None:
        while len(self.times) < SETUP_RUNS:
            self.sample()


@dataclass
class Rep:
    # host-adjusted and raw seconds of each operation
    op_times: dict[str, float]
    raw_times: dict[str, float]
    numbers: dict[str, list[float]] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.op_times.values())

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_times.values())


def run_rep(wl: workloads.Workload, adjust: bool = True,
            sampler: SetupSampler | None = None) -> tuple[Rep, list]:
    """Run every operation once, timing each; outputs are checked later.

    With ``adjust``, the host is sampled between operations and each time is
    host-adjusted; otherwise adjusted times equal raw ones. Set-up samples
    are taken between operations, outside their timing.
    """
    outputs = []
    rep = Rep({}, {})
    before = hostspeed.sample() if adjust else 0.0
    for op in wl.ops:
        if sampler and sampler.maybe_sample() and adjust:
            before = hostspeed.sample()
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception:
            out, err = None, traceback.format_exc()
        raw = time.perf_counter() - t0
        rep.raw_times[op.name] = raw
        if adjust:
            after = hostspeed.sample()
            rep.op_times[op.name] = hostspeed.adjust(raw, before, after)
            before = after
        else:
            rep.op_times[op.name] = raw
        outputs.append((op, out, err))
    return rep, outputs


def check_rep(rep: Rep, outputs: list) -> None:
    for op, out, err in outputs:
        if err is None:
            try:
                nums, fails = op.check(out)
            except Exception:
                nums, err = [], traceback.format_exc()
        if err is not None:
            sys.stderr.write(f"{op.name}: unexpected exception\n{err}")
            nums, fails = [], ["unexpected exception"]
        rep.numbers[op.name] = nums
        rep.failures[op.name] = list(fails)


def repeat(wl: workloads.Workload, seconds: float, adjust: bool = True,
           sampler: SetupSampler | None = None, before=None, after=None,
           min_reps: int = 2) -> list[Rep]:
    """Repeat the workload at least min_reps times, then while the next
    repetition fits in the time left."""
    reps = []
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - (sampler.spent if sampler else 0.0)

    while True:
        t_rep = elapsed()
        if before:
            before()
        rep, outputs = run_rep(wl, adjust, sampler)
        if after:
            after()
        check_rep(rep, outputs)
        reps.append(rep)
        now = elapsed()
        if len(reps) >= min_reps and now + (now - t_rep) > seconds:
            return reps


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    check_checkout()
    import_library()
    wl = workloads.build(args.workload, args.seed)
    reference = workloads.load_reference(wl.name, wl.input_set)
    if reference is None:
        die(f"no reference values for {wl.name} input seed {wl.input_set}")

    if args.trace:
        untraced, outputs = run_rep(wl, adjust=False)
        check_rep(untraced, outputs)
        rec = spans.SpanRecorder()
        stats = []
        rec.install()
        try:
            traced = repeat(wl, max(args.seconds - untraced.wall, 0.0), adjust=False, min_reps=1,
                            before=rec.reset, after=lambda: stats.append(rec.collect()))
        finally:
            rec.uninstall()
        for rep in traced:
            for op in wl.ops:
                if rep.numbers[op.name] != untraced.numbers[op.name]:
                    rep.failures[op.name].append("traced output differs from the untraced run")
        total = stats[0]
        for s in stats[1:]:
            total.merge(s)
        overhead = statistics.median(r.wall for r in traced) - untraced.wall
        layer = spans.layer_metrics(total, overhead)
        reps = [untraced, *traced]
    else:
        sampler = SetupSampler(wl.setup_config, args.seconds)
        reps = repeat(wl, args.seconds, sampler=sampler)
        sampler.finish()

    failed = sum(1 for r in reps for fails in r.failures.values() if fails)
    attempted = len(reps) * len(wl.ops)
    ref_dev = max(workloads.rel_dev(r.numbers[op.name], reference.get(op.name, []))
                  for r in reps for op in wl.ops)
    compared = sum(len(reference.get(op.name, [])) for op in wl.ops)
    stray = spans.installed_wrappers()
    correct = failed == 0 and ref_dev <= REF_TOL and not stray

    for f in dict.fromkeys(f"{name}: {f}" for r in reps
                           for name, fails in r.failures.items() for f in fails):
        print(f"FAIL {f}")
    if stray:
        print(f"FAIL wrappers left installed: {', '.join(stray)}")
    print(f"workload {wl.name}: seed {args.seed} -> input seed {wl.input_set}; "
          f"{len(reps)} repetitions" + (" (1 untraced, then traced)" if args.trace else ""))
    print(f"  fail_frac {failed / attempted:.6g} ({failed}/{attempted} operations); "
          f"ref_rel_dev {ref_dev:.3g} over {compared} numbers per repetition "
          f"(tolerance {REF_TOL:g})")

    if args.trace:
        metrics = {}
        for name, (value, unit) in layer.items():
            print(f"  {name} = {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = end_to_end(wl, reps, sampler)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end(wl: workloads.Workload, reps: list[Rep], sampler: SetupSampler) -> dict:
    """The end-to-end metrics, in host-adjusted seconds (hostspeed.py)."""
    item_ops = [op.name for op in wl.ops if op.items]
    items = sum(op.items for op in wl.ops)
    name = "ratios_per_s" if wl.item_kind == "ratios" else "norms_per_s"
    lines = [
        ("wall_s", "s", [r.wall for r in reps], [r.raw_wall for r in reps]),
        (f"items_per_s ({name})", "/s",
         [items / sum(r.op_times[n] for n in item_ops) for r in reps],
         [items / sum(r.raw_times[n] for n in item_ops) for r in reps]),
        ("setup_s", "s", sampler.times, sampler.raw),
    ]
    consts = [n for n in ("C1", "C5") if n in reps[0].op_times]
    if consts:
        lines.append(("constant_s", "s", [r.op_times[n] for r in reps for n in consts],
                      [r.raw_times[n] for r in reps for n in consts]))
    medians = {}
    for label, unit, adjusted, raw in lines:
        q1, q2, q3 = quartiles(adjusted)
        medians[label.split()[0]] = q2
        print(f"  {label} median {q2:.4f} {unit}, quartiles {q1:.4f} .. {q3:.4f}, "
              f"n={len(adjusted)}; raw median {statistics.median(raw):.4f} {unit}")
    rss = peak_rss_mb()
    print(f"  peak_rss_mb {rss:.2f} MB")
    return {
        "setup_s": {"value": medians["setup_s"], "unit": "s"},
        "wall_s": {"value": medians["wall_s"], "unit": "s"},
        "items_per_s": {"value": medians["items_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


if __name__ == "__main__":
    sys.exit(main())
