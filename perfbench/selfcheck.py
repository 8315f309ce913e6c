"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed 0] [--workloads hardy_suite ...]

Checks, for each workload, with the shortest runs (one repetition each):

1. every metric BENCHMARK.json names is emitted with its unit: the
   end-to-end ones by an untraced run, the per-layer ones by a traced run;
2. every per-layer count and ratio of counts repeats exactly across two
   traced runs of the same seed;
3. every run reports correct, with no failed operation;

and once, in this process: an untraced repetition leaves every hausnorm
function bound to the original, and a traced one binds wrappers while the
recorder is installed and none after it is removed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

import collect
import run
import spans
import workloads

# per-layer units that are times, and so are not expected to repeat
TIME_UNITS = ("s", "ms")


def check_units(result: dict, expected: list[dict], what: str) -> list[str]:
    problems = []
    got = result["metrics"]
    for m in expected:
        if m["name"] not in got:
            problems.append(f"{what}: {m['name']} not emitted")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{what}: {m['name']} in {got[m['name']]['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{what}: emits metrics BENCHMARK.json does not name: {sorted(extra)}")
    return problems


def check_result(result: dict, what: str) -> list[str]:
    if result["correct"] and result["failed"] == 0 and result["attempted"] >= 1:
        return []
    return [f"{what}: correct={result['correct']} failed={result['failed']}"
            f"/{result['attempted']}"]


def bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if name == "hausnorm" or name.startswith("hausnorm.")
            for attr, val in list(vars(mod).items()) if callable(val)}


def check_wrappers(seed: int) -> list[str]:
    problems = []
    run.import_library()
    wl = workloads.build("shell_suite", seed)
    before = bindings()
    run.run_rep(wl)
    if bindings() != before or spans.installed_wrappers():
        problems.append("an untraced repetition changed hausnorm bindings")
    rec = spans.SpanRecorder()
    rec.install()
    try:
        if not spans.installed_wrappers():
            problems.append("the recorder installed no wrappers")
        run.run_rep(wl)
        if not rec.collect().calls["spaces.shell_norm"]:
            problems.append("the traced repetition recorded no shell_norm spans")
    finally:
        rec.uninstall()
    if bindings() != before or spans.installed_wrappers():
        problems.append("uninstalling the recorder left hausnorm bindings changed")
    return problems


def main(argv=None) -> int:
    spec = json.loads(collect.BENCHMARK.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)

    problems = check_wrappers(args.seed)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for wl in args.workloads:
        plain = collect.run_once(wl, args.seed, 1, 0)
        problems += check_result(plain, f"{wl} untraced")
        problems += check_units(plain, spec["end_to_end"], f"{wl} untraced")
        traced = [collect.run_once(wl, args.seed, 1, 1) for _ in range(2)]
        for i, t in enumerate(traced):
            problems += check_result(t, f"{wl} traced run {i + 1}")
            problems += check_units(t, spec["per_layer"], f"{wl} traced run {i + 1}")
        for name, unit in units.items():
            if unit in TIME_UNITS or name not in traced[0]["metrics"]:
                continue
            a, b = (t["metrics"].get(name, {}).get("value") for t in traced)
            if a != b:
                problems.append(f"{wl}: {name} differs between traced runs: {a} vs {b}")
        print(f"{wl}: checked", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
