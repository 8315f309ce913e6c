"""Run the benchmark on several seeds and write one result file.

    python3 perfbench/collect.py --seeds 0 1 2 3 4 5 6 7 8 9 --out perfbench/results/x.json

For each workload, runs ``run.py --trace 0`` once per seed, one after the
other, then ``run.py --trace 1`` once on the first seed. The result file
holds every run's final JSON line, for each end-to-end metric the median,
the quartiles and the spread (quartile distance over median) across the
seeds, and the machine facts: nproc, CPU model, Python, numpy and scipy
versions, and the git commit when the checkout is a git repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCHMARK = workloads.ROOT / "BENCHMARK.json"


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
        "git_sha": sha,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(workloads.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace, elapsed_s=elapsed)
    return result


def summarize(runs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": q2, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / q2, "bound": metric["bound"],
                               "n": len(values)}
    return out


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--no-trace", action="store_true", help="skip the traced run")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"machine": machine_facts(), "run_seconds": seconds, "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            r = run_once(wl, seed, seconds, 0)
            runs.append(r)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                + f" correct={r['correct']}", flush=True)
        entry = {"runs": runs}
        if len(runs) >= 2:
            entry["summary"] = summarize(runs, spec)
            for name, s in entry["summary"].items():
                print(f"  {name}: median {s['median']:.4g} spread {s['spread']:.3f} "
                      f"(bound {s['bound']})", flush=True)
        if not args.no_trace:
            entry["traced"] = run_once(wl, args.seeds[0], seconds, 1)
        report["workloads"][wl] = entry
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
