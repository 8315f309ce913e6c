"""Record the reference values the benchmark compares outputs against.

    python3 perfbench/record_reference.py --workload hardy_suite [--inputs 0 1 2]

Runs one repetition of the workload per input seed (all of them by default)
with the library of this checkout and writes every number each operation
emits to ``perfbench/reference/<workload>.json``. A repetition whose checks
fail is not recorded. Re-record only in a change to the benchmark itself,
never in one that claims a gain.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--inputs", type=int, nargs="*", default=list(workloads.INPUT_SEEDS),
                    help="input seeds to record")
    args = ap.parse_args(argv)

    run.check_checkout()
    run.import_library()
    path = workloads.reference_path(args.workload)
    data = json.loads(path.read_text()) if path.exists() else {}
    for s in args.inputs:
        wl = workloads.build_input(args.workload, s)
        rep, outputs = run.run_rep(wl, adjust=False)
        run.check_rep(rep, outputs)
        fails = [f"{name}: {f}" for name, msgs in rep.failures.items() for f in msgs]
        if fails:
            sys.stderr.write(f"input seed {s} fails its checks:\n  " + "\n  ".join(fails) + "\n")
            return 1
        data[str(s)] = rep.numbers
        print(f"{args.workload} input seed {s}: {rep.wall:.2f} s "
              + " ".join(f"{k}={v:.2f}" for k, v in rep.op_times.items()), flush=True)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(data.items(), key=lambda kv: int(kv[0]))),
                               indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
