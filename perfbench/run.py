"""Benchmark entry point for diraclinear.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout, never from an installed copy.  One client, one
process, closed loop: each operation starts when the previous one returned.

--trace 0 prints the end-to-end metrics (throughput, median and tail time
per op, peak memory, set-up time).  --trace 1 replays the same requests
twice, untraced then traced, for half the time each, and prints per-layer
metrics from the traced half plus the tracing overhead between the two and
the acceptance-gate headroom.  The last stdout line is the result JSON; the
line before it and perfbench/out/ hold the environment and details.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _pin_threads():
    """Cap every BLAS/OpenMP pool at the CPUs this process may use; must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, nproc))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))
    return nproc


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "diraclinear" / "__init__.py").is_file():
        print(f"error: no diraclinear sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import harness  # imports numpy and diraclinear

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    env = harness.environment(nproc, THREAD_VARS)
    result, detail = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                 OUT, ROOT, env)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(detail, result=result), fh, indent=1)
    print(json.dumps({k: v for k, v in detail.items()
                      if k not in ("op_seconds", "op_wall_seconds")}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
