"""Benchmark of ``druid run``: one command, every workload, every metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload newton-lasso-sync --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload runs in a fresh child interpreter (``worker.py``), one after
another, single-threaded, with OpenBLAS pinned to one thread before numpy
is imported.  The library is imported from ``src/`` of the checkout; with
no sources there the command fails without printing a result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
With ``--workload all`` metric names are prefixed ``<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Before numpy is imported here or in a child, which inherits the setting.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh child process and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report(result: dict) -> None:
    """Human-readable block: metrics with units, samples, checks, machine."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}")
    for name, metric in result["metrics"].items():
        value = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name:34s} {value:>14s} {metric['unit']}")
    print(f"  {'failed_frac':34s} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} runs)")
    print(f"  samples: {json.dumps(result['samples'])}")
    print(f"  machine: {json.dumps(result['machine'])}")
    for err in result["errors"]:
        print(f"  check failed: {err.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "druid" / "__init__.py").is_file():
        print(f"error: no druid sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
