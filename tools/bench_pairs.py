"""Compare two checkouts on the benchmark in alternating pairs; write BENCH_<n>.json.

Usage, from the root of the checkout holding the change:

    git archive <parent-commit> | (mkdir -p ../parent && tar -x -C ../parent)
    python3 tools/bench_pairs.py --parent ../parent --pairs 10 --seconds 30 \\
        --first-seed 10 --claim-metric newton-lasso-sync/step_ms_p90 \\
        --claim "step_ms_p90 on newton-lasso-sync improves" --out BENCH_18.json

Pair i runs ``python3 perfbench/run.py --workload all --trace 0 --seconds S
--seed <first-seed + i>`` once in each checkout, the parent first in even
pairs and the change first in odd ones.  The file is rewritten after every
pair, so an interrupted comparison keeps the pairs it finished.

For every end-to-end metric of ``BENCHMARK.json`` and every workload, the
summary gives each side's median and quartiles, the change in percent, the
pairs the change won (ties count for neither side), and whether the
change's median is within the metric's bound of the parent's.  With
``--claim-metric`` it also says whether the claim holds: the change wins at
least nine tenths of the pairs and its median is better than the parent's
by more than the distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Before numpy is imported, as perfbench/run.py does for its runs, so the
# machine record shows the setting the runs used.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from worker import machine_info  # noqa: E402

RUN_TIMEOUT_S = 900


def run_benchmark(checkout: Path, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --workload all --trace 0`` run; its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--trace", "0",
           "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: seed {seed} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(pairs: list, metrics: dict, claim_metric: str | None) -> dict:
    """Per ``<workload>/<metric>``: medians, quartiles, wins and the bound check."""
    summary = {}
    for key in pairs[0]["parent"]["metrics"]:
        spec = metrics[key.rsplit("/", 1)[1]]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        parent = np.array([p["parent"]["metrics"][key]["value"] for p in pairs])
        change = np.array([p["change"]["metrics"][key]["value"] for p in pairs])
        p_q1, p_med, p_q3 = np.percentile(parent, [25, 50, 75])
        c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75])
        row = {
            "parent_median": p_med, "change_median": c_med,
            "change_pct": 100.0 * (c_med - p_med) / p_med,
            "change_wins": int((sign * (parent - change) > 0).sum()),
            "parent_q1": p_q1, "parent_q3": p_q3, "change_q1": c_q1, "change_q3": c_q3,
            "bound": spec["bound"],
            "within_bound": bool(sign * (c_med - p_med) <= spec["bound"] * abs(p_med)),
        }
        if key == claim_metric:
            row["claim_met"] = bool(10 * row["change_wins"] >= 9 * len(pairs)
                                    and sign * (p_med - c_med) > p_q3 - p_q1)
        summary[key] = row
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--claim", default="none",
                        help="the claim, in words, recorded in the file")
    parser.add_argument("--claim-metric", help="<workload>/<metric> the claim is about")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.first_seed < 0:
        parser.error("--pairs must be positive, --seconds positive, --first-seed nonnegative")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {str(path)!r} holds no perfbench/run.py")
    metrics = {m["name"]: m for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    seeds = range(args.first_seed, args.first_seed + args.pairs)
    record = {
        "what": "druid run benchmark, parent commit vs this change: alternating pairs of "
                f"`python3 perfbench/run.py --workload all --trace 0 --seconds {args.seconds:g} "
                f"--seed i`, i = {seeds[0]}..{seeds[-1]} (pairs with an even index run the "
                "parent first, odd ones the change first)",
        "claim": args.claim,
        "machine": machine_info(),
    }
    pairs = []
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        results = {side: run_benchmark(checkouts[side], seed, args.seconds) for side in order}
        pairs.append({"seed": seed, "first": order[0],
                      "parent": results["parent"], "change": results["change"]})
        record.update(summary=summarize(pairs, metrics, args.claim_metric), pairs=pairs)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"pair {index + 1}/{args.pairs} (seed {seed}) written to {args.out}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
