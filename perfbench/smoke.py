"""Fast self-check of the benchmark; exits non-zero on the first failure.

    python3 perfbench/smoke.py

Runs every workload briefly with tracing off and on (seed 0, which is
also checked against ``golden.json``).  It checks four things:

* every metric in ``BENCHMARK.json`` is printed with its unit;
* every correctness check passes, including the traced-versus-untraced
  byte identity of the CSV trace;
* the Cholesky count is 100 per iteration on newton-lasso-sync and 0 on
  gradient-ridge-async;
* the command fails without a result when the library sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec: dict, trace: int) -> dict:
    proc = bench(ROOT, "--workload", "all", "--seed", "0", "--seconds", "1",
                 "--trace", str(trace))
    if proc.returncode != 0:
        sys.exit(f"trace={trace}: exit code {proc.returncode}\n{proc.stderr}")
    result = last_json(proc.stdout)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"trace={trace}: last line is not the result object\n{proc.stdout}")
    if not result["correct"] or result["failed"]:
        sys.exit(f"trace={trace}: correctness checks failed\n{proc.stdout}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for workload in spec["workloads"]:
        for metric in wanted:
            key = f"{workload['name']}/{metric['name']}"
            got = result["metrics"].get(key)
            if got is None or got["unit"] != metric["unit"] \
                    or not isinstance(got["value"], (int, float)):
                sys.exit(f"trace={trace}: {key} missing, absent or with the wrong unit: {got}")
            line = f"  {metric['name']:34s}"
            if not any(ln.startswith(line) and ln.rstrip().endswith(" " + metric["unit"])
                       for ln in proc.stdout.splitlines()):
                sys.exit(f"trace={trace}: {key} not printed with unit {metric['unit']}")
    print(f"trace={trace}: {len(result['metrics'])} metrics, {result['attempted']} runs, all checks pass")
    return result["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_run(spec, trace=0)
    layers = check_run(spec, trace=1)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    newton_iters = WORKLOADS["newton-lasso-sync"].iterations
    factor = layers["newton-lasso-sync/curvature.factor_calls"]["value"]
    if factor != 100 * newton_iters:
        sys.exit(f"newton-lasso-sync factor_calls {factor}, expected {100 * newton_iters}")
    if layers["gradient-ridge-async/curvature.factor_calls"]["value"] != 0:
        sys.exit("gradient-ridge-async made Cholesky factorizations")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0",
                     "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            sys.exit("without library sources the benchmark must fail without a result")
    print("without sources: fails without a result, as required")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
