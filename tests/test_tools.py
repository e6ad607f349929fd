"""The tools under ``tools/`` run as their docstrings describe."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def hashes_against_this_checkout(workload):
    cmd = [sys.executable, "tools/trace_hashes.py", "--workloads", workload,
           "--seeds", "0", "--against", str(ROOT)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    first, last = proc.stdout.splitlines()[0], proc.stdout.splitlines()[-1]
    assert re.fullmatch(rf"{workload} 0 [0-9a-f]{{64}}", first)
    assert last == f"0 of 1 traces differ from {ROOT}"


def test_trace_hashes_of_a_checkout_agree_with_themselves():
    hashes_against_this_checkout("gradient-ridge-async")


def test_trace_hashes_run_the_kernel_configs():
    # Newton on a non-constant Hessian, which no benchmark workload runs
    hashes_against_this_checkout("kernel-newton-logistic-sync")
