"""The tools under ``tools/`` run as their docstrings describe."""

import math
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_trace_hashes_report_the_drift_of_a_differing_checkout(tmp_path):
    # a copy of this checkout whose models are applied by the einsum they were before:
    # the BFGS traces move in the last bits and stay within the golden tolerance
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__", "out"))
    curvature = tmp_path / "src" / "druid" / "curvature.py"
    text = curvature.read_text()
    matmul = "return (curvature @ H[:, :, None])[:, :, 0]"
    assert matmul in text
    curvature.write_text(text.replace(matmul, 'return np.einsum("kij,kj->ki", curvature, H)'))
    cmd = [sys.executable, "tools/trace_hashes.py", "--workloads", "kernel-bfgs-lasso-sync",
           "--seeds", "0", "--against", str(tmp_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"differs: kernel-bfgs-lasso-sync 0 [0-9a-f]{64} against [0-9a-f]{64}", lines[1])
    assert re.fullmatch(r"  largest relative deviation: t 0\.0e\+00, cost_err \S+, dist_err \S+, "
                        r"r_opt \S+, r_cons \S+, r_reg \S+, comm_scalars 0\.0e\+00", lines[2])
    assert re.fullmatch(r"every value of the 1 differing traces is within the golden tolerance "
                        r"1e-06 \* \|b\| \+ 1e-10 \(at most \S+ of it\)", lines[3])
    assert lines[4] == f"1 of 1 traces differ from {tmp_path}"


def test_drift_measures_each_column_against_the_golden_tolerance(monkeypatch):
    # loading the script pins the BLAS threads and bytecode writing; keep that out of this process
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    drift = runpy.run_path(str(ROOT / "tools" / "trace_hashes.py"))["drift"]
    theirs = b"t,r\n0,1.0\n1,0.0\n"
    largest, share = drift(b"t,r\n0,1.000001\n1,0.0\n", theirs, 1e-6, 1e-10)
    assert largest == {"t": 0.0, "r": pytest.approx(1e-6)} and 0.99 < share <= 1.0
    largest, share = drift(b"t,r\n0,1.0\n1,2e-10\n", theirs, 1e-6, 1e-10)
    assert largest == {"t": 0.0, "r": math.inf} and share == pytest.approx(2.0)
    assert drift(b"t,r\n0,1.0\n", theirs, 1e-6, 1e-10) is None
    assert drift(b"t,s\n0,1.0\n1,0.0\n", theirs, 1e-6, 1e-10) is None


def test_setup_phases_times_each_phase_of_a_workload():
    cmd = [sys.executable, "tools/setup_phases.py", "--workloads", "gradient-ridge-async",
           "--seeds", "0", "--repeats", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    phases = ["parse", "build_problem", "graph", "reference", "smoothness", "init_network"]
    assert header.split() == ["workload", "seed", *(f"{p}_ms" for p in phases), "setup_ms",
                              "parse_share"]
    name, seed, *times, total, share = row.split()
    assert (name, seed) == ("gradient-ridge-async", "0") and len(times) == len(phases)
    assert all(float(t) >= 0 for t in times)
    assert float(total) == pytest.approx(sum(map(float, times)), abs=0.05)
    assert 0 < float(share) < 1


def test_a_failing_property_test_lets_the_later_tests_run(tmp_path):
    # a failing @given test makes hypothesis import libcst, whose import warns; under
    # the repo's warnings-as-errors setting that warning must not abort the run
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    cmd = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
           str(tmp_path), "-p", "no:cacheprovider", "-q", "test_property.py"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
