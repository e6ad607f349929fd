"""The tools under ``tools/`` run as their docstrings describe."""

import ast
import inspect
import json
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import druid

ROOT = Path(__file__).resolve().parent.parent


def load_tool(monkeypatch, tool="trace_hashes.py"):
    """The names of ``tools/<tool>``, run with ``runpy`` with ``tools/`` on the path, as
    running the script puts it there; the BLAS threads and the bytecode writing that
    loading it pins are kept out of this process."""
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return runpy.run_path(str(ROOT / "tools" / tool))


def einsum_copy(root):
    """A copy of this checkout at ``root`` whose models are applied by the einsum
    they were before: the BFGS traces move in the last bits."""
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__", "out"))
    curvature = root / "src" / "druid" / "curvature.py"
    text = curvature.read_text()
    matmul = "return (curvature @ H[:, :, None])[:, :, 0]"
    assert matmul in text
    curvature.write_text(text.replace(matmul, 'return np.einsum("kij,kj->ki", curvature, H)'))


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
    # the einsum copy's BFGS traces stay within the golden tolerance
    einsum_copy(tmp_path)
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
    drift = load_tool(monkeypatch)["drift"]
    theirs = b"t,r\n0,1.0\n1,0.0\n"
    largest, share = drift(b"t,r\n0,1.000001\n1,0.0\n", theirs, 1e-6, 1e-10)
    assert largest == {"t": 0.0, "r": pytest.approx(1e-6)} and 0.99 < share <= 1.0
    largest, share = drift(b"t,r\n0,1.0\n1,2e-10\n", theirs, 1e-6, 1e-10)
    assert largest == {"t": 0.0, "r": math.inf} and share == pytest.approx(2.0)
    assert drift(b"t,r\n0,1.0\n", theirs, 1e-6, 1e-10) is None
    assert drift(b"t,s\n0,1.0\n1,0.0\n", theirs, 1e-6, 1e-10) is None


def test_trace_hashes_compare_two_checkouts_in_one_process(monkeypatch, capsys):
    def start(*args, **kwargs):
        raise AssertionError("trace_hashes started a process")

    monkeypatch.setattr(subprocess, "run", start)
    monkeypatch.setattr(subprocess, "Popen", start)
    main = load_tool(monkeypatch)["main"]
    assert main(["--workloads", "kernel-gradient-lasso-async", "--seeds", "0",
                 "--against", str(ROOT)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"0 of 1 traces differ from {ROOT}"


def test_two_checkouts_load_side_by_side(tmp_path, monkeypatch):
    einsum_copy(tmp_path)
    load_checkout = load_tool(monkeypatch)["load_checkout"]
    ours, theirs = (load_checkout(root)[0] for root in (ROOT, tmp_path))
    assert ours.__name__ != theirs.__name__
    apply_model = {name: sys.modules[f"{module.__package__}.curvature"]._apply_model
                   for name, module in (("ours", ours), ("theirs", theirs))}
    assert "np.einsum" in inspect.getsource(apply_model["theirs"])
    assert "np.einsum" not in inspect.getsource(apply_model["ours"])
    assert sys.modules["druid"] is druid


@pytest.mark.parametrize("tool, forbidden", [
    pytest.param(tool, {"subprocess", "pickle", "sys.path"}, id=tool)
    for tool in ("trace_hashes.py", "setup_phases.py")
] + [pytest.param("bench_pairs.py", {"sys.path"}, id="bench_pairs.py")])
def test_tools_start_no_interpreter_and_leave_sys_path_alone(tool, forbidden):
    # each checkout is loaded in this process under a package name of its own, never as the
    # ``druid`` that sys.path finds, so the tools need neither a second interpreter nor the
    # path; bench_pairs.py still starts perfbench/run.py, so only its path is checked
    tree = ast.parse((ROOT / "tools" / tool).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported |= {module.partition(".")[0], *(f"{module}.{a.name}" for a in node.names)}
    assert not imported & forbidden
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr == "path" and isinstance(node.value, ast.Name)
                and node.value.id == "sys"]


#: the end-to-end metrics of the synthetic pairs, one of each direction
METRICS = {"run_s": {"better": "lower", "bound": 0.25},
           "iters_per_s": {"better": "higher", "bound": 0.25}}


def summary_of(monkeypatch, key, parent, change, claim=False):
    """``bench_pairs.summarize``'s row of ``key`` for one pair per value of ``parent``
    and ``change``, with ``key`` as the claim metric if ``claim``."""
    summarize = load_tool(monkeypatch, "bench_pairs.py")["summarize"]
    pairs = [{side: {"metrics": {key: {"value": value}}} for side, value in
              (("parent", p), ("change", c))} for p, c in zip(parent, change)]
    return summarize(pairs, METRICS, key if claim else None)[key]


def test_bench_summary_counts_ties_for_neither_side_and_flips_higher_metrics(monkeypatch):
    parent, change = [10.0] * 10, [9.0] * 2 + [10.0] * 2 + [13.0] * 6
    lower = summary_of(monkeypatch, "w/run_s", parent, change)
    higher = summary_of(monkeypatch, "w/iters_per_s", parent, change)
    assert (lower["change_wins"], higher["change_wins"]) == (2, 6)
    assert lower["change_pct"] == higher["change_pct"] == pytest.approx(30.0)
    assert not lower["within_bound"] and higher["within_bound"]
    assert "claim_met" not in lower and not lower["unresolved"] and not higher["unresolved"]


@pytest.mark.parametrize("shift, losses, met", [(-1.0, 1, False), (-10.0, 2, False),
                                                (-10.0, 1, True)],
                         ids=["within-the-quartiles", "eight-of-ten", "met"])
def test_bench_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_quartiles(
        monkeypatch, shift, losses, met):
    # the parent's quartiles are 4.5 apart; the change loses its last ``losses`` pairs
    parent = [10.0 + i for i in range(10)]
    change = [p + shift for p in parent[:10 - losses]] + [p - shift for p in parent[10 - losses:]]
    assert summary_of(monkeypatch, "w/run_s", parent, change, claim=True)["claim_met"] is met
    flipped = [2 * p - c for p, c in zip(parent, change)]   # the same gaps, upward
    assert summary_of(monkeypatch, "w/iters_per_s", parent, flipped, claim=True)["claim_met"] is met


def test_bench_metric_is_unresolved_where_the_parent_spreads_beyond_the_bound(monkeypatch):
    # quartiles 4.5 apart against a bound of 0.25 * 14.5; only a full separation resolves
    parent = [10.0 + i for i in range(10)]
    assert summary_of(monkeypatch, "w/run_s", parent, parent)["unresolved"]
    below = [p - 10.0 for p in parent]   # every change run under every parent run
    assert not summary_of(monkeypatch, "w/run_s", parent, below)["unresolved"]
    assert summary_of(monkeypatch, "w/iters_per_s", parent, below)["unresolved"]
    assert not summary_of(monkeypatch, "w/run_s", [10.0] * 10, parent)["unresolved"]


@pytest.mark.parametrize("bench, unresolved", [
    ("BENCH_34.json", {"newton-lasso-sync/run_s", "bfgs-logistic-sparse/run_s",
                       "bfgs-logistic-sparse/step_ms_p90", "bfgs-logistic-sparse/iters_per_s"}),
    ("BENCH_36.json", {"bfgs-logistic-sparse/iters_per_s"}),
], ids=["BENCH_34", "BENCH_36"])
def test_bench_summaries_recompute_from_their_pairs(monkeypatch, bench, unresolved):
    summarize = load_tool(monkeypatch, "bench_pairs.py")["summarize"]
    record = json.loads((ROOT / bench).read_text())
    metrics = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    claim = next((key for key, row in record["summary"].items() if "claim_met" in row), None)
    summary = summarize(record["pairs"], metrics, claim)
    for key, row in record["summary"].items():
        assert {name: summary[key][name] for name in row} == row, key
    assert {key for key, row in summary.items() if row["unresolved"]} == unresolved


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
