"""Print the sha256 of every workload's trace; compare two checkouts.

Usage, from the root of a checkout:

    python3 tools/trace_hashes.py
    python3 tools/trace_hashes.py --workloads gradient-ridge-async --seeds 0 1
    python3 tools/trace_hashes.py --workloads kernel-newton-logistic-sync
    git archive <parent-commit> | (mkdir -p ../parent && tar -x -C ../parent)
    python3 tools/trace_hashes.py --against ../parent

The workloads are the benchmark's, from ``perfbench/workloads.py``, and the
twelve small ``KERNEL_CONFIGS``, which reach every kernel in both modes.
For each workload and each seed (default 0-4), the workload's dataset is
written and ``run_experiment`` runs on it in a temporary directory, with
BLAS pinned to one thread; one line ``<workload> <seed> <sha256>`` is
printed per trace.  ``--checkout DIR``
runs the library and the workloads of another checkout.  ``--against DIR``
also computes the hashes of ``DIR`` in a subprocess, lists every trace whose
hash differs and exits with code 1 if any does.  Nothing is written inside
either checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Before numpy is imported, as perfbench/run.py does for its runs.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.dont_write_bytecode = True   # no __pycache__ under src/ or perfbench/

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900

#: ``Workload`` arguments of the configs named ``kernel-<scheme>-<lasso|logistic>-<sync|async>``:
#: every scheme on a constant (lasso) and a non-constant (logistic) Hessian, synchronous and
#: under Bernoulli 0.6 activation, recorded every step.  The benchmark's workloads run
#: neither Newton on a non-constant Hessian, nor gradient or BFGS in sync, nor lasso async.
KERNEL_CONFIGS = {
    f"kernel-{scheme}-{problem.split('_')[0]}-{mode}": dict(
        problem=problem, scheme=scheme, agents=12, d=6, rows_per_agent=8, edge_prob=0.4,
        gamma=0.1, iterations=100, cadence=1, mode=mode, activation_p=0.6)
    for problem in ("lasso", "logistic_l1") for scheme in ("gradient", "newton", "bfgs")
    for mode in ("sync", "async")
}


def checkout_dir(path: str) -> Path:
    """``path`` resolved, if it holds the library and the benchmark workloads."""
    root = Path(path).resolve()
    if not ((root / "src" / "druid").is_dir() and (root / "perfbench" / "workloads.py").is_file()):
        raise argparse.ArgumentTypeError(f"{path!r} holds no src/druid and perfbench/workloads.py")
    return root


def trace_hashes(root: Path, names: list | None, seeds: list) -> dict:
    """(workload, seed) -> sha256 of the trace ``root``'s library writes, for
    the workloads ``names`` (None: every workload)."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from druid.experiment import ExperimentConfig, run_experiment
    from workloads import WORKLOADS, Workload, write_dataset

    workloads = {**WORKLOADS, **{name: Workload(name=name, **kwargs)
                                 for name, kwargs in KERNEL_CONFIGS.items()}}
    names = list(workloads) if names is None else names
    unknown = sorted(set(names) - set(workloads))
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; known: {sorted(workloads)}")
    hashes = {}
    for name in names:
        workload = workloads[name]
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                dataset, output = Path(tmp) / "data.txt", Path(tmp) / "trace.csv"
                write_dataset(dataset, *workload.generate(seed))
                run_experiment(ExperimentConfig(**workload.config(seed, str(dataset), str(output))))
                hashes[name, seed] = hashlib.sha256(output.read_bytes()).hexdigest()
    return hashes


def hashes_of(other: Path, names: list | None, seeds: list) -> dict:
    """``trace_hashes`` of another checkout, computed by this script in a subprocess."""
    cmd = [sys.executable, __file__, "--checkout", str(other), "--seeds", *map(str, seeds),
           *(["--workloads", *names] if names else [])]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{other}: trace hashes exited with code {proc.returncode}")
    lines = [line.split() for line in proc.stdout.splitlines()]
    return {(name, int(seed)): digest for name, seed, digest in lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", help="default: every workload")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(5)))
    parser.add_argument("--checkout", type=checkout_dir, default=ROOT,
                        help="checkout whose library and workloads run (default: this one)")
    parser.add_argument("--against", type=checkout_dir,
                        help="checkout to compare with; exit 1 if any trace differs")
    args = parser.parse_args(argv)
    if any(seed < 0 for seed in args.seeds):
        parser.error("--seeds must be nonnegative")
    ours = trace_hashes(args.checkout, args.workloads, args.seeds)
    for (name, seed), digest in ours.items():
        print(name, seed, digest, flush=True)
    if args.against is None:
        return 0
    theirs = hashes_of(args.against, args.workloads, args.seeds)
    differ = [key for key in ours if theirs.get(key) != ours[key]]
    for name, seed in differ:
        print(f"differs: {name} {seed} {ours[name, seed]} against {theirs.get((name, seed))}")
    print(f"{len(differ)} of {len(ours)} traces differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
