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
printed per trace.  ``--checkout DIR`` runs the library and the workloads
of another checkout.  ``--against DIR`` also runs the traces of ``DIR`` and
lists every trace whose hash differs, each followed by the largest relative
deviation of each of its columns from ``DIR``'s.  One line then says whether
every value of the differing traces is within the benchmark's golden
tolerance, ``RTOL * |b| + ATOL`` of the checkout's ``perfbench/worker.py``
with ``b`` the value of ``DIR``; the exit code is 1 if any hash differs,
within the tolerance or not.  Both checkouts run in this process, each
library as a package of its own name (``load_checkout``); nothing is put on
``sys.path`` and nothing is written inside either checkout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import math
import os
import sys
import tempfile
from pathlib import Path

# Before numpy is imported, as perfbench/run.py does for its runs.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.dont_write_bytecode = True   # no __pycache__ under src/ or perfbench/

ROOT = Path(__file__).resolve().parent.parent

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


def sha256(trace: bytes) -> str:
    return hashlib.sha256(trace).hexdigest()


def checkout_dir(path: str) -> Path:
    """``path`` resolved, if it holds the library and the benchmark workloads."""
    root = Path(path).resolve()
    if not ((root / "src" / "druid").is_dir() and (root / "perfbench" / "workloads.py").is_file()):
        raise argparse.ArgumentTypeError(f"{path!r} holds no src/druid and perfbench/workloads.py")
    return root


def load_module(name: str, path: Path, package: list | None = None):
    """The module (``package``: its search path) of the file ``path``, run under ``name``."""
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=package)
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def load_checkout(root: Path) -> tuple:
    """(``root``'s ``druid.experiment``, its ``perfbench/workloads.py``, its golden
    ``RTOL`` and ``ATOL``), run in this process.  The library is loaded as a
    package of a name of its own, which its relative imports follow, so two
    checkouts' libraries sit side by side and neither is the ``druid`` of ``import``."""
    name = "druid_" + hashlib.sha256(str(root).encode()).hexdigest()[:12]
    load_module(name, root / "src" / "druid" / "__init__.py", [str(root / "src" / "druid")])
    workloads = load_module(f"{name}_workloads", root / "perfbench" / "workloads.py")
    worker = load_module(f"{name}_worker", root / "perfbench" / "worker.py")
    return importlib.import_module(f"{name}.experiment"), workloads, worker.RTOL, worker.ATOL


def traces(root: Path, names: list | None, seeds: list) -> dict:
    """(workload, seed) -> the bytes of the trace ``root``'s library writes, for
    the workloads ``names`` (None: every workload)."""
    experiment, bench, _, _ = load_checkout(root)
    workloads = {**bench.WORKLOADS, **{name: bench.Workload(name=name, **kwargs)
                                       for name, kwargs in KERNEL_CONFIGS.items()}}
    names = list(workloads) if names is None else names
    unknown = sorted(set(names) - set(workloads))
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; known: {sorted(workloads)}")
    written = {}
    for name in names:
        workload = workloads[name]
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                dataset, output = Path(tmp) / "data.txt", Path(tmp) / "trace.csv"
                bench.write_dataset(dataset, *workload.generate(seed))
                experiment.run_experiment(experiment.ExperimentConfig(
                    **workload.config(seed, str(dataset), str(output))))
                written[name, seed] = output.read_bytes()
    return written


def columns(trace: bytes) -> dict:
    """The trace's CSV as column name -> its values."""
    header, *rows = trace.decode().splitlines()
    return dict(zip(header.split(","), zip(*([float(v) for v in row.split(",")] for row in rows))))


def drift(ours: bytes, theirs: bytes, rtol: float, atol: float):
    """(column -> largest relative deviation of ``ours`` from ``theirs``, the
    largest share of the tolerance ``rtol * |b| + atol`` that a deviation from
    a value ``b`` of ``theirs`` uses), or None when the traces' columns or
    lengths differ.  A share above 1 is a value outside the tolerance."""
    a, b = columns(ours), columns(theirs)
    if a.keys() != b.keys() or any(len(a[k]) != len(b[k]) for k in a):
        return None
    def relative(x, y):
        return abs(x - y) / abs(y) if y else (0.0 if x == y else math.inf)
    largest = {k: max(map(relative, a[k], b[k]), default=0.0) for k in a}
    share = max((abs(x - y) / (rtol * abs(y) + atol) for k in a for x, y in zip(a[k], b[k])),
                default=0.0)
    return largest, share


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
    ours = traces(args.checkout, args.workloads, args.seeds)
    for (name, seed), trace in ours.items():
        print(name, seed, sha256(trace), flush=True)
    if args.against is None:
        return 0
    _, _, RTOL, ATOL = load_checkout(args.checkout)
    theirs = traces(args.against, args.workloads, args.seeds)
    differ = [key for key in ours if theirs[key] != ours[key]]
    shares = []   # of the tolerance, one per differing trace
    for name, seed in differ:
        print(f"differs: {name} {seed} {sha256(ours[name, seed])} against "
              f"{sha256(theirs[name, seed])}")
        found = drift(ours[name, seed], theirs[name, seed], RTOL, ATOL)
        if found is None:
            print("  columns or rows differ")
        else:
            print("  largest relative deviation:",
                  ", ".join(f"{column} {value:.1e}" for column, value in found[0].items()))
        shares.append(math.inf if found is None else found[1])
    if differ:
        tolerance = f"the golden tolerance {RTOL:g} * |b| + {ATOL:g}"
        outside = sum(share > 1 for share in shares)
        print(f"every value of the {len(differ)} differing traces is within {tolerance} "
              f"(at most {max(shares):.1e} of it)" if not outside else
              f"{outside} of the {len(differ)} differing traces are not within {tolerance}")
    print(f"{len(differ)} of {len(ours)} traces differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
