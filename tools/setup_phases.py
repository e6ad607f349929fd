"""Time each setup phase of ``run_experiment`` on the benchmark workloads.

Usage, from the root of a checkout:

    python3 tools/setup_phases.py
    python3 tools/setup_phases.py --workloads newton-lasso-sync --seeds 0 1 --repeats 7

For each workload of ``perfbench/workloads.py`` and each seed (default 0),
the workload's dataset is written to a temporary directory, and the phases
``run_experiment`` goes through before its loop run in this process, with
BLAS pinned to one thread: parse (the dataset file opened and parsed),
build_problem, graph, reference, smoothness and init_network.  Each phase
runs ``--repeats`` times (default 5) on the previous phase's result.  One
line per workload and seed gives the best time of each phase and their sum
in milliseconds, then the parse's share of the sum.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True   # no __pycache__ under tools/, src/ or perfbench/
# pins BLAS to one thread as it is imported, before numpy is, as perfbench/run.py does
from trace_hashes import ROOT, load_checkout  # noqa: E402

# each phase calls what ``run_experiment`` calls: the names its module holds
experiment, workloads, _, _ = load_checkout(ROOT)
WORKLOADS = workloads.WORKLOADS

PHASES = ("parse", "build_problem", "graph", "reference", "smoothness", "init_network")


def best_of(repeats: int, phase):
    """(the least seconds ``phase()`` took in ``repeats`` calls, its last result)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = phase()
        best = min(best, time.perf_counter() - start)
    return best, result


def parse(path: str):
    with open(path, encoding="utf-8") as fh:
        return experiment.parse_libsvm(fh)


def smoothness(problem):
    vars(problem).pop("smoothness", None)   # a cached property: computed anew each call
    return problem.smoothness


def phase_seconds(cfg: experiment.ExperimentConfig, repeats: int) -> dict:
    """Phase name -> the best of ``repeats`` timings of that phase of ``cfg``'s setup."""
    seconds = {}
    seconds["parse"], ds = best_of(repeats, lambda: parse(cfg.dataset))
    seconds["build_problem"], problem = best_of(
        repeats, lambda: experiment.build_problem(cfg, ds))
    seconds["graph"], graph = best_of(repeats, lambda: experiment.random_connected_graph(
        cfg.agents, cfg.edge_prob, cfg.graph_seed))
    seconds["reference"], _ = best_of(repeats, lambda: experiment.centralized_reference(
        problem, tol=cfg.ref_tol, max_iter=cfg.ref_max_iter))
    seconds["smoothness"], sm = best_of(repeats, lambda: smoothness(problem))
    seconds["init_network"], _ = best_of(
        repeats, lambda: experiment.init_network(problem, graph, cfg.hyperparams(sm.M_f)))
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS), help="default: every workload")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if any(seed < 0 for seed in args.seeds):
        parser.error("--seeds must be nonnegative")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print("workload seed", *(f"{name}_ms" for name in PHASES), "setup_ms parse_share")
    for name in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                dataset = Path(tmp) / "data.txt"
                workloads.write_dataset(dataset, *WORKLOADS[name].generate(seed))
                cfg = experiment.ExperimentConfig(**WORKLOADS[name].config(
                    seed, str(dataset), str(Path(tmp) / "trace.csv")))
                seconds = phase_seconds(cfg, args.repeats)
            total = sum(seconds.values())
            print(name, seed, *(f"{1e3 * seconds[p]:.2f}" for p in PHASES),
                  f"{1e3 * total:.2f}", f"{seconds['parse'] / total:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
