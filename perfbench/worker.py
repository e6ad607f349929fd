"""Run one benchmark workload in this process and print the result as JSON.

``run.py`` starts this file in a fresh interpreter per workload with BLAS
pinned to one thread.  The unit of work is one ``run_experiment`` call,
what ``druid run`` does: parse, graph, per-agent problem, centralized
reference, iterate, write the CSV trace.  The first call warms caches and
lazy imports and is checked but not timed; calls then repeat until the
measuring time is used up.

* ``--trace 0`` times calls with ``IterationStamps`` only and reports the
  end-to-end metrics.
* ``--trace 1`` alternates such a call with a fully traced one and
  reports per-layer metrics, the tracing overhead, and whether tracing
  changed a byte of the trace.

Every call is checked: it completes, its final trace row is finite, its
final ``dist_err`` and ``r_opt`` match the independent oracle (and the
values recorded from the seed implementation in ``golden.json`` when the
seed is listed there) within ``RTOL``/``ATOL``, and its CSV is byte-identical
to the first call's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Final dist_err / r_opt must agree with the oracle to this tolerance.  The
# oracle sums in a different order; on the seed implementation the two
# agree to about 1e-14 relative, or 1e-14 absolute near convergence.
RTOL = 1e-6
ATOL = 1e-10
MIN_CALLS = 3     # calls after the warm-up, however short --seconds is

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p90": "ms",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "curvature.factor_calls": "count",
    "curvature.factor_s": "s",
    "curvature.solve_s": "s",
    "curvature.bfgs_updates": "count",
    "curvature.bfgs_skipped": "count",
    "curvature.bfgs_accept_ratio": "ratio",
    "curvature.bfgs_update_s": "s",
    "network.step_s": "s",
    "network.self_s": "s",
    "network.init_s": "s",
    "network.comm_scalars_per_iter": "count/iter",
    "activation.sample_s": "s",
    "activation.active_mean": "count",
    "activation.empty_steps": "count",
    "analysis.kkt_calls": "count",
    "analysis.kkt_s": "s",
    "analysis.gradient_calls": "count",
    "experiment.metrics_s": "s",
    "experiment.metrics_share": "ratio",
    "problems.gradient_calls": "count",
    "problems.gradient_s": "s",
    "problems.hessian_calls": "count",
    "problems.hessian_s": "s",
    "reference.solve_s": "s",
    "reference.iterations": "count",
    "datasets.parse_s": "s",
    "datasets.rows": "count",
    "topology.graph_s": "s",
    "topology.edges": "count",
    "experiment.build_problem_s": "s",
    "experiment.trace_write_s": "s",
    "experiment.trace_rows": "count",
    "trace.overhead_ratio": "ratio",
}

# Per-layer metrics that are measurements rather than deterministic counts.
_VARIABLE = {k for k, u in PER_LAYER_UNITS.items() if u == "s"} | {
    "experiment.metrics_share", "trace.overhead_ratio"}


def _quantile(values, share: float) -> float:
    """Linear-interpolated quantile, e.g. share 0.9 for the 90th percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * share) - 1]


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Checker:
    """Correctness checks on the CSV trace of every call."""

    def __init__(self, expected: dict):
        self.expected = expected      # label -> {"dist_err": x, "r_opt": y}
        self.first = None

    def __call__(self, path: Path) -> list:
        data = path.read_bytes()
        lines = data.decode().splitlines()
        row = dict(zip(lines[0].split(","), (float(v) for v in lines[-1].split(","))))
        errors = [f"non-finite {k}={v!r} in final row" for k, v in row.items()
                  if not math.isfinite(v)]
        for label, ref in self.expected.items():
            for key, want in ref.items():
                if not abs(row[key] - want) <= RTOL * abs(want) + ATOL:
                    errors.append(f"final {key}={row[key]!r}, {label} gives {want!r}")
        if self.first is None:
            self.first = data
        elif data != self.first:
            errors.append("trace differs from the first call's trace")
        return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "druid" / "__init__.py").is_file():
        print(f"error: no druid sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import scipy.linalg

    import druid
    from druid import curvature, experiment
    from druid.experiment import ExperimentConfig, run_experiment
    from druid.problems import LocalObjective
    from oracle import final_metrics
    from tracer import IterationStamps, Patches, Tracer
    from workloads import WORKLOADS, write_dataset

    if Path(druid.__file__).resolve().parent != (SRC / "druid").resolve():
        print(f"error: imported druid from {druid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    owners = {"experiment": experiment, "curvature": curvature,
              "scipy.linalg": scipy.linalg, "LocalObjective": LocalObjective}

    workdir = HERE / "out" / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    dataset = workdir / "dataset.txt"
    features, labels = workload.generate(args.seed)
    write_dataset(dataset, features, labels)

    expected = {"oracle": final_metrics(workload, args.seed, features, labels)}
    golden = json.loads((HERE / "golden.json").read_text())
    if str(args.seed) in golden.get(workload.name, {}):
        expected["seed implementation"] = golden[workload.name][str(args.seed)]
    check = Checker(expected)

    attempted = failed = 0
    errors = []
    timed, traced = [], []

    def attempt(label: str, probe):
        nonlocal attempted, failed
        attempted += 1
        output = workdir / f"{label}.csv"
        cfg = ExperimentConfig(**workload.config(args.seed, str(dataset), str(output)))
        try:
            with Patches() as patches:
                probe.install(patches, owners)
                start = perf_counter()
                run_experiment(cfg)
                end = perf_counter()
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            failed += 1
            errors.append(traceback.format_exc(limit=3))
            return None
        problems = check(output)
        if isinstance(probe, IterationStamps) and len(probe.exits) != workload.iterations:
            problems.append(f"{len(probe.exits)} iteration steps stamped, "
                            f"expected {workload.iterations}")
        if problems:
            failed += 1
            errors.extend(problems)
            return None
        return (start, end), output

    attempt("warmup", IterationStamps())
    deadline = perf_counter() + args.seconds
    while attempted <= MIN_CALLS or perf_counter() < deadline:
        stamps = IterationStamps()
        done = attempt("untraced", stamps)
        if done is not None:
            timed.append((done[0], stamps))
        if not args.trace:
            continue
        tracer = Tracer()
        traced_done = attempt("traced", tracer)
        if done is None or traced_done is None:
            continue
        if traced_done[1].read_bytes() != done[1].read_bytes():
            failed += 1
            errors.append("traced run's CSV differs from the untraced run's")
            continue
        lines = traced_done[1].read_text().splitlines()
        layer = tracer.layer_metrics(
            run_end=traced_done[0][1], iterations=workload.iterations,
            comm_scalars=int(lines[-1].rsplit(",", 1)[1]), trace_rows=len(lines) - 1)
        loop = tracer.loop_s()
        layer["trace.overhead_ratio"] = None if loop is None else loop / stamps.loop_s()
        traced.append(layer)
        tracer.write(workdir / "spans.csv.gz")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    samples = {}
    if args.trace and traced:
        unrepeated = []
        for name, unit in PER_LAYER_UNITS.items():
            values = [t[name] for t in traced]
            if name in _VARIABLE:
                value = None if None in values else statistics.median(values)
            else:
                value = values[0]
                if any(v != value for v in values):
                    unrepeated.append(f"{name} did not repeat: {values}")
            metrics[name] = {"value": value, "unit": unit}
        if unrepeated:
            failed += 1
            errors.extend(unrepeated)
        samples["traced_calls"] = len(traced)
    elif not args.trace and timed:
        # Timings are upper tails over the calls of the run: on a shared
        # host, co-tenant load slows some stretches of a run by up to 2x,
        # and the slow tail repeats from run to run where the median does
        # not.  The median step time is printed but not a result metric.
        steps = [s for _, st in timed for s in st.step_durations()]
        runs = [t1 - t0 for (t0, t1), _ in timed]
        rates = [len(st.exits) / st.loop_s() for _, st in timed]
        step_p90 = _quantile(steps, 0.9)
        values = {
            "setup_s": statistics.median(st.entries[0] - t0 for (t0, _), st in timed),
            "run_s": _quantile(runs, 0.9),
            "step_ms_p90": 1e3 * step_p90,
            "iters_per_s": _quantile(rates, 0.1),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        samples = {"timed_calls": len(timed), "steps": len(steps),
                   "steps_beyond_p90": sum(s > step_p90 for s in steps),
                   "step_ms_p50": 1e3 * statistics.median(steps)}

    for leftover in ("dataset.txt", "warmup.csv", "untraced.csv", "traced.csv"):
        (workdir / leftover).unlink(missing_ok=True)
    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "correct": failed == 0 and bool(metrics), "attempted": attempted,
        "failed": failed, "metrics": metrics, "samples": samples,
        "errors": errors[:10], "machine": machine_info(),
    }
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
