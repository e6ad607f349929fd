"""Instrumentation the benchmark installs around ``druid``'s layer boundaries.

Nothing here edits the library: every probe replaces a public attribute
(a module function, a class method, ``scipy.linalg.cho_factor``) for the
duration of one ``run_experiment`` call and restores it afterwards.

* ``IterationStamps`` is what the timed runs use: a perf_counter stamp at
  the entry of each iteration (the activation draw when asynchronous, the
  step otherwise) and at the return of the step, nothing more.  A step
  function the experiment no longer calls simply leaves no stamps.
* ``Tracer`` is the traced run: a span (name, start, end, parent) around
  every call into the wrapped layers, plus counters read from return
  values, kept in memory and turned into per-layer metrics afterwards.
"""

from __future__ import annotations

import gzip
from collections import Counter
from time import perf_counter

_MISSING = object()
_ANY = object()


class Patches:
    """Replace attributes for the life of a ``with`` block, then restore them."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, make) -> bool:
        """Set ``owner.attr = make(original)``; False if there is no such attribute."""
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def shadow(self, module, attr: str, value) -> None:
        """Set a module global that is not there yet (shadowing a builtin)."""
        self._saved.append((module, attr, getattr(module, attr, _MISSING)))
        setattr(module, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()
        return False


class IterationStamps:
    """Start and end time of every iteration step of one run.

    A step starts at the activation draw that precedes it, if there is
    one, and otherwise at its own entry; it ends when the step returns.
    """

    def __init__(self):
        self.entries = []
        self.exits = []
        self._drawn = None

    def install(self, patches: Patches, owners: dict) -> None:
        def draw(fn):
            def wrapper(*args, **kwargs):
                if self._drawn is None:
                    self._drawn = perf_counter()
                return fn(*args, **kwargs)
            return wrapper

        def step(fn):
            def wrapper(*args, **kwargs):
                start = perf_counter() if self._drawn is None else self._drawn
                self._drawn = None
                out = fn(*args, **kwargs)
                self.exits.append(perf_counter())
                self.entries.append(start)
                return out
            return wrapper

        experiment = owners["experiment"]
        patches.replace(experiment, "sample_activation", draw)
        patches.replace(experiment, "sync_step", step)
        patches.replace(experiment, "async_step", step)

    def step_durations(self) -> list:
        return [b - a for a, b in zip(self.entries, self.exits)]

    def loop_s(self) -> float:
        """First iteration entry to the last step's return."""
        return self.exits[-1] - self.entries[0]


# span name -> (owner path, attribute); owners are resolved at install time.
SPAN_TARGETS = {
    "datasets.parse": ("experiment", "parse_libsvm"),
    "topology.graph": ("experiment", "random_connected_graph"),
    "experiment.build_problem": ("experiment", "build_problem"),
    "reference.solve": ("experiment", "centralized_reference"),
    "network.init": ("experiment", "init_network"),
    "network.step": [("experiment", "sync_step"), ("experiment", "async_step")],
    "activation.sample": ("experiment", "sample_activation"),
    "analysis.kkt": ("experiment", "kkt_residuals"),
    "curvature.bfgs_update": ("curvature", "bfgs_inverse_update"),
    "curvature.solve": ("curvature", "solve_direction"),
    "curvature.factor": ("scipy.linalg", "cho_factor"),
    "problems.gradient": ("LocalObjective", "gradient"),
    "problems.hessian": ("LocalObjective", "hessian"),
}


class Tracer:
    """In-memory spans and counters for one traced ``run_experiment`` call."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.absent = set()
        self.trace_open = None
        self._stack = []

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if observe is not None:
                observe(counters, out, args)
            return out
        return wrapper

    def install(self, patches: Patches, owners: dict) -> None:
        """Wrap every ``SPAN_TARGETS`` entry found in ``owners``."""
        observers = {
            "datasets.parse": lambda c, out, a: c.update(rows=len(out.rows)),
            "topology.graph": lambda c, out, a: c.update(edges=out.n),
            "reference.solve": lambda c, out, a: c.update(reference_iterations=out.iterations),
            "activation.sample": lambda c, out, a: c.update(
                active=len(out.active), empty_steps=int(not out.active)),
            "curvature.bfgs_update": lambda c, out, a: c.update(bfgs_skipped=int(out is a[0])),
        }
        for name, targets in SPAN_TARGETS.items():
            found = False
            for owner, attr in targets if isinstance(targets, list) else [targets]:
                found |= patches.replace(
                    owners[owner], attr, lambda fn, n=name: self._wrap(n, fn, observers.get(n)))
            if not found:
                self.absent.add(name)

        real_open = open

        def traced_open(file, mode="r", *args, **kwargs):
            if "w" in mode:
                self.trace_open = perf_counter()
            return real_open(file, mode, *args, **kwargs)
        patches.shadow(owners["experiment"], "open", traced_open)

    def write(self, path) -> None:
        """Spans as gzipped CSV: index, name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            base = self.spans[0][1] if self.spans else 0.0
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{k},{name},{start - base:.9f},{end - base:.9f},{parent}\n")

    def loop_s(self):
        """First iteration entry to the last step's return (None if no step ran)."""
        entries = [s for s in self.spans if s[0] in ("network.step", "activation.sample")]
        steps = [s for s in entries if s[0] == "network.step"]
        return steps[-1][2] - entries[0][1] if steps else None

    def layer_metrics(self, run_end: float, iterations: int, comm_scalars: int,
                      trace_rows: int) -> dict:
        """Per-layer metrics (value or None when its probe was absent)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, total, self_s = Counter(), Counter(), Counter()
        for k, (name, start, end, parent) in enumerate(spans):
            key = (name, spans[parent][0] if parent >= 0 else None)
            calls[key] += 1
            total[key] += end - start
            self_s[name] += end - start - covered[k]

        def count(name, parent=_ANY):
            if name in self.absent:
                return None
            return sum(v for (n, p), v in calls.items() if n == name and parent in (_ANY, p))

        def seconds(name, parent=_ANY):
            if name in self.absent:
                return None
            return sum(v for (n, p), v in total.items() if n == name and parent in (_ANY, p))

        def own(name):
            return None if name in self.absent else self_s[name]

        def counter(name, key):
            return None if name in self.absent else self.counters[key]

        def ratio(part, whole):
            if part is None or whole is None:
                return None
            return part / whole if whole else 0.0

        loop = self.loop_s()
        in_steps = sum(s[2] - s[1] for s in spans
                       if s[0] in ("network.step", "activation.sample"))
        metrics_s = None if loop is None else loop - in_steps
        bfgs_calls = count("curvature.bfgs_update")
        bfgs_skipped = counter("curvature.bfgs_update", "bfgs_skipped")
        bfgs_updates = None if bfgs_calls is None else bfgs_calls - bfgs_skipped
        return {
            "curvature.factor_calls": count("curvature.factor"),
            "curvature.factor_s": seconds("curvature.factor"),
            "curvature.solve_s": own("curvature.solve"),
            "curvature.bfgs_updates": bfgs_updates,
            "curvature.bfgs_skipped": bfgs_skipped,
            "curvature.bfgs_accept_ratio": ratio(bfgs_updates, bfgs_calls),
            "curvature.bfgs_update_s": seconds("curvature.bfgs_update"),
            "network.step_s": seconds("network.step"),
            "network.self_s": own("network.step"),
            "network.init_s": seconds("network.init"),
            "network.comm_scalars_per_iter": comm_scalars / iterations,
            "activation.sample_s": seconds("activation.sample"),
            "activation.active_mean": ratio(counter("activation.sample", "active"),
                                            count("activation.sample")),
            "activation.empty_steps": counter("activation.sample", "empty_steps"),
            "analysis.kkt_calls": count("analysis.kkt"),
            "analysis.kkt_s": seconds("analysis.kkt"),
            "analysis.gradient_calls": None if "analysis.kkt" in self.absent
            else count("problems.gradient", "analysis.kkt"),
            "experiment.metrics_s": metrics_s,
            "experiment.metrics_share": ratio(metrics_s, loop),
            "problems.gradient_calls": count("problems.gradient", "network.step"),
            "problems.gradient_s": seconds("problems.gradient", "network.step"),
            "problems.hessian_calls": count("problems.hessian", "network.step"),
            "problems.hessian_s": seconds("problems.hessian", "network.step"),
            "reference.solve_s": seconds("reference.solve"),
            "reference.iterations": counter("reference.solve", "reference_iterations"),
            "datasets.parse_s": seconds("datasets.parse"),
            "datasets.rows": counter("datasets.parse", "rows"),
            "topology.graph_s": seconds("topology.graph"),
            "topology.edges": counter("topology.graph", "edges"),
            "experiment.build_problem_s": seconds("experiment.build_problem"),
            "experiment.trace_write_s": None if self.trace_open is None
            else run_end - self.trace_open,
            "experiment.trace_rows": trace_rows,
        }
