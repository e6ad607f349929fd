"""Structural rules of the library, checked on its source.

* Each scheme decision lives in one table: ``curvature.KERNELS`` on the run
  path, ``rates.THEORY`` on the theory side.  Only ``curvature.kernel``,
  which picks the run-path entry, and the independent oracles of
  ``analysis`` may compare a scheme name.
* The network state owns its hyperparameters and kernel: ``init_network``
  alone picks the kernel, and no step function or kernel callable takes the
  hyperparameters again.  The diagnostics of a run read the problem, graph
  and hyperparameters from the state they check.
* A ``ConsensusProblem`` holds the agents' data as stacks, and every module
  evaluates those stacks: none builds a per-agent ``LocalObjective`` or
  reads one through ``.objectives``.
* The oracles of ``analysis`` compute their curvature updates on their own:
  they call no ``KERNELS`` entry, ``solve_direction`` or ``hessian_bounds``.
  The stacked gradients and Hessians they read are checked row by row
  against ``LocalObjective``, bit for bit, in ``test_problems.py``.
* The benchmark's probes (``perfbench/tracer.py``) still find the library
  attributes they wrap.
* The library runs on numpy alone: importing it loads no scipy module.
* Each field rule is stated once: an ``ExperimentConfig`` field that feeds a
  ``Hyperparams``, ``Regularizer`` or ``ActivationSampler`` field, or an
  argument of ``random_connected_graph``, ``partition`` or
  ``centralized_reference``, carries that field's or argument's rule object
  and type, so the run config and the library cannot disagree on what they
  admit.  The generator's agent count is ``Graph``'s, and the
  hyperparameters' leader is ``constraint_gram``'s."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import scipy.linalg

from conftest import rules_of
from druid import activation, analysis, experiment, network
from druid import curvature as cv
from druid.datasets import partition
from druid.problems import LocalObjective, Regularizer
from druid.reference import centralized_reference
from druid.topology import Graph, constraint_gram, random_connected_graph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "druid"
ALLOWED = {("analysis.py", None), ("curvature.py", "kernel")}


def _is_scheme(node):
    return (isinstance(node, ast.Attribute) and node.attr == "scheme") or \
        (isinstance(node, ast.Name) and node.id == "scheme")


def _top_level_nodes(path):
    """(enclosing top-level function or None, node) for every node of the module."""
    for top in ast.parse(path.read_text()).body:
        func = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            yield func, node


def scheme_comparisons(path):
    """(enclosing top-level function or None, line) of every ``scheme ==`` or
    ``scheme !=`` comparison in the module at ``path``."""
    return [
        (func, node.lineno) for func, node in _top_level_nodes(path)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(_is_scheme(side) for side in [node.left, *node.comparators])
    ]


def kernel_calls(path):
    """(enclosing top-level function or None, line) of every ``cv.kernel(...)``
    or ``curvature.kernel(...)`` call in the module at ``path``."""
    return [
        (func, node.lineno) for func, node in _top_level_nodes(path)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "kernel" and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("cv", "curvature")
    ]


def test_scheme_comparisons_only_where_allowed():
    stray = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for func, line in scheme_comparisons(path)
        if (path.name, None) not in ALLOWED and (path.name, func) not in ALLOWED
    ]
    assert not stray, f"scheme compared outside its tables: {stray}"


def test_finder_sees_the_allowed_comparisons(tmp_path):
    assert any(func == "kernel" for func, _ in scheme_comparisons(SRC / "curvature.py"))
    module = tmp_path / "m.py"
    module.write_text("def f(hp):\n    return 1 if hp.scheme != 'x' else scheme == 'y'\n")
    assert scheme_comparisons(module) == [("f", 2), ("f", 2)]


def attribute_reads(path, attr):
    """Lines of every ``<expression>.<attr>`` in the module at ``path``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == attr]


def test_no_module_reads_per_agent_objectives():
    stray = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in attribute_reads(path, "objectives")]
    assert not stray, f"per-objective access: {stray}"


def calls_to(path, name):
    """Lines of every call to ``name`` or ``<expression>.name`` in the module at ``path``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_no_module_builds_local_objectives():
    stray = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in calls_to(path, "LocalObjective")]
    assert not stray, f"per-agent objective built: {stray}"


def test_finder_sees_calls(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("a = LocalObjective(k, F, y)\ndef f():\n    return problems.LocalObjective(k, F, y)\n")
    assert calls_to(module, "LocalObjective") == [1, 3]


def test_finder_sees_attribute_reads(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("n = len(p.objectives)\ndef f(p):\n    return [o.value for o in p.objectives]\n")
    assert attribute_reads(module, "objectives") == [1, 3]


#: What the run path computes its curvature with; the oracles recompute it on their own.
CHECKED_CALLS = ("hessian_bounds", "solve_direction")


def kernel_entry_calls(path):
    """Lines of every call through ``KERNELS`` (``KERNELS[s].solve(...)``,
    ``cv.KERNELS[s].build(...)``) in the module at ``path``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and any(getattr(sub, "id", None) == "KERNELS" or getattr(sub, "attr", None) == "KERNELS"
                    for sub in ast.walk(node.func))]


def test_oracles_do_not_call_the_code_they_check():
    path = SRC / "analysis.py"
    stray = [f"{name}:{line}" for name in CHECKED_CALLS for line in calls_to(path, name)]
    stray += [f"KERNELS:{line}" for line in kernel_entry_calls(path)]
    assert not stray, f"the oracles call the run path they check: {stray}"


def test_finder_sees_checked_code_calls(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("u = cv.KERNELS[s].solve(c, h)\ndef f(ns, r):\n"
                      "    b = ns.problem.hessian_bounds()\n    return KERNELS['bfgs'].build(ns, r)\n"
                      "table = KERNELS\n")
    assert kernel_entry_calls(module) == [1, 4]
    assert calls_to(module, "hessian_bounds") == [3]


def test_kernel_is_picked_only_at_init():
    calls = [(path.name, func) for path in sorted(SRC.glob("*.py"))
             for func, _ in kernel_calls(path)]
    assert calls == [("network.py", "init_network")]


def test_finder_sees_kernel_calls(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("k = cv.kernel(hp, p)\ndef f(ns):\n    return curvature.kernel(ns.hp, ns.problem)\n")
    assert kernel_calls(module) == [(None, 1), ("f", 3)]


def test_step_api_takes_no_hyperparameters():
    steps = [network.apply_step, network.sync_step, activation.async_step,
             network.local_gradient, network.dual_updates]
    kernels = [*cv.KERNELS.values(), cv.CONSTANT_NEWTON]
    callables = steps + [fn for kern in kernels for fn in (kern.build, kern.refresh)]
    assert len(callables) == 5 + 2 * len(kernels)
    taking_hp = [fn.__qualname__ for fn in callables
                 if "hp" in inspect.signature(fn).parameters]
    assert not taking_hp, f"take hp, which the network state holds: {taking_hp}"


def test_diagnostics_read_their_inputs_from_the_state():
    diagnostics = [analysis.full_admm_oracle_step, analysis.advance_edge_duals,
                   analysis.error_term, analysis.lyapunov_distance, analysis.kkt_residuals]
    taking = [f"{fn.__name__}({name})" for fn in diagnostics
              for name in ("problem", "graph", "hp") if name in inspect.signature(fn).parameters]
    assert not taking, f"take what the oracle or network state holds: {taking}"


def span_targets():
    """``SPAN_TARGETS`` of the benchmark tracer, read from its source: importing
    it would write under ``perfbench/``."""
    for node in ast.parse((ROOT / "perfbench" / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["SPAN_TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPAN_TARGETS")


def test_benchmark_probes_find_their_targets():
    # owners resolved as perfbench/worker.py resolves them
    owners = {"experiment": experiment, "curvature": cv,
              "scipy.linalg": scipy.linalg, "LocalObjective": LocalObjective}
    targets = [target for entry in span_targets().values()
               for target in (entry if isinstance(entry, list) else [entry])]
    assert targets
    missing = [f"{owner}.{attr}" for owner, attr in targets if not hasattr(owners[owner], attr)]
    assert not missing, f"benchmark probes find no target: {missing}"
    # what the tracer's observers read from the probed calls' results
    ds = experiment.parse_libsvm("1 1:0.5\n2 1:1.0 2:0.25\n3 2:-1.0\n4 1:2.0\n")
    assert len(ds.rows) == 4
    graph = experiment.random_connected_graph(4, 0.5, 0)
    assert graph.n == len(graph.edges) > 0
    cfg = experiment.ExperimentConfig(problem="ridge", dataset="unused", agents=2, gamma=0.1)
    ref = experiment.centralized_reference(experiment.build_problem(cfg, ds))
    assert isinstance(ref.iterations, int) and ref.iterations > 0
    record = experiment.sample_activation(activation.ActivationSampler.bernoulli(1.0, 4, 0), 0)
    assert record.active == (0, 1, 2, 3)


def test_the_library_imports_no_scipy():
    # a fresh interpreter: this test session has scipy loaded already
    code = ("import sys, druid, druid.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n", f"importing druid loads {done.stdout.strip()}"


#: config field -> (library class or function, the field or argument it feeds)
MIRRORED = {
    "mu_z": (cv.Hyperparams, "mu_z"), "mu_theta": (cv.Hyperparams, "mu_theta"),
    "epsilon": (cv.Hyperparams, "epsilon"), "leader": (cv.Hyperparams, "leader"),
    "psi": (cv.Hyperparams, "psi"), "bfgs_bounding": (cv.Hyperparams, "bfgs_bounding"),
    "scheme": (cv.Hyperparams, "scheme"), "gamma": (Regularizer, "gamma"),
    "activation": (activation.ActivationSampler, "mode"),
    "activation_p": (activation.ActivationSampler, "p"),
    "activation_seed": (activation.ActivationSampler, "seed"),
    "activation_count": (activation.ActivationSampler, "count"),
    "agents": (random_connected_graph, "m"), "edge_prob": (random_connected_graph, "p"),
    "graph_seed": (random_connected_graph, "seed"), "partition_seed": (partition, "seed"),
    "ref_tol": (centralized_reference, "tol"), "ref_max_iter": (centralized_reference, "max_iter"),
}


def ruled(owner, name):
    return next(f for f in rules_of(owner) if f.name == name)


def test_config_fields_carry_the_library_rules():
    restated = []
    for name, (owner, lib_name) in MIRRORED.items():
        field, lib = ruled(experiment.ExperimentConfig, name), ruled(owner, lib_name)
        if field.metadata is not lib.metadata or field.type != lib.type:
            restated.append(f"{name} ({owner.__name__}.{lib_name})")
    assert not restated, f"config fields that restate a library rule: {restated}"


def test_library_arguments_carry_the_rules_they_feed():
    assert ruled(random_connected_graph, "m").metadata is ruled(Graph, "m").metadata
    assert ruled(cv.Hyperparams, "leader").metadata is ruled(constraint_gram, "leader").metadata
