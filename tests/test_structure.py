"""Each scheme decision lives in one table: ``curvature.KERNELS`` on the run
path, ``rates.THEORY`` on the theory side.  Only ``curvature.kernel``, which
picks the run-path entry, and the independent oracles of ``analysis`` may
compare a scheme name.  The network state owns its hyperparameters and
kernel: ``init_network`` alone picks the kernel, and no step function or
kernel callable takes the hyperparameters again."""

import ast
import inspect
from pathlib import Path

from druid import activation, network
from druid import curvature as cv

SRC = Path(__file__).resolve().parent.parent / "src" / "druid"
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
