"""Each scheme decision lives in one table: ``curvature.KERNELS`` on the run
path, ``rates.THEORY`` on the theory side.  Only ``curvature.kernel``, which
picks the run-path entry, and the independent oracles of ``analysis`` may
compare a scheme name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "druid"
ALLOWED = {("analysis.py", None), ("curvature.py", "kernel")}


def _is_scheme(node):
    return (isinstance(node, ast.Attribute) and node.attr == "scheme") or \
        (isinstance(node, ast.Name) and node.id == "scheme")


def scheme_comparisons(path):
    """(enclosing top-level function or None, line) of every ``scheme ==`` or
    ``scheme !=`` comparison in the module at ``path``."""
    found = []
    for top in ast.parse(path.read_text()).body:
        func = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and \
                    any(_is_scheme(side) for side in [node.left, *node.comparators]):
                found.append((func, node.lineno))
    return found


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
