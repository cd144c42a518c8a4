"""Names that code outside the tests reaches into the package for.

The package exports, the functions the benchmark's tracing wraps by name,
and what the benchmark's child process calls all have to resolve, so that
moving or renaming one fails here rather than only in the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
from functools import reduce
from pathlib import Path

import loopbetti

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_export_resolves():
    missing = [name for name in loopbetti.__all__ if not hasattr(loopbetti, name)]
    assert not missing


def traced_functions():
    """The tracer's table, loaded by path and only read: nothing is wrapped."""
    spec = importlib.util.spec_from_file_location("traced_names", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.FUNCTIONS


def test_traced_functions_resolve():
    functions = traced_functions()
    assert functions
    for module, attr_path, *_ in functions:
        reduce(getattr, attr_path.split("."), importlib.import_module(module))
    # the rank wrapper and the counters read these
    from shipped import circle
    from loopbetti.homology import ChainComplexGF2, GF2SparseMatrix
    from loopbetti.simplicial import basepoint_subset

    assert callable(GF2SparseMatrix.rank) and "_rank" in GF2SparseMatrix.__slots__
    cc = ChainComplexGF2(circle(), 2)
    assert cc.top == 2 and cc.basis(1) and cc.boundary(1).nnz() == 0
    assert basepoint_subset(circle()).counts() == {0: 1}


def test_traced_smash_powers_are_the_parameter_s():
    """The tracer splits a span's metrics by smash power (``.s<k>``), read
    at the (index, keyword) its table gives, so that must name the wrapped
    function's parameter ``s`` at that position."""
    split = [(module, attr_path, s_arg) for module, attr_path, _, s_arg, _ in traced_functions()
             if s_arg is not None]
    assert split
    for module, attr_path, (index, keyword) in split:
        fn = reduce(getattr, attr_path.split("."), importlib.import_module(module))
        params = list(inspect.signature(fn).parameters)
        assert keyword == "s" and params[index] == "s", (attr_path, params)


def test_names_the_benchmark_child_uses_resolve():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("loopbetti"):
                    top = alias.name.split(".")[0]
                    importlib.import_module(alias.name)
                    bound[alias.asname or top] = importlib.import_module(top)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("loopbetti"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            path = ast.unparse(node).split(".")
            if path[0] in bound and all(p.isidentifier() for p in path):
                reduce(getattr, path[1:], bound[path[0]])
                used.add(".".join(path))
    assert {
        "loopbetti.cli.main",
        "constructions.orbit_space",
        "constructions.find_section",
        "sset_io.parse",
        "sset_io.parse_file",
    } <= used
