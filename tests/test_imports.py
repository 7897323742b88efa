"""Every module-level import of a package module is read somewhere in it,
and every name the benchmark's tracer wraps exists.
"""

import ast
import importlib.util
import pathlib

import pytest

import wignerfluct

PACKAGE = pathlib.Path(wignerfluct.__file__).parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# __init__ imports names to re-export them, not to read them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def module_imports(tree):
    """(bound name, line) of each import outside function and class bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    yield alias.asname or alias.name, node.lineno
        elif not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in module_imports(tree) if name not in read)


def test_scan_finds_unused_names():
    source = (
        "import os\nimport numpy as np\nfrom a.b import c, d\n"
        "try:\n    import json\nexcept ImportError:\n    pass\n"
        "def f():\n    import sys\n    return np.zeros(d)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "c"), (5, "json")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps each (module, attribute) of TARGETS by name;
    # a deleted one breaks every benchmark run, so it fails here first
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for module_name, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append((module_name, attr))
    assert missing == []
