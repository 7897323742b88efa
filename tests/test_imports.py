"""Every module-level import of a package module is read somewhere in it,
and every name the benchmark's tracer wraps exists.
"""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

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


# every name the package namespace exported when it imported each module eagerly
EXPORTS = {
    "annular": [
        "AnnularPairing", "CyclePermutation", "enumerate_nc2", "filter_by_through", "gamma",
        "is_annular_noncrossing", "is_annular_noncrossing_recursive", "is_non_mixing",
        "kreweras",
    ],
    "covariance": ["GOE", "GUE", "RADEMACHER", "WignerParams", "phi2", "phi2_terms",
                   "phi2_two_term"],
    "ensembles": [
        "EntryLaw", "SymmetricDiscreteLaw", "diagonal_moment", "entry_moment", "goe_law",
        "gue_law", "params_of", "rademacher_law", "sample_wigner", "sample_wigners",
        "solve_law", "stream_keys",
    ],
    "graphs": [
        "LabeledGraph", "build_cycle_graph", "classify", "even_partitions", "exact_moment",
        "exact_tau2", "injective_trace", "leaves_count", "omega_X", "quotient",
        "set_partitions",
    ],
    "montecarlo": ["TraceSamples", "empirical_cov", "empirical_cumulants",
                   "mixed_third_cumulant", "run_traces"],
    "states": ["DetFamily", "FiniteNState", "eval_phi_K", "eval_phi_tilde_K",
               "family_from_json"],
    "words": ["DetLetter", "IDENTITY_LETTER", "Monomial", "canonicalize", "parse_word",
              "s_transform"],
}


def test_package_exports_every_name_it_did():
    namespace = {}
    exec("from wignerfluct import *", namespace)
    for module, names in EXPORTS.items():
        owner = importlib.import_module("wignerfluct." + module)
        for name in names:
            assert getattr(wignerfluct, name) is getattr(owner, name), name
            assert namespace[name] is getattr(owner, name), name
        assert getattr(wignerfluct, module) is owner
    assert wignerfluct.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        wignerfluct.nothing


def run_fresh(script, *args):
    """Standard output of ``python -c script args`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, check=True).stdout


DIAGONAL = {"kind": "diagonal_pattern", "values": [1, -1]}


def write_config(tmp_path, n, matrices, pairs):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "ensembles": {"1": {"theta": 0.5, "eta": 2, "k4": 1}},
        "family": {"matrices": matrices}, "pairs": pairs, "N": [n], "R": 20, "seed": 1,
    }))
    return config


def test_theory_imports_no_monte_carlo_or_oracle_module(tmp_path):
    # theory runs neither: with no bytecode cache, each import compiles its module
    config = write_config(tmp_path, 8, [
        {"kind": "diagonal_pattern", "values": [1, -1, 0.5]},
        {"kind": "circulant", "first_row": [0.5, 0.5]},
    ], [["x1 a0 x1 a1 x1 a0", "x1 a1 x1 a0 x1 a1"]])
    script = (
        "import sys\n"
        "import wignerfluct.cli\n"
        "code = wignerfluct.cli.main(['theory', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, sorted(m for m in ('wignerfluct.graphs', 'wignerfluct.montecarlo',\n"
        "                               'numpy.random') if m in sys.modules))\n"
    )
    out = run_fresh(script, config, tmp_path / "out.json")
    assert out.split() == ["0", "[]"], out


@pytest.mark.parametrize("n, loaded", [(400, "False"), (8, "True")])
def test_compare_imports_the_oracle_only_where_it_runs(tmp_path, n, loaded):
    # the oracle's caps: N <= 16, so at N = 400 it skips every pair
    config = write_config(tmp_path, n, [DIAGONAL], [["x1 a0", "x1 a0"]])
    script = (
        "import sys\n"
        "from wignerfluct.cli import main\n"
        "code = main(['compare', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code in (0, 1), 'wignerfluct.graphs' in sys.modules)\n"
    )
    assert run_fresh(script, config, tmp_path / "out.json").split() == ["True", loaded]


# the state of OpenSSL's binding at the end of a command: whether _hashlib is
# marked unavailable, and whether libcrypto is mapped (Linux only)
AFTER = (
    "maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
    "print(code, 'numpy.random' in sys.modules, sys.modules.get('_hashlib', 0) is None,\n"
    "      'libcrypto' in maps)\n"
)


@pytest.mark.parametrize("command, spec", [
    ("mc", DIAGONAL), ("compare", DIAGONAL), ("report", DIAGONAL),
    ("theory", {"kind": "random_fixed", "seed": 3}),
])
def test_the_program_maps_no_openssl(tmp_path, command, spec):
    # numpy.random imports secrets, whose hmac would load OpenSSL's libcrypto;
    # run as ``python -m wignerfluct.cli``, the program marks it unavailable
    config = write_config(tmp_path, 8, [spec], [["x1 a0", "x1 a0"]])
    script = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('wignerfluct.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n" + AFTER
    )
    out = run_fresh(script, command, "--config", config, "--out", tmp_path / "out.json")
    assert out.split()[1:] == ["True", "True", "False"], out
    assert out.split()[0] in ("0", "1"), out


def test_main_in_process_leaves_hashlib_alone(tmp_path):
    # a caller's process keeps its own hashlib: main marks nothing unavailable
    config = write_config(tmp_path, 8, [DIAGONAL], [["x1 a0", "x1 a0"]])
    script = (
        "import sys\n"
        "from wignerfluct.cli import main\n"
        "code = main(['mc', '--config', sys.argv[1], '--out', sys.argv[2]])\n" + AFTER
    )
    out = run_fresh(script, config, tmp_path / "out.json")
    assert out.split()[:3] == ["0", "True", "False"], out
