"""Tests for the package's public namespace and its modules' imports."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import clusterperm
from test_golden import _write_inputs


def test_every_export_resolves():
    missing = [name for name in clusterperm.__all__ if not hasattr(clusterperm, name)]
    assert missing == []
    assert len(set(clusterperm.__all__)) == len(clusterperm.__all__)


def test_modules_use_every_name_they_import():
    # __init__ imports only to re-export, so it is left out
    package = pathlib.Path(clusterperm.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def _layertrace_lists():
    """FUNCTIONS and METHODS of ``bench/layertrace.py``, read without importing it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
    lists = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "METHODS"):
                lists[name] = ast.literal_eval(node.value)
    return lists["FUNCTIONS"], lists["METHODS"]


def test_layer_trace_names_resolve():
    # the layer trace wraps these names; a rename breaks `--trace 1`
    functions, methods = _layertrace_lists()
    assert functions and methods

    def module(name):
        return importlib.import_module(f"clusterperm.{name}")

    missing = [f"{mod}.{name}" for mod, name, _ in functions
               if not callable(getattr(module(mod), name, None))]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr, _ in methods
                if attr not in getattr(module(mod), cls, object).__dict__]
    assert missing == []


def test_two_way_test_is_permutation_test():
    from clusterperm import dyadic

    assert dyadic.two_way_test is dyadic.permutation_test
    assert clusterperm.two_way_test is clusterperm.permutation_test


def _python(code, *args, cwd=None):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(pathlib.Path(clusterperm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_scipy():
    loaded = _python("import json, sys, clusterperm\n"
                     "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    assert loaded == []


def test_cli_import_loads_no_process_pool():
    # the Monte Carlo loop imports the pool only when --threads needs one
    loaded = _python("import json, sys, clusterperm.cli\n"
                     "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))")
    assert {"concurrent", "multiprocessing", "scipy"}.isdisjoint(loaded)


# Every subcommand at a tiny size, on the golden inputs; the --threads 2 run
# covers the process pool, which the Monte Carlo loop imports only when it runs one.
_NUMPY_ONLY_RUNS = {
    "test": ["test", "--data", "grid.csv", "--num-perms", "19", "--seed", "3"],
    "test-rank-tol": ["test", "--data", "grid.csv", "--num-perms", "19", "--seed", "3",
                      "--rank-tol", "1e-9"],
    "ci": ["ci", "--data", "grid.csv", "--num-perms", "19", "--seed", "5",
           "--grid-points", "21"],
    "test-missing": ["test-missing", "--data", "holey.csv", "--num-perms", "4", "--seed", "14"],
    "test-threeway": ["test-threeway", "--data", "box.csv", "--num-perms", "3", "--seed", "11"],
    "test-panel": ["test-panel", "--data", "box.csv", "--num-perms", "3", "--seed", "12"],
    "test-layout": ["test-layout", "--data", "box.csv", "--num-perms", "3", "--seed", "13"],
    "test-irregular": ["test-irregular", "--data", "small.csv", "--num-perms", "3",
                       "--repeats", "2", "--seed", "6"],
    "biclique": ["biclique", "--data", "small.csv", "--seed", "8"],
    "simulate-table1": ["simulate", "--panel", "table1", "--n", "8", "--reps", "3",
                        "--num-perms", "9", "--seed", "7"],
    "simulate-table3": ["simulate", "--panel", "table3", "--n", "8", "--reps", "2",
                        "--num-perms", "3", "--repeats", "2", "--seed", "18"],
    "simulate-table4": ["simulate", "--panel", "table4", "--n", "8", "--reps", "3",
                        "--num-perms", "9", "--seed", "17"],
    "simulate-threads": ["simulate", "--panel", "table4", "--n", "8", "--reps", "4",
                         "--num-perms", "9", "--seed", "17", "--threads", "2"],
}

_CLI_RUNS = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None  # any import of scipy or a submodule now raises
from clusterperm.cli import main
out = {}
for name, argv in json.loads(sys.argv[2]).items():
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = main(argv)
    out[name] = [code, text.getvalue()]
out["scipy modules"] = sorted(m for m in sys.modules if m.startswith("scipy."))
print(json.dumps(out))
"""


def test_cli_runs_on_numpy_alone(tmp_path):
    _write_inputs(tmp_path)
    runs = json.dumps(_NUMPY_ONLY_RUNS)
    blocked = _python(_CLI_RUNS, "block", runs, cwd=tmp_path)
    assert blocked.pop("scipy modules") == []
    assert {name: text for name, (code, text) in blocked.items() if code != 0} == {}
    available = _python(_CLI_RUNS, "allow", runs, cwd=tmp_path)
    available.pop("scipy modules")
    assert [name for name in _NUMPY_ONLY_RUNS if blocked[name] != available[name]] == []
