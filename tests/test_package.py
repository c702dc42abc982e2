"""Tests for the package's public namespace and its modules' imports."""

import ast
import importlib
import pathlib

import clusterperm


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
