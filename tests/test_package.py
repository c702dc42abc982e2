"""Tests for the package's public namespace and its modules' imports."""

import ast
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
