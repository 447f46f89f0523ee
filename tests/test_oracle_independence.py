"""The oracles share no code with the library they check."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_names(tree):
    """Every module and name that an import statement in ``tree`` mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("path", ["tests/oracles.py", "perfbench/oracle.py"])
def test_oracle_imports_nothing_from_groverlab(path):
    tree = ast.parse((ROOT / path).read_text(), filename=path)
    offending = [name for name in imported_names(tree) if name.split(".")[0] == "groverlab"]
    assert offending == [], f"{path} imports {offending}"
