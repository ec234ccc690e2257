"""No module of the package imports a name at module level and never uses it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "incpaths").glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_unused_module_level_import(source):
    tree = ast.parse(source.read_text(), str(source))
    imported = {}  # bound name -> line of its import
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # annotations are parsed as expressions too, so a name used only in
    # one is a Name node here
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{source.name} imports names it never uses: {unused}"
