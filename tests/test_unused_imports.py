"""No module of the package imports a name at module level and never uses
it, or defines a private name at module level that nothing references."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "incpaths").glob("*.py"))
TREES = {source: ast.parse(source.read_text(), str(source)) for source in SOURCES}


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_unused_module_level_import(source):
    tree = TREES[source]
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


def _private_definitions(tree):
    """(name, node) for each module-level function, class or assignment
    whose name starts with a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [sub.id for target in targets for sub in ast.walk(target)
                     if isinstance(sub, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node) -> Counter:
    """Names read in ``node``: bare names, attributes and imported names."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


REFERENCES = sum((_references(tree) for tree in TREES.values()), Counter())


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_unreferenced_private_name(source):
    # a private name is package surface only its own package can reach, so
    # one referenced nowhere in src/incpaths outside its definition is dead
    dead = {name: node.lineno for name, node in _private_definitions(TREES[source])
            if REFERENCES[name] == _references(node)[name]}
    assert not dead, f"{source.name} defines private names nothing references: {dead}"
