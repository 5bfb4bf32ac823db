"""Checks on the package source itself, read with ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bcnn"


def _private_top_level_names(tree: ast.Module):
    """Private names a module binds at top level: ``_x``, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _loaded_names(tree: ast.Module):
    """Every name the module reads, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_top_level_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    private = [(module, name) for module, tree in trees.items()
               for name in _private_top_level_names(tree)]
    assert private  # the walk found the package's helpers
    unused = [f"{module}:{name}" for module, name in private if name not in loaded]
    assert not unused, f"private names no package code reads: {unused}"
