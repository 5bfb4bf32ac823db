"""Checks on the package source itself, read with ``ast``, and on the node
kinds its model builders make."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bcnn"


def _top_level_names(tree: ast.Module):
    """(name, statement) of each name a module binds at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names)


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
               for name, _ in _top_level_names(tree)
               if name.startswith("_") and not name.startswith("__")]
    assert private  # the walk found the package's helpers
    unused = [f"{module}:{name}" for module, name in private if name not in loaded]
    assert not unused, f"private names no package code reads: {unused}"


def _imported_names(tree: ast.Module):
    """(name, line) of each name a module's imports bind, ``__future__`` excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], a.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, a.lineno) for a in node.names)


def test_every_imported_name_is_read_or_marked_with_a_reason():
    # an import kept only for other code (a re-export, a name a tool patches)
    # says why on its own line: "# noqa: F401  (reason)"
    kept = re.compile(r"#\s*noqa:\s*F401\b\s*\S")
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tree = ast.parse(source, str(path))
        lines = source.splitlines()
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
                   if name not in read and not kept.search(lines[line - 1])]
    assert not unused, f"imported names the module never reads: {unused}"


def _import_time_imports(tree: ast.Module):
    """The modules a module's imports name, for every import that runs when
    the module is imported: all but those inside a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


# modules the package imports only where it first uses them (2-core Xeon)
LAZY_IMPORTS = (
    "concurrent.futures",  # the worker pool: at import it cost the batch-1 NIN loop about 4%
    "ctypes",  # ``keep_freed_heap``, which must never act at import time
)


def test_no_module_imports_concurrent_futures_when_it_is_imported():
    eager = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in _import_time_imports(ast.parse(path.read_text(), str(path)))
             if any(name == lazy or name.startswith(f"{lazy}.") for lazy in LAZY_IMPORTS)]
    assert not eager, f"modules importing {' or '.join(LAZY_IMPORTS)} at import time: {eager}"


PERFBENCH = SRC.parent.parent / "perfbench"

# public names that no package code, ``bcnn/__init__.py`` or ``perfbench/``
# reads, each kept on purpose; an entry that something does read fails
KEPT_UNREAD = {
    **dict.fromkeys(
        ["accel.NIN_KERNEL_LATENCY_S", "accel.RESNET18_KERNEL_LATENCY_S",
         "accel.NIN_KERNEL_COUNT", "accel.RESNET18_KERNEL_COUNT",
         "accel.NIN_U280_RESOURCES", "accel.RESNET18_U280_RESOURCES",
         "accel.GPU_BASELINE_FPS", "accel.REFERENCE_THROUGHPUT_ROWS",
         "accel.format_resource_table", "accel.format_throughput_table"],
        "the paper's U280 reference figures and their tables, for the acceptance "
        "suite until a benchmark report prints them"),
    "accel.stack_latency_s": "the cycle model in seconds, for that report",
    "slr.augmented_lagrangian": "the SLR objective, which the acceptance suite evaluates",
    "slr.QuadraticChannelProblem": "the exact-projection problem of the SLR acceptance tests",
    "training.pooling_comparison": "the pooling-comparison harness in README",
    "models.count_weight_layers": "the weight-layer count that names ResNet-18, in README",
}


def _read_or_imported(tree: ast.AST):
    """Names a tree reads, or imports under any alias."""
    yield from _loaded_names(tree)
    yield from (alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names)


def test_every_public_name_is_read_or_kept_with_a_reason():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    outside = {name for path in sorted(PERFBENCH.glob("*.py"))
               for name in _read_or_imported(ast.parse(path.read_text(), str(path)))}
    outside |= set(_read_or_imported(trees.pop("__init__")))
    # what each top-level statement reads, so a definition's own body never counts
    reads = [(node, set(_read_or_imported(node))) for tree in trees.values()
             for node in tree.body]
    public = [(f"{module}.{name}", name, node) for module, tree in trees.items()
              for name, node in _top_level_names(tree) if not name.startswith("_")]
    assert len(public) > 50  # the walk found the package's public names
    unread = {qualified for qualified, name, node in public if name not in outside
              and not any(name in names for other, names in reads if other is not node)}
    assert unread - KEPT_UNREAD.keys() == set(), "public names nothing reads"
    assert KEPT_UNREAD.keys() - unread == set(), "kept names that are read or gone"


# node kinds that no model builder makes, each kept on purpose; an entry
# that a builder makes, or that is no node kind, fails
KEPT_UNBUILT = {}


def test_every_node_kind_is_built_or_kept_with_a_reason():
    from bcnn.models import (NODE_KINDS, build_nin_bcnn, build_resnet18_bcnn, build_toy_bcnn,
                             graph_nodes)

    models = [build_nin_bcnn(), build_resnet18_bcnn(), build_toy_bcnn(pool="avg"),
              build_toy_bcnn(pool="max")]
    built = {type(node).__name__ for model in models for node, _ in graph_nodes(model)}
    unbuilt = {kind.__name__ for kind in NODE_KINDS} - built
    assert unbuilt - KEPT_UNBUILT.keys() == set(), "node kinds no builder makes"
    assert KEPT_UNBUILT.keys() - unbuilt == set(), "kept kinds that are built or gone"
