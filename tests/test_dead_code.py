"""Every function, class and method of orbitkit has a caller or is exported.

A module-level definition counts as used when a module of ``src/orbitkit``
reads its name outside the definition itself (an import alone does not
count), when ``orbitkit.__all__`` lists it, or when a per-layer metric of
``bench/tracing.py`` reads its span.  A method (other than a ``__dunder__``,
which Python itself calls) counts as used when a module reads an attribute
of its name outside the method itself, when ``orbitkit.__all__`` lists its
name, or when a metric reads its ``module.Class.method`` span.  Anything
else is dead code.
"""

import ast
import sys
from pathlib import Path

import orbitkit

SRC = Path(orbitkit.__file__).resolve().parent
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def _names_read(tree, skip, attributes_only: bool = False) -> set:
    """Every name and attribute read in tree (attributes only, if asked),
    except inside the node skip."""
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not attributes_only:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_every_definition_in_src_is_called_or_exported():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    traced = {source.rsplit(".", 1)[-1] for _, _, source in tracing.PER_LAYER if source}
    allowed = set(orbitkit.__all__) | traced
    dead = [f"{module}:{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in allowed
            and not any(node.name in _names_read(t, node) for t in trees.values())]
    assert dead == []


def test_every_method_in_src_is_read_or_exported():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    traced = {source for _, _, source in tracing.PER_LAYER if source}
    methods = [(module[:-3], cls.name, node) for module, tree in trees.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert len(methods) > 50  # the scan does find the methods
    dead = [f"{module}:{cls}.{node.name}" for module, cls, node in methods
            if node.name not in orbitkit.__all__
            and f"{module}.{cls}.{node.name}" not in traced
            and not any(node.name in _names_read(t, node, attributes_only=True)
                        for t in trees.values())]
    assert dead == []
