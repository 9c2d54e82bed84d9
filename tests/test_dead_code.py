"""Every module-level function and class of orbitkit has a caller or is exported.

A definition counts as used when a module of ``src/orbitkit`` reads its
name outside the definition itself (an import alone does not count), when
``orbitkit.__all__`` lists it, or when a per-layer metric of
``bench/tracing.py`` reads its span.  Anything else is dead code.
"""

import ast
import sys
from pathlib import Path

import orbitkit

SRC = Path(orbitkit.__file__).resolve().parent
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def _names_read(tree, skip) -> set:
    """Every name and attribute read in tree, except inside the node skip."""
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
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
