"""The matrix format is the decision of ``exactla`` alone.

Every other module of ``src/orbitkit`` reads a ``Mat`` through
``sparse_rows()`` and builds one from sparse rows; none reads an attribute
named ``rows``, the dense view, so no module outside ``exactla`` depends on
how a matrix is stored.
"""

import ast
from pathlib import Path

import orbitkit

SRC = Path(orbitkit.__file__).resolve().parent


def _rows_reads(path: Path) -> list:
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "rows"]


def test_no_module_but_exactla_reads_an_attribute_named_rows():
    assert _rows_reads(SRC / "exactla.py")  # the scan does find exactla's own reads
    assert [read for path in sorted(SRC.glob("*.py")) if path.name != "exactla.py"
            for read in _rows_reads(path)] == []
