"""CLI runs compared byte for byte with tests/golden/.

The cases are the README's command-line examples plus a few larger runs
that the README does not show (`EXTRA`), such as the orbit category of D4
with all ten subgroups, whose composition table composes every pair of
composable morphisms.  Each case is run in text format and, except
`whitehead` (whose certificate matrices may differ between versions), with
`--format json`.  The exit code and stdout must equal the stored ones
exactly.
"""

import contextlib
import io
from pathlib import Path

import pytest

from orbitkit.cli import main, make_parser

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

EXAMPLES = {
    "census": "census --group fixtures/c2.json --family all",
    "orbit-cat": "orbit-cat --group fixtures/s3.json --family all",
    "fixed-points": "fixed-points --group fixtures/c2.json"
                    " --sset fixtures/regular_c2.json --family all",
    "homology-boundary": "homology --sset boundary:2 --ring Z",
    "homology-vee": "homology --sset fixtures/vee.json --group fixtures/c2.json"
                    " --family all --ring Z",
    "cofib-check": "cofib-check --group fixtures/c2.json"
                   " --map fixtures/empty_to_swap.json --family trivial",
    "cells": "cells --group fixtures/c2.json --map fixtures/empty_to_swap.json",
    "elmendorf": "elmendorf --group fixtures/c2.json --family all --ring Z",
    "whitehead": "whitehead --group fixtures/c2.json"
                 " --map fixtures/point_to_vee.json --family all --ring Z",
}

EXTRA = {
    "orbit-cat-d4": "orbit-cat --group fixtures/d4.json --family all",
    "elmendorf-s3-f3": "elmendorf --group fixtures/s3.json --family all"
                       " --ring Fp:3",
    "homology-moore-z6": "homology --sset fixtures/moore_z6.json --ring Z",
    "homology-moore-z6-q": "homology --sset fixtures/moore_z6.json --ring Q",
    "elmendorf-s3-q": "elmendorf --group fixtures/s3.json --family all --ring Q",
    "elmendorf-d4": "elmendorf --group fixtures/d4.json --family all",
    "elmendorf-d4-z": "elmendorf --group fixtures/d4.json --family all --ring Z",
    "elmendorf-d4-sset": "elmendorf --group fixtures/d4.json --family all"
                         " --sset delta:1",
    "elmendorf-c2-sset": "elmendorf --group fixtures/c2.json --family all"
                         " --sset delta:1",
    "census-d4": "census --group fixtures/d4.json --family all",
}

RUNS = {**EXAMPLES, **EXTRA}

CASES = [(name, fmt) for name in RUNS for fmt in ("text", "json")
         if not (name == "whitehead" and fmt == "json")]


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{'json' if fmt == 'json' else 'txt'}"


def run_example(name: str, fmt: str) -> tuple[int, str]:
    """Run one case on the repository's fixtures; return (exit code, stdout)."""
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a
            for a in RUNS[name].split()]
    argv += ["--format", "json"] if fmt == "json" else []
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_readme_example_matches_golden(name, fmt):
    code, out = run_example(name, fmt)
    lines = golden_path(name, fmt).read_text().split("\n", 1)
    assert lines[0] == f"exit {code}"
    assert out == lines[1]


def test_one_parser_serves_every_verb_and_format():
    """The parser is built once per process; reuse must not leak state between runs."""
    assert make_parser() is make_parser()
    for name, fmt in list(reversed(CASES)) * 2:
        code, out = run_example(name, fmt)
        assert f"exit {code}\n{out}" == golden_path(name, fmt).read_text(), (name, fmt)


if __name__ == "__main__":
    # Regenerate the golden files: python3 tests/test_cli_golden.py
    for name, fmt in CASES:
        code, out = run_example(name, fmt)
        golden_path(name, fmt).write_text(f"exit {code}\n{out}")
