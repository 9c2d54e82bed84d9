"""The benchmark tracer in bench/tracing.py still finds what it wraps.

The tracer wraps methods by name; a rename in orbitkit would silently
drop a per-layer metric, so this guard runs one traced job.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402

from orbitkit.cli import main  # noqa: E402
from orbitkit.elmendorf import OrbitDiagram  # noqa: E402


def test_tracer_wraps_every_method_and_records_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for layer, classes in tracing.METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(sys.modules["orbitkit." + layer], cls_name)
                for meth in methods:
                    assert hasattr(getattr(cls, meth), "__wrapped__"), \
                        f"{layer}.{cls_name}.{meth}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["elmendorf", "--group", str(ROOT / "fixtures" / "c2.json"),
                         "--family", "all", "--sset", "delta:1"])
        assert code == 0
        names = {span[0] for span in tracer.spans}
        assert "simplicial.GSSet.validate" in names
        assert "elmendorf.OrbitDiagram.check_functorial" in names
    finally:
        tracer.uninstall()
    assert not hasattr(OrbitDiagram.check_functorial, "__wrapped__")


def test_per_layer_sources_resolve_in_orbitkit():
    """Each span a per-layer metric reads names a function that still exists."""
    import importlib
    for metric, _, source in tracing.PER_LAYER:
        if source is None:
            continue
        layer, *path = source.split(".")
        obj = importlib.import_module("orbitkit." + layer)
        for part in path:
            assert hasattr(obj, part), f"{metric}: {source}"
            obj = getattr(obj, part)
        assert callable(obj), f"{metric}: {source}"


def test_every_size_hook_matches_a_wrapped_name():
    """A hook whose function was renamed would silently stop counting."""
    tracer = tracing.Tracer()
    wrapped = []
    wrap = tracer._wrap
    tracer._wrap = lambda name, fn: wrapped.append(name) or wrap(name, fn)
    tracer.install()
    tracer.uninstall()
    hooks = {"_hook_" + name.replace(".", "_") for name in wrapped}
    for attr in vars(tracing.Tracer):
        if attr.startswith("_hook_"):
            assert attr in hooks, attr
