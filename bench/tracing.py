"""Spans around orbitkit's public functions, installed from outside ``src/``.

``Tracer.install`` wraps every public function of every orbitkit module,
plus the methods in ``METHODS``, and rebinds each wrapper under every name
an orbitkit module holds for the original (``from .chains import homology``
copies the function into the importing module).  ``uninstall`` puts the
originals back, so untraced passes run the program exactly as shipped.

A span is ``[name, start, end, parent, job, ring]``, where ``ring`` is
``(ring kind, cells of the first matrix)`` for exactla calls and None
otherwise; the layer is the module part of the name.  Spans stay in
memory and are written out at the end of each traced pass.  Counters that
need argument or result sizes come from small hooks that run inside the
span they describe, so their cost lands on that layer.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "jsonio", "groups", "gsets", "orbitcat", "simplicial",
           "chains", "exactla", "rings", "elmendorf", "whitehead")

# Public methods worth a span of their own; other methods stay inside the
# span of their caller.
METHODS = {"simplicial": {"GSSet": ("validate",)},
           "chains": {"ChainComplex": ("validate",), "ChainMap": ("validate",)},
           "exactla": {"Mat": ("__matmul__",)},
           "elmendorf": {"OrbitDiagram": ("check_functorial",)}}

# Private functions that are a layer's real boundary.
PRIVATE = {"jsonio": ("_load_json",)}

# Per-simplex helpers called from inside their own layer; a span each would
# cost more than the work it measures.
SKIP = {"simplicial.apply_face", "simplicial.apply_degeneracy",
        "simplicial.apply_operator"}


def _ring_info(args):
    """(ring kind, cells of the first matrix) of an exactla call."""
    kind, cells = None, 0
    for a in args[:2]:
        ring = getattr(a, "ring", a)
        name = getattr(ring, "name", None)
        if kind is None and isinstance(name, str) and hasattr(ring, "is_field"):
            kind = "Fp" if name.startswith("Fp") else name
        if not cells and hasattr(a, "nrows"):
            cells = _cells(a)
    return kind, cells


def _cells(m) -> int:
    return m.nrows * m.ncols


def _bits(values) -> int:
    return max((abs(int(v)).bit_length() for v in values), default=0)


def _mat_entries(m):
    return (v for row in m.rows for v in row)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.count = defaultdict(float)
        self._saved = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules["orbitkit." + name] for name in MODULES}
        holders = [m for n, m in sys.modules.items()
                   if n == "orbitkit" or n.startswith("orbitkit.")]
        for layer, mod in mods.items():
            names = [n for n, f in vars(mod).items()
                     if inspect.isfunction(f) and f.__module__ == mod.__name__
                     and not n.startswith("_") and f"{layer}.{n}" not in SKIP]
            for name in names + list(PRIVATE.get(layer, ())):
                fn = getattr(mod, name)
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for holder in holders:
                    for alias, value in list(vars(holder).items()):
                        if value is fn:
                            self._saved.append((holder, alias, fn))
                            setattr(holder, alias, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._saved.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._saved):
            setattr(holder, name, fn)
        self._saved = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        ring_layer = name.startswith("exactla.")

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job,
                    _ring_info(args) if ring_layer else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result, parent)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        return wrapper

    # -- counters that need sizes -----------------------------------------

    def _hook_cli_main(self, args, result, parent):
        argv = args[0] if args else []
        if "--out" in argv:
            out = argv[argv.index("--out") + 1]
            self.count["cli.out_bytes"] += os.path.getsize(out)

    def _hook_jsonio__load_json(self, args, result, parent):
        self.count["jsonio.in_bytes"] += os.path.getsize(args[0])

    def _hook_groups_all_subgroups(self, args, result, parent):
        self.count["groups.subgroups"] += len(result)

    def _hook_orbitcat_build_orbit_category(self, args, result, parent):
        self.count["orbitcat.hom_entries"] += sum(len(v) for v in result.hom.values())

    def _hook_simplicial_GSSet_validate(self, args, result, parent):
        self.count["simplicial.simplices"] += len(args[0].dim_of)

    def _hook_chains_normalized_chains(self, args, result, parent):
        self.count["chains.rep_entries"] += args[0].group.order * sum(
            r * r for r in result.ranks)

    def _hook_exactla_smith_diagonal(self, args, result, parent):
        m = args[0]
        self.count["exactla.smith_cells"] += _cells(m)
        zero = m.ring.zero
        self.count["exactla.smith_nonzeros"] += sum(v != zero for v in _mat_entries(m))
        if not m.ring.is_field:
            self._coeff_bits(result)

    def _hook_exactla_column_echelon_z(self, args, result, parent):
        self.count["exactla.echelon_cells"] += _cells(args[0])
        self._coeff_bits(_mat_entries(result[0]))
        self._coeff_bits(_mat_entries(result[1]))

    def _hook_exactla_rref(self, args, result, parent):
        self.count["exactla.rref_cells"] += _cells(args[0])

    def _hook_exactla_solve_z(self, args, result, parent):
        if result is not None:
            self._coeff_bits(_mat_entries(result))

    def _hook_exactla_solve_exact(self, args, result, parent):
        if parent >= 0 and self.spans[parent][0].startswith("whitehead."):
            self.count["whitehead.unknowns"] += args[0].ncols
            self.count["whitehead.rows"] += args[0].nrows

    def _hook_whitehead_certificate_search(self, args, result, parent):
        self.count["whitehead.searches"] += 1
        self.count["whitehead.certificates"] += result is not None

    def _coeff_bits(self, values) -> None:
        self.count["exactla.max_coeff_bits"] = max(self.count["exactla.max_coeff_bits"],
                                                   _bits(values))

    # -- reading the spans ---------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.count.clear()

    def write(self, path: str, pass_no: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([pass_no, *span]) + "\n")


# Per-layer metrics in report order: name, unit, and the span whose
# inclusive time (``_s``) or call count (``_calls``) it reads, if any.
PER_LAYER = [
    ("cli.calls", "count", "cli.main"), ("cli.self_s", "s", None),
    ("cli.out_bytes", "bytes", None),
    ("jsonio.self_s", "s", None), ("jsonio.in_bytes", "bytes", None),
    ("groups.self_s", "s", None),
    ("groups.all_subgroups_s", "s", "groups.all_subgroups"),
    ("groups.subgroups", "count", None),
    ("groups.conjugacy_calls", "count", "groups.conjugating_element"),
    ("groups.conjugacy_s", "s", "groups.conjugating_element"),
    ("gsets.self_s", "s", None),
    ("gsets.orbit_analysis_calls", "count", "gsets.orbit_analysis"),
    ("gsets.equivariant_maps_calls", "count", "gsets.equivariant_maps"),
    ("orbitcat.self_s", "s", None), ("orbitcat.hom_entries", "count", None),
    ("simplicial.self_s", "s", None),
    ("simplicial.validate_s", "s", "simplicial.GSSet.validate"),
    ("simplicial.simplices", "count", None),
    ("simplicial.cells_s", "s", "simplicial.cell_decomposition"),
    ("chains.self_s", "s", None),
    ("chains.validate_s", "s", "chains.ChainComplex.validate"),
    ("chains.rep_entries", "count", None),
    ("chains.invariants_s", "s", "chains.invariants"),
    ("chains.homology_calls", "count", "chains.homology"),
    ("exactla.self_s", "s", None), ("exactla.self_s.Z", "s", None),
    ("exactla.self_s.Q", "s", None), ("exactla.self_s.Fp", "s", None),
    ("exactla.smith_s", "s", "exactla.smith_diagonal"),
    ("exactla.smith_cells", "count", None), ("exactla.smith_density", "ratio", None),
    ("exactla.echelon_s", "s", "exactla.column_echelon_z"),
    ("exactla.echelon_cells", "count", None),
    ("exactla.rref_s", "s", "exactla.rref"), ("exactla.rref_cells", "count", None),
    ("exactla.matmul_calls", "count", "exactla.Mat.__matmul__"),
    ("exactla.matmul_s", "s", "exactla.Mat.__matmul__"),
    ("exactla.max_coeff_bits", "bits", None),
    ("rings.q_over_z", "ratio", None), ("rings.fp_over_z", "ratio", None),
    ("elmendorf.self_s", "s", None),
    ("elmendorf.functoriality_s", "s", "elmendorf.OrbitDiagram.check_functorial"),
    ("elmendorf.adjunction_s", "s", "elmendorf.adjunction_check"),
    ("elmendorf.cellularity_s", "s", "elmendorf.cellularity_report"),
    ("whitehead.self_s", "s", None), ("whitehead.unknowns", "count", None),
    ("whitehead.rows", "count", None),
    ("whitehead.verify_s", "s", "whitehead.verify_certificate"),
    ("whitehead.search_yield", "ratio", None),
    ("trace.spans", "count", None), ("trace.overhead_ratio", "ratio", None),
]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, count) -> dict:
    """Per-layer numbers of one traced pass.

    A span's self time is its duration minus that of its direct children;
    the self times of all spans add up to the time inside ``cli.main``.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    cells = defaultdict(int)
    for i, (name, t0, t1, parent, _, info) in enumerate(spans):
        layer = name.split(".", 1)[0]
        own = t1 - t0 - child[i]
        self_s[layer] += own
        inclusive[name] += t1 - t0
        calls[name] += 1
        if info is not None and info[0] is not None:
            self_s["exactla." + info[0]] += own
            if parent < 0 or not spans[parent][0].startswith("exactla."):
                cells[info[0]] += info[1]
    out = {}
    for metric, unit, span in PER_LAYER:
        if span is not None:
            out[metric] = calls[span] if metric.endswith(("_calls", ".calls")) \
                else inclusive[span]
        elif metric.endswith(".self_s") or ".self_s." in metric:
            out[metric] = self_s[metric.replace(".self_s", "")]
        else:
            out[metric] = count.get(metric, 0)
    out["exactla.smith_density"] = _ratio(count["exactla.smith_nonzeros"],
                                          count["exactla.smith_cells"])
    per_cell = {k: _ratio(self_s["exactla." + k], cells[k]) for k in ("Z", "Q", "Fp")}
    out["rings.q_over_z"] = _ratio(per_cell["Q"], per_cell["Z"])
    out["rings.fp_over_z"] = _ratio(per_cell["Fp"], per_cell["Z"])
    out["whitehead.search_yield"] = _ratio(count["whitehead.certificates"],
                                           count["whitehead.searches"])
    out["trace.spans"] = len(spans)
    return out
