"""Loading and saving the JSON file formats.

Formats (all keys are strings in files, identifiers are integers):

* group:          {"order": n, "mult": [[...]]}
                  or {"degree": d, "generators": [[...], ...]}
* G-set:          {"size": n, "action": {"g": [perm], ...}}
* G-sset:         {"dims": N, "simplices": {"n": [ids]},
                   "faces": {"id": [[base, word], ...]},
                   "action": {"g": {"id": id'}}}
* simplicial map: {"source": <sset|builtin name>, "target": <...>,
                   "values": {"id": [base, word]}}
* chain complex:  {"ring": "Z"|"Q"|"Fp:p", "ranks": [...],
                   "d": {"n": [[..]]}, "rep": {"g": {"n": [[..]]}}}
* family file:    [[members], ...]

Errors carry the first offending field so the CLI can report it.
"""

from __future__ import annotations

import json
from pathlib import Path

from .chains import ChainComplex
from .exactla import Mat
from .groups import Group, Subgroup, all_subgroups, make_group, subgroup, \
    trivial_subgroup
from .gsets import GSet, make_gset
from .rings import ring_from_tag
from .simplicial import GSSet, SMap, build_sset, make_smap


class InputError(ValueError):
    """Invalid input file; the message names the first invalid field."""


def _load_json(path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _ints(v, depth: int = 1) -> bool:
    """v is a list of integers (depth 1) or a list of values of depth - 1."""
    return isinstance(v, list) and all(
        isinstance(x, int) if depth == 1 else _ints(x, depth - 1) for x in v)


def _values(v, ok) -> bool:
    return isinstance(v, dict) and all(map(ok, v.values()))


# checks of the fields of a G-sset object, with what each must be
_SSET_FIELDS = {
    "dims": ("an integer", lambda v: isinstance(v, int)),
    "simplices": ("an object of id lists", lambda v: _values(v, _ints)),
    "faces": ("an object of lists of [base, word]", lambda v: _values(
        v, lambda fs: isinstance(fs, list) and all(
            isinstance(f, list) and len(f) == 2 and isinstance(f[0], int) and _ints(f[1])
            for f in fs))),
    "action": ("an object of id objects", lambda v: v is None or _values(
        v, lambda m: isinstance(m, dict) and _ints(list(m.values())))),
}


def load_group(source) -> Group:
    data = _load_json(source) if isinstance(source, (str, Path)) else source
    if not isinstance(data, dict):
        raise InputError("group: expected an object with 'mult' or 'generators'")
    key = "mult" if "mult" in data else "generators"
    if not _ints(data.get(key, []), 2):
        raise InputError(f"group: '{key}' must be a list of integer lists")
    try:
        return make_group(data)
    except ValueError as exc:
        raise InputError(f"group: {exc}")


def load_family(selector, group: Group) -> list[Subgroup]:
    """Family selector: "all", "trivial", or a JSON file of member lists."""
    if selector in (None, "trivial"):
        return [trivial_subgroup(group)]
    if selector == "all":
        return all_subgroups(group)
    data = _load_json(selector) if isinstance(selector, (str, Path)) else selector
    if not isinstance(data, list):
        raise InputError("family: expected a list of member lists")
    out = []
    for i, members in enumerate(data):
        if not _ints(members):
            raise InputError(f"family[{i}]: expected a list of group elements")
        try:
            out.append(subgroup(group, members))
        except ValueError as exc:
            raise InputError(f"family[{i}]: {exc}")
    return out


def load_gset(source, group: Group) -> GSet:
    data = _load_json(source) if isinstance(source, (str, Path)) else source
    if not isinstance(data, dict) or "action" not in data or "size" not in data:
        raise InputError("gset: needs 'size' and 'action'")
    size = data["size"]
    if not isinstance(size, int) or size < 0:
        raise InputError("gset: 'size' must be a nonnegative integer")
    if not isinstance(data["action"], dict):
        raise InputError("gset: 'action' must be an object")
    perms = {}
    for g_str, perm in data["action"].items():
        if not _ints(perm):
            raise InputError(f"gset: action of {g_str} must be a list of points")
        perms[int(g_str)] = perm
    for g in group.elements():
        if g not in perms:
            if g == 0:
                perms[0] = list(range(size))
            else:
                raise InputError(f"gset: action missing element {g}")
        if len(perms[g]) != size:
            raise InputError(f"gset: action of {g} has wrong length")
    try:
        return make_gset(group, perms)
    except ValueError as exc:
        raise InputError(f"gset: {exc}")


def gset_to_json(x: GSet) -> dict:
    return {"size": x.size,
            "action": {str(g): list(x.act[g]) for g in x.group.elements()}}


def is_gset_data(data) -> bool:
    return isinstance(data, dict) and "size" in data and "simplices" not in data


_BUILTIN_SSET = ("point", "empty", "delta:", "boundary:")


def load_sset(source, group: Group | None = None) -> GSSet:
    if isinstance(source, str) and (source in _BUILTIN_SSET
                                    or source.startswith(_BUILTIN_SSET)):
        return build_sset(source, group)
    data = _load_json(source) if isinstance(source, (str, Path)) else source
    if not isinstance(data, dict):
        raise InputError("sset: expected an object or a built-in name")
    for key, (shape, ok) in _SSET_FIELDS.items():
        if key in data and not ok(data[key]):
            raise InputError(f"sset: '{key}' must be {shape}")
    try:
        return build_sset(data, group)
    except ValueError as exc:
        raise InputError(f"sset: {exc}")


def load_smap(source, group: Group | None = None) -> SMap:
    data = _load_json(source) if isinstance(source, (str, Path)) else source
    if not isinstance(data, dict) or not isinstance(data.get("values"), dict):
        raise InputError("map: needs 'values' as an object")
    if "source" not in data or "target" not in data:
        raise InputError("map: needs inline 'source' and 'target' simplicial sets")
    src = load_sset(data["source"], group)
    tgt = load_sset(data["target"], group)
    values = {}
    for id_str, ref in data["values"].items():
        if isinstance(ref, int):
            values[int(id_str)] = ref
        elif isinstance(ref, list) and len(ref) == 2 and isinstance(ref[0], int) \
                and _ints(ref[1]):
            values[int(id_str)] = (ref[0], tuple(ref[1]))
        else:
            raise InputError(
                f"map: value of simplex {id_str} must be an id or [base, word]")
    try:
        return make_smap(src, tgt, values)
    except ValueError as exc:
        raise InputError(f"map: {exc}")


def _rows(v) -> bool:
    return isinstance(v, list) and all(isinstance(r, list) for r in v)


def load_chain_complex(source, group: Group | None = None) -> ChainComplex:
    data = _load_json(source) if isinstance(source, (str, Path)) else source
    if not isinstance(data, dict) or not isinstance(data.get("ring"), str) \
            or not _ints(data.get("ranks")) or any(r < 0 for r in data["ranks"]):
        raise InputError("chain complex: needs a 'ring' tag and 'ranks', a list of "
                         "nonnegative integers")
    if not _values(data.get("d", {}), _rows) \
            or not _values(data.get("rep", {}), lambda m: _values(m, _rows)):
        raise InputError("chain complex: 'd' and each 'rep' entry must be objects "
                         "of row lists")
    if "rep" in data and group is None:
        raise InputError("chain complex: a representation needs a group")
    ranks = data["ranks"]

    def mat(key: str, lo: int, shift: int, rows):  # degree n, ranks[n - shift] x ranks[n]
        if not key.isdigit() or not lo <= int(key) < len(ranks):
            raise ValueError(f"degree {key} is not in {lo}..{len(ranks) - 1}")
        return int(key), Mat(ring, ranks[int(key) - shift], ranks[int(key)], rows)

    try:
        ring = ring_from_tag(data["ring"])
        diffs = dict(mat(n, 1, 1, rows) for n, rows in data.get("d", {}).items())
        rep = None
        if "rep" in data:
            rep = {g: {} for g in group.elements()}  # missing matrices are identities
            for g, mats in data["rep"].items():
                if not g.isdigit() or int(g) >= group.order:
                    raise ValueError(f"{g} is not a group element")
                rep[int(g)] = dict(mat(n, 0, 0, rows) for n, rows in mats.items())
        return ChainComplex(ring, ranks, diffs, group=group if rep else None, rep=rep)
    except (ValueError, TypeError, ZeroDivisionError) as exc:  # TypeError: Q pairs
        raise InputError(f"chain complex: {exc}")


def format_homology(groups, ring_name: str = "Z") -> str:
    return ", ".join(f"H{h.degree}={h.text(ring_name)}" for h in groups)
