"""Loading the JSON file formats (``simplicial.sset_to_json`` writes a G-sset).

Formats (all keys are strings in files, identifiers are integers):

* group:          {"order": n, "mult": [[...]]}
                  or {"degree": d, "generators": [[...], ...]}
* G-set:          {"size": n, "action": {"g": [perm], ...}}
* G-sset:         {"dims": N, "simplices": {"n": [ids]},
                   "faces": {"id": [[base, word], ...]},
                   "action": {"g": {"id": id'}}}
* simplicial map: {"source": <sset|builtin name>, "target": <...>,
                   "values": {"id": [base, word]}}
* family file:    [[members], ...]

Errors carry the first offending field so the CLI can report it.
"""

from __future__ import annotations

import json
from pathlib import Path

from .groups import Group, Subgroup, all_subgroups, make_group, subgroup, \
    trivial_subgroup
from .gsets import GSet, make_gset
from .simplicial import GSSet, SMap, build_sset, int_keys, make_smap


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
    except ValueError as exc:  # bytes that are not UTF-8, or an integer over int()'s 4,300 digits
        raise InputError(f"cannot read {path}: {exc}")


def _ints(v, depth: int = 1) -> bool:
    """v is a list of integers (depth 1) or a list of values of depth - 1.
    Types are compared exactly, so JSON booleans are refused."""
    if not isinstance(v, list):
        return False
    return set(map(type, v)) <= {int} if depth == 1 else all(_ints(x, depth - 1) for x in v)


def _values(v, ok) -> bool:
    return isinstance(v, dict) and all(map(ok, v.values()))


# checks of the fields of a G-sset object, with what each must be
_SSET_FIELDS = {
    "dims": ("an integer", lambda v: type(v) is int),
    "simplices": ("an object of id lists", lambda v: _values(v, _ints)),
    "faces": ("an object of lists of [base, word]", lambda v: _values(
        v, lambda fs: isinstance(fs, list) and all(
            isinstance(f, list) and len(f) == 2 and type(f[0]) is int
            and (f[1] == [] or _ints(f[1]))
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
    if type(size) is not int or size < 0:
        raise InputError("gset: 'size' must be a nonnegative integer")
    if not isinstance(data["action"], dict):
        raise InputError("gset: 'action' must be an object")
    try:
        perms = int_keys(data["action"], "action key")
        for g, perm in perms.items():
            if not _ints(perm):
                raise ValueError(f"action of {g} must be a list of points")
        perms.setdefault(0, list(range(size)))
        for g in group.elements():
            if g not in perms:
                raise ValueError(f"action missing element {g}")
            if len(perms[g]) != size:
                raise ValueError(f"action of {g} has wrong length")
        return make_gset(group, perms)
    except ValueError as exc:
        raise InputError(f"gset: {exc}")


def is_gset_data(data) -> bool:
    return isinstance(data, dict) and "size" in data and "simplices" not in data


def sset_data(source):
    """A built-in simplicial-set name as given, else the data of a JSON file
    path, else ``source`` itself: what ``load_sset`` builds from."""
    if isinstance(source, str) and (source in ("point", "empty")
                                    or source.startswith(("delta:", "boundary:"))):
        return source
    return _load_json(source) if isinstance(source, (str, Path)) else source


def load_sset(source, group: Group | None = None) -> GSSet:
    data = sset_data(source)
    if isinstance(data, str):
        return build_sset(data, group)
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
    try:
        values = int_keys(data["values"], "values key")
        for x, ref in values.items():
            if type(ref) is not int and not (type(ref) is list and len(ref) == 2
                                             and type(ref[0]) is int and _ints(ref[1])):
                raise ValueError(f"value of simplex {x} must be an id or [base, word]")
        return make_smap(src, tgt, values)
    except ValueError as exc:
        raise InputError(f"map: {exc}")


def format_homology(groups, ring_name: str = "Z") -> str:
    return ", ".join(f"H{h.degree}={h.text(ring_name)}" for h in groups)
