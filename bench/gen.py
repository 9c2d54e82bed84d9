"""Seeded inputs for the benchmark workloads.

The base objects (groups, G-simplicial sets, simplicial maps) are built once
per workload with orbitkit's constructors and written in its JSON file
formats.  The seed only relabels: group elements are permuted with 0 kept as
the identity, and every simplicial set gets its simplex ids permuted.  Two
seeds therefore give different files whose answers are the same, which is
what lets the oracle in ``oracle.py`` use one set of expectations for all
seeds.
"""

from __future__ import annotations

import json
import os
import random

from orbitkit import groups as og
from orbitkit import gsets as ogs
from orbitkit import simplicial as osi

def _alternating4():
    return og.group_from_generators([(1, 2, 0, 3), (1, 0, 3, 2)], "A4")


GROUPS = {
    "C2": lambda: og.cyclic_group(2),
    "C3": lambda: og.cyclic_group(3),
    "C4": lambda: og.cyclic_group(4),
    "C5": lambda: og.cyclic_group(5),
    "C6": lambda: og.cyclic_group(6),
    "C8": lambda: og.cyclic_group(8),
    "C16": lambda: og.cyclic_group(16),
    "C24": lambda: og.cyclic_group(24),
    "S3": lambda: og.symmetric_group(3),
    "A4": _alternating4,
    "D4": lambda: og.dihedral_group(4),
    "D6": lambda: og.dihedral_group(6),
    "D8": lambda: og.dihedral_group(8),
    "C2xC4": lambda: og.direct_product(og.cyclic_group(2), og.cyclic_group(4)),
    "C2^3": lambda: og.direct_product(og.klein_four_group(), og.cyclic_group(2)),
}


def moore_space(m: int) -> osi.GSSet:
    """M(Z/m, 1): one vertex, m loops e_1..e_m, m 2-simplices.

    The 2-simplex k < m has faces (e_1, e_{k+1}, e_k), so e_k = k e_1 in
    homology; the last one has faces (e_m, s0 v, s0 v), so m e_1 = 0.
    """
    v = 0
    loops = list(range(1, m + 1))
    dim_of = {v: 0, **{e: 1 for e in loops}}
    faces = {e: (osi.SimplexRef(v), osi.SimplexRef(v)) for e in loops}
    for k in range(1, m):
        dim_of[m + k] = 2
        faces[m + k] = (osi.SimplexRef(loops[0]), osi.SimplexRef(loops[k]),
                        osi.SimplexRef(loops[k - 1]))
    dim_of[2 * m] = 2
    s0v = osi.SimplexRef(v, (0,))
    faces[2 * m] = (osi.SimplexRef(loops[-1]), s0v, s0v)
    return osi.GSSet(osi.TRIVIAL_GROUP, dim_of, faces, {0: {x: x for x in dim_of}})


class Inputs:
    """Writes one workload's input files for one seed."""

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self.groups = {}     # name -> orbitkit Group (base labelling)
        self.sigma = {}      # name -> relabelling of the elements
        os.makedirs(outdir, exist_ok=True)

    def _rng(self, key: str) -> random.Random:
        return random.Random(f"{self.seed}/{key}")

    def _write(self, name: str, data) -> str:
        path = os.path.join(self.outdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
        return path

    def group(self, name: str):
        if name not in self.groups:
            g = GROUPS[name]()
            rest = list(range(1, g.order))
            self._rng("group/" + name).shuffle(rest)
            sigma = [0] + rest
            mult = [[0] * g.order for _ in range(g.order)]
            for a in range(g.order):
                for b in range(g.order):
                    mult[sigma[a]][sigma[b]] = sigma[g.mult[a][b]]
            self.groups[name] = g
            self.sigma[name] = sigma
            self._write("group_" + name, {"order": g.order, "mult": mult})
        return self.groups[name]

    def group_path(self, name: str) -> str:
        self.group(name)
        return os.path.join(self.outdir, "group_" + name + ".json")

    def _sset(self, x: osi.GSSet, gname: str | None, key: str):
        """Relabelled JSON of x and its simplex relabelling."""
        ids = sorted(x.dim_of)
        new = list(ids)
        self._rng("sset/" + key).shuffle(new)
        tau = dict(zip(ids, new))
        sigma = self.sigma[gname] if gname else [0]
        simplices = {}
        for s, n in x.dim_of.items():
            simplices.setdefault(str(n), []).append(tau[s])
        data = {"dims": x.top_dim,
                "simplices": {n: sorted(v) for n, v in sorted(simplices.items())},
                "faces": {str(tau[s]): [[tau[r.base], list(r.word)] for r in fs]
                          for s, fs in sorted(x.faces.items())}}
        if gname:
            data["action"] = {str(sigma[g]): {str(tau[s]): tau[t]
                                              for s, t in sorted(m.items())}
                              for g, m in sorted(x.action.items())}
        return data, tau

    def sset(self, name: str, x: osi.GSSet, gname: str | None) -> str:
        data, _ = self._sset(x, gname, name)
        return self._write(name, data)

    def smap(self, name: str, f: osi.SMap, gname: str | None) -> str:
        src, tau_s = self._sset(f.source, gname, name + "/source")
        tgt, tau_t = self._sset(f.target, gname, name + "/target")
        values = {str(tau_s[x]): [tau_t[r.base], list(r.word)]
                  for x, r in sorted(f.values.items())}
        return self._write(name, {"source": src, "target": tgt, "values": values})


def tensor(group, coset_members, a: osi.GSSet) -> osi.GSSet:
    """gtensor(G/H, a) for the subgroup H given by its members."""
    h = og.subgroup(group, coset_members)
    return osi.gtensor(ogs.coset_gset(group, h), a)


def tensor_map(group, coset_members, f: osi.SMap) -> osi.SMap:
    """gtensor(G/H, f) for a map f of plain simplicial sets."""
    src = tensor(group, coset_members, f.source)
    tgt = tensor(group, coset_members, f.target)
    s_stride = max(f.source.dim_of) + 1
    t_stride = max(f.target.dim_of) + 1
    values = {}
    for x in src.dim_of:
        p, s = divmod(x, s_stride)
        r = f.values[s]
        values[x] = osi.SimplexRef(p * t_stride + r.base, r.word)
    return osi.SMap(src, tgt, values)
