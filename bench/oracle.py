"""Answer checker for the benchmark; it never imports orbitkit.

Every job's answer is derived here from the job's input files by brute
force (subgroups, orbits, fixed points, stabilizers) and by textbook facts
about the construction (homology of spheres and Moore spaces, the universal
coefficient theorem).  Certificates (g, s, t) are re-checked with this
module's own exact arithmetic.

Answers are compared in a seed-free form: subgroup labels are mapped back
through the seed's relabelling of the group elements, and facts that name
simplex ids (representatives, witnesses, certificate matrices) are reduced
to the result of checking them.  So ``expected`` gives the same value for
every seed, and ``check`` accepts a report exactly when its seed-free form
equals it.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Numbers of subgroups, for the groups the workloads use.  Dihedral groups
# of the n-gon have tau(n) + sigma(n), cyclic groups tau(n).
KNOWN_SUBGROUP_COUNTS = {"C2": 2, "C3": 2, "C4": 3, "C5": 2, "C6": 4, "C8": 4,
                         "C16": 5, "S3": 6, "D4": 10, "D6": 16, "D8": 19,
                         "A4": 10, "C2xC4": 8, "C2^3": 16}


class Mismatch(Exception):
    """The report disagrees with the oracle."""


# ---------------------------------------------------------------------------
# groups by brute force on the multiplication table


class Group:
    def __init__(self, mult):
        self.mult = mult
        self.n = len(mult)
        self.inv = [row.index(0) for row in mult]

    def conj(self, a, x):
        """a^-1 x a."""
        return self.mult[self.mult[self.inv[a]][x]][a]

    def generated(self, seed) -> frozenset:
        els = {0} | set(seed)
        grown = True
        while grown:
            new = {self.mult[x][y] for x in els for y in els} - els
            grown = bool(new)
            els |= new
        return frozenset(els)

    def subgroups(self) -> list:
        found = {self.generated([x]) for x in range(self.n)}
        frontier = set(found)
        while frontier:
            joins = {self.generated(a | b) for a in frontier for b in found}
            frontier = joins - found
            found |= frontier
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def cosets(self, k) -> list:
        out = []
        seen = set()
        for a in range(self.n):
            if a not in seen:
                c = frozenset(self.mult[a][x] for x in k)
                seen |= c
                out.append(c)
        return out

    def subconjugate(self, h, k) -> bool:
        return any(all(self.conj(a, x) in k for x in h) for a in range(self.n))

    def fixed_cosets(self, h, k) -> int:
        """|(G/K)^H|: cosets aK with a^-1 H a inside K."""
        return sum(all(self.conj(min(c), x) in k for x in h)
                   for c in self.cosets(k))

    def double_cosets(self, h, k) -> int:
        """|H \\ G / K|: H-orbits on G/K."""
        cos = self.cosets(k)
        where = {a: i for i, c in enumerate(cos) for a in c}
        seen, orbits = set(), 0
        for i, c in enumerate(cos):
            if i not in seen:
                orbits += 1
                a = min(c)
                seen |= {where[self.mult[x][a]] for x in h}
        return orbits


TRIVIAL = Group([[0]])


# ---------------------------------------------------------------------------
# rings and homology facts


def ring_ops(tag: str):
    """(convert, is_zero) for entries of a ring given by its tag."""
    if tag == "Z":
        return int, lambda v: v == 0
    if tag == "Q":
        return Fraction, lambda v: v == 0
    p = int(tag.split(":")[1])
    return int, lambda v: v % p == 0


def uct(z_table, tag: str):
    """Homology over the ring from integral homology [(degree, free, torsion)]."""
    if tag == "Z":
        return z_table
    if tag == "Q":
        return [(d, free, ()) for d, free, _ in z_table]
    p = int(tag.split(":")[1])
    out = []
    for i, (d, free, tors) in enumerate(z_table):
        below = z_table[i - 1][2] if i else ()
        extra = sum(t % p == 0 for t in tors) + sum(t % p == 0 for t in below)
        out.append((d, free + extra, ()))
    return out


def base_homology(check) -> list:
    """Integral homology of the plain factor of a tensor construction."""
    if check["base"] == "sphere":
        d = check["dim"]
        return [(n, int(n in (0, d)), ()) for n in range(d + 1)]
    if check["base"] == "moore":
        return [(0, 1, ()), (1, 0, (check["m"],)), (2, 0, ())]
    return [(0, 1, ()), (1, 0, ()), (2, 0, ())]       # a contractible Delta[2]


def copies(table, c: int) -> list:
    """Homology of c disjoint copies; an empty complex reads as degree 0 only."""
    if c == 0:
        return [(0, 0, ())]
    return [(d, free * c, tuple(t for t in tors for _ in range(c)))
            for d, free, tors in table]


# ---------------------------------------------------------------------------
# simplicial sets read from the JSON file format


class SSet:
    def __init__(self, data):
        self.dim = {int(x): int(n) for n, ids in data.get("simplices", {}).items()
                    for x in ids}
        self.faces = {int(x): [(int(b), list(w)) for b, w in fs]
                      for x, fs in data.get("faces", {}).items()}
        action = data.get("action") or {}
        self.action = {int(g): {int(x): int(y) for x, y in m.items()}
                       for g, m in action.items()}
        self.action.setdefault(0, {x: x for x in self.dim})

    def basis(self, n: int) -> list:
        return sorted(x for x, d in self.dim.items() if d == n)

    @property
    def top(self) -> int:
        return max(self.dim.values(), default=0)

    def stabilizer(self, x) -> frozenset:
        return frozenset(g for g, m in self.action.items() if m[x] == x)

    def orbit(self, x) -> frozenset:
        return frozenset(m[x] for m in self.action.values())

    def differential(self, n: int, conv) -> list:
        """d_n as a dense matrix: alternating face sum, degenerate faces dropped."""
        rows = {x: i for i, x in enumerate(self.basis(n - 1))}
        cols = self.basis(n)
        d = [[conv(0)] * len(cols) for _ in rows]
        for j, x in enumerate(cols):
            for i, (b, word) in enumerate(self.faces[x]):
                if not word:
                    d[rows[b]][j] += conv((-1) ** i)
        return d


def vertex_counts(x: SSet, h, base_vertices: int):
    """(H-orbits, H-fixed points) of the orbit set a tensor is built over."""
    verts = x.basis(0)
    orbits = len({min(x.action[g][v] for g in h) for v in verts})
    fixed = sum(all(x.action[g][v] == v for g in h) for v in verts)
    return orbits // base_vertices, fixed // base_vertices


# ---------------------------------------------------------------------------
# the context of one job


def _arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Context:
    """A job's inputs, its group and the seed's relabelling of that group."""

    def __init__(self, job, sigma):
        self.job = job
        self.check = job.check
        gpath = _arg(job.argv, "--group")
        self.group = Group(_load(gpath)["mult"]) if gpath else TRIVIAL
        sig = sigma.get(job.group, [0]) if job.group else [0]
        self.unsigma = {s: i for i, s in enumerate(sig)}
        self.family = self.group.subgroups() \
            if _arg(job.argv, "--family") == "all" else [frozenset([0])]

    def base(self, members) -> str:
        """A subgroup's label in the seed-free labelling of its group."""
        return ",".join(str(m) for m in sorted(self.unsigma[x] for x in members))

    def base_key(self, label: str) -> str:
        return self.base(int(v) for v in label.split(","))

    def rekey(self, table: dict, pair=False) -> dict:
        if pair:
            return {";".join(self.base_key(p) for p in k.split(";")): v
                    for k, v in table.items()}
        return {self.base_key(k): v for k, v in table.items()}


# ---------------------------------------------------------------------------
# expected answers and seed-free forms of reports, per kind of job


def _homology(ctx: Context, report):
    x = SSet(_load(_arg(ctx.job.argv, "--sset")))
    table = base_homology(ctx.check)
    expect = {}
    for h in ctx.family:
        orbits, fixed = vertex_counts(x, h, ctx.check["base_vertices"])
        expect[ctx.base(h)] = {
            "invariants_of_chains": uct(copies(table, orbits), ctx.check["ring"]),
            "chains_of_fixed_points": uct(copies(table, fixed), ctx.check["ring"])}
    if report is None:
        return expect
    return expect, {lbl: {col: [(e["degree"], e["free"], tuple(e["torsion"]))
                                for e in entries]
                          for col, entries in cols.items()}
                    for lbl, cols in ctx.rekey(report).items()}


def _orbitcat(ctx: Context, report):
    g = ctx.group
    subs = ctx.family
    expect = {"count": KNOWN_SUBGROUP_COUNTS[ctx.job.group],
              "objects": sorted(ctx.base(h) for h in subs),
              "hom": {f"{ctx.base(h)};{ctx.base(k)}": g.fixed_cosets(h, k)
                      for h in subs for k in subs},
              "reps_valid": True}
    if report is None:
        return expect
    members = {",".join(map(str, sorted(h))): h for h in subs}
    valid = True
    for key, reps in report["hom"].items():
        h, k = (members[p] for p in key.split(";"))
        cosets = [frozenset(g.mult[a][y] for y in k) for a in reps]
        valid &= len(set(cosets)) == len(reps)
        valid &= all(min(c) == a for c, a in zip(cosets, reps))
        valid &= all(all(g.conj(a, y) in k for y in h) for a in reps)
    return expect, {"count": len(report["objects"]),
                    "objects": sorted(ctx.base_key(o) for o in report["objects"]),
                    "hom": {k: len(v)
                            for k, v in ctx.rekey(report["hom"], True).items()},
                    "reps_valid": valid}


def _census(ctx: Context, report):
    g = ctx.group
    subs = ctx.family
    n = len(subs)
    # t(K) <= t(H) whenever H is subconjugate to K: bit j may be set only
    # when every i below it is set too
    below = [sum(1 << i for i in range(n) if g.subconjugate(subs[i], subs[j]))
             for j in range(n)]
    labels = [ctx.base(h) for h in subs]
    found = []
    for bits in range(1 << n):
        if all(below[j] & bits == below[j] for j in range(n) if bits >> j & 1):
            found.append(frozenset(labels[j] for j in range(n) if bits >> j & 1))
    expect = {"diagrams": len(found), "g_objects": 2, "diagram_classes": len(found),
              "g_object_classes": 2, "assignments": set(found)}
    if report is None:
        return expect
    got = {k: report[k] for k in ("diagrams", "g_objects", "diagram_classes",
                                  "g_object_classes")}
    got["assignments"] = {frozenset(lbl for lbl, v in ctx.rekey(a).items() if v)
                          for a in report["assignments"]}
    if len(report["assignments"]) != len(got["assignments"]):
        raise Mismatch("census lists an assignment twice")
    return expect, got


def _elmendorf(ctx: Context, report):
    g = ctx.group
    subs = ctx.family
    chains = ctx.check["value"] in ("Z", "Q")
    adjunction, cellularity = {}, {}
    for k in subs:
        per = {ctx.base(h): not chains
               or g.fixed_cosets(h, k) == g.double_cosets(h, k) for h in subs}
        adjunction[ctx.base(k)] = {"unit_iso": all(per.values()), "counit_iso": True,
                                   "triangles": [True, True], "per_object": per}
    for h in subs:
        for k in subs:
            f, orbits = g.fixed_cosets(h, k), g.double_cosets(h, k)
            entry = {"fixed_cosets": f, "iso": not chains or f == orbits}
            if chains:
                entry.update(lhs=[f], rhs=[orbits], orbit_basis=orbits)
            elif ctx.check["value"] == "sset":
                cells = {"0": 2 * f, "1": f} if f else {}
                entry.update(lhs=cells, rhs=cells)
            else:
                entry.update(lhs=f, rhs=f)
            cellularity[f"{ctx.base(h)};{ctx.base(k)}"] = entry
    expect = {"adjunction": adjunction, "cellularity": cellularity}
    if report is None:
        return expect
    got_adj = {k: dict(v, per_object=ctx.rekey(v["per_object"]))
               for k, v in ctx.rekey(report["adjunction"]).items()}
    return expect, {"adjunction": got_adj,
                    "cellularity": ctx.rekey(report["cellularity"], True)}


def _new_simplices(smap):
    tgt = SSet(smap["target"])
    image = {b for b, _ in smap["values"].values()}
    return tgt, [x for x in sorted(tgt.dim, key=lambda s: (tgt.dim[s], s))
                 if x not in image]


def _cells(ctx: Context, report):
    tgt, new = _new_simplices(_load(_arg(ctx.job.argv, "--map")))
    orbits = {}
    for x in new:
        orbits.setdefault(tgt.orbit(x), x)
    expect_dims = {}
    for x in orbits.values():
        expect_dims.setdefault(str(tgt.dim[x]), []).append(ctx.base(tgt.stabilizer(x)))
    expect = {"cells": {n: sorted(v) for n, v in expect_dims.items()},
              "representatives_valid": True}
    if report is None:
        return expect
    valid = True
    got_dims = {}
    for n, summands in report.items():
        reps = [s["representative"] for s in summands]
        valid &= len({tgt.orbit(r) for r in reps}) == len(reps)
        for s in summands:
            r = s["representative"]
            valid &= r == min(tgt.orbit(r)) and str(tgt.dim[r]) == n
            valid &= [tuple(a) for a in s["attaching"]] == \
                [(b, list(w)) for b, w in tgt.faces.get(r, [])]
            got_dims.setdefault(n, []).append(ctx.base_key(s["stabilizer"]))
    return expect, {"cells": {n: sorted(v) for n, v in got_dims.items()},
                    "representatives_valid": valid}


def _cofib(ctx: Context, report):
    tgt, new = _new_simplices(_load(_arg(ctx.job.argv, "--map")))
    bad = [x for x in new if not any(ctx.group.subconjugate(tgt.stabilizer(x), k)
                                     for k in ctx.family)]
    expect = {"cofibration": not bad, "witness_valid": True}
    if report is None:
        return expect
    return expect, {"cofibration": report["cofibration"],
                    "witness_valid": report["witness"] == (bad[0] if bad else None)}


def _whitehead(ctx: Context, report):
    smap = _load(_arg(ctx.job.argv, "--map"))
    src, tgt = SSet(smap["source"]), SSet(smap["target"])
    fam = ctx.family
    g = ctx.group
    qiso = ctx.check["base_qiso"]
    stabs = [s.stabilizer(x) for s in (src, tgt)
             for x in sorted(s.dim, key=lambda y: (s.dim[y], y))]
    expect = {
        "isotropy": {"subconjugate": all(any(g.subconjugate(st, k) for k in fam)
                                         for st in stabs),
                     "strict": all(st in fam for st in stabs),
                     "witness_valid": True},
        # the map is (a quasi-isomorphism) tensored with an orbit set X, so
        # hypothesis (a) holds when the plain map does (X/H is never empty)
        # and hypothesis (b) also holds when X^H is empty
        "hyp_a": {ctx.base(h): qiso for h in fam},
        "hyp_b": {ctx.base(h): qiso or vertex_counts(src, h, 1)[1] == 0
                  for h in fam},
    }
    expect["searched"] = qiso or all(expect["hyp_b"].values())
    expect["certificate"] = qiso
    if report is None:
        return expect
    witness = next((x for s in (src, tgt)
                    for x in sorted(s.dim, key=lambda y: (s.dim[y], y))
                    if not any(g.subconjugate(s.stabilizer(x), k) for k in fam)), None)
    iso = report["isotropy"]
    cert = report["certificate"]
    if cert is not None:
        verify_certificate(cert, smap, src, tgt, ctx.check["ring"])
    return expect, {
        "isotropy": {"subconjugate": iso["subconjugate"], "strict": iso["strict"],
                     "witness_valid": iso["witness"] == witness},
        "hyp_a": ctx.rekey(report["hyp_a"]), "hyp_b": ctx.rekey(report["hyp_b"]),
        "searched": report["searched"], "certificate": cert is not None}


KINDS = {"homology": _homology, "orbitcat": _orbitcat, "census": _census,
         "elmendorf": _elmendorf, "cells": _cells, "cofib": _cofib,
         "whitehead": _whitehead}


# ---------------------------------------------------------------------------
# certificate identities by exact arithmetic


class _M:
    """A dense matrix with its shape, over int, Fraction or int mod p."""

    def __init__(self, nrows, ncols, rows=None):
        self.nrows, self.ncols = nrows, ncols
        self.rows = rows if rows is not None else [[0] * ncols for _ in range(nrows)]

    def __matmul__(self, other):
        cols = list(zip(*other.rows)) if other.nrows else [()] * other.ncols
        return _M(self.nrows, other.ncols,
                  [[sum(x * y for x, y in zip(row, col)) for col in cols]
                   for row in self.rows])

    def __sub__(self, other):
        return _M(self.nrows, self.ncols, [[x - y for x, y in zip(a, b)]
                                           for a, b in zip(self.rows, other.rows)])

    def __add__(self, other):
        return _M(self.nrows, self.ncols, [[x + y for x, y in zip(a, b)]
                                           for a, b in zip(self.rows, other.rows)])


def verify_certificate(cert, smap, src: SSet, tgt: SSet, tag: str) -> None:
    """Raise Mismatch unless (g, s, t) satisfy every certificate identity.

    g: D -> C is a chain map with f g - 1 = d s + s d on D and
    g f - 1 = d t + t d on C, and g, s, t commute with the group.
    """
    conv, is_zero = ring_ops(tag)
    top = max(src.top, tgt.top)
    basis_c = {n: src.basis(n) for n in range(-1, top + 2)}
    basis_d = {n: tgt.basis(n) for n in range(-1, top + 2)}
    rc = {n: len(b) for n, b in basis_c.items()}
    rd = {n: len(b) for n, b in basis_d.items()}

    def d(x, ranks, n):
        if 1 <= n <= top and ranks[n] and ranks[n - 1]:
            return _M(ranks[n - 1], ranks[n], x.differential(n, conv))
        return _M(ranks[n - 1], ranks[n])

    def block(name, n, nrows, ncols):
        rows = cert[name].get(str(n)) if n >= 0 else None
        if not rows:
            return _M(nrows, ncols)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise Mismatch(f"certificate block {name}_{n} has the wrong shape")
        return _M(nrows, ncols, [[conv(v) for v in r] for r in rows])

    def zero(m):
        return all(is_zero(v) for r in m.rows for v in r)

    def ident(r):
        return _M(r, r, [[conv(int(i == j)) for j in range(r)] for i in range(r)])

    f = {}
    for n in range(top + 1):
        index = {x: i for i, x in enumerate(basis_d[n])}
        f[n] = _M(rd[n], rc[n])
        for j, x in enumerate(basis_c[n]):
            b, word = smap["values"][str(x)]
            if not word:
                f[n].rows[index[b]][j] = conv(1)
    g = {n: block("g", n, rc[n], rd[n]) for n in range(-1, top + 1)}
    s = {n: block("s", n, rd[n + 1], rd[n]) for n in range(-1, top + 1)}
    t = {n: block("t", n, rc[n + 1], rc[n]) for n in range(-1, top + 1)}
    for n in range(1, top + 1):
        if not zero(d(src, rc, n) @ g[n] - g[n - 1] @ d(tgt, rd, n)):
            raise Mismatch(f"g is not a chain map in degree {n}")
    for n in range(top + 1):
        for name, lhs, h, x, ranks in (("s", f[n] @ g[n], s, tgt, rd),
                                       ("t", g[n] @ f[n], t, src, rc)):
            rhs = d(x, ranks, n + 1) @ h[n] + h[n - 1] @ d(x, ranks, n)
            if not zero(lhs - ident(ranks[n]) - rhs):
                raise Mismatch(f"homotopy {name} fails in degree {n}")
    for a in src.action:
        for n in range(top + 1):
            # entry (i, j) must equal entry (a i, a j) for a permutation action
            for m, (rx, rows), (cx, cols) in (
                    (g[n], (src, basis_c[n]), (tgt, basis_d[n])),
                    (s[n], (tgt, basis_d[n + 1]), (tgt, basis_d[n])),
                    (t[n], (src, basis_c[n + 1]), (src, basis_c[n]))):
                ri = {x: i for i, x in enumerate(rows)}
                ci = {y: j for j, y in enumerate(cols)}
                for i, x in enumerate(rows):
                    for j, y in enumerate(cols):
                        moved = m.rows[ri[rx.action[a][x]]][ci[cx.action[a][y]]]
                        if not is_zero(moved - m.rows[i][j]):
                            raise Mismatch(f"certificate is not equivariant under {a}")


# ---------------------------------------------------------------------------
# entry points


def expected(job, sigma) -> dict:
    """The seed-free answer of a job, from its inputs alone."""
    ctx = Context(job, sigma)
    return {"exit": job.expect_exit, "answer": KINDS[job.check["kind"]](ctx, None)}


def check(job, sigma, exit_code: int, report_text: str) -> None:
    """Raise Mismatch unless the job's exit code and JSON report are right."""
    if exit_code != job.expect_exit:
        raise Mismatch(f"exit code {exit_code}, expected {job.expect_exit}")
    report = json.loads(report_text)
    ctx = Context(job, sigma)
    want, got = KINDS[job.check["kind"]](ctx, report)
    if want != got:
        diff = [k for k in want if want[k] != got.get(k)] if isinstance(want, dict) \
            else []
        raise Mismatch(f"answer differs from the oracle at {diff[:5]}")
