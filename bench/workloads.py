"""The three workloads: job lists built on seeded inputs.

A job is one ``orbitkit.cli.main`` call.  ``check`` carries what the oracle
needs beyond the input files: the kind of answer and the structural facts
of the construction (never an answer taken from orbitkit).  Each list is
sized so that the jobs add up to three to five seconds at the reference speed,
so that a run repeats each job several times, and each list holds forty or
more jobs on a ladder without large gaps, so that the median and the
percentile with ten jobs beyond it do not jump between rungs.
"""

from __future__ import annotations

from dataclasses import dataclass

from orbitkit import simplicial as osi

from gen import Inputs, moore_space, tensor, tensor_map


@dataclass
class Job:
    name: str
    argv: list
    check: dict
    group: str | None = None     # name of the group whose labels the answer uses
    expect_exit: int = 0


RINGS = ("Z", "Q", "Fp:2", "Fp:3")


def homology_jobs(inp: Inputs) -> list[Job]:
    """Equivariant homology tables over every ring kind, torsion included."""
    jobs = []

    def add(name, x, gname, base):
        path = inp.sset(name.replace("/", "_").replace(" ", "_"), x, gname)
        for ring in RINGS:
            argv = ["homology", "--sset", path, "--ring", ring, "--family", "all"]
            if gname:
                argv += ["--group", inp.group_path(gname)]
            jobs.append(Job(f"{name}/{ring}", argv,
                            {"kind": "homology", "ring": ring, **base}, gname))

    for n in (4, 5, 6):
        add(f"bdry{n}", osi.boundary_simplex(n), None,
            {"base": "sphere", "dim": n - 1, "base_vertices": n + 1})
    for gname, n in (("C4", 3), ("S3", 3), ("D4", 3)):
        add(f"{gname}/e x bdry{n}", tensor(inp.group(gname), [0],
                                           osi.boundary_simplex(n)),
            gname, {"base": "sphere", "dim": n - 1, "base_vertices": n + 1})
    c4 = inp.group("C4")
    for cname, members in (("e", [0]), ("C2", [0, 2])):
        for m in (6, 9, 10):
            add(f"C4/{cname} x M(Z/{m})", tensor(c4, members, moore_space(m)),
                "C4", {"base": "moore", "m": m, "base_vertices": 1})
    return jobs


def certificate_jobs(inp: Inputs) -> list[Job]:
    """One large exact system per job, solved over Z, Q and F_p."""
    jobs = []

    def add(name, f, gname, ring, family="all", qiso=True):
        path = inp.smap(name.replace("/", "_").replace(" ", "_"), f, gname)
        argv = ["whitehead", "--map", path, "--group", inp.group_path(gname),
                "--family", family, "--ring", ring]
        jobs.append(Job(f"{name}/{ring}", argv,
                        {"kind": "whitehead", "ring": ring, "family": family,
                         "base_qiso": qiso}, gname, 0 if qiso else 1))

    ident = [("C2", 0, "Z"), ("C3", 0, "Z"), ("C4", 0, "Z"), ("S3", 0, "Z"),
             ("C2", 1, "Z"), ("C3", 1, "Z"), ("C4", 1, "Z"), ("S3", 1, "Z"),
             ("C2", 2, "Z"), ("C3", 2, "Z"), ("C4", 2, "Z"),
             ("C2", 1, "Q"), ("C3", 1, "Q"), ("C4", 0, "Q"), ("S3", 0, "Q"),
             ("C2", 1, "Fp:2"), ("C3", 1, "Fp:2"), ("C4", 1, "Fp:2"), ("S3", 0, "Fp:2"),
             ("C2", 1, "Fp:3"), ("C4", 0, "Fp:3"), ("S3", 0, "Fp:3")]
    for gname, n, ring in ident:
        x = tensor(inp.group(gname), [0], osi.standard_simplex(n))
        add(f"id {gname}/e x Delta[{n}]", osi.identity_smap(x), gname, ring)
    for gname, n, ring in (("C2", 1, "Z"), ("C3", 1, "Z"), ("C3", 0, "Z"),
                           ("C4", 0, "Z"), ("C2", 0, "Q"), ("C3", 0, "Q"),
                           ("C4", 0, "Q"), ("C2", 0, "Fp:2"), ("C3", 0, "Fp:3")):
        x = tensor(inp.group(gname), [0], osi.standard_simplex(n))
        add(f"prism {gname}/e x Delta[{n}]", osi.prism(x).end0, gname, ring)
    # negative controls: the hypotheses fail, so no search runs
    bd = osi.make_smap(osi.boundary_simplex(1), osi.standard_simplex(1), {0: 0, 1: 1})
    for gname, ring in (("C2", "Z"), ("C3", "Z"), ("C4", "Z"), ("S3", "Z"),
                        ("C2", "Q"), ("C3", "Q"), ("C2", "Fp:2")):
        add(f"bdry {gname}/e", tensor_map(inp.group(gname), [0], bd), gname,
            ring, qiso=False)
    for gname, members in (("C2", [0, 1]), ("C3", [0, 1, 2])):
        add(f"isotropy {gname}/{gname}", tensor_map(inp.group(gname), members, bd),
            gname, "Z", family="trivial", qiso=False)
    return jobs


def lattice_jobs(inp: Inputs) -> list[Job]:
    """Subgroup lattices, orbit categories, G-sset validation, functoriality."""
    jobs = []

    def add(name, argv, check, gname):
        jobs.append(Job(name, argv, check, gname))

    for gname in ("C2", "C3", "C4", "S3", "C6", "D4", "A4", "C2xC4", "D6", "C2^3",
                  "D8"):
        add(f"orbit-cat {gname}", ["orbit-cat", "--group", inp.group_path(gname),
                                   "--family", "all"], {"kind": "orbitcat"}, gname)
    for gname in ("C2", "C3", "C4", "S3", "C6", "C2xC4", "D4", "A4"):
        add(f"census {gname}", ["census", "--group", inp.group_path(gname),
                                "--family", "all"], {"kind": "census"}, gname)
    for gname in ("C2", "C2xC4"):
        for value, extra in (("finset", []), ("Z", ["--ring", "Z"]),
                             ("sset", ["--sset", "delta:1"])):
            add(f"elmendorf {gname} {value}",
                ["elmendorf", "--group", inp.group_path(gname), "--family", "all"]
                + extra, {"kind": "elmendorf", "value": value}, gname)
    for k in (2, 3, 4, 5, 6, 8, 16):
        gname = f"C{k}"
        x = tensor(inp.group(gname), [0], osi.standard_simplex(3))
        path = inp.smap(f"sk1_C{k}", osi.skeleton(x, 1)[1], gname)
        gp = inp.group_path(gname)
        add(f"cells Sk1 C{k}/e x Delta[3]", ["cells", "--group", gp, "--map", path],
            {"kind": "cells"}, gname)
        add(f"cofib-check Sk1 C{k}/e x Delta[3]",
            ["cofib-check", "--group", gp, "--map", path, "--family", "trivial"],
            {"kind": "cofib"}, gname)
    for k in (2, 4, 8, 16, 24):
        gname = f"C{k}"
        x = tensor(inp.group(gname), [0], osi.standard_simplex(2))
        path = inp.sset(f"C{k}e_delta2", x, gname)
        add(f"homology C{k}/e x Delta[2]",
            ["homology", "--sset", path, "--group", inp.group_path(gname),
             "--family", "trivial", "--ring", "Z"],
            {"kind": "homology", "ring": "Z", "base": "point", "dim": 0,
             "base_vertices": 3}, gname)
    return jobs


WORKLOADS = {"homology": homology_jobs, "certificate": certificate_jobs,
             "lattice": lattice_jobs}
