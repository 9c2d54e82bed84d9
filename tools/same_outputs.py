"""Compare the CLI output of two orbitkit source trees.

    python3 tools/same_outputs.py <parent_src> <change_src> --seed 7

Runs four sets of cases, each in a fresh ``python3 -m orbitkit.cli``
process against each tree, once with the default text output and once with
``--format json``:

* every job of the three benchmark workloads for the seed, inputs written
  with ``bench/gen.py`` and ``bench/workloads.py`` (imported read-only with
  orbitkit taken from ``parent_src``);
* every golden CLI case of ``tests/test_cli_golden.RUNS`` on the
  repository's fixtures, ``whitehead`` in JSON (its certificate matrices)
  included;
* ``whitehead`` prism end inclusions (``PRISMS``) over each of ``RINGS``
  (Z, Q, F_2 and F_3), written by this tool with orbitkit's constructors and
  no relabelling, so that a change of pivot tie-break over Z, or any
  change to the F_p elimination that alters a certificate, shows; and
  those of D8/e x Delta[2], S4/e x Delta[2] and D32/e x Delta[1]
  (``GROUP_PRISMS``, groups of order 16 to 64) over Z and F_2;
* ``whitehead`` identity certificates (``IDENTITIES``) on C8/e x Delta[3]
  over Z and F_2: larger than the benchmark's
  largest identity, C4/e x Delta[2];
* ``whitehead`` over the trivial group (``TRIVIAL``), from a group file of
  order 1, over Z and F_2: the identities of Delta[4], Delta[5] and the
  boundary of Delta[5], and the prism end inclusions of Delta[2] and Delta[3];
* ``whitehead`` on orbits that are not free (``NONFREE``): the identity and
  the prism end inclusion of S3/C2 x Delta[1], and the inclusion of
  S3/C2 x the boundary of Delta[1] into S3/C2 x Delta[1], over Z and F_2;
* ``elmendorf --family all`` (``ELMENDORF``) on S4 and D8 as finite sets,
  over Z, Q and F_2 and with the cell Delta[1], and on D32 as finite sets
  and over Z: larger than the benchmark's C2 x C4;
* ``orbit-cat`` and ``census`` with ``--family all`` (``LATTICES``) on D32
  and C4^3, order 64: subgroup lattices larger than the benchmark's;
* G-simplicial sets over groups with several generators (``GSSETS``: C2^4,
  D8 and S4), where the benchmark's are over cyclic groups, with one or two
  generators: ``homology --family all`` over Z on G/e x the boundary of
  Delta[2], and ``cells`` and ``cofib-check`` on the inclusion of the
  1-skeleton of G/e x Delta[2];
* ``homology --family all`` over each of ``RINGS`` (``HOMOLOGY``) on inputs
  the benchmark lacks: S4/e x the boundary of Delta[2], D8/e x the boundary
  of Delta[3] (``dihedral_group(8)``, order 16), S3/C2 x Delta[2], whose
  orbits are not free, the free C2 circle (two vertices and two edges,
  swapped) and C4/C2 x M(Z/2, 1);
* invalid input, every case exiting 2 so that the error messages on stderr
  are compared: the malformed input files of ``tests/test_cli.py``
  (``MALFORMED``, ``STRAY_KEYS`` and ``BOOLEANS``), run as that file runs them
  against a C2 group file (a str written verbatim, so that an integer literal
  too long for ``int()`` reaches the reader), and the ring tags
  ``INVALID_RINGS``, one of them with 5,000 digits;
* G-simplicial sets whose action objects spell or order their keys apart
  from one another (``SPELLED_KEYS`` of ``tests/test_cli.py``, ``keys``),
  each exiting 0, run as that file runs them.

The groups and G-simplicial sets of the last five sets are written by this
tool with orbitkit's constructors. At seeds 7 and 3 that is 281 jobs (132
benchmark, 19 golden, 18 prism, 2 identity, 10 trivial, 6 nonfree,
12 elmendorf, 4 order64, 9 gsset, 20 hfamily, 45 invalid, 4 keys), so 562 runs.

Every case whose exit code, stdout or stderr differs between the trees is
printed; the exit status is 1 if any differs, else 0.  ``whitehead`` JSON is
compared byte for byte except its ``"certificate"`` matrices, which may differ
between versions: each certificate the change tree prints is instead
re-verified by ``bench/oracle.verify_certificate`` (imported read-only, it does
not import orbitkit), also when the parent tree printed none, and a certificate
that fails counts as a difference, printed with the reason.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH, TESTS = os.path.join(ROOT, "bench"), os.path.join(ROOT, "tests")
FORMATS = ((), ("--format", "json"))
PRISMS = ((2, 1), (3, 1), (4, 1))  # C_m/e x Delta[n]
GROUP_PRISMS = (("D8", 2), ("S4", 2), ("D32", 1))  # G/e x Delta[n], over Z and F_2
RINGS = ("Z", "Q", "Fp:2", "Fp:3")
IDENTITIES = ((8, 3, ("Z", "Fp:2")),)  # C_m/e x Delta[n] over each ring
TRIVIAL = (("identity", "delta", 4), ("identity", "delta", 5), ("identity", "boundary", 5),
           ("prism", "delta", 2), ("prism", "delta", 3))  # over e, Z and F_2
NONFREE = ("identity", "prism", "boundary")  # maps of S3/C2 x Delta[1], over Z and F_2
ELMENDORF = (("S4", ((), ("--ring", "Z"), ("--ring", "Q"), ("--ring", "Fp:2"),
                     ("--sset", "delta:1"))),
             ("D8", ((), ("--ring", "Z"), ("--ring", "Q"), ("--ring", "Fp:2"),
                     ("--sset", "delta:1"))),
             ("D32", ((), ("--ring", "Z"))))
LATTICES = ("D32", "C4^3")
GSSETS = ("C2^4", "D8", "S4")
HOMOLOGY = ("S4/e x bdry2", "D8/e x bdry3", "S3/C2 x Delta[2]", "free C2 circle",
            "C4/C2 x M(Z/2)")
# each exits 2 on boundary:2; the last has more digits than int() reads
INVALID_RINGS = ("Fp:4", "R", "Fp:10000000000000061", "Fp:" + "1" * 5000)


def benchmark_jobs(seed: int, outdir: str):
    """(workload, job name, argv) for every benchmark job, inputs written under outdir."""
    from gen import Inputs
    from workloads import WORKLOADS
    return [(name, job.name, job.argv) for name, make in WORKLOADS.items()
            for job in make(Inputs(seed, os.path.join(outdir, name)))]


def golden_cases():
    """("golden", name, argv) for every golden CLI case, fixture paths made absolute."""
    from test_cli_golden import RUNS
    return [("golden", name, [os.path.join(ROOT, a) if a.startswith("fixtures/") else a
                              for a in line.split()])
            for name, line in RUNS.items()]


def write(outdir: str, name: str, data) -> str:
    """data under outdir as JSON, or verbatim when it is a str."""
    path = os.path.join(outdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(data, str):
            fh.write(data)
        else:
            json.dump(data, fh)
    return path


def write_smap(outdir: str, name: str, f) -> str:
    from orbitkit.simplicial import sset_to_json
    return write(outdir, name, {
        "source": sset_to_json(f.source), "target": sset_to_json(f.target),
        "values": {str(s): [r.base, list(r.word)] for s, r in sorted(f.values.items())}})


def whitehead_cases(outdir: str, groups: dict):
    """("prism", "identity", "trivial" or "nonfree", name, argv) for unrelabelled
    prism end inclusions (``PRISMS`` and ``GROUP_PRISMS``), identities
    (``IDENTITIES``), maps over the trivial group (``TRIVIAL``) and maps of
    S3/C2 x Delta[1] (``NONFREE``), written under outdir; ``groups`` from
    ``stock_groups``."""
    from orbitkit.groups import all_subgroups, cyclic_group, symmetric_group, \
        trivial_subgroup
    from orbitkit.gsets import coset_gset
    from orbitkit.simplicial import SMap, SimplexRef, boundary_simplex, gtensor, \
        identity_smap, prism, standard_simplex

    out = []
    for kind, m, n, rings in ([("prism", m, n, RINGS) for m, n in PRISMS]
                              + [("identity", *case) for case in IDENTITIES]):
        g = cyclic_group(m)
        x = gtensor(coset_gset(g, trivial_subgroup(g)), standard_simplex(n))
        f = prism(x).end0 if kind == "prism" else identity_smap(x)
        name = f"C{m}/e x Delta[{n}]"
        group = write(outdir, f"group_C{m}", {"order": g.order, "mult": g.mult})
        smap = write_smap(outdir, f"{kind}_C{m}_{n}", f)
        out += [(kind, f"{name} over {ring}", ["whitehead", "--group", group, "--map", smap,
                                                "--family", "all", "--ring", ring])
                for ring in rings]
    for gname, n in GROUP_PRISMS:
        g, group = groups[gname]
        x = gtensor(coset_gset(g, trivial_subgroup(g)), standard_simplex(n))
        smap = write_smap(outdir, f"prism_{gname}_{n}", prism(x).end0)
        out += [("prism", f"{gname}/e x Delta[{n}] over {ring}",
                 ["whitehead", "--group", group, "--map", smap, "--family", "all",
                  "--ring", ring]) for ring in ("Z", "Fp:2")]
    e = write(outdir, "group_e", {"order": 1, "mult": [[0]]})
    for kind, base, n in TRIVIAL:
        x = (standard_simplex if base == "delta" else boundary_simplex)(n)
        smap = write_smap(outdir, f"trivial_{kind}_{base}_{n}",
                          prism(x).end0 if kind == "prism" else identity_smap(x))
        out += [("trivial", f"{kind} of {base}:{n} over {ring}",
                 ["whitehead", "--group", e, "--map", smap, "--family", "all",
                  "--ring", ring]) for ring in ("Z", "Fp:2")]
    s3 = symmetric_group(3)
    orbit = coset_gset(s3, next(h for h in all_subgroups(s3) if h.order == 2))
    x, bdry = gtensor(orbit, standard_simplex(1)), gtensor(orbit, boundary_simplex(1))
    maps = {"identity": identity_smap(x), "prism": prism(x).end0,
            "boundary": SMap(bdry, x, {s: SimplexRef(s // 2 * 3 + s % 2) for s in bdry.ids()})}
    group = write(outdir, "group_S3", {"order": s3.order, "mult": s3.mult})
    for kind in NONFREE:
        smap = write_smap(outdir, f"nonfree_{kind}", maps[kind])
        out += [("nonfree", f"{kind} of S3/C2 x Delta[1] over {ring}",
                 ["whitehead", "--group", group, "--map", smap, "--family", "all",
                  "--ring", ring]) for ring in ("Z", "Fp:2")]
    return out


def stock_groups(outdir: str) -> dict:
    """Name -> (group, path) of each group of ``GROUP_PRISMS``, ``ELMENDORF``,
    ``LATTICES`` and ``GSSETS``, written under outdir."""
    from orbitkit.groups import cyclic_group, dihedral_group, direct_product, symmetric_group
    c2, c4 = cyclic_group(2), cyclic_group(4)
    c2_2 = direct_product(c2, c2)
    groups = {"S4": symmetric_group(4), "D8": dihedral_group(8), "D32": dihedral_group(32),
              "C4^3": direct_product(direct_product(c4, c4), c4),
              "C2^4": direct_product(c2_2, c2_2)}
    return {name: (g, write(outdir, f"group_{name}", {"order": g.order, "mult": g.mult}))
            for name, g in groups.items()}


def elmendorf_cases(groups: dict):
    """("elmendorf", name, argv) for ``ELMENDORF``; ``groups`` from ``stock_groups``."""
    return [("elmendorf", f"{name} {' '.join(v) or 'as finite sets'}",
             ["elmendorf", "--group", groups[name][1], "--family", "all", *v])
            for name, variants in ELMENDORF for v in variants]


def lattice_cases(groups: dict):
    """("order64", name, argv) for ``orbit-cat`` and ``census`` on ``LATTICES``."""
    return [("order64", f"{verb} {name}", [verb, "--group", groups[name][1], "--family", "all"])
            for name in LATTICES for verb in ("orbit-cat", "census")]


def gsset_cases(outdir: str, groups: dict):
    """("gsset", name, argv) for ``GSSETS``, written under outdir; ``groups``
    from ``stock_groups``."""
    from orbitkit.groups import trivial_subgroup
    from orbitkit.gsets import coset_gset
    from orbitkit.simplicial import boundary_simplex, gtensor, skeleton, sset_to_json, \
        standard_simplex

    out = []
    for name in GSSETS:
        g, group = groups[name]
        free = coset_gset(g, trivial_subgroup(g))
        sphere = write(outdir, f"sphere_{name}", sset_to_json(gtensor(free, boundary_simplex(2))))
        sk1 = write_smap(outdir, f"sk1_{name}",
                         skeleton(gtensor(free, standard_simplex(2)), 1)[1])
        out += [("gsset", f"homology {name}/e x bdry2",
                 ["homology", "--group", group, "--sset", sphere, "--family", "all",
                  "--ring", "Z"]),
                ("gsset", f"cells Sk1 {name}/e x Delta[2]",
                 ["cells", "--group", group, "--map", sk1]),
                ("gsset", f"cofib-check Sk1 {name}/e x Delta[2]",
                 ["cofib-check", "--group", group, "--map", sk1, "--family", "trivial"])]
    return out


def homology_cases(outdir: str, groups: dict):
    """("hfamily", name, argv) for ``HOMOLOGY`` over each of ``RINGS``, written
    under outdir; ``groups`` from ``stock_groups``."""
    from gen import moore_space
    from orbitkit.groups import all_subgroups, cyclic_group, subgroup, symmetric_group, \
        trivial_subgroup
    from orbitkit.gsets import coset_gset
    from orbitkit.simplicial import GSSet, SimplexRef, boundary_simplex, gtensor, \
        sset_to_json, standard_simplex

    s3, c4, c2 = symmetric_group(3), cyclic_group(4), cyclic_group(2)
    s4, d8 = groups["S4"][0], groups["D8"][0]
    s3_c2 = next(h for h in all_subgroups(s3) if h.order == 2)
    circle = GSSet(c2, {0: 0, 1: 0, 2: 1, 3: 1},
                   {2: (SimplexRef(1), SimplexRef(0)), 3: (SimplexRef(0), SimplexRef(1))},
                   {0: {s: s for s in range(4)}, 1: {0: 1, 1: 0, 2: 3, 3: 2}})
    inputs = zip(HOMOLOGY, (
        gtensor(coset_gset(s4, trivial_subgroup(s4)), boundary_simplex(2)),
        gtensor(coset_gset(d8, trivial_subgroup(d8)), boundary_simplex(3)),
        gtensor(coset_gset(s3, s3_c2), standard_simplex(2)),
        circle,
        gtensor(coset_gset(c4, subgroup(c4, [0, 2])), moore_space(2))))
    out = []
    for k, (name, x) in enumerate(inputs):
        group = write(outdir, f"homology_group_{k}", {"order": x.group.order,
                                                       "mult": x.group.mult})
        sset = write(outdir, f"homology_sset_{k}", sset_to_json(x))
        out += [("hfamily", f"{name} over {ring}",
                 ["homology", "--group", group, "--sset", sset, "--family", "all",
                  "--ring", ring]) for ring in RINGS]
    return out


def invalid_cases(outdir: str):
    """("invalid" or "keys", name, argv) for the input-file tables of ``tests/test_cli.py``,
    their files written under outdir, and ("invalid", ...) for ``INVALID_RINGS``."""
    import test_cli
    files = {"group": write(outdir, "invalid_group", {"order": 2, "mult": [[0, 1], [1, 0]]})}
    out = []
    for table, argv_of, kind in (("MALFORMED", test_cli.malformed_argv, "invalid"),
                                 ("STRAY_KEYS", test_cli.verb_argv, "invalid"),
                                 ("BOOLEANS", test_cli.verb_argv, "invalid"),
                                 ("SPELLED_KEYS", test_cli.verb_argv, "keys")):
        for name, (verb, data, *_) in getattr(test_cli, table).items():
            path = write(outdir, f"invalid_{table}_{name}", data)
            out.append((kind, f"{table} {name}", argv_of(files, verb, path)))
    return out + [("invalid", f"ring {tag[:24]}", ["homology", "--sset", "boundary:2",
                                                   "--ring", tag]) for tag in INVALID_RINGS]


def cli_cases(outdir: str):
    """(kind, name, argv) for every case but the benchmark's, inputs written under outdir;
    ``tools/lockstep.py`` times the cases of one kind."""
    groups = stock_groups(outdir)
    return (golden_cases() + whitehead_cases(outdir, groups) + elmendorf_cases(groups)
            + lattice_cases(groups) + gsset_cases(outdir, groups)
            + homology_cases(outdir, groups) + invalid_cases(outdir))


def without_certificate(stdout: str) -> str:
    """A ``whitehead`` JSON report with its certificate matrices cut out: the
    keys are sorted, so ``"hyp_a"`` follows ``"certificate"``."""
    head, sep, rest = stdout.partition('\n  "certificate": ')
    if not sep:
        return stdout
    cut = rest.index('\n  "hyp_a": ')
    return head + sep + ("null" if rest[:cut] == "null," else "{...},") + rest[cut:]


def certificate_fails(argv, stdout: str) -> str | None:
    """Why the certificate of a ``whitehead`` JSON report fails the oracle's
    re-verification, or None when it passes or there is none."""
    from oracle import Mismatch, SSet, verify_certificate
    cert = json.loads(stdout)["certificate"]
    if cert is None:
        return None
    with open(argv[argv.index("--map") + 1], encoding="utf-8") as fh:
        smap = json.load(fh)
    try:
        verify_certificate(cert, smap, SSet(smap["source"]), SSet(smap["target"]),
                           argv[argv.index("--ring") + 1])
    except Mismatch as exc:
        return str(exc)
    return None


def differences(argv, old: tuple, new: tuple) -> list[str]:
    """The fields of (exit code, stdout, stderr) that differ between the trees,
    ``whitehead`` JSON certificates compared by re-verification, also where
    only the change tree prints one."""
    reported = argv[0] == "whitehead" and "json" in argv and new[1]
    certified = reported and old[0] == new[0] and old[1]
    what = []
    for field, a, b in zip(("exit code", "stdout", "stderr"), old, new):
        if field == "stdout" and certified:
            a, b = without_certificate(a), without_certificate(b)
        if a != b:
            what.append(field)
    if reported:
        why = certificate_fails(argv, new[1])
        if why:
            what.append(f"certificate ({why})")
    return what


def run(src: str, argv) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-m", "orbitkit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout, done.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.parent_src), os.path.abspath(BENCH),
                    os.path.abspath(TESTS)]
    with tempfile.TemporaryDirectory() as tmp:
        jobs = benchmark_jobs(args.seed, tmp) + cli_cases(tmp)
        cases = [(kind, name, fmt) for kind, name, _ in jobs for fmt in FORMATS]
        argvs = [argv + list(fmt) for _, _, argv in jobs for fmt in FORMATS]
        with ThreadPoolExecutor(2) as pool:
            outs = [list(pool.map(run, [src] * len(argvs), argvs))
                    for src in (args.parent_src, args.change_src)]
        differ = 0  # compared while the inputs exist: certificates are checked against them
        for case, argv, old, new in zip(cases, argvs, *outs):
            what = differences(argv, old, new)
            if what:
                differ += 1
                kind, name, fmt = case
                print(f"DIFFERS {kind}: {name} {' '.join(fmt) or '(text)'}: "
                      f"{', '.join(what)} (exit {old[0]} -> {new[0]})")
    counts = Counter(kind for kind, _, _ in jobs)
    print(f"{len(jobs)} jobs ({', '.join(f'{n} {k}' for k, n in counts.items())}) "
          f"x {len(FORMATS)} formats at seed {args.seed}: {differ} of {len(cases)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
