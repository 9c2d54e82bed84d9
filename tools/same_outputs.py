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
  (Z, F_2 and F_3), written by this tool with orbitkit's constructors and
  no relabelling, so that a change of pivot tie-break over Z, or any
  change to the F_p elimination that alters a certificate, shows;
* ``elmendorf --family all`` (``ELMENDORF``) on S4 as finite sets, over Z
  and with the cell Delta[1], and on D8 over Z, groups written by this tool
  with orbitkit's constructors: larger than the benchmark's C2 x C4.

At seeds 7 and 3 that is 164 jobs (132 benchmark, 19 golden, 9 prism,
4 elmendorf), so 328 runs.

Every case whose exit code, stdout or stderr differs between the trees is
printed; the exit status is 1 if any differs, else 0.
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
RINGS = ("Z", "Fp:2", "Fp:3")
ELMENDORF = (("S4", ((), ("--ring", "Z"), ("--sset", "delta:1"))), ("D8", (("--ring", "Z"),)))


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
    path = os.path.join(outdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def prism_cases(outdir: str):
    """("prism", name, argv) for unrelabelled prism end inclusions, written under outdir."""
    from orbitkit.groups import cyclic_group, trivial_subgroup
    from orbitkit.gsets import coset_gset
    from orbitkit.simplicial import gtensor, prism, sset_to_json, standard_simplex

    out = []
    for m, n in PRISMS:
        g = cyclic_group(m)
        end0 = prism(gtensor(coset_gset(g, trivial_subgroup(g)), standard_simplex(n))).end0
        name = f"C{m}/e x Delta[{n}]"
        group = write(outdir, f"group_C{m}", {"order": g.order, "mult": g.mult})
        smap = write(outdir, f"prism_C{m}_{n}", {
            "source": sset_to_json(end0.source), "target": sset_to_json(end0.target),
            "values": {str(x): [r.base, list(r.word)] for x, r in sorted(end0.values.items())}})
        out += [("prism", f"{name} over {ring}", ["whitehead", "--group", group, "--map", smap,
                                                   "--family", "all", "--ring", ring])
                for ring in RINGS]
    return out


def elmendorf_cases(outdir: str):
    """("elmendorf", name, argv) for ``ELMENDORF``, groups written under outdir."""
    from orbitkit.groups import dihedral_group, symmetric_group
    groups = {"S4": symmetric_group(4), "D8": dihedral_group(8)}
    out = []
    for name, variants in ELMENDORF:
        g = groups[name]
        group = write(outdir, f"group_{name}", {"order": g.order, "mult": g.mult})
        out += [("elmendorf", f"{name} {' '.join(v) or 'as finite sets'}",
                 ["elmendorf", "--group", group, "--family", "all", *v]) for v in variants]
    return out


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
        jobs = (benchmark_jobs(args.seed, tmp) + golden_cases() + prism_cases(tmp)
                + elmendorf_cases(tmp))
        cases = [(kind, name, fmt) for kind, name, _ in jobs for fmt in FORMATS]
        argvs = [argv + list(fmt) for _, _, argv in jobs for fmt in FORMATS]
        with ThreadPoolExecutor(2) as pool:
            outs = [list(pool.map(run, [src] * len(argvs), argvs))
                    for src in (args.parent_src, args.change_src)]
    differ = 0
    for case, old, new in zip(cases, *outs):
        if old != new:
            differ += 1
            kind, name, fmt = case
            what = [field for field, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                    if a != b]
            print(f"DIFFERS {kind}: {name} {' '.join(fmt) or '(text)'}: "
                  f"{', '.join(what)} (exit {old[0]} -> {new[0]})")
    counts = Counter(kind for kind, _, _ in jobs)
    print(f"{len(jobs)} jobs ({', '.join(f'{n} {k}' for k, n in counts.items())}) "
          f"x {len(FORMATS)} formats at seed {args.seed}: {differ} of {len(cases)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
