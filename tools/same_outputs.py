"""Compare the CLI output of two orbitkit source trees on the benchmark jobs.

    python3 tools/same_outputs.py <parent_src> <change_src> --seed 7

Writes the inputs of every job of the three benchmark workloads for the
seed (with ``bench/gen.py`` and ``bench/workloads.py``, imported read-only
with orbitkit taken from ``parent_src``), then runs each job in a fresh
``python3 -m orbitkit.cli`` process against each tree, once with the
default text output and once with ``--format json``.  Every job whose exit
code, stdout or stderr differs between the trees is printed; the exit
status is 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
FORMATS = ((), ("--format", "json"))


def benchmark_jobs(src: str, seed: int, outdir: str):
    """(workload, job) for every benchmark job, inputs written under outdir."""
    sys.path[:0] = [os.path.abspath(src), os.path.abspath(BENCH)]
    from gen import Inputs
    from workloads import WORKLOADS
    return [(name, job) for name, make in WORKLOADS.items()
            for job in make(Inputs(seed, os.path.join(outdir, name)))]


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
    with tempfile.TemporaryDirectory() as tmp:
        jobs = benchmark_jobs(args.parent_src, args.seed, tmp)
        cases = [(name, job, fmt) for name, job in jobs for fmt in FORMATS]
        argvs = [job.argv + list(fmt) for _, job, fmt in cases]
        with ThreadPoolExecutor(2) as pool:
            outs = [list(pool.map(run, [src] * len(argvs), argvs))
                    for src in (args.parent_src, args.change_src)]
    differ = 0
    for case, old, new in zip(cases, *outs):
        if old != new:
            differ += 1
            name, job, fmt = case
            what = [field for field, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                    if a != b]
            print(f"DIFFERS {name}: {job.name} {' '.join(fmt) or '(text)'}: "
                  f"{', '.join(what)} (exit {old[0]} -> {new[0]})")
    print(f"{len(jobs)} jobs x {len(FORMATS)} formats at seed {args.seed}: "
          f"{differ} of {len(cases)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
