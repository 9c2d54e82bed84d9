"""Time one benchmark workload on two orbitkit source trees, side by side.

    python3 tools/lockstep.py <old_src> <new_src> --workload W --seed N --rounds R [--filter S]

The workload's jobs for the seed are written once with ``bench/gen.py`` and
``bench/workloads.py`` (imported read-only, with orbitkit taken from
``old_src``), and both trees run the same files.  Each round starts one
worker process per tree, and the rounds alternate which tree goes first.  A
worker imports orbitkit from its tree, warms up on the first job, then calls
``orbitkit.cli.main(argv + ["--format", "json", "--out", <file>])`` once
per job, in the workload's order, timing only that call.  ``--filter S``
keeps the jobs whose name contains S.

Each job keeps its minimum over the rounds.  The tool prints the sums of
those minima for both trees, their ratio, the jobs whose ratio moved most,
and its own same-tree spread: for each tree, the sum of the minima over the
even rounds against the sum over the odd rounds.  A ratio nearer to 1 than
that spread tells nothing.  The times are raw wall-clock times of this host,
not scaled to a reference speed as ``bench/run.py`` scales its metrics, so
only the ratios of trees timed side by side compare.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
MOVED = 10  # how many of the jobs that moved most are printed

WORKER = """
import contextlib, gc, io, json, os, sys, time
import orbitkit.cli
src = os.path.realpath(sys.argv[3])
if not os.path.realpath(orbitkit.cli.__file__).startswith(src + os.sep):
    sys.exit(f"orbitkit was imported from {orbitkit.cli.__file__}, not {src}")
with open(sys.argv[1], encoding="utf-8") as fh:
    jobs = json.load(fh)
times = []
for argv in [jobs[0]] + jobs:  # the first call warms up
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            orbitkit.cli.main(argv + ["--format", "json", "--out", sys.argv[2]])
        except SystemExit:
            pass
        times.append(time.perf_counter() - t0)
print(json.dumps(times[1:]))
"""


def workload_jobs(workload: str, seed: int, outdir: str) -> list:
    """(name, argv) of the workload's jobs for the seed, inputs written under outdir."""
    from gen import Inputs
    from workloads import WORKLOADS
    return [(job.name, job.argv) for job in WORKLOADS[workload](Inputs(seed, outdir))]


def run_worker(src: str, jobs_file: str, out: str) -> list[float]:
    """One worker's time in seconds for each job, in order."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", WORKER, jobs_file, out, os.path.abspath(src)],
                          env=env, capture_output=True, text=True, timeout=3600)
    if done.returncode:
        raise SystemExit(f"worker for {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def lockstep(trees: tuple, jobs: list, rounds: int, workdir: str) -> list[list[list[float]]]:
    """times[t][r][j]: tree t's time for job j in round r; round r runs tree r % 2 first."""
    jobs_file = os.path.join(workdir, "jobs.json")
    with open(jobs_file, "w", encoding="utf-8") as fh:
        json.dump([argv for _, argv in jobs], fh)
    out = os.path.join(workdir, "out.json")
    times = [[], []]
    for r in range(rounds):
        for t in (r % 2, 1 - r % 2):
            times[t].append(run_worker(trees[t], jobs_file, out))
    return times


def minima(rounds: list) -> list[float]:
    return [min(column) for column in zip(*rounds)]


def summary(names: list, times: list) -> dict:
    """The sums of the per-job minima, their ratio, each job's ratio, and each tree's
    same-tree spread (even rounds against odd rounds; None with one round)."""
    old, new = minima(times[0]), minima(times[1])
    spread = [abs(sum(minima(t[0::2])) / sum(minima(t[1::2])) - 1) if len(t) > 1 else None
              for t in times]
    moved = sorted(zip(names, old, new), key=lambda j: -abs(j[2] / j[1] - 1))
    return {"old_s": sum(old), "new_s": sum(new), "ratio": sum(new) / sum(old),
            "moved": moved, "spread": spread}


def report(args, s: dict) -> str:
    def pct(x):
        return "n/a" if x is None else f"{100 * x:.1f}%"
    lines = [f"{args.workload} at seed {args.seed}, {args.rounds} rounds, "
             f"{len(s['moved'])} jobs, sums of per-job minima:",
             f"old  {1e3 * s['old_s']:10.3f} ms  {args.old_src}",
             f"new  {1e3 * s['new_s']:10.3f} ms  {args.new_src}",
             f"ratio new/old {s['ratio']:.4f} ({100 * (s['ratio'] - 1):+.1f}%)",
             "jobs that moved most (new/old, old -> new ms):"]
    lines += [f"  {n / o:.3f}  {1e3 * o:8.3f} -> {1e3 * n:8.3f}  {name}"
              for name, o, n in s["moved"][:MOVED]]
    lines.append(f"same-tree spread (even rounds against odd rounds): "
                 f"old {pct(s['spread'][0])}, new {pct(s['spread'][1])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--filter", default="")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sys.path[:0] = [os.path.abspath(args.old_src), BENCH]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        jobs = [j for j in workload_jobs(args.workload, args.seed, os.path.join(tmp, "in"))
                if args.filter in j[0]]
        if not jobs:
            ap.error(f"no job of {args.workload} matches {args.filter!r}")
        times = lockstep((args.old_src, args.new_src), jobs, args.rounds, tmp)
    print(report(args, summary([name for name, _ in jobs], times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
