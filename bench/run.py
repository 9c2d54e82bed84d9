"""Oracle-checked benchmark of the orbitkit command line.

    python3 bench/run.py --workload homology --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; orbitkit is imported from ./src.
One process runs one workload as a closed loop on one thread: each job is
one in-process ``orbitkit.cli.main(argv)`` call with ``--format json
--out <file>``, and the next job starts when the previous one returns.
Only the ``main`` call is timed.  Set-up and passes over the job list share
the ``--seconds`` budget.  A job's time is its median over the passes,
scaled to a reference host speed measured by ``calibrate.py`` around and
inside the job, because a shared host runs the same code up to twice as
slowly for minutes at a time.  Every report is then checked by
``oracle.py``, which does not import orbitkit.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of ``tracing.py``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import oracle
from tracing import PER_LAYER, Tracer, layer_metrics

SETUPS = 9            # set-ups per run; setup_s takes the median
JOB_CAP_S = 20.0      # a job running longer than this fails
RUN_CAP_S = 150.0     # no job starts after this, so a run ends within 180 s
TAIL_BEYOND = 10      # jobs beyond the reported tail percentile
CAL_WINDOW = 7        # reference-task samples behind each speed estimate
REPEAT_S = 0.05       # jobs shorter than this repeat within a pass ...
MAX_REPEATS = 4       # ... up to this many times


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job that ran past JOB_CAP_S."""


def _alarm(signum, frame):
    raise JobTimeout()


def import_orbitkit(root: str):
    """Import orbitkit from the checkout's src/ and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "orbitkit", "__init__.py")):
        sys.exit(f"no orbitkit sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import orbitkit.cli
    if not os.path.abspath(orbitkit.__file__).startswith(src + os.sep):
        sys.exit(f"orbitkit was imported from {orbitkit.__file__}, not {src}")
    return orbitkit.cli


IMPORT_PROBE = """
import sys, time
src, bench, window = sys.argv[1:]
sys.path.insert(0, src)
t0 = time.perf_counter()
import orbitkit.cli
dt = time.perf_counter() - t0
sys.path.insert(0, bench)
import calibrate
print(dt * calibrate.factor([calibrate.sample() for _ in range(int(window))]))
"""


def time_import(root: str) -> float:
    """Seconds a fresh interpreter takes to import orbitkit.cli from ./src.

    The interpreter scales the time by the reference task it runs right
    after the import, since it may run on another core than this process.
    """
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, os.path.join(root, "src"),
                          os.path.dirname(os.path.abspath(__file__)), str(CAL_WINDOW)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.split()[-1])


class Harness:
    def __init__(self, cli, jobs, workdir, deadline):
        self.cli = cli
        self.jobs = jobs
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.results = {}     # (job index, exit code, sha1) -> (report, stderr)
        self.outcomes = []    # the key of every job run, in order
        self.failures = []    # (job name, reason)
        self.attempted = 0
        self.deadline = deadline
        signal.signal(signal.SIGALRM, _alarm)

    def run_job(self, i: int, tracer=None, probe=None) -> float:
        """Run job i once; return the seconds spent inside main.

        A ``calibrate.Probe`` samples the host's speed during the call, and
        the time its samples took is not counted.
        """
        job = self.jobs[i]
        out = os.path.join(self.outdir, f"{i}.json")
        if os.path.exists(out):
            os.remove(out)
        argv = job.argv + ["--format", "json", "--out", out]
        gc.collect()
        self.attempted += 1
        left = self.deadline - time.monotonic()
        if left <= 0:
            self.failures.append((job.name, "not started: the run's time cap passed"))
            return 0.0
        if tracer is not None:
            tracer.job = i
        err = io.StringIO()
        code, dt = None, 0.0
        signal.setitimer(signal.ITIMER_REAL, min(JOB_CAP_S, left))
        try:
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    with probe or contextlib.nullcontext():
                        code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                finally:
                    dt = time.perf_counter() - t0 - (probe.spent if probe else 0.0)
        except JobTimeout:
            self.failures.append((job.name, f"ran past the {JOB_CAP_S:.0f} s cap"))
            return dt
        except Exception as exc:            # a crash inside the program
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append((job.name, f"{type(exc).__name__}: {exc} "
                                            f"at {where.filename}:{where.lineno}"))
            return dt
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        text = ""
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
        key = (i, code, hashlib.sha1(text.encode()).hexdigest())
        self.results.setdefault(key, (text, err.getvalue()))
        self.outcomes.append(key)
        return dt

    def run_pass(self, tracer=None) -> list:
        return [self.run_job(i, tracer) for i in range(len(self.jobs))]

    def check(self, sigma) -> None:
        """Check each distinct (job, exit code, report) once with the oracle."""
        verdict = {}
        for key, (text, err) in self.results.items():
            i, code, _ = key
            job = self.jobs[i]
            try:
                oracle.check(job, sigma, code, text)
                verdict[key] = None
            except Exception as exc:    # a wrong or malformed report
                verdict[key] = f"{type(exc).__name__}: {exc} {err.strip()[:200]}"
        for key in self.outcomes:
            if verdict[key] is not None:
                self.failures.append((self.jobs[key[0]].name, verdict[key]))


def setup(cli, workload: str, seed: int, workdir: str):
    """Generate and write the inputs, then warm up on the smallest job."""
    from gen import Inputs            # these import orbitkit, so not before
    from workloads import WORKLOADS
    shutil.rmtree(workdir, ignore_errors=True)
    inp = Inputs(seed, os.path.join(workdir, "inputs"))
    jobs = WORKLOADS[workload](inp)
    sizes = [sum(os.path.getsize(a) for a in job.argv if os.path.isfile(a))
             for job in jobs]
    Harness(cli, jobs, workdir, time.monotonic() + RUN_CAP_S).run_job(
        sizes.index(min(sizes)))
    return inp, jobs


def tail(times: list) -> tuple[float, float]:
    """(value, percentile) with TAIL_BEYOND job times beyond it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("homology", "certificate", "lattice"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    cli = import_orbitkit(root)
    workdir = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)

    # Set-up is repeated and the median is kept; each time is scaled to the
    # reference speed by the task run before and after it.
    import_times, setup_times = [], []
    for k in range(SETUPS):
        import_times.append(time_import(root))
        gc.collect()
        before = [calibrate.sample() for _ in range(CAL_WINDOW)]
        t0 = time.perf_counter()
        inp, jobs = setup(cli, args.workload, args.seed, os.path.join(workdir, f"setup{k}"))
        dt = time.perf_counter() - t0
        after = [calibrate.sample() for _ in range(CAL_WINDOW)]
        setup_times.append(dt * calibrate.factor(before + after))

    h = Harness(cli, jobs, workdir, started + RUN_CAP_S)
    if args.trace:
        metrics = traced_passes(h, started + args.seconds, workdir)
    else:
        metrics = timed_passes(h, started + args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    h.check(inp.sigma)
    if not args.trace:
        metrics["setup_s"] = (statistics.median(import_times)
                              + statistics.median(setup_times), "s")
        print(f"# setup_s: imports {' '.join(f'{t:.3f}' for t in import_times)}; "
              f"set-ups {' '.join(f'{t:.3f}' for t in setup_times)}")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
    for name, reason in h.failures[:20]:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    attempted = h.attempted
    failed = len(h.failures)
    print(f"# workload={args.workload} seed={args.seed} jobs/pass={len(jobs)} "
          f"attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def _more(deadline, pass_wall) -> bool:
    """Start another pass only if it should end before the deadline."""
    if not pass_wall:
        return True
    return time.monotonic() + statistics.median(pass_wall) <= deadline


def best_times(per_job: list) -> list:
    """Each job's fastest time over the passes of the run."""
    return [min(ts) for ts in per_job]


def timed_passes(h: Harness, deadline: float) -> dict:
    """Run passes; each job's time is its median over them, at reference speed.

    The reference task runs before every job and every Probe.INTERVAL_S of
    CPU time inside it, and a job's time is scaled by the median of its own
    samples and the CAL_WINDOW samples around it.  After the first pass a
    job shorter than REPEAT_S runs several times in a row per pass, so that
    the short jobs the median and the tail fall on have enough samples.
    Passes go on until the next job would end after the deadline.
    """
    raw = [[] for _ in h.jobs]    # (seconds, index of the sample before, samples during)
    cal = []
    probe = calibrate.Probe()
    reps = [1] * len(h.jobs)
    passes = 0
    half = CAL_WINDOW // 2

    def scaled(ts):
        return [dt * calibrate.factor(cal[max(0, k - half):k + half + 1] + during)
                for dt, k, during in ts]

    def one_pass() -> bool:
        for i, ts in enumerate(raw):
            for _ in range(reps[i]):
                if passes and time.monotonic() + statistics.median(
                        t[0] for t in ts) > deadline:
                    return False
                cal.append(calibrate.sample())
                dt = h.run_job(i, probe=probe)
                ts.append((dt, len(cal) - 1, probe.samples))
        return True

    while one_pass():
        passes += 1
        reps = [max(1, min(MAX_REPEATS, int(REPEAT_S / statistics.median(scaled(ts)))))
                for ts in raw]
    times = [statistics.median(scaled(ts)) for ts in raw]
    tail_s, pct = tail(times)
    print(f"# full passes={passes} jobs/pass={len(times)} job runs={sum(map(len, raw))}; "
          f"job_tail_ms is p{pct:.1f} ({TAIL_BEYOND} jobs beyond it); reference task "
          f"median {statistics.median(cal) * 1000:.3f} ms, scaled to "
          f"{calibrate.REFERENCE_S * 1000} ms")
    return {"wall_s": (sum(times), "s"),
            "job_p50_ms": (statistics.median(times) * 1000, "ms"),
            "job_tail_ms": (tail_s * 1000, "ms")}


def traced_passes(h: Harness, deadline: float, workdir) -> dict:
    """Alternate untraced and traced passes; report the traced ones' layers."""
    tracer = Tracer()
    plain = [[] for _ in h.jobs]
    traced = [[] for _ in h.jobs]
    per_pass, pass_wall = [], []
    span_file = os.path.join(workdir, "spans.jsonl")
    while _more(deadline, pass_wall) or len(per_pass) < 1:
        t0 = time.monotonic()
        if len(plain[0]) <= len(traced[0]):
            for ts, dt in zip(plain, h.run_pass()):
                ts.append(dt)
        else:
            tracer.reset()
            tracer.install()
            try:
                times = h.run_pass(tracer)
            finally:
                tracer.uninstall()
            for ts, dt in zip(traced, times):
                ts.append(dt)
            per_pass.append(layer_metrics(tracer.spans, tracer.count))
            tracer.write(span_file, len(per_pass))
        pass_wall.append(time.monotonic() - t0)
    out = {}
    for metric, unit, _ in PER_LAYER:
        if metric != "trace.overhead_ratio":
            out[metric] = (statistics.median(m[metric] for m in per_pass), unit)
    out["trace.overhead_ratio"] = (sum(best_times(traced)) / sum(best_times(plain)),
                                   "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
