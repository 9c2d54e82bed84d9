"""Self-tests of the benchmark: smoke passes, the oracle, the seeds.

    python3 -m pytest bench -q        (from the root of the checkout)
"""

from __future__ import annotations

import filecmp
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import run  # noqa: E402
from gen import Inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import orbitkit.cli  # noqa: E402


def _jobs(workload, seed, tmp_path):
    inp = Inputs(seed, str(tmp_path / f"{workload}-{seed}"))
    return inp, WORKLOADS[workload](inp)


def _run(jobs, names, tmp_path):
    """Run the named jobs once; return the harness and {name: (code, text)}."""
    h = run.Harness(orbitkit.cli, jobs, str(tmp_path), time.monotonic() + 120)
    for i, job in enumerate(jobs):
        if job.name in names:
            h.run_job(i)
    return h, {jobs[i].name: (code, h.results[(i, code, sha)][0])
               for i, code, sha in h.outcomes}


def _smallest(jobs):
    """The job with the smallest input files, per verb."""
    best = {}
    for job in jobs:
        size = sum(os.path.getsize(a) for a in job.argv if os.path.isfile(a))
        if job.argv[0] not in best or size < best[job.argv[0]][0]:
            best[job.argv[0]] = (size, job.name)
    return {name for _, name in best.values()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_pass_on_smallest_rungs(workload, tmp_path):
    inp, jobs = _jobs(workload, 1, tmp_path)
    h, _ = _run(jobs, _smallest(jobs), tmp_path)
    h.check(inp.sigma)
    assert h.attempted >= 1
    assert h.failures == []


def test_checker_crash_counts_as_failed_job(monkeypatch, tmp_path):
    inp, jobs = _jobs("lattice", 1, tmp_path)
    h, _ = _run(jobs, _smallest(jobs), tmp_path)

    def crash(*args):
        raise ZeroDivisionError("checker crashed")
    monkeypatch.setattr(oracle, "check", crash)
    h.check(inp.sigma)
    assert len(h.failures) == len(h.outcomes) >= 1
    assert all("ZeroDivisionError" in reason for _, reason in h.failures)


def _tamper(workload, name, edit, tmp_path):
    inp, jobs = _jobs(workload, 1, tmp_path)
    job = next(j for j in jobs if j.name == name)
    _, answers = _run(jobs, {name}, tmp_path)
    code, text = answers[name]
    oracle.check(job, inp.sigma, code, text)          # the honest report passes
    report = json.loads(text)
    edit(report)
    with pytest.raises(oracle.Mismatch):
        oracle.check(job, inp.sigma, code, json.dumps(report))


def test_oracle_rejects_flipped_torsion(tmp_path):
    def edit(report):
        entry = report["0"]["invariants_of_chains"][1]
        assert entry["torsion"] == [6, 6, 6, 6]
        entry["torsion"][0] = 3
    _tamper("homology", "C4/e x M(Z/6)/Z", edit, tmp_path)


def test_oracle_rejects_perturbed_certificate(tmp_path):
    def edit(report):
        g0 = report["certificate"]["g"]["0"]
        g0[0][0] += 1
    _tamper("certificate", "id C2/e x Delta[1]/Z", edit, tmp_path)


def test_oracle_rejects_dropped_subgroup(tmp_path):
    def edit(report):
        dropped = report["objects"].pop()
        for key in [k for k in report["hom"] if dropped in k.split(";")]:
            del report["hom"][key]
    _tamper("lattice", "orbit-cat D4", edit, tmp_path)


def test_oracle_rejects_wrong_exit_code(tmp_path):
    inp, jobs = _jobs("certificate", 1, tmp_path)
    job = next(j for j in jobs if j.name == "bdry C2/e/Z")
    _, answers = _run(jobs, {job.name}, tmp_path)
    code, text = answers[job.name]
    assert code == 1
    with pytest.raises(oracle.Mismatch):
        oracle.check(job, inp.sigma, 0, text)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_seeds_same_answers_different_inputs(workload, tmp_path):
    inp1, jobs1 = _jobs(workload, 1, tmp_path)
    inp2, jobs2 = _jobs(workload, 2, tmp_path)
    assert [j.name for j in jobs1] == [j.name for j in jobs2]
    for a, b in zip(jobs1, jobs2):
        assert oracle.expected(a, inp1.sigma) == oracle.expected(b, inp2.sigma), a.name
    files = sorted(os.listdir(inp1.outdir))
    assert files == sorted(os.listdir(inp2.outdir))
    differ = [f for f in files if not filecmp.cmp(os.path.join(inp1.outdir, f),
                                                  os.path.join(inp2.outdir, f),
                                                  shallow=False)]
    assert len(differ) >= len(files) // 2


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    from tracing import PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"wall_s", "job_p50_ms", "job_tail_ms", "setup_s", "peak_rss_mb"}
