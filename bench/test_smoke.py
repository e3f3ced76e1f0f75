"""Smoke test of the benchmark itself: ``python -m pytest bench``.

Runs every workload on a tiny job list, traced and untraced, checks that
every metric named in BENCHMARK.json is printed with its unit, and checks
that each oracle rejects a corrupted answer.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import cyclat  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--small"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_benchmark_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _bench("--workload", "primes", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def test_job_lists_follow_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = [job.key for job in workloads.make_jobs(name, 5, str(tmp_path))]
        again = [job.key for job in workloads.make_jobs(name, 5, str(tmp_path))]
        other = [job.key for job in workloads.make_jobs(name, 6, str(tmp_path))]
        assert first == again
        assert first != other


def test_tail_leaves_ten_jobs_beyond():
    times = [float(i) for i in range(1, 67)]
    percentile, value = run.tail(times)
    assert percentile == 84
    assert sum(t > value for t in times) >= 10
    next_rank = -(-(percentile + 1) * len(times) // 100)
    assert len(times) - next_rank < 10
    # a percentile fixed by a nominal count stays put as more passes run
    assert run.tail(times * 3, count=66)[0] == 84
    assert sum(t > run.tail(times * 3, count=66)[1] for t in times * 3) >= 10


def test_tracer_patches_every_binding():
    tracer = tracing.Tracer()
    originals = (cyclat.cli.recognize_standard_sum, cyclat.cohomology._check_diagram)
    tracer.install()
    try:
        assert cyclat.cli.recognize_standard_sum is cyclat.finmod.recognize_standard_sum
        assert cyclat.cli.recognize_standard_sum.__wrapped__ is originals[0]
        assert cyclat.cohomology._check_diagram.__wrapped__ is originals[1]
        assert cyclat.cli.yakovlev_diagram is cyclat.yakovlev_diagram
        assert hasattr(cyclat.FiniteGammaModule.__init__, "__wrapped__")
        tracer.job(0, lambda: workloads.run_cli(["diagram", "--p", "3", "--n", "2", "--kind", "mab", "--a", "1", "--b", "1"]))
    finally:
        tracer.uninstall()
    assert (cyclat.cli.recognize_standard_sum, cyclat.cohomology._check_diagram) == originals
    assert not hasattr(cyclat.FiniteGammaModule.__init__, "__wrapped__")
    totals = tracer.totals()
    for name in ("cli.main", "cohomology.yakovlev_diagram", "finmod.module_init", "diagrams.check"):
        assert totals[name][0] > 0, name


def test_untraced_time_lowers_accounted_frac():
    """Time outside every traced function is not counted as a layer's."""
    argv = ["diagram", "--p", "3", "--n", "2", "--kind", "mab", "--a", "1", "--b", "1"]

    def job():
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:  # untraced work at the job root
            pass
        return workloads.run_cli(argv)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        began = time.perf_counter()
        tracer.job(0, job)
        took = time.perf_counter() - began
    finally:
        tracer.uninstall()
    values = tracing.layer_metrics(tracer.totals(), tracer.counters, tracer.bookkeeping, [took], 0.0)
    assert values["bench.self_s"] >= 0.05
    layers = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert values["trace.accounted_frac"] == pytest.approx(layers / (took - tracer.bookkeeping))
    assert values["trace.accounted_frac"] < 1 - 0.05 / took + 1e-3

def test_ladder_oracle_rejects_a_flipped_label():
    job = workloads._diagram_job(3, 2, label=(1, 1))
    code, out = job.run()
    assert job.check((code, out)) is None
    doc = json.loads(out)
    doc["levels"][0]["recognized"][0][1] += 1
    assert job.check((code, json.dumps(doc))) is not None
    perm = workloads._diagram_job(3, 2, index=1)
    assert perm.check(perm.run()) is None
    assert perm.check((code, out)) is not None


def test_stability_oracle_rejects_a_wrong_verdict():
    params = cyclat.GroupParams(3, 2)
    same = workloads._stability_job(params, (1, 0), (1, 0), 1, 7)
    cross = workloads._stability_job(params, (1, 0), (2, 0), None, 7)
    assert same.check(same.run()) is None
    assert cross.check(cross.run()) is None
    assert same.check(cyclat.IsoResult.NO) is not None
    assert cross.check(cyclat.IsoResult.YES) is not None


def test_predict_oracle_rejects_a_wrong_report(tmp_path):
    known = workloads._datum(3, 1, 1, 0, ((3, 3),) * 4, (6, 0))
    job = workloads._predict_job(str(tmp_path), known, ([[1, 0, 4]], [3, 3]))
    code, out = job.run()
    assert job.check((code, out)) is None
    doc = json.loads(out)
    doc["report"]["library_summands"][0][2] -= 1
    assert job.check((code, json.dumps(doc))) is not None
    unknown = workloads._predict_job(str(tmp_path), known)
    assert unknown.check((code, out)) is None
    doc = json.loads(out)
    doc["report"]["perm_multiplicities"][1] += 1
    assert "recount" in unknown.check((code, json.dumps(doc)))


def test_primes_oracle_rejects_a_dropped_prime():
    for kind in ("primes", "density"):
        job = workloads._primes_job(kind, 5, 20011, workloads._SieveCache())
        code, out = job.run()
        assert job.check((code, out)) is None
        if kind == "primes":
            corrupted = "\n".join(out.splitlines()[:-1]) + "\n"
        else:
            doc = json.loads(out)
            doc["qualifying"] -= 1
            corrupted = json.dumps(doc)
        assert job.check((code, corrupted)) is not None


def test_digest_mismatch_is_a_failure():
    job = workloads._diagram_job(3, 2, index=2)
    answer = job.run()
    good = {job.key: workloads.digest(answer[1])}
    assert run.check_answer(job, answer, good) is None
    assert run.check_answer(job, answer, {job.key: "0" * 64}) is not None
