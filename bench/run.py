"""Benchmark of the cyclat pipeline, end to end and layer by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

The process is one closed-loop caller: it repeats the workload's seeded job
list (see ``workloads.py``) until ``--seconds`` of timed work have passed,
checks every answer against its oracle outside the timed region, and prints
one JSON object as the last line of standard output.

* ``--trace 0`` reports the end-to-end metrics: the time of one pass over
  the job list and the median and tail job time, all rescaled to reference
  host speed (see ``calibrate``); set-up time (median of several fresh
  interpreters that import cyclat and generate the inputs, also rescaled);
  and peak memory.
* ``--trace 1`` spends half the time untraced and half with every public
  entry point wrapped (``tracing.py``), and reports the per-layer metrics
  and the tracing overhead.

A fuller record with run metadata goes to ``bench/results/``.  With
``--record-digests`` the script instead stores the stdout digests of the
seed-0 jobs in ``reference_digests.json``; later runs compare every job
whose key is recorded there, which keeps CLI output byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
REFERENCES = os.path.join(BENCH, "reference_digests.json")
SETUP_PROBES = 9  # at least this many set-up probes per run
SETUP_TIMEOUT = 60
MIN_PASSES = 3  # at least this many passes in an untraced run, whatever --seconds says

END_TO_END = (
    ("wall_ref_s", "s"),
    ("job_p50_ref_s", "s"),
    ("job_tail_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Traced functions that must record calls on each workload, so that a
# renamed or bypassed entry point cannot silently zero a layer metric.
_LATTICE_TO_H1 = (
    "cohomology.yakovlev_diagram",
    "cohomology.tate_h1",
    "cohomology.up_map",
    "cohomology.down_map",
    "lattices.norm_matrix",
    "lattices.relative_norm_matrix",
    "lattices.action_power",
    "finmod.module_init",
    "finmod.minimized",
    "finmod.map_init",
    "finmod.recognize_standard_sum",
    "diagrams.check",
    "intmat.mat_mul",
    "intmat.mat_pow",
    "intmat.row_hnf",
    "intmat.snf",
    "intmat.solve_exact",
    "intmat.kernel",
    "intmat.hnf_p_saturated",
    "intmat.unimodular_inverse",
)
EXPECTED_CALLS = {
    "ladder": ("cli.main",) + _LATTICE_TO_H1,
    "stability": _LATTICE_TO_H1
    + ("lattices.random_unimodular_change", "diagrams.isomorphic"),
    "predict": (
        "cli.main",
        "sunits.recover_structure",
        "sunits.predict_diagram",
        "diagrams.check",
        "diagrams.isomorphic",
        "diagrams.hom_system",
        "diagrams.subtract_library",
        "diagrams.library_diagram",
        "finmod.module_init",
        "finmod.minimized",
        "finmod.map_init",
        "finmod.recognize_standard_sum",
        "intmat.row_hnf",
        "intmat.snf",
        "intmat.hnf_p_saturated",
        "intmat.unimodular_inverse",
        "intmat.solve_exact",
    ),
    "primes": (
        "cli.main",
        "primes.is_prime",
        "primes.find_qualifying",
        "primes.density_report",
    ),
}


def import_cyclat():
    """Import cyclat from this checkout's ``src``; exit 2 if it is not there."""
    package = os.path.join(SRC, "cyclat")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.stderr.write(f"error: cyclat sources not found at {package}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import cyclat

    if os.path.dirname(os.path.abspath(cyclat.__file__)) != package:
        sys.stderr.write(f"error: imported cyclat from {cyclat.__file__}, not {package}\n")
        sys.exit(2)


def tail(times, count=None):
    """(percentile, value): the highest whole percentile with >= 10 of ``count`` jobs beyond it.

    ``count`` defaults to ``len(times)``.  The run passes the job count of
    MIN_PASSES passes, so the percentile is fixed by the job list rather than
    by how many passes fit in the run; with at least that many jobs timed,
    at least ten still lie beyond it.
    """
    ordered = sorted(times)
    count = min(count or len(ordered), len(ordered))
    percentile = (100 * (count - 10)) // count if count > 10 else 0
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return percentile, ordered[rank - 1]


def is_unresolved(job, answer):
    """PartiallyResolved reports (exit code 3) and Unknown isomorphism verdicts."""
    if job.stdout:
        return answer[0] == 3
    return getattr(answer, "value", None) == "Unknown"


def check_answer(job, answer, references):
    """Oracle verdict for one answer, plus the stdout digest if one is recorded."""
    import workloads

    try:
        problem = job.check(answer)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        problem = f"oracle could not read the answer: {type(exc).__name__}: {exc}"
    if problem is None and job.stdout and job.key in references:
        if workloads.digest(answer[1]) != references[job.key]:
            problem = "stdout digest differs from the reference"
    return problem


# Host-speed calibration.  On a shared host the same pure-Python work runs
# up to 1.5x slower for stretches of tens of seconds, and CPU time slows with
# it.  A fixed kernel with cyclat's instruction mix (generator dot products
# over small ints, as in a dense integer matrix product) is timed before and
# after every job, outside the timed region; each job's time is rescaled by
# REF_KERNEL_S over the median of the last KERNEL_WINDOW kernel times, which
# brackets the job and drops samples hit by an interrupt.  The *_ref_s
# metrics are these rescaled times; raw wall-clock figures go to the record.
REF_KERNEL_S = 0.004
KERNEL_WINDOW = 5
_KERNEL_RNG = random.Random(20240101)
_KERNEL_A = [[_KERNEL_RNG.randrange(-3, 4) for _ in range(24)] for _ in range(24)]
_KERNEL_B = [[_KERNEL_RNG.randrange(-3, 4) for _ in range(24)] for _ in range(24)]


def calibrate():
    """Seconds taken by the calibration kernel right now, with the collector paused."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            columns = list(zip(*_KERNEL_B))
            [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in _KERNEL_A]
        return time.perf_counter() - start
    finally:
        gc.enable()


class PassStats:
    """Timings and oracle outcomes over repeated passes of one job list."""

    def __init__(self):
        self.pass_times = []  # raw wall seconds per pass
        self.pass_ref_times = []  # rescaled to reference host speed
        self.job_times = []
        self.job_ref_times = []
        self.kernel_times = []
        self.attempted = 0
        self.failed = 0
        self.unresolved = 0
        self.problems = []


def run_passes(jobs, budget, references, tracer=None, min_passes=1, after_pass=None):
    """Repeat the job list until ``budget`` seconds of timed work and ``min_passes`` passes have run.

    ``after_pass``, if given, is called after each pass, outside the timed region.
    """
    stats = PassStats()
    perf = time.perf_counter
    timed = 0.0
    while timed < budget or len(stats.pass_times) < min_passes:
        answers = []
        raw = ref = 0.0
        recent = [calibrate()]
        for job_id, job in enumerate(jobs):
            began = perf()
            try:
                answer = tracer.job(job_id, job.run) if tracer else job.run()
                error = None
            except Exception as exc:  # a raising job is a failed job
                answer, error = None, f"raised {type(exc).__name__}: {exc}"
            took = perf() - began
            recent = recent[-(KERNEL_WINDOW - 1) :] + [calibrate()]
            scaled = took * REF_KERNEL_S / statistics.median(recent)
            stats.job_times.append(took)
            stats.job_ref_times.append(scaled)
            stats.kernel_times.append(recent[-1])
            raw += took
            ref += scaled
            answers.append((answer, error))
        stats.pass_times.append(raw)
        stats.pass_ref_times.append(ref)
        timed += raw
        for job, (answer, error) in zip(jobs, answers):
            stats.attempted += 1
            problem = error or check_answer(job, answer, references)
            if problem:
                stats.failed += 1
                stats.problems.append(f"{job.key}: {problem}")
            elif is_unresolved(job, answer):
                stats.unresolved += 1
        if after_pass is not None:
            after_pass()
    return stats


def load_references(workload):
    try:
        with open(REFERENCES, encoding="utf-8") as handle:
            return json.load(handle).get(workload, {})
    except FileNotFoundError:
        return {}


def make_workdir():
    path = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def setup(workload, seed, small=False):
    """Generate the job list; returns (jobs, workdir)."""
    import workloads

    workdir = make_workdir()
    return workloads.make_jobs(workload, seed, workdir, small), workdir


# Set-up time follows host speed less closely than the calibration kernel
# does: a third of it is bare interpreter start (process creation, dynamic
# loading, unmarshalling the standard library).  So each set-up probe is
# rescaled by a bare interpreter started just before and just after it, to
# REF_START_S, about that start time when the host is quiet.
REF_START_S = 0.04
_BARE_START = "import time; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"


def _time_to_stamp(argv):
    """Seconds from just before ``argv`` is spawned to the monotonic stamp it prints last.

    Interpreter teardown and the wait for the child to be reaped are left out.
    """
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(argv, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - start


def setup_probe(workload, seed, small=False):
    """(raw, rescaled) seconds for a fresh interpreter to start, import cyclat and build the inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)]
    if small:
        argv.append("--small")
    bare = [sys.executable, "-c", _BARE_START]
    before = _time_to_stamp(bare)
    took = _time_to_stamp(argv)
    after = _time_to_stamp(bare)
    return took, took * REF_START_S * 2 / (before + after)


def metadata(args):
    """Commit, interpreter, machine and source size, recorded beside the metrics."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sources = sorted(glob.glob(os.path.join(SRC, "cyclat", "*.py")))
    lines = {}
    source_hash = hashlib.sha256()
    for path in sources:
        with open(path, "rb") as handle:
            data = handle.read()
        source_hash.update(os.path.basename(path).encode() + b"\0" + data)
        lines[os.path.basename(path)] = data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": source_hash.hexdigest(),
        "source_lines": sum(lines.values()),
        "source_lines_by_file": lines,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def end_to_end(stats, jobs_per_pass, setup_samples):
    nominal = MIN_PASSES * jobs_per_pass
    percentile, tail_ref = tail(stats.job_ref_times, nominal)
    values = {
        "wall_ref_s": statistics.median(stats.pass_ref_times),
        "job_p50_ref_s": statistics.median(stats.job_ref_times),
        "job_tail_ref_s": tail_ref,
        "setup_s": statistics.median(ref for _, ref in setup_samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "wall_s": statistics.median(stats.pass_times),
        "job_p50_s": statistics.median(stats.job_times),
        "job_tail_s": tail(stats.job_times, nominal)[1],
        "job_tail_percentile": percentile,
        "jobs_timed": len(stats.job_times),
        "passes": len(stats.pass_times),
        "pass_times_s": stats.pass_times,
        "pass_ref_times_s": stats.pass_ref_times,
        "kernel_median_s": statistics.median(stats.kernel_times),
        "setup_raw_s": statistics.median(raw for raw, _ in setup_samples),
        "setup_samples_s": setup_samples,
    }
    return values, extra


def traced_run(workload, jobs, seconds, references):
    """Half the time untraced, half traced; returns (stats, values, extra, units)."""
    import tracing

    plain = run_passes(jobs, seconds / 2, references)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_passes(jobs, seconds / 2, references, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write_spans(os.path.join(RESULTS, f"{workload}.spans.jsonl.gz"))
    totals = tracer.totals()
    values = tracing.layer_metrics(
        totals,
        tracer.counters,
        tracer.bookkeeping,
        traced.pass_times,
        statistics.median(traced.pass_ref_times) / statistics.median(plain.pass_ref_times) - 1.0,
    )
    extra = {
        "untraced_wall_s": statistics.median(plain.pass_times),
        "traced_wall_s": statistics.median(traced.pass_times),
        "untraced_wall_ref_s": statistics.median(plain.pass_ref_times),
        "traced_wall_ref_s": statistics.median(traced.pass_ref_times),
        "traced_passes": len(traced.pass_times),
        "spans": tracer.span_count(),
        "spans_dropped": tracer.dropped,
        "missing_calls": [name for name in EXPECTED_CALLS[workload] if totals[name][0] == 0],
    }
    stats = PassStats()
    for part in (plain, traced):
        stats.attempted += part.attempted
        stats.failed += part.failed
        stats.unresolved += part.unresolved
        stats.problems += part.problems
    units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
    return stats, values, extra, units


def record_digests():
    """Store the stdout digest of every seed-0 job of the stdout workloads."""
    import workloads

    workdir = make_workdir()
    recorded = {}
    try:
        for workload in ("ladder", "predict", "primes"):
            jobs = workloads.make_jobs(workload, 0, workdir)
            recorded[workload] = {}
            for job in jobs:
                answer = job.run()
                problem = job.check(answer)
                if problem:
                    raise SystemExit(f"error: {job.key}: {problem}")
                recorded[workload][job.key] = workloads.digest(answer[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {sum(len(v) for v in recorded.values())} digests in {REFERENCES}")


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    # tiny job lists, for the benchmark's own smoke test
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


def main(argv=None):
    import_cyclat()
    args = parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.setup_only:
        _, workdir = setup(args.workload, args.seed, args.small)
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    meta = metadata(args)
    references = load_references(args.workload)
    jobs, workdir = setup(args.workload, args.seed, args.small)
    try:
        if args.trace == 0:
            # Set-up probes are spread over the run, one before the first
            # pass and one after each pass, so that their median spans the
            # same stretches of host speed as the timed work.
            def probe():
                setup_samples.append(setup_probe(args.workload, args.seed, args.small))

            setup_samples = []
            probe()
            stats = run_passes(
                jobs, args.seconds, references, min_passes=MIN_PASSES, after_pass=probe
            )
            while len(setup_samples) < SETUP_PROBES:
                probe()
            values, extra = end_to_end(stats, len(jobs), setup_samples)
            units = dict(END_TO_END)
        else:
            stats, values, extra, units = traced_run(args.workload, jobs, args.seconds, references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = extra.get("missing_calls", [])
    correct = stats.failed == 0 and not missing
    extra["fail_frac"] = stats.failed / stats.attempted
    extra["unresolved_frac"] = stats.unresolved / stats.attempted
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, meta=meta, problems=stats.problems[:50], details=extra), handle, indent=1)
        handle.write("\n")

    for problem in stats.problems[:20]:
        print(f"FAIL {problem}")
    for name in missing:
        print(f"FAIL traced function {name} recorded no calls on {args.workload}")
    for key in ("fail_frac", "unresolved_frac"):
        print(f"{key} {extra[key]:.6g} frac")
    if args.trace == 0:
        for key in ("wall_s", "job_p50_s", "job_tail_s", "setup_raw_s"):
            print(f"{key} {extra[key]:.6g} s (raw wall clock)")
        print(f"job_tail_percentile {extra['job_tail_percentile']} of {extra['jobs_timed']} jobs")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
