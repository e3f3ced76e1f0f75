"""Seeded job lists for each benchmark workload, and the oracles that check them.

A job is one closed-loop call into cyclat.  ``make_jobs(name, seed, workdir)``
builds the job list of one pass; the same seed always gives the same list.
Each job's ``check`` is an oracle that shares no code path with the call it
checks: closed forms for ladders, the known verdict for stability trials, an
independent rank recount for structure reports and a sieve for primes.

The seed chooses inputs inside fixed cost classes (which permutation
summand, which base change, which label pair, which place counts, and the
order of the jobs), so the work in one pass barely depends on the seed and
run-to-run spread comes from the host rather than from the draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import cyclat
import cyclat.cli

WORKLOADS = ("ladder", "stability", "predict", "primes")


@dataclass
class Job:
    """One call: ``run()`` returns the answer, ``check(answer)`` a problem or None."""

    key: str
    run: Callable
    check: Callable
    stdout: bool = True  # whether the answer is (exit code, stdout text)


def run_cli(argv):
    """Call ``cyclat.cli.main`` in-process; returns (exit code, stdout text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cyclat.cli.main(argv)
    return code, buffer.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def library_labels(n):
    return [(a, b) for a in range(1, n + 1) for b in range(0, n - a + 1)]


# -- ladder: cyclat diagram over the size ladder -------------------------------

# Rungs where every library label runs in each pass.
FULL_RUNGS = ((3, 2), (3, 3), (5, 2), (7, 2))
# Larger rungs run a fixed label: the (3, 4) labels differ in cost by up to
# 3x, which would make the pass time depend on the draw, and labels at (5, 3)
# take about 9 s each, so that rung runs permutation lattices only.  The
# stretch probe covers the largest sizes.
BIG_RUNG_LABELS = {(3, 4): ((2, 1),), (5, 3): ()}
SMALL_RUNGS = ((3, 2),)


def _perm_indices(p, n):
    """Permutation-lattice indices the seed draws from; all cost about 10 ms or less."""
    return range(1, n + 1) if p**n <= 49 else range(2, n + 1)


def ladder_levels_problem(doc, p, n, label):
    """Closed-form check of a diagram document; label None means permutation."""
    if doc.get("p") != p or doc.get("n") != n:
        return f"echoed (p, n) = ({doc.get('p')}, {doc.get('n')})"
    levels = doc.get("levels", [])
    if [lvl.get("index") for lvl in levels] != list(range(1, n + 1)):
        return "levels are not indexed 1..n"
    if len(doc.get("ups", [])) != n - 1 or len(doc.get("downs", [])) != n - 1:
        return "wrong number of rung maps"
    for lvl in levels:
        i = lvl["index"]
        if label is None:
            want_labels, want_inv = [], []
        else:
            a, b = label
            coeff, coset = min(i, a), max(i, a + b)
            want_labels = [[coeff, coset, 1]]
            want_inv = [p**coeff] * p ** (n - coset)
        if lvl.get("recognized") != want_labels:
            return f"level {i} labels {lvl.get('recognized')} != {want_labels}"
        if lvl.get("invariants") != want_inv:
            return f"level {i} invariants differ from the closed form"
    return None


def _diagram_job(p, n, label=None, index=None):
    argv = ["diagram", "--p", str(p), "--n", str(n)]
    if label is None:
        argv += ["--kind", "perm", "--i", str(index)]
    else:
        argv += ["--kind", "mab", "--a", str(label[0]), "--b", str(label[1])]

    def check(answer):
        code, out = answer
        if code != 0:
            return f"exit code {code}"
        return ladder_levels_problem(json.loads(out), p, n, label)

    return Job(" ".join(argv), lambda: run_cli(argv), check)


def ladder_jobs(seed, small=False):
    rng = random.Random(seed)
    jobs = []
    rungs = SMALL_RUNGS if small else FULL_RUNGS + tuple(BIG_RUNG_LABELS)
    for p, n in rungs:
        for label in BIG_RUNG_LABELS.get((p, n), library_labels(n)):
            jobs.append(_diagram_job(p, n, label=label))
        jobs.append(_diagram_job(p, n, index=rng.choice(_perm_indices(p, n))))
    rng.shuffle(jobs)
    return jobs


# -- stability: diagrams survive permutation summands and base changes --------

STABILITY_GROUPS = ((3, 1), (3, 2), (3, 3), (5, 2))


def _stability_job(params, label, target, perm_index, change_seed):
    """Base-changed variant of the label's lattice against the bare diagram of ``target``."""
    want = cyclat.IsoResult.YES if target == label else cyclat.IsoResult.NO

    def run():
        base = cyclat.mab_lattice(params, *label)
        if target == label:
            bare = cyclat.yakovlev_diagram(base)
        else:
            bare = cyclat.yakovlev_diagram(cyclat.mab_lattice(params, *target))
        variant = base
        if perm_index is not None:
            variant = cyclat.direct_sum([variant, cyclat.permutation_lattice(params, perm_index)])
        variant = cyclat.random_unimodular_change(variant, change_seed)
        return cyclat.diagram_isomorphic(cyclat.yakovlev_diagram(variant), bare)

    def check(verdict):
        return None if verdict is want else f"verdict {verdict.value}, expected {want.value}"

    key = (
        f"stability p={params.p} n={params.n} label={label} target={target} "
        f"perm={perm_index} change={change_seed}"
    )
    return Job(key, run, check, stdout=False)


def stability_jobs(seed, small=False):
    rng = random.Random(seed)
    jobs = []
    groups = STABILITY_GROUPS[:2] if small else STABILITY_GROUPS
    for p, n in groups:
        params = cyclat.GroupParams(p, n)
        labels = library_labels(n)
        # The seed draws the base changes and the cross-label pair.  The
        # summand is fixed, since its rank sets the cost of a trial: Z[G/G_1],
        # the largest permutation lattice short of the regular representation.
        for label in labels:
            jobs.append(_stability_job(params, label, label, None, rng.getrandbits(64)))
            jobs.append(_stability_job(params, label, label, 1, rng.getrandbits(64)))
        if n >= 2:
            # one regular-representation summand, and one cross-label trial
            # whose only correct verdict is No
            jobs.append(_stability_job(params, labels[0], labels[0], 0, rng.getrandbits(64)))
            label, target = rng.sample(labels, 2)
            jobs.append(_stability_job(params, label, target, None, rng.getrandbits(64)))
    rng.shuffle(jobs)
    return jobs


# -- predict: structure reports from extension data ----------------------------

# (p, n, ramified places as (inertia order, decomposition order), indices i >= 1
# with s_i > 0).  The places and the support of s fix the predicted diagram,
# so each class costs the same whatever the seed draws for r1, r2 and the
# s counts; those draws decide whether the report resolves.
PREDICT_CLASSES = (
    # mixed ramification
    (3, 2, ((3, 9), (9, 9), (3, 3)), ()),
    (3, 3, ((9, 9), (3, 27), (3, 3)), (3,)),
    (3, 3, ((9, 9), (3, 27), (3, 3)), (1,)),
    (3, 3, ((3, 3), (3, 27), (27, 27)), ()),
    (3, 3, ((3, 9), (3, 27), (9, 9)), ()),
    (5, 2, ((5, 25), (5, 5), (5, 25)), ()),
    (5, 3, ((5, 25), (25, 125)), ()),
    (5, 3, ((5, 125), (25, 125), (125, 125)), ()),
    # heavy types: three or more places of one type
    (3, 1, ((3, 3),) * 4, ()),
    (3, 2, ((3, 9),) * 3 + ((9, 9),), ()),
    (3, 3, ((9, 27),) * 3 + ((3, 27),), ()),
    (5, 2, ((5, 25),) * 3 + ((25, 25),), ()),
    (5, 2, ((5, 5),) * 3 + ((5, 25),), ()),
    (5, 3, ((25, 125),) * 3, ()),
    # totally ramified
    (3, 3, ((27, 27),), ()),
    (5, 3, ((125, 125),), ()),
    (5, 2, ((25, 25), (25, 25)), ()),
    (3, 3, ((27, 27),) * 3, ()),
)
# Seeded draws of each class per pass.  With three, the tail percentile
# lands inside the two costliest classes rather than at their edge.
PREDICT_DRAWS = 3
SMALL_PREDICT_CLASSES = (0, 8, 14)


def character_ranks(p, n, r1, r2, s_counts):
    """rk_j = (r1 + r2) p^(n-j) + sum_i s_i p^(n - max(i, j)) - 1."""
    return [
        (r1 + r2) * p ** (n - j)
        + sum(s * p ** (n - max(i, j)) for i, s in enumerate(s_counts))
        - 1
        for j in range(n + 1)
    ]


def library_fixed_rank(p, n, a, b, j):
    """Rank of the fixed points of library lattice (a, b) under the order-p^j subgroup."""
    return p ** (n - j) if b > 0 else p ** (n - j) - p ** min(n - j, n - a)


def report_problem(doc, datum, code, known=None):
    """Check a predict document; ``known`` is (summands, multiplicities) if known."""
    p, n = datum["p"], datum["n"]
    echo = doc.get("input", {})
    for field in ("p", "n", "r1", "r2", "ramified", "s_counts"):
        if echo.get(field) != datum[field]:
            return f"input echo differs in {field}"
    report = doc.get("report", {})
    status = report.get("status")
    want_code = {"Resolved": 0, "PartiallyResolved": 3}.get(status)
    if want_code is None or code != want_code:
        return f"status {status} with exit code {code}"
    if known is not None:
        summands, mults = known
        if status != "Resolved":
            return f"known-answer datum came back {status}"
        if report.get("library_summands") != summands:
            return f"summands {report.get('library_summands')} != {summands}"
        if report.get("perm_multiplicities") != mults:
            return f"multiplicities {report.get('perm_multiplicities')} != {mults}"
    if status != "Resolved":
        return None if report.get("diagnostics") else "unresolved report without a reason"
    mults = report.get("perm_multiplicities")
    if not isinstance(mults, list) or len(mults) != n + 1 or any(t < 0 for t in mults):
        return f"bad permutation multiplicities {mults}"
    if report.get("minkowski_count") != mults[0] or not report.get("identity_checked"):
        return "free-summand count or identity flag is wrong"
    ranks = character_ranks(p, n, datum["r1"], datum["r2"], datum["s_counts"])
    for j in range(n + 1):
        total = sum(
            mult * library_fixed_rank(p, n, a, b, j)
            for a, b, mult in report.get("library_summands", [])
        )
        total += sum(t * p ** (n - max(i, j)) for i, t in enumerate(mults))
        if total != ranks[j]:
            return f"fixed rank at level {j}: recount {total} != character rank {ranks[j]}"
    return None


def _datum(p, n, r1, r2, places, s_counts):
    return {
        "p": p,
        "n": n,
        "r1": r1,
        "r2": r2,
        "ramified": [
            {"inertia_order": io, "decomposition_order": do} for io, do in places
        ],
        "s_counts": list(s_counts),
    }


def _predict_job(workdir, datum, known=None):
    text = json.dumps(datum, sort_keys=True)
    path = os.path.join(workdir, digest(text)[:16] + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    argv = ["predict", "--input", path]

    def check(answer):
        code, out = answer
        return report_problem(json.loads(out), datum, code, known)

    return Job("predict " + text, lambda: run_cli(argv), check)


def _known_answer_data(rng, small):
    """The known-answer data of the corollary suite, with seeded unramified draws."""
    out = []
    for _ in range(2 if small else 6):
        n = rng.randrange(1, 4)
        r1 = rng.randrange(0, 4)
        r2 = rng.randrange(0 if r1 else 1, 3)
        s0 = rng.randrange(0, 6)
        out.append(
            (
                _datum(3, n, r1, r2, (), (s0,) + (0,) * n),
                ([[n, 0, 1]], [r1 + r2 - 1 + s0] + [0] * n),
            )
        )
    for n in range(1, 2 if small else 4):
        for r1, r2 in ((1, 0), (3, 2)):
            out.append(
                (
                    _datum(3, n, r1, r2, ((3**n, 3**n),), (0,) * (n + 1)),
                    ([[n, 0, 1]], [r1 + r2 - 1] + [0] * n),
                )
            )
    for k in range(3, 5 if small else 9):
        out.append(
            (
                _datum(3, 1, 1, 0, ((3, 3),) * k, (2 * (k - 1), 0)),
                ([[1, 0, k]], [k - 1, k - 1]),
            )
        )
    return out


def predict_jobs(seed, workdir, small=False):
    rng = random.Random(seed)
    jobs = []
    classes = [PREDICT_CLASSES[i] for i in SMALL_PREDICT_CLASSES] if small else PREDICT_CLASSES
    for p, n, places, support in classes:
        for _ in range(PREDICT_DRAWS):
            r1 = rng.randrange(0, 4)
            r2 = rng.randrange(0 if r1 else 1, 3)
            s_counts = [rng.randrange(0, 6)] + [
                rng.randrange(1, 4) if i in support else 0 for i in range(1, n + 1)
            ]
            jobs.append(_predict_job(workdir, _datum(p, n, r1, r2, places, s_counts)))
    for datum, known in _known_answer_data(rng, small):
        jobs.append(_predict_job(workdir, datum, known))
    rng.shuffle(jobs)
    return jobs


# -- primes: qualifying-prime scans --------------------------------------------

PRIME_PS = (3, 5, 7, 11, 13)
PRIME_CANDIDATES = 25000  # candidates q = 1 (mod 2p) scanned per job


def sieve(bound):
    """bytearray flags of primality for 0 <= q < bound."""
    flags = bytearray([1]) * bound
    flags[:2] = b"\x00\x00"[: min(2, bound)]
    for q in range(2, int(bound**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, bound, q)))
    return flags


def qualifying_by_sieve(p, bound, flags):
    """(primes q = 1 mod p below bound, the qualifying ones), by definition."""
    in_progression = [q for q in range(1, bound, p) if flags[q]]
    qualifying = [
        q
        for q in in_progression
        if q % (p * p) != 1 and pow(p, (q - 1) // p, q) != 1
    ]
    return in_progression, qualifying


def primes_problem(kind, p, bound, out, flags):
    in_progression, qualifying = qualifying_by_sieve(p, bound, flags)
    if kind == "primes":
        got = [int(line) for line in out.splitlines()]
        return None if got == qualifying else f"qualifying primes below {bound} differ"
    doc = json.loads(out)
    want = {
        "p": p,
        "bound": bound,
        "scanned": len(in_progression),
        "qualifying": len(qualifying),
        "observed": len(qualifying) / len(in_progression),
        "expected": (p - 1) ** 2 / p**2,
        "expected_fraction": [(p - 1) ** 2, p**2],
    }
    return None if doc == want else f"density report for p={p} below {bound} differs"


class _SieveCache:
    """Sieve once per run, large enough for every job's bound."""

    def __init__(self):
        self.flags = bytearray()

    def get(self, bound):
        if len(self.flags) < bound:
            self.flags = sieve(bound)
        return self.flags


def _primes_job(kind, p, bound, sieves):
    argv = [kind, "--p", str(p), "--bound", str(bound)]

    def check(answer):
        code, out = answer
        if code != 0:
            return f"exit code {code}"
        return primes_problem(kind, p, bound, out, sieves.get(bound))

    return Job(" ".join(argv), lambda: run_cli(argv), check)


def primes_jobs(seed, small=False):
    rng = random.Random(seed)
    sieves = _SieveCache()
    candidates = 1000 if small else PRIME_CANDIDATES
    jobs = []
    for p in PRIME_PS[:2] if small else PRIME_PS:
        for kind in ("primes", "density"):
            bound = 2 * p * candidates + rng.randrange(0, 2 * p * candidates // 10)
            jobs.append(_primes_job(kind, p, bound, sieves))
    rng.shuffle(jobs)
    return jobs


def make_jobs(name, seed, workdir, small=False):
    """Job list of one pass of workload ``name``; ``small`` gives a tiny list for tests."""
    if name == "ladder":
        return ladder_jobs(seed, small)
    if name == "stability":
        return stability_jobs(seed, small)
    if name == "predict":
        return predict_jobs(seed, workdir, small)
    if name == "primes":
        return primes_jobs(seed, small)
    raise ValueError(f"unknown workload {name!r}")
