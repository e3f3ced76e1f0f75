"""Built-in verification suites.

Each suite returns a list of (check name, passed, detail) triples; a suite
passes when every triple passes.  The suites are deterministic for a fixed
seed and are shared between the command-line ``selftest`` subcommand and
the acceptance test battery.

* ``lemma``      — closed-form ladder sweep: for every library label the
                   computed cohomology ladder matches the tabulated module
                   shapes and maps, at p = 3 (n <= 3) and p = 5 (n <= 2).
* ``stability``  — diagram invariance: permutation summands and unimodular
                   base changes never change the ladder diagram.
* ``corollary``  — arithmetic pipeline: unramified closed form, the single
                   totally-ramified-place example, and the place-family
                   bookkeeping identity with its unit slope.
"""

from __future__ import annotations

import random

from . import cohomology, diagrams, lattices, sunits
from .finmod import recognize_standard_sum
from .groupring import GroupParams

SUITES = ("lemma", "stability", "corollary")
STABILITY_TRIALS = 200


def suite_lemma(seed=0):
    """Closed-form sweep over every library label at p in {3, 5}."""
    checks = []
    for p, top in ((3, 3), (5, 2)):
        for n in range(1, top + 1):
            params = GroupParams(p, n)
            for a, b in diagrams._library_labels(n):
                lat = lattices.mab_lattice(params, a, b)
                diagram = cohomology.yakovlev_diagram(lat)
                problems = []
                for i in range(1, n + 1):
                    got = recognize_standard_sum(diagram.level(i))
                    want = {diagrams.library_level_type(a, b, i): 1}
                    if diagram.level(i).is_zero():
                        got = {}
                        want = {}
                    if got != want:
                        problems.append(f"level {i}: {got} != {want}")
                verdict = diagrams.diagram_isomorphic(
                    diagram, diagrams.library_diagram(params, {(a, b): 1})
                )
                if verdict is not diagrams.IsoResult.YES:
                    problems.append(f"map comparison: {verdict.value}")
                checks.append(
                    (
                        f"lemma p={p} n={n} label=({a},{b})",
                        not problems,
                        "; ".join(problems) or "levels and maps match",
                    )
                )
    return checks


def _stability_variant(rng, lat, params):
    """One randomized lattice presenting the same diagram class."""
    choice = rng.randrange(3)
    if choice > 0:
        # direct-sum a permutation lattice; keep ranks small most of the time
        if params.n >= 2 and rng.randrange(4) == 0:
            index = rng.randrange(params.n + 1)
        else:
            index = rng.randrange(1, params.n + 1)
        lat = lattices.direct_sum([lat, lattices.permutation_lattice(params, index)])
    if choice != 1:
        lat = lattices.random_unimodular_change(lat, rng.getrandbits(64))
    return lat


def suite_stability(seed=0):
    """Permutation summands and base changes leave the diagram fixed, over
    ``STABILITY_TRIALS`` seeded trials spread across the library labels."""
    rng = random.Random(seed)
    p = 3
    cases = []
    for n in range(1, 4):
        params = GroupParams(p, n)
        for a, b in diagrams._library_labels(n):
            cases.append((params, a, b))
    per_case = [STABILITY_TRIALS // len(cases)] * len(cases)
    for i in range(STABILITY_TRIALS - sum(per_case)):
        per_case[i] += 1
    checks = []
    for (params, a, b), count in zip(cases, per_case):
        base = lattices.mab_lattice(params, a, b)
        target = cohomology.yakovlev_diagram(base)
        failures = []
        for t in range(count):
            variant = _stability_variant(rng, base, params)
            got = diagrams.diagram_isomorphic(
                cohomology.yakovlev_diagram(variant), target
            )
            if got is not diagrams.IsoResult.YES:
                failures.append(f"trial {t}: {got.value}")
        checks.append(
            (
                f"stability p={params.p} n={params.n} label=({a},{b})",
                not failures,
                "; ".join(failures) or f"{count}/{count} trials stable",
            )
        )
    return checks


def _check_resolved(name, datum, summands, mults, checks):
    """Assert one recovery outcome plus its bookkeeping identity."""
    report = sunits.recover_structure(datum)
    problems = []
    if report.status != sunits.RESOLVED:
        problems.append(f"status {report.status}: {report.diagnostics}")
    else:
        if report.library_summands != summands:
            problems.append(f"summands {report.library_summands} != {summands}")
        if tuple(report.perm_multiplicities) != tuple(mults):
            problems.append(
                f"multiplicities {report.perm_multiplicities} != {tuple(mults)}"
            )
        try:
            sunits.corollary_residual(datum, report)
        except Exception as exc:  # identity failure is a check failure
            problems.append(str(exc))
    checks.append((name, not problems, "; ".join(problems) or "exact match"))
    return report


def suite_corollary(seed=0):
    """Unramified closed form, ramified example, and the place family."""
    rng = random.Random(seed)
    checks = []
    p = 3
    for trial in range(20):
        n = rng.randrange(1, 4)
        params = GroupParams(p, n)
        r1 = rng.randrange(0, 4)
        r2 = rng.randrange(0 if r1 else 1, 3)
        s0 = rng.randrange(0, 6)
        datum = sunits.ExtensionDatum(
            params, r1, r2, s_counts=(s0,) + (0,) * n
        )
        free = r1 + r2 - 1 + s0
        _check_resolved(
            f"unramified trial {trial:02d} n={n} r=({r1},{r2}) s0={s0}",
            datum,
            {(n, 0): 1},
            (free,) + (0,) * n,
            checks,
        )
    for n in range(1, 4):
        params = GroupParams(p, n)
        for r1, r2 in ((1, 0), (3, 2)):
            datum = sunits.ExtensionDatum(params, r1, r2, [(p**n, p**n)])
            _check_resolved(
                f"totally ramified place n={n} r=({r1},{r2})",
                datum,
                {(n, 0): 1},
                (r1 + r2 - 1,) + (0,) * n,
                checks,
            )
    params = GroupParams(p, 1)
    family = []
    for k in range(3, 9):
        datum = sunits.ExtensionDatum(
            params, 1, 0, [(p, p)] * k, s_counts=(2 * (k - 1), 0)
        )
        report = _check_resolved(
            f"place family k={k}",
            datum,
            {(1, 0): k},
            (k - 1, k - 1),
            checks,
        )
        family.append(
            report.minkowski_count if report.status == sunits.RESOLVED else None
        )
    slopes = [
        None if (lo is None or hi is None) else hi - lo
        for lo, hi in zip(family, family[1:])
    ]
    checks.append(
        (
            "place family slope",
            all(s == 1 for s in slopes),
            f"free-count increments {slopes}",
        )
    )
    return checks


def run_suite(name, seed=0):
    """All checks for one suite name, or every suite for ``all``."""
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend(run_suite(suite, seed))
        return out
    if name == "lemma":
        return suite_lemma(seed)
    if name == "stability":
        return suite_stability(seed)
    if name == "corollary":
        return suite_corollary(seed)
    raise ValueError(f"unknown suite {name!r}")
