"""Release acceptance battery.

One test per release criterion; each test prints a single verdict line so a
verbose run reads as a checklist.  Every check is exact — no tolerances
beyond the two documented density windows in criterion 8.
"""

import itertools
import random
import time

from cyclat import (
    cohomology,
    diagrams,
    intmat,
    lattices,
    primes,
    selftest,
    sunits,
)
from cyclat.finmod import GammaMap
from cyclat.groupring import GroupParams


def _failures(checks):
    return [(name, detail) for name, ok, detail in checks if not ok]


# ---------------------------------------------------------------------------
# Criterion 1 — closed-form ladder tables at p = 3 (n <= 3) and p = 5 (n <= 2)
# ---------------------------------------------------------------------------


def test_criterion_1_ladder_tables():
    start = time.monotonic()
    checks = selftest.suite_lemma(seed=0)
    elapsed = time.monotonic() - start
    assert _failures(checks) == []
    # labels per group: n=1 -> 1, n=2 -> 3, n=3 -> 6; p=3 covers n<=3, p=5 n<=2
    assert len(checks) == (1 + 3 + 6) + (1 + 3)
    assert elapsed < 300.0
    print(f"CRITERION 1: PASS — {len(checks)} ladder sweeps exact in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2 — diagram stability under permutation summands and base change
# ---------------------------------------------------------------------------


def test_criterion_2_diagram_stability():
    checks = selftest.suite_stability(seed=0)
    assert _failures(checks) == []
    trial_total = sum(int(detail.split("/")[0]) for _, _, detail in checks)
    assert trial_total == 200
    print(f"CRITERION 2: PASS — {trial_total} randomized trials, zero drift")


# ---------------------------------------------------------------------------
# Criterion 3 — order-p converse: the invariant triple determines the multiset
# ---------------------------------------------------------------------------


def test_criterion_3_order_p_converse():
    params = GroupParams(3, 1)
    trivial = lattices.permutation_lattice(params, 1)  # rank 1, trivial action
    core = lattices.mab_lattice(params, 1, 0)  # rank 2
    regular = lattices.group_ring_lattice(params)  # rank 3

    multisets = [
        (x, y, z)
        for x in range(13)
        for y in range(7)
        for z in range(5)
        if 1 <= x + 2 * y + 3 * z <= 12
    ]
    assert len(multisets) == 101  # exhaustive up to total rank 12

    seen = {}
    ladder = {}
    for ms in multisets:
        x, y, z = ms
        lat = lattices.direct_sum(
            [trivial] * x + [core] * y + [regular] * z
        )
        triple = (
            lat.rank,
            cohomology.fixed_rank(lat, 1),
            3 ** cohomology.tate_h1(lat, 1).order_log(),
        )
        assert triple not in seen, f"triple {triple} shared by {seen[triple]} and {ms}"
        seen[triple] = ms
        ladder[ms] = cohomology.yakovlev_diagram(lat)

    for ms1, ms2 in itertools.combinations(multisets, 2):
        verdict = diagrams.diagram_isomorphic(ladder[ms1], ladder[ms2])
        same_core = ms1[1] == ms2[1]
        assert (verdict is diagrams.IsoResult.YES) == same_core, (ms1, ms2, verdict)

    print(
        "CRITERION 3: PASS — 101 multisets separated by (rank, fixed rank, "
        "|H1|); diagram classes differ only in permutation multiplicities"
    )


# ---------------------------------------------------------------------------
# Criterion 4 — unramified closed form on 20 random instances
# ---------------------------------------------------------------------------


def _unramified_instances():
    rng = random.Random(2024)
    out = []
    for _ in range(20):
        n = rng.randrange(1, 4)
        params = GroupParams(3, n)
        r1 = rng.randrange(0, 4)
        r2 = rng.randrange(0 if r1 else 1, 3)
        s0 = rng.randrange(0, 6)
        out.append(
            sunits.ExtensionDatum(params, r1, r2, s_counts=(s0,) + (0,) * n)
        )
    return out


def test_criterion_4_unramified_closed_form():
    for datum in _unramified_instances():
        n = datum.params.n
        report = sunits.recover_structure(datum)
        assert report.status == sunits.RESOLVED
        free = datum.unit_rank() + datum.s_size()
        assert report.library_summands == {(n, 0): 1}
        assert report.perm_multiplicities == (free,) + (0,) * n
        # rank accounting: the recovered pieces add up to the predicted rank
        core_rank = lattices.mab_lattice(datum.params, n, 0).rank
        free_rank = lattices.permutation_lattice(datum.params, 0).rank
        assert core_rank + free * free_rank == sunits.character_ranks(datum)[0]
    print("CRITERION 4: PASS — 20 random unramified data hit the closed form")


# ---------------------------------------------------------------------------
# Criterion 5 — a single totally ramified place
# ---------------------------------------------------------------------------


def _ramified_instances():
    out = []
    for n in (1, 2, 3):
        params = GroupParams(3, n)
        for r1, r2 in ((1, 0), (2, 1), (4, 0)):
            out.append(
                sunits.ExtensionDatum(params, r1, r2, [(3**n, 3**n)])
            )
    return out


def test_criterion_5_totally_ramified_place():
    for datum in _ramified_instances():
        n = datum.params.n
        report = sunits.recover_structure(datum)
        assert report.status == sunits.RESOLVED
        m = datum.unit_rank()
        assert report.library_summands == {(n, 0): 1}
        assert report.perm_multiplicities == (m,) + (0,) * n
        assert sunits.minkowski_count(report) == m
    print(
        "CRITERION 5: PASS — 9 totally ramified data give the core summand "
        "plus exactly unit-rank free copies"
    )


# ---------------------------------------------------------------------------
# Criterion 6 — the bookkeeping identity and the place-family slope
# ---------------------------------------------------------------------------


def _assert_identity(datum, report):
    d_prime = sunits.corollary_residual(datum, report)  # raises on mismatch
    # recompute every term independently of the library internals
    p, n = datum.params.p, datum.params.n
    stats = sunits.upsilon_stats(datum)
    step = p**n - p ** (n - 1)
    assert d_prime % step == 0
    expected = (
        datum.r1
        + datum.r2
        + datum.split_count()
        + (2 * len(stats.heavy_types) - stats.heavy_places)
        - d_prime // step
    )
    assert report.perm_multiplicities[0] == expected


def test_criterion_6_bookkeeping_identity():
    resolved = 0
    for datum in _unramified_instances() + _ramified_instances():
        report = sunits.recover_structure(datum)
        assert report.status == sunits.RESOLVED
        _assert_identity(datum, report)
        resolved += 1

    params = GroupParams(3, 1)
    free_counts = []
    for k in range(3, 9):
        datum = sunits.ExtensionDatum(
            params, 1, 0, [(3, 3)] * k, s_counts=(2 * (k - 1), 0)
        )
        report = sunits.recover_structure(datum)
        assert report.status == sunits.RESOLVED
        assert report.library_summands == {(1, 0): k}
        _assert_identity(datum, report)
        free_counts.append(sunits.minkowski_count(report))
        resolved += 1
    assert free_counts == [k - 1 for k in range(3, 9)]
    assert all(b - a == 1 for a, b in zip(free_counts, free_counts[1:]))

    print(
        f"CRITERION 6: PASS — bookkeeping identity exact on {resolved} "
        "resolved runs; place family climbs with unit slope"
    )


# ---------------------------------------------------------------------------
# Criterion 7 — guaranteed summands and the remainder bound
# ---------------------------------------------------------------------------


def test_criterion_7_guaranteed_summands():
    cases = 0
    for n in (1, 2, 3):
        params = GroupParams(3, n)
        pair_count = (n + 1) * (n + 2) // 2
        for t in (3, 4, 6):
            places = [(3, 3**n)] * t
            if n >= 2:
                # a second, distinct type carried by only two places
                places += [(3**n, 3**n)] * 2
            datum = sunits.ExtensionDatum(
                params, 1, 0, places, regime=sunits.GENERAL
            )
            gs = sunits.guaranteed_summands(datum)
            # a type carried by t >= 3 places forces t - 2 copies; a type
            # carried by two places forces nothing
            assert gs.summands == {(1, n - 1): t - 2}
            assert gs.pair_count == pair_count
            assert gs.remainder_bound == 1 + 2 * pair_count
            cases += 1
        if n >= 2:
            # two heavy types at once
            places = [(3, 3)] * 5 + [(3**n, 3**n)] * 3
            datum = sunits.ExtensionDatum(
                params, 1, 0, places, regime=sunits.GENERAL
            )
            gs = sunits.guaranteed_summands(datum)
            assert gs.summands == {(1, 0): 3, (n, 0): 1}
            assert gs.remainder_bound == 1 + 2 * pair_count
            cases += 1
    print(
        f"CRITERION 7: PASS — {cases} families give t - 2 copies per heavy "
        "type and the exact remainder bound"
    )


# ---------------------------------------------------------------------------
# Criterion 8 — qualifying primes and their density
# ---------------------------------------------------------------------------


def _trial_division(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _enumerated_qualifying(p, q):
    if q % p != 1 or q % (p * p) == 1:
        return False
    return p not in {pow(x, p, q) for x in range(q)}


def test_criterion_8_qualifying_primes():
    start = time.monotonic()
    assert primes.find_qualifying(3, 40).qualifying == (7, 13, 31)

    oracle = tuple(
        q
        for q in range(2, 10**4)
        if _trial_division(q) and _enumerated_qualifying(3, q)
    )
    assert primes.find_qualifying(3, 10**4).qualifying == oracle

    rep3 = primes.density_report(3, 10**5)
    assert abs(rep3.observed - 0.444) <= 0.05
    rep5 = primes.density_report(5, 10**5)
    assert abs(rep5.observed - 0.64) <= 0.06

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"CRITERION 8: PASS — search matches enumeration below 10^4; "
        f"densities {rep3.observed:.3f} and {rep5.observed:.3f} in window; "
        f"{elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 9 — ladder axioms on random direct sums with base change
# ---------------------------------------------------------------------------


def _random_lattice(rng, params):
    n = params.n
    labels = [(a, b) for a in range(1, n + 1) for b in range(0, n - a + 1)]
    parts = [
        lattices.mab_lattice(params, *rng.choice(labels))
        for _ in range(rng.randrange(1, 3))
    ]
    perm_budget = 1 if n == 3 else 2
    for _ in range(rng.randrange(0, perm_budget + 1)):
        parts.append(lattices.permutation_lattice(params, rng.randrange(0, n + 1)))
    lat = lattices.direct_sum(parts)
    return lattices.random_unimodular_change(lat, rng.getrandbits(64))


def test_criterion_9_ladder_axioms():
    rng = random.Random(7)
    for trial in range(100):
        n = rng.randrange(1, 4)
        params = GroupParams(3, n)
        lat = _random_lattice(rng, params)
        for i in range(1, n + 1):
            down = cohomology.down_map(lat, i)
            up = cohomology.up_map(lat, i)

            comp = up.compose(down)  # level i to itself
            scal = GammaMap(
                comp.source,
                comp.target,
                intmat.mat_scale(3, intmat.identity(comp.source.gens)),
            )
            assert comp.equals_mod(scal), (trial, n, i, "scaling")

            comp = down.compose(up)  # level i-1 to itself
            low = comp.source
            norm = intmat.zeros(low.gens, low.gens)
            for k in range(3):
                norm = intmat.mat_add(norm, low.action_power(k * 3 ** (n - i)))
            assert comp.equals_mod(GammaMap(low, low, norm)), (trial, n, i, "norm")

        for j in range(n + 1):
            assert cohomology.tate_h1(lat, j).exponent_log() <= j, (trial, j)

    print(
        "CRITERION 9: PASS — 100 random sums satisfy both composite laws "
        "and level annihilation exactly"
    )
