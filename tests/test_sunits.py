"""Extension data to unit-module structure: presentations, prediction, recovery."""

import random

import pytest

from cyclat import diagrams, intmat
from cyclat.finmod import snf_invariants
from cyclat.groupring import GroupParams
from cyclat.sunits import (
    DecompositionReport,
    ExtensionDatum,
    RamifiedPlace,
    UnsupportedRegimeError,
    character_ranks,
    corollary_residual,
    guaranteed_summands,
    library_fixed_rank,
    minkowski_count,
    predict_diagram,
    recover_structure,
    upsilon_stats,
    wj_presentation,
)

P3N1 = GroupParams(3, 1)
P3N2 = GroupParams(3, 2)


def datum(params, r1=1, r2=0, ramified=(), s_counts=None, **kw):
    return ExtensionDatum(
        params=params,
        r1=r1,
        r2=r2,
        ramified=tuple(RamifiedPlace(*pair) for pair in ramified),
        s_counts=s_counts,
        **kw,
    )


def count_orbits(cycle_len, step):
    """Orbits of the shift-by-step action on Z/cycle_len, by walking them."""
    seen = [False] * cycle_len
    orbits = 0
    for start in range(cycle_len):
        if seen[start]:
            continue
        orbits += 1
        x = start
        while not seen[x]:
            seen[x] = True
            x = (x + step) % cycle_len
    return orbits


def oracle_character_ranks(d):
    """Fixed-rank tower computed by explicit orbit counting per place."""
    p, n = d.params.p, d.params.n
    out = []
    for j in range(n + 1):
        step = p ** (n - j)
        total = (d.r1 + d.r2) * count_orbits(p**n, step % (p**n))
        for i, count in enumerate(d.s_counts):
            if count:
                cosets = p ** (n - i)
                total += count * count_orbits(cosets, step % cosets)
        out.append(total - 1)
    return out


class TestExtensionDatum:
    def test_accepts_and_normalizes(self):
        d = datum(P3N1, ramified=[(3, 3)])
        assert d.s_counts == (0, 0)
        assert d.all_S_split is True
        assert d.unit_rank() == 0
        assert d.split_count() == 0

    def test_s_size_and_split_count(self):
        d = datum(P3N2, r1=2, r2=1, s_counts=[3, 1, 0])
        assert d.s_size() == 4
        assert d.split_count() == 3
        assert d.unit_rank() == 2
        assert d.all_S_split is False

    def test_rejects_bad_places(self):
        with pytest.raises(ValueError):
            datum(P3N1, ramified=[(1, 3)])  # unramified place listed
        with pytest.raises(ValueError):
            datum(P3N1, ramified=[(3, 9)])  # order exceeding the group
        with pytest.raises(ValueError):
            datum(P3N2, ramified=[(9, 3)])  # inertia exceeding decomposition
        with pytest.raises(ValueError):
            datum(P3N2, ramified=[(6, 6)])  # not a p-power

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            datum(P3N1, r1=-1)
        with pytest.raises(ValueError):
            datum(P3N1, r1=0, r2=0)  # no archimedean places at all
        with pytest.raises(ValueError):
            datum(P3N1, s_counts=[1, 2, 3])  # wrong length
        with pytest.raises(ValueError):
            datum(P3N1, s_counts=[-1, 0])

    def test_rejects_non_integer_fields(self):
        # floats and bools were truncated before: (3.5, 9) became (3, 9)
        with pytest.raises(TypeError, match="r1"):
            ExtensionDatum(P3N1, 1.5, 0, [(3, 3)], s_counts=(1, 1))
        with pytest.raises(TypeError, match="r2"):
            ExtensionDatum(P3N1, 1, True, [(3, 3)])
        with pytest.raises(TypeError, match="s_counts"):
            ExtensionDatum(P3N1, 1, 0, [(3, 3)], s_counts=(1.7, 1))
        with pytest.raises(TypeError, match="s_counts"):
            ExtensionDatum(P3N1, 1, 0, [(3, 3)], s_counts=(1, True))
        with pytest.raises(TypeError, match="inertia order"):
            ExtensionDatum(P3N2, 1, 0, [(3.5, 9)])
        with pytest.raises(TypeError, match="decomposition order"):
            ExtensionDatum(P3N2, 1, 0, [(3, 9.0)])
        with pytest.raises(TypeError, match="inertia order"):
            datum(P3N2, ramified=[(True, 9)])
        kept = ExtensionDatum(P3N2, 1, 0, [(3, 9)], s_counts=[1, 0, 0])
        assert kept.ramified == (RamifiedPlace(3, 9),)
        assert kept.s_counts == (1, 0, 0)

    def test_rejects_inconsistent_split_flag(self):
        with pytest.raises(ValueError):
            datum(P3N2, s_counts=[1, 1, 0], all_S_split=True)
        with pytest.raises(ValueError):
            datum(P3N2, s_counts=[2, 0, 0], all_S_split=False)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            datum(P3N1, regime="Cyclotomic")


class TestUpsilonStats:
    def test_single_heavy_type(self):
        d = datum(P3N2, ramified=[(9, 9)] * 5)
        stats = upsilon_stats(d)
        assert stats.type_counts == {(9, 9): 5}
        assert stats.heavy_types == ((9, 9),)
        assert stats.heavy_places == 5
        assert 2 * len(stats.heavy_types) - stats.heavy_places == -3

    def test_threshold_is_three(self):
        d = datum(P3N2, ramified=[(3, 9)] * 2)
        stats = upsilon_stats(d)
        assert stats.heavy_types == ()
        assert stats.heavy_places == 0

    def test_two_heavy_types(self):
        d = datum(P3N2, ramified=[(3, 3)] * 3 + [(9, 9)] * 3)
        stats = upsilon_stats(d)
        assert set(stats.heavy_types) == {(3, 3), (9, 9)}
        assert stats.heavy_places == 6
        assert 2 * len(stats.heavy_types) - stats.heavy_places == -2


class TestCharacterRanks:
    def test_small_field_tower(self):
        d = datum(P3N1, r1=1, r2=0)
        assert character_ranks(d) == [2, 0]

    def test_with_split_place(self):
        d = datum(P3N2, r1=1, r2=0, s_counts=[1, 0, 0])
        assert character_ranks(d) == [17, 5, 1]

    def test_matches_orbit_count_oracle(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randrange(1, 4)
            pr = GroupParams(3, n)
            r1 = rng.randrange(0, 4)
            r2 = rng.randrange(0 if r1 else 1, 3)
            s_counts = [rng.randrange(0, 3) for _ in range(n + 1)]
            d = datum(pr, r1=r1, r2=r2, s_counts=s_counts)
            assert list(character_ranks(d)) == oracle_character_ranks(d)

    def test_consecutive_differences(self):
        d = datum(P3N2, r1=2, r2=1, s_counts=[2, 1, 0])
        ranks = character_ranks(d)
        p, n = 3, 2
        for j in range(n):
            cumulative_s = sum(d.s_counts[: j + 1])
            expected = (p ** (n - j) - p ** (n - j - 1)) * (
                d.unit_rank() + 1 + cumulative_s
            )
            assert ranks[j] - ranks[j + 1] == expected


class TestWjPresentation:
    def test_totally_ramified_minimal_case(self):
        d = datum(P3N1, ramified=[(3, 3)])
        w = wj_presentation(d, 1)
        assert snf_invariants(w) == (3,)
        # trivial action: the generator matrix is the identity on the module
        mod = w.minimized()[0]
        diff = [
            [
                mod.action[r][c] - (1 if r == c else 0)
                for c in range(mod.gens)
            ]
            for r in range(mod.gens)
        ]
        assert all(not any(mod.reduce_vec([row[c] for row in diff])) for c in range(mod.gens))

    def test_trivial_level_is_zero(self):
        d = datum(P3N1, ramified=[(3, 3)])
        assert wj_presentation(d, 0).is_zero()

    def test_partially_ramified_tower(self):
        d = datum(P3N2, ramified=[(3, 9)])
        assert snf_invariants(wj_presentation(d, 2)) == (9,)

    def test_anchored_levels_arrive_saturated(self, monkeypatch):
        # each level's relations are reduced modulo their determinant p^e,
        # which must give the p-saturated Hermite form over Z of the raw
        # relations, so the constructor takes no Smith form
        seen, smith = [], []
        reduce_mod, smith_form = intmat.hnf_mod_prime_power, intmat.snf

        def recording(cols, p, e):
            out = reduce_mod(cols, p, e)
            seen.append((cols, out))
            return out

        def counting(a):
            smith.append(a)
            return smith_form(a)

        rng = random.Random(12)
        for _ in range(30):
            p, n = rng.choice((3, 5)), rng.randrange(1, 4)
            places = []
            for _ in range(rng.randrange(1, 4)):
                c = rng.randrange(1, n + 1)
                places.append((p ** rng.randrange(1, c + 1), p**c))
            counts = [rng.choice((0, 0, 1, 2)) for _ in range(n + 1)]
            d = datum(GroupParams(p, n), ramified=places, s_counts=counts)
            for j in range(1, n + 1):
                seen.clear()
                smith.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(intmat, "hnf_mod_prime_power", recording)
                    patch.setattr(intmat, "snf", counting)
                    level = wj_presentation(d, j)
                assert len(seen) == 1 and smith == []
                raw, out = seen[0]
                assert out == intmat.hnf_p_saturated(raw, p)
                assert level.relations == out

    def test_rejects_unsupported_regime(self):
        d = datum(P3N1, ramified=[(3, 3)], regime="General")
        with pytest.raises(UnsupportedRegimeError):
            wj_presentation(d, 1)
        with pytest.raises(UnsupportedRegimeError):
            wj_presentation(datum(P3N1), 1)  # unramified has no presentation


class TestPredictDiagram:
    def test_single_totally_ramified_place(self):
        d = datum(P3N1, ramified=[(3, 3)])
        diag = predict_diagram(d)
        assert diagrams.validate_diagram(diag)
        assert (
            diagrams.diagram_isomorphic(
                diag, diagrams.library_diagram(P3N1, {(1, 0): 1})
            )
            is diagrams.IsoResult.YES
        )

    def test_unramified_split_closed_form(self):
        for n in (1, 2, 3):
            pr = GroupParams(3, n)
            d = datum(pr, r1=2, r2=1, s_counts=[3] + [0] * n)
            diag = predict_diagram(d)
            assert (
                diagrams.diagram_isomorphic(
                    diag, diagrams.library_diagram(pr, {(n, 0): 1})
                )
                is diagrams.IsoResult.YES
            )

    def test_four_places_share_guaranteed_summands(self):
        d = datum(P3N2, ramified=[(3, 9)] * 4)
        result = diagrams.subtract_library(predict_diagram(d))
        assert result.fully_resolved
        assert result.extracted.get((1, 1), 0) >= 2

    def test_rejects_unramified_non_split(self):
        d = datum(P3N2, s_counts=[1, 1, 0])
        with pytest.raises(UnsupportedRegimeError):
            predict_diagram(d)

    def test_rejects_general_regime(self):
        d = datum(P3N2, ramified=[(9, 9)], regime="General")
        with pytest.raises(UnsupportedRegimeError):
            predict_diagram(d)

    def test_output_always_validates(self):
        cases = [
            datum(P3N2, ramified=[(9, 9)]),
            datum(P3N2, ramified=[(3, 3), (3, 9)]),
            datum(P3N2, ramified=[(3, 3)], s_counts=[2, 0, 0]),
            datum(GroupParams(3, 3), ramified=[(3, 27), (9, 27)]),
        ]
        for d in cases:
            assert diagrams.validate_diagram(predict_diagram(d))


    def test_levels_are_the_wj_presentations(self):
        # both take their blocks from each place's library summand diagram
        rng = random.Random(19)
        for _ in range(20):
            p, n = rng.choice((3, 5)), rng.randrange(1, 4)
            places = []
            for _ in range(rng.randrange(1, 4)):
                c = rng.randrange(1, n + 1)
                places.append((p ** rng.randrange(1, c + 1), p**c))
            counts = [rng.choice((0, 0, 1, 2)) for _ in range(n + 1)]
            d = datum(GroupParams(p, n), ramified=places, s_counts=counts)
            predicted = predict_diagram(d)
            for j in range(1, n + 1):
                level, wj = predicted.level(j), wj_presentation(d, j)
                assert (level.relations, level.action) == (wj.relations, wj.action)


class TestLibraryFixedRank:
    def test_matches_lattice_computation(self):
        from cyclat.cohomology import fixed_rank
        from cyclat.lattices import mab_lattice

        for p, n in ((3, 2), (3, 3)):
            pr = GroupParams(p, n)
            for a in range(1, n + 1):
                for b in range(0, n + 1 - a):
                    lat = mab_lattice(pr, a, b)
                    for j in range(n + 1):
                        assert library_fixed_rank(pr, a, b, j) == fixed_rank(
                            lat, j
                        )


class TestRecoverStructure:
    def test_minimal_totally_ramified_example(self):
        d = datum(P3N1, r1=1, r2=0, ramified=[(3, 3)])
        report = recover_structure(d)
        assert report.status == "Resolved"
        assert report.library_summands == {(1, 0): 1}
        assert report.perm_multiplicities == (0, 0)
        assert minkowski_count(report) == 0

    def test_negative_budget_rejected(self):
        d = datum(P3N1, r1=1, r2=0, ramified=[(3, 3)])
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            recover_structure(d, budget=-5)
        assert recover_structure(d, budget=0).status == "Resolved"

    def test_extra_unit_rank_becomes_free_multiplicity(self):
        d = datum(P3N1, r1=2, r2=0, ramified=[(3, 3)])
        report = recover_structure(d)
        assert report.status == "Resolved"
        assert report.library_summands == {(1, 0): 1}
        assert report.perm_multiplicities == (1, 0)
        # rank accounting: 2 (summand) + 1 * 3 = 5 = top character rank
        assert character_ranks(d)[0] == 5

    def test_unramified_closed_form(self):
        rng = random.Random(6)
        for _ in range(8):
            n = rng.randrange(1, 4)
            pr = GroupParams(3, n)
            r1 = rng.randrange(0, 3)
            r2 = rng.randrange(0 if r1 else 1, 3)
            s0 = rng.randrange(0, 5)
            d = datum(pr, r1=r1, r2=r2, s_counts=[s0] + [0] * n)
            report = recover_structure(d)
            assert report.status == "Resolved"
            assert report.library_summands == {(n, 0): 1}
            expected = [r1 + r2 - 1 + s0] + [0] * n
            assert list(report.perm_multiplicities) == expected
            assert minkowski_count(report) == r1 + r2 - 1 + s0

    def test_inconsistent_datum_reports_partial(self):
        # four partially ramified places with no compensating rank need a
        # negative free multiplicity: flagged, never clamped
        d = datum(P3N2, r1=1, r2=0, ramified=[(3, 9)] * 4)
        report = recover_structure(d)
        assert report.status == "PartiallyResolved"
        assert any(t < 0 for t in report.perm_multiplicities)
        assert report.diagnostics
        with pytest.raises(ValueError):
            minkowski_count(report)

    def test_report_is_immutable(self):
        d = datum(P3N1, ramified=[(3, 3)])
        report = recover_structure(d)
        with pytest.raises(AttributeError):
            report.status = "Altered"


class TestGuaranteedSummands:
    def test_four_partially_ramified_places(self):
        d = datum(P3N2, ramified=[(3, 9)] * 4)
        out = guaranteed_summands(d)
        assert out.summands == {(1, 1): 2}
        assert out.pair_count == 6
        assert out.remainder_bound == 13

    def test_below_threshold_gives_nothing(self):
        d = datum(P3N2, ramified=[(9, 9)] * 2)
        assert guaranteed_summands(d).summands == {}

    def test_totally_ramified_heavy_type(self):
        d = datum(P3N2, ramified=[(9, 9)] * 5)
        assert guaranteed_summands(d).summands == {(2, 0): 3}

    def test_valid_in_general_regime(self):
        d = datum(P3N2, ramified=[(3, 3)] * 4, regime="General")
        out = guaranteed_summands(d)
        assert out.summands == {(1, 0): 2}
        assert out.remainder_bound == 13

    def test_monotone_under_added_place(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randrange(1, 4)
            pr = GroupParams(3, n)
            io_log = rng.randrange(1, n + 1)
            do_log = rng.randrange(io_log, n + 1)
            pair = (3**io_log, 3**do_log)
            count = rng.randrange(3, 6)
            base = datum(pr, ramified=[pair] * count, regime="General")
            bigger = datum(pr, ramified=[pair] * (count + 1), regime="General")
            before = guaranteed_summands(base).summands
            after = guaranteed_summands(bigger).summands
            label = (io_log, do_log - io_log)
            assert after[label] == before[label] + 1
            assert {k: v for k, v in after.items() if k != label} == {
                k: v for k, v in before.items() if k != label
            }


class TestCorollaryResidual:
    def test_minimal_example_residual(self):
        # one place below the heavy threshold: its library summand is the
        # whole non-guaranteed part, contributing rank 2 and fixed rank 0
        d = datum(P3N1, r1=1, r2=0, ramified=[(3, 3)])
        report = recover_structure(d)
        assert corollary_residual(d, report) == 2

    def test_family_has_constant_residual_and_unit_slope(self):
        counts = []
        for k in range(3, 9):
            d = datum(
                P3N1,
                r1=1,
                r2=0,
                ramified=[(3, 3)] * k,
                s_counts=[2 * (k - 1), 0],
            )
            report = recover_structure(d)
            assert report.status == "Resolved"
            assert report.library_summands == {(1, 0): k}
            assert corollary_residual(d, report) == 4
            counts.append(minkowski_count(report))
        assert counts == [k - 1 for k in range(3, 9)]

    def test_requires_resolved_report(self):
        d = datum(P3N2, r1=1, r2=0, ramified=[(3, 9)] * 4)
        report = recover_structure(d)
        with pytest.raises(ValueError):
            corollary_residual(d, report)
