"""Tate cohomology of lattices over subgroup towers, and the level diagrams."""

import itertools
import random

import pytest

from cyclat import cohomology, diagrams, intmat
from cyclat.cohomology import (
    down_map,
    fixed_rank,
    is_cohomologically_trivial,
    tate_h0,
    tate_h1,
    up_map,
    yakovlev_diagram,
)
from cyclat.finmod import (
    FiniteGammaModule,
    GammaMap,
    InvariantError,
    recognize_standard_sum,
    snf_invariants,
)
from cyclat.groupring import GroupParams
from cyclat.lattices import (
    direct_sum,
    mab_lattice,
    permutation_lattice,
    random_unimodular_change,
)


def all_labels(n):
    return [(a, b) for a in range(1, n + 1) for b in range(0, n + 1 - a)]


class TestFirstCohomology:
    def test_permutation_lattices_are_invisible(self):
        for p, n in ((3, 1), (3, 2), (3, 3), (5, 2)):
            pr = GroupParams(p, n)
            for i in range(n + 1):
                lat = permutation_lattice(pr, i)
                for j in range(n + 1):
                    assert tate_h1(lat, j).is_zero()

    def test_full_rank_ideal_levels(self):
        pr = GroupParams(3, 2)
        lat = mab_lattice(pr, 1, 1)
        h1 = tate_h1(lat, 1)
        h2 = tate_h1(lat, 2)
        assert snf_invariants(h1) == (3,)
        assert snf_invariants(h2) == (3,)
        assert recognize_standard_sum(h1.minimized()[0]) == {(1, 2): 1}
        assert recognize_standard_sum(h2.minimized()[0]) == {(1, 2): 1}

    def test_augmentation_type_ideal_levels(self):
        pr = GroupParams(3, 2)
        lat = mab_lattice(pr, 1, 0)
        h1 = tate_h1(lat, 1)
        h2 = tate_h1(lat, 2)
        assert h1.order_log() == 3
        assert recognize_standard_sum(h1.minimized()[0]) == {(1, 1): 1}
        assert h2.order_log() == 1
        assert recognize_standard_sum(h2.minimized()[0]) == {(1, 2): 1}

    def test_trivial_level_is_zero(self):
        pr = GroupParams(3, 2)
        assert tate_h1(mab_lattice(pr, 1, 1), 0).is_zero()

    def test_annihilated_by_level_order(self):
        pr = GroupParams(3, 3)
        for a, b in all_labels(3):
            lat = mab_lattice(pr, a, b)
            for j in range(4):
                assert tate_h1(lat, j).exponent_log() <= j


def _seeded_variants(params, rng):
    """Each library lattice, bare and with a seeded permutation summand
    under a seeded unimodular base change."""
    for a, b in all_labels(params.n):
        lat = mab_lattice(params, a, b)
        yield lat
        summed = direct_sum([lat, permutation_lattice(params, rng.randrange(params.n + 1))])
        yield random_unimodular_change(summed, rng.getrandbits(64))


class TestRelationsModuloLevelOrder:
    """Relations reduced modulo p^j equal the p-saturated form over Z."""

    def test_level_relations_equal_the_p_saturated_form(self):
        rng = random.Random(20261018)
        for p, n in ((3, 2), (3, 3), (5, 2)):
            pr = GroupParams(p, n)
            for lat in _seeded_variants(pr, rng):
                for j in range(1, n + 1):
                    basis = intmat.kernel(lat.norm_matrix(j), ncols=lat.rank)
                    raw = intmat.solve_exact(basis, lat.moved_matrix(j))
                    assert tate_h1(lat, j).relations == intmat.hnf_p_saturated(raw, p)
                    fixed = intmat.kernel(lat.moved_matrix(j), ncols=lat.rank)
                    raw = intmat.solve_exact(fixed, lat.norm_matrix(j))
                    assert tate_h0(lat, j).relations == intmat.hnf_p_saturated(raw, p)

    def test_saturation_takes_no_smith_form(self, monkeypatch):
        # H^1 relations reach the module constructor already saturated, b > 0
        # ideals are reduced modulo p^a and b = 0 ideals have a closed form;
        # none of them runs a Smith form
        rng = random.Random(7)
        cases = {}
        for p, n in ((3, 2), (3, 3), (5, 2)):
            pr = GroupParams(p, n)
            cases[pr] = list(_seeded_variants(pr, rng))
        calls, saturating = [], []
        snf, saturate = intmat.snf, intmat.hnf_p_saturated

        def counting_snf(a):
            if saturating:
                calls.append(intmat.shape(a))
            return snf(a)

        def marked_saturate(cols, p):
            saturating.append(True)
            try:
                return saturate(cols, p)
            finally:
                saturating.pop()

        monkeypatch.setattr(intmat, "snf", counting_snf)
        monkeypatch.setattr(intmat, "hnf_p_saturated", marked_saturate)
        for pr, lattices in cases.items():
            for lat in lattices:
                for j in range(1, pr.n + 1):
                    tate_h1(lat, j)
        assert calls == []
        monkeypatch.setattr(intmat, "hnf_p_saturated", saturate)
        saturating.append(True)  # count every Smith form of the ideal builds
        for pr in cases:
            for a, b in all_labels(pr.n):
                mab_lattice(pr, a, b)
        assert calls == []


class TestZerothCohomology:
    def test_regular_lattice_has_none(self):
        pr = GroupParams(3, 2)
        lat = permutation_lattice(pr, 0)
        for j in range(3):
            assert tate_h0(lat, j).is_zero()

    def test_trivial_lattice_gives_full_cyclic_group(self):
        for p, n in ((3, 2), (5, 2)):
            pr = GroupParams(p, n)
            lat = permutation_lattice(pr, n)
            for j in range(1, n + 1):
                assert snf_invariants(tate_h0(lat, j)) == (p**j,)
            assert tate_h0(lat, 0).is_zero()

    def test_balanced_orders_for_full_rank_ideals(self):
        # rationally free lattices have equal-size cohomology on each level
        pr = GroupParams(3, 2)
        for a, b in all_labels(2):
            if b == 0:
                continue
            lat = mab_lattice(pr, a, b)
            for j in range(3):
                assert tate_h0(lat, j).order_log() == tate_h1(lat, j).order_log()


class TestFixedRank:
    def test_matches_orbit_counts(self):
        pr = GroupParams(3, 2)
        for i in range(3):
            lat = permutation_lattice(pr, i)
            for j in range(3):
                assert fixed_rank(lat, j) == 3 ** (2 - max(i, j))

    def test_augmentation_kernel_profile(self):
        pr = GroupParams(3, 2)
        lat = mab_lattice(pr, 2, 0)
        assert [fixed_rank(lat, j) for j in range(3)] == [8, 2, 0]


class TestLevelMaps:
    def test_index_bounds(self):
        pr = GroupParams(3, 2)
        lat = mab_lattice(pr, 1, 1)
        for bad in (0, 3, -1):
            with pytest.raises(ValueError):
                down_map(lat, bad)
            with pytest.raises(ValueError):
                up_map(lat, bad)

    def test_bottom_rung_touches_zero_level(self):
        pr = GroupParams(3, 2)
        lat = mab_lattice(pr, 1, 1)
        d = down_map(lat, 1)
        u = up_map(lat, 1)
        assert d.target.is_zero()
        assert u.source.is_zero()
        assert d.is_zero_map() and u.is_zero_map()

    def test_down_map_is_iso_inside_window(self):
        # level 2 of the (1, 1) ideal maps isomorphically one step down
        pr = GroupParams(3, 2)
        lat = mab_lattice(pr, 1, 1)
        d = down_map(lat, 2)
        assert d.source.order_log() == d.target.order_log() == 1
        assert d.is_surjective()

    def test_up_then_down_is_multiplication_by_p(self):
        pr = GroupParams(3, 2)
        for a, b in all_labels(2):
            lat = mab_lattice(pr, a, b)
            for i in range(2, 3):
                d = down_map(lat, i)
                u = up_map(lat, i)
                comp = u.compose(d)
                scal = GammaMap(
                    comp.source,
                    comp.target,
                    intmat.mat_scale(3, intmat.identity(comp.source.gens)),
                )
                assert comp.equals_mod(scal)

    def test_down_then_up_is_relative_norm(self):
        pr = GroupParams(3, 2)
        for a, b in all_labels(2):
            lat = mab_lattice(pr, a, b)
            for i in range(2, 3):
                d = down_map(lat, i)
                u = up_map(lat, i)
                comp = d.compose(u)
                low = comp.source
                step = 3 ** (2 - i)
                norm = intmat.zeros(low.gens, low.gens)
                for k in range(3):
                    norm = intmat.mat_add(norm, low.action_power(k * step))
                assert comp.equals_mod(GammaMap(low, low, norm))


class TestValidatedOnce:
    """Validation moved to the minimized forms: cheaper, and no weaker."""

    def test_h1_action_faults_are_still_caught(self, monkeypatch):
        # a single-entry change to an H^1 action is rejected by tate_h1, which
        # checks the minimized form only, exactly when a check of the raw
        # presentation rejects it (level 1 has exponent 3, so +3 is harmless)
        pr = GroupParams(3, 2)
        good = tate_h1(mab_lattice(pr, 1, 0), 1)
        solve = intmat.solve_factored
        verdicts = set()
        for r, c, delta in itertools.product(range(good.gens), range(good.gens), (1, 3)):
            bad = [row[:] for row in good.action]
            bad[r][c] += delta
            try:
                FiniteGammaModule(pr, good.gens, good.relations, bad)
            except ValueError:
                raw_ok = False
            else:
                raw_ok = True
            lat = mab_lattice(pr, 1, 0)
            calls = []

            def faulty(factor, b):
                x = solve(factor, b)
                calls.append(x)
                if len(calls) == 2:  # _h1_data solves the relations, then the action
                    x[r][c] += delta
                return x

            with monkeypatch.context() as patch:
                patch.setattr(intmat, "solve_factored", faulty)
                try:
                    tate_h1(lat, 1)
                except ValueError:
                    h1_ok = False
                else:
                    h1_ok = True
            assert len(calls) == 2
            assert h1_ok == raw_ok, (r, c, delta)
            verdicts.add(raw_ok)
        assert verdicts == {True, False}

    def test_each_rung_map_is_checked_once(self, monkeypatch):
        checked = []
        original = GammaMap._validate

        def counting(self):
            checked.append(self)
            return original(self)

        monkeypatch.setattr(GammaMap, "_validate", counting)
        diag = yakovlev_diagram(mab_lattice(GroupParams(3, 3), 1, 1))
        rungs = diag.ups + diag.downs
        assert len(checked) == len(rungs)
        assert {id(m) for m in checked} == {id(m) for m in rungs}

    def test_corrupted_rung_map_fails_the_diagram_check(self):
        pr = GroupParams(3, 2)
        good = yakovlev_diagram(mab_lattice(pr, 2, 0))
        assert good.level_invariants() == ((3,), (9,))
        up = good.up(1)
        bad_matrix = [[up.matrix[0][0] + 1]]  # 3 * image is no longer 0 mod 9
        bad_up = GammaMap(up.source, up.target, bad_matrix, _trusted=True)
        tampered = diagrams.YakovlevDiagram(pr, good.levels, [bad_up], good.downs)
        assert not diagrams.validate_diagram(tampered)
        with pytest.raises(diagrams.DiagramError):
            diagrams._check_diagram(tampered)
        assert diagrams.validate_diagram(good)

    @pytest.mark.parametrize("build", [up_map, down_map])
    def test_public_rung_maps_still_raise(self, build, monkeypatch):
        lat = mab_lattice(GroupParams(3, 2), 2, 0)
        for j in (1, 2):  # build the levels before the fault
            tate_h1(lat, j)
        solve = intmat.solve_factored

        def off_by_one(factor, b):
            x = solve(factor, b)
            x[0][0] += 1
            return x

        monkeypatch.setattr(intmat, "solve_factored", off_by_one)
        with pytest.raises(InvariantError):
            build(lat, 2)


class TestOneFactorizationPerLevel:
    def test_each_kernel_basis_is_factored_once_per_diagram(self, monkeypatch):
        # the level's relations, its action and the up and down maps into it
        # all solve against one row Hermite form of its kernel basis
        original = intmat.row_hnf
        factored = []

        def recording(a):
            factored.append([row[:] for row in a])
            return original(a)

        for p, n, label, perm in ((3, 3, (1, 1), None), (3, 3, (2, 0), 1), (5, 2, (1, 0), 0)):
            pr = GroupParams(p, n)
            lat = mab_lattice(pr, *label)
            if perm is not None:
                lat = random_unimodular_change(direct_sum([lat, permutation_lattice(pr, perm)]), 3)
            factored.clear()
            with monkeypatch.context() as patch:
                patch.setattr(intmat, "row_hnf", recording)
                yakovlev_diagram(lat)
            bases = [cohomology._h1_data(lat, j)[1] for j in range(1, n + 1)]
            bases = [basis for basis in bases if basis is not None]
            assert len(bases) == n
            for basis in bases:
                assert sum(1 for a in factored if a == basis) == 1, (p, n, label)


class TestDiagram:
    def test_validates_and_matches_library(self):
        pr = GroupParams(3, 2)
        for a, b in all_labels(2):
            lat = mab_lattice(pr, a, b)
            diag = yakovlev_diagram(lat)
            assert diagrams.validate_diagram(diag)
            assert (
                diagrams.diagram_isomorphic(
                    diag, diagrams.library_diagram(pr, {(a, b): 1})
                )
                is diagrams.IsoResult.YES
            )

    def test_respects_direct_sums(self):
        pr = GroupParams(3, 2)
        m = mab_lattice(pr, 1, 0)
        nlat = mab_lattice(pr, 1, 1)
        combined = yakovlev_diagram(direct_sum([m, nlat]))
        stacked = diagrams.diagram_direct_sum(
            [yakovlev_diagram(m), yakovlev_diagram(nlat)]
        )
        assert diagrams.diagram_isomorphic(combined, stacked) is diagrams.IsoResult.YES

    def test_ignores_base_change_and_permutation_padding(self):
        pr = GroupParams(3, 2)
        base = mab_lattice(pr, 2, 0)
        target = yakovlev_diagram(base)
        padded = direct_sum([base, permutation_lattice(pr, 1)])
        twisted = random_unimodular_change(padded, 77)
        assert (
            diagrams.diagram_isomorphic(yakovlev_diagram(twisted), target)
            is diagrams.IsoResult.YES
        )


class TestCohomologicalTriviality:
    def test_free_lattices_are_trivial(self):
        pr = GroupParams(3, 2)
        free = permutation_lattice(pr, 0)
        assert is_cohomologically_trivial(free)
        assert is_cohomologically_trivial(direct_sum([free, free]))

    def test_trivial_action_lattice_is_not(self):
        # the rank-one lattice has vanishing degree -1 groups but a full
        # cyclic degree 0 group on every level
        pr = GroupParams(3, 2)
        assert not is_cohomologically_trivial(permutation_lattice(pr, 2))

    def test_library_lattices_are_not(self):
        pr = GroupParams(3, 2)
        for a, b in all_labels(2):
            assert not is_cohomologically_trivial(mab_lattice(pr, a, b))
