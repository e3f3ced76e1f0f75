"""Level towers of cohomology modules: validation, isomorphism, subtraction."""

import copy
import dataclasses
import pickle

import pytest

from cyclat import intmat
from cyclat.cohomology import yakovlev_diagram
from cyclat.diagrams import (
    DiagramError,
    IsoResult,
    SubtractResult,
    Unresolved,
    YakovlevDiagram,
    diagram_direct_sum,
    diagram_isomorphic,
    indecomposability_certificate,
    library_diagram,
    library_level_type,
    subtract_library,
    validate_diagram,
    zero_diagram,
)
from cyclat.finmod import FiniteGammaModule, GammaMap, NotStandard
from cyclat.groupring import GroupParams
from cyclat.lattices import direct_sum, mab_lattice, permutation_lattice


def all_labels(n):
    return [(a, b) for a in range(1, n + 1) for b in range(0, n + 1 - a)]


class TestLevelTypes:
    def test_window_formula(self):
        # below the torsion window the level keeps the coefficient size i,
        # inside and above it saturates at a
        assert library_level_type(1, 1, 1) == (1, 2)
        assert library_level_type(1, 1, 2) == (1, 2)
        assert library_level_type(2, 0, 1) == (1, 2)
        assert library_level_type(2, 0, 2) == (2, 2)
        assert library_level_type(1, 0, 1) == (1, 1)

    def test_matches_constructed_diagrams(self):
        for p, n in ((3, 1), (3, 2), (3, 3)):
            pr = GroupParams(p, n)
            for a, b in all_labels(n):
                diag = yakovlev_diagram(mab_lattice(pr, a, b))
                lib = library_diagram(pr, {(a, b): 1})
                for i in range(1, n + 1):
                    assert (
                        diag.level(i).invariants() == lib.level(i).invariants()
                    )


class TestValidation:
    def test_constructed_diagrams_validate(self):
        pr = GroupParams(3, 2)
        for a, b in all_labels(2):
            assert validate_diagram(yakovlev_diagram(mab_lattice(pr, a, b)))
        assert validate_diagram(zero_diagram(pr))

    def test_broken_composite_fails_quietly(self):
        # zeroing an up map breaks "up then down = multiplication by p"
        # on a level of exponent 9, without touching structural shape
        pr = GroupParams(3, 2)
        good = library_diagram(pr, {(2, 0): 1})
        bad_ups = [GammaMap.zero(good.level(1), good.level(2))]
        tampered = YakovlevDiagram(pr, good.levels, bad_ups, good.downs)
        assert not validate_diagram(tampered)
        assert validate_diagram(good)

    def test_composites_through_a_zero_level(self):
        # a composite through a zero level is zero, so it must still equal
        # p on the upper level and the relative norm on the lower one
        pr = GroupParams(3, 2)
        zero = FiniteGammaModule.zero(pr)

        def two_levels(lower, upper):
            return YakovlevDiagram(
                pr, [lower, upper], [GammaMap.zero(lower, upper)], [GammaMap.zero(upper, lower)]
            )

        assert validate_diagram(two_levels(zero, FiniteGammaModule.standard(pr, 1, 2)))
        assert not validate_diagram(two_levels(zero, FiniteGammaModule.standard(pr, 2, 2)))
        assert validate_diagram(two_levels(FiniteGammaModule.standard(pr, 1, 2), zero))
        assert not validate_diagram(two_levels(FiniteGammaModule.standard(pr, 1, 1), zero))

    def test_sigma_must_preserve_each_level_relation_span(self):
        # Z^2 modulo the columns (1, 2), (0, 3) is Z/3, and s_1 = sigma^3
        # fixes it, so only the relation-span clause catches that sigma
        # moves the relation (1, 2) to (-6, -4), outside the span
        pr = GroupParams(3, 2)
        relations = [[1, 0], [2, 3]]
        sigma = [[-2, -2], [0, -2]]
        level = FiniteGammaModule(pr, 2, relations, sigma, _trusted=True)
        with pytest.raises(ValueError, match="action does not preserve the relation span"):
            level._validate()
        zero = FiniteGammaModule.zero(pr)
        ladder = YakovlevDiagram(
            pr, [level, zero], [GammaMap.zero(level, zero)], [GammaMap.zero(zero, level)]
        )
        assert level.exponent_log() == 1
        assert level.is_zero_mat(intmat.mat_sub(level.action_power(3), intmat.identity(2)))
        assert not validate_diagram(ladder)

    def test_structural_mismatch_raises_on_construction(self):
        pr = GroupParams(3, 2)
        good = library_diagram(pr, {(1, 1): 1})
        with pytest.raises(ValueError):
            YakovlevDiagram(pr, good.levels, [], good.downs)
        with pytest.raises(ValueError):
            YakovlevDiagram(pr, good.levels[:1], good.ups, good.downs)


class TestDirectSum:
    def test_orders_add_and_validation_holds(self):
        pr = GroupParams(3, 2)
        d1 = library_diagram(pr, {(1, 0): 1})
        d2 = library_diagram(pr, {(1, 1): 1})
        total = diagram_direct_sum([d1, d2])
        assert (
            total.total_order_log()
            == d1.total_order_log() + d2.total_order_log()
        )
        assert validate_diagram(total)

    def test_zero_summand_is_neutral(self):
        pr = GroupParams(3, 2)
        d = library_diagram(pr, {(2, 0): 1})
        padded = diagram_direct_sum([d, zero_diagram(pr)])
        assert diagram_isomorphic(padded, d) is IsoResult.YES

    def test_equals_multiset_library_diagram(self):
        pr = GroupParams(3, 2)
        stacked = diagram_direct_sum(
            [library_diagram(pr, {(1, 1): 1}), library_diagram(pr, {(1, 1): 1})]
        )
        assert (
            diagram_isomorphic(stacked, library_diagram(pr, {(1, 1): 2}))
            is IsoResult.YES
        )


class TestIsomorphism:
    def test_reflexive_on_library(self):
        for p, n in ((3, 1), (3, 2), (3, 3)):
            pr = GroupParams(p, n)
            for a, b in all_labels(n):
                d = library_diagram(pr, {(a, b): 1})
                assert diagram_isomorphic(d, d) is IsoResult.YES

    def test_symmetric(self):
        pr = GroupParams(3, 2)
        d1 = yakovlev_diagram(mab_lattice(pr, 1, 1))
        d2 = library_diagram(pr, {(1, 1): 1})
        assert diagram_isomorphic(d1, d2) is IsoResult.YES
        assert diagram_isomorphic(d2, d1) is IsoResult.YES

    def test_distinguishes_library_labels(self):
        pr = GroupParams(3, 2)
        seen = {}
        for a, b in all_labels(2):
            seen[(a, b)] = library_diagram(pr, {(a, b): 1})
        labels = list(seen)
        for i, la in enumerate(labels):
            for lb in labels[i + 1 :]:
                assert diagram_isomorphic(seen[la], seen[lb]) is IsoResult.NO

    def test_never_yes_on_different_orders(self):
        pr = GroupParams(3, 2)
        d1 = library_diagram(pr, {(1, 0): 1})
        d2 = library_diagram(pr, {(1, 0): 2})
        assert d1.total_order_log() != d2.total_order_log()
        assert diagram_isomorphic(d1, d2) is IsoResult.NO

    @pytest.mark.parametrize("budget", [-1, -(10**6)])
    def test_negative_budget_rejected(self, budget):
        d = library_diagram(GroupParams(3, 2), {(1, 1): 1})
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            diagram_isomorphic(d, d, budget=budget)

    def test_zero_budget_is_valid(self):
        pr = GroupParams(3, 2)
        d1 = yakovlev_diagram(mab_lattice(pr, 1, 1))
        d2 = library_diagram(pr, {(1, 1): 1})
        assert diagram_isomorphic(d1, d2, budget=0) is IsoResult.YES
        assert diagram_isomorphic(d1, library_diagram(pr, {(1, 0): 1}), budget=0) is IsoResult.NO

    def test_mismatched_group_parameters_rejected(self):
        d1 = zero_diagram(GroupParams(3, 1))
        d2 = zero_diagram(GroupParams(3, 2))
        with pytest.raises(ValueError):
            diagram_isomorphic(d1, d2)


class TestIndecomposability:
    def test_library_diagrams_are_certified(self):
        for p, n in ((3, 1), (3, 2), (3, 3), (5, 2)):
            pr = GroupParams(p, n)
            for a, b in all_labels(n):
                assert indecomposability_certificate(
                    library_diagram(pr, {(a, b): 1})
                )

    def test_doubled_label_is_not(self):
        pr = GroupParams(3, 2)
        assert not indecomposability_certificate(
            library_diagram(pr, {(1, 0): 2})
        )

    def test_zero_diagram_is_vacuously_certified(self):
        assert indecomposability_certificate(zero_diagram(GroupParams(3, 2)))


class TestSubtraction:
    def test_pure_power_multiset(self):
        pr = GroupParams(3, 2)
        result = subtract_library(library_diagram(pr, {(1, 1): 3}))
        assert result.fully_resolved
        assert result.extracted == {(1, 1): 3}
        assert result.remainder.is_zero()

    def test_mixed_multiset(self):
        pr = GroupParams(3, 2)
        diag = diagram_direct_sum(
            [
                yakovlev_diagram(mab_lattice(pr, 1, 0)),
                yakovlev_diagram(mab_lattice(pr, 1, 1)),
            ]
        )
        result = subtract_library(diag)
        assert result.fully_resolved
        assert result.extracted == {(1, 0): 1, (1, 1): 1}
        assert result.remainder.is_zero()

    def test_invisible_lattice_leaves_nothing(self):
        pr = GroupParams(3, 2)
        result = subtract_library(yakovlev_diagram(permutation_lattice(pr, 0)))
        assert result.fully_resolved
        assert result.extracted == {}
        assert result.remainder.is_zero()

    def test_round_trip_random_multisets(self):
        import random

        rng = random.Random(20260822)
        for p, n in ((3, 1), (3, 2), (3, 3)):
            pr = GroupParams(p, n)
            labels = all_labels(n)
            for _ in range(4):
                ms = {}
                for lab in rng.sample(labels, min(2, len(labels))):
                    ms[lab] = rng.randrange(1, 3)
                result = subtract_library(library_diagram(pr, ms))
                assert result.fully_resolved
                assert result.extracted == ms

    def test_negative_budget_rejected(self):
        diag = library_diagram(GroupParams(3, 2), {(1, 1): 3})
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            subtract_library(diag, budget=-5)
        # rejected before recognition, also for a diagram that would not match
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            subtract_library(zero_diagram(GroupParams(3, 2)), budget=-1)

    def test_zero_budget_is_valid(self):
        result = subtract_library(library_diagram(GroupParams(3, 2), {(1, 1): 3}), budget=0)
        assert result.fully_resolved
        assert result.extracted == {(1, 1): 3}

    def test_unresolved_sentinel_contract(self):
        stuck = SubtractResult({}, Unresolved)
        assert not stuck.fully_resolved
        assert not Unresolved
        assert repr(Unresolved) == "Unresolved"
        # singleton: re-instantiation returns the same object
        assert type(Unresolved)() is Unresolved


SENTINELS = [(NotStandard, "NotStandard"), (Unresolved, "Unresolved")]


class TestSentinels:
    """Both markers share one singleton class; callers test them with ``is``."""

    @pytest.mark.parametrize("sentinel, name", SENTINELS)
    def test_repr_is_the_name(self, sentinel, name):
        assert repr(sentinel) == name

    @pytest.mark.parametrize("sentinel, name", SENTINELS)
    def test_falsy(self, sentinel, name):
        assert not sentinel
        assert type(sentinel)() is sentinel

    @pytest.mark.parametrize("sentinel, name", SENTINELS)
    def test_deepcopy_is_identity(self, sentinel, name):
        assert copy.deepcopy(sentinel) is sentinel
        assert copy.deepcopy({"r": [sentinel]})["r"][0] is sentinel

    @pytest.mark.parametrize("sentinel, name", SENTINELS)
    def test_pickle_is_identity(self, sentinel, name):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(sentinel, protocol)) is sentinel

    def test_distinct(self):
        assert NotStandard is not Unresolved
        assert type(NotStandard) is not type(Unresolved)

    def test_asdict_keeps_the_unresolved_remainder(self):
        # asdict deep-copies the remainder field
        record = dataclasses.asdict(SubtractResult({}, Unresolved))
        assert record["remainder"] is Unresolved
        assert pickle.loads(pickle.dumps(SubtractResult({}, Unresolved))).remainder is Unresolved
