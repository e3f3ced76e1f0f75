"""Group-ring elements over a cyclic p-group, their norm sums, and sigma acting
through a matrix on lattices and modules."""

import random

import pytest

from cyclat import intmat
from cyclat.cohomology import tate_h1
from cyclat.diagrams import _library_labels, library_diagram
from cyclat.finmod import FiniteGammaModule
from cyclat.groupring import (
    GroupParams,
    GroupRingElt,
    coset_shift,
    norm_element,
    relative_norm_element,
)
from cyclat.lattices import (
    GammaLattice,
    direct_sum,
    group_ring_lattice,
    mab_lattice,
    permutation_lattice,
    random_unimodular_change,
)


class TestGroupParams:
    def test_accepts_odd_primes_only(self):
        GroupParams(3, 1)
        GroupParams(5, 2)
        for bad in (2, 4, 9, 1, -3):
            with pytest.raises(ValueError):
                GroupParams(bad, 1)
        with pytest.raises(ValueError):
            GroupParams(3, 0)
        with pytest.raises(TypeError):
            GroupParams(3.0, 1)
        with pytest.raises(TypeError):
            GroupParams(True, 1)

    def test_order_and_subgroup_bookkeeping(self):
        pr = GroupParams(3, 2)
        assert pr.order == 9
        assert [pr.subgroup_order(j) for j in range(3)] == [1, 3, 9]
        assert pr.subgroup_generator_exponent(1) == 3
        assert pr.subgroup_generator_exponent(2) == 1
        with pytest.raises(ValueError):
            pr.subgroup_order(3)
        with pytest.raises(ValueError):
            pr.subgroup_generator_exponent(0)


class TestNormElement:
    def test_trivial_subgroup_gives_ring_identity(self):
        for pr in (GroupParams(3, 1), GroupParams(3, 2), GroupParams(5, 2)):
            assert norm_element(pr, 0) == GroupRingElt.one(pr)

    def test_full_group_norm_at_order_three(self):
        pr = GroupParams(3, 1)
        assert norm_element(pr, 1).coeffs == (1, 1, 1)

    def test_augmentation_is_subgroup_order(self):
        for p, n in ((3, 1), (3, 2), (3, 3), (5, 2)):
            pr = GroupParams(p, n)
            for j in range(n + 1):
                assert norm_element(pr, j).augmentation() == p**j

    def test_coefficients_indicator_of_subgroup(self):
        pr = GroupParams(3, 2)
        elt = norm_element(pr, 1)
        # order-3 subgroup of the order-9 cycle: exponents 0, 3, 6
        assert elt.coeffs == (1, 0, 0, 1, 0, 0, 1, 0, 0)

    def test_rejects_out_of_range_index(self):
        pr = GroupParams(3, 2)
        with pytest.raises(ValueError):
            norm_element(pr, 3)
        with pytest.raises(ValueError):
            norm_element(pr, -1)


class TestRelativeNormElement:
    def test_augmentation_is_p(self):
        for p, n in ((3, 2), (5, 2)):
            pr = GroupParams(p, n)
            for i in range(1, n + 1):
                assert relative_norm_element(pr, i).augmentation() == p

    def test_product_telescopes_to_full_norm(self):
        # stacking the relative norms down the subgroup chain gives the
        # full subgroup norm
        pr = GroupParams(3, 2)
        acc = GroupRingElt.one(pr)
        for i in range(1, 3):
            acc = relative_norm_element(pr, i) * acc
            assert acc == norm_element(pr, i)


class TestGroupRingElt:
    def test_multiplication_follows_exponent_addition(self):
        pr = GroupParams(3, 1)
        s = GroupRingElt.sigma_power
        assert s(pr, 1) * s(pr, 2) == s(pr, 0)
        assert s(pr, 2) * s(pr, 2) == s(pr, 1)
        assert 2 * s(pr, 1) == GroupRingElt(pr, (0, 2, 0))

    def test_to_matrix_is_multiplication_operator(self):
        pr = GroupParams(3, 1)
        x = GroupRingElt(pr, (1, 2, 0))
        y = GroupRingElt(pr, (0, 1, 1))
        via_matrix = intmat.mat_vec(x.to_matrix(), list(y.coeffs))
        assert tuple(via_matrix) == (x * y).coeffs

    def test_rejects_mixed_parameters_and_bad_coeffs(self):
        a = GroupRingElt.one(GroupParams(3, 1))
        b = GroupRingElt.one(GroupParams(3, 2))
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            GroupRingElt(GroupParams(3, 1), (1, 0))
        with pytest.raises(TypeError):
            GroupRingElt(GroupParams(3, 1), (1, 0, True))


# -- sigma acting through a matrix ---------------------------------------------


def _sigma_subjects(pr):
    """(name, factory) pairs; each factory builds a fresh object, so a fresh
    power cache: lattices, library levels, H^1 levels and a twisted level."""
    n = pr.n
    lattices = [("perm0", permutation_lattice(pr, 0)), (f"perm{n}", permutation_lattice(pr, n))]
    lattices += [(f"({a},{b})", mab_lattice(pr, a, b)) for a, b in _library_labels(n)]
    lattices.append(
        (
            "changed",
            random_unimodular_change(
                direct_sum([mab_lattice(pr, 1, n - 1), permutation_lattice(pr, 1)]), 7
            ),
        )
    )
    modules = [
        (f"library{labels}_level{i + 1}", level)
        for labels in ({(1, n - 1): 1}, {(n, 0): 1, (1, 0): 2})
        for i, level in enumerate(library_diagram(pr, labels).levels)
    ]
    for name, lat in lattices[2:]:
        modules += [(f"h1{name}_level{j}", tate_h1(lat, j)) for j in range(1, n + 1)]
    h1 = tate_h1(mab_lattice(pr, 1, n - 1), n)
    modules.append(
        (
            "twisted",
            FiniteGammaModule(pr, h1.gens, h1.relations, intmat.mat_pow(h1.action, 2)),
        )
    )
    subjects = [
        (name, lambda lat=lat: GammaLattice(pr, lat.action, _trusted=True))
        for name, lat in lattices
    ]
    subjects += [
        (
            name,
            lambda m=m: FiniteGammaModule(pr, m.gens, m.relations, m.action, _trusted=True),
        )
        for name, m in modules
    ]
    return subjects


class TestSigmaAction:
    """One power cache, one s_j - I and one relative norm for lattices and modules."""

    @pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2)])
    def test_powers_match_mat_pow_in_every_order(self, p, n):
        pr = GroupParams(p, n)
        order = pr.order
        rng = random.Random(p * 10 + n)
        shuffled = list(range(order))
        rng.shuffle(shuffled)
        orders = [list(range(order)), list(range(order))[::-1], shuffled]
        for name, build in _sigma_subjects(pr):
            action = build().action
            expected = [intmat.mat_pow(action, k) if action else [] for k in range(order)]
            for ks in orders:
                subject = build()
                for k in ks:
                    assert subject.action_power(k) == expected[k], (name, k)
                assert subject.action_power(order) == expected[0], name
                assert subject.action_power(-1) == expected[order - 1], name

    def test_each_branch_is_taken(self, monkeypatch):
        pr = GroupParams(3, 3)
        lat = random_unimodular_change(mab_lattice(pr, 1, 1), 3)
        expected = {k: intmat.mat_pow(lat.action, k) for k in range(27)}
        calls = []
        real_mul, real_pow = intmat.mat_mul, intmat.mat_pow
        depth = [0]

        def spy_mul(a, b):
            if not depth[0]:
                calls.append("mul")
            return real_mul(a, b)

        def spy_pow(a, k):
            calls.append(("pow", k))
            depth[0] += 1
            try:
                return real_pow(a, k)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(intmat, "mat_mul", spy_mul)
        monkeypatch.setattr(intmat, "mat_pow", spy_pow)
        subject = GammaLattice(pr, lat.action, _trusted=True)
        steps = [
            # s_1 = s_2^3 and s_2 = s_3^3: the chain of p-th powers down from sigma
            (9, [("pow", 1), ("pow", 3), ("pow", 3)]),
            (10, ["mul"]),  # one past a cached power
            (11, ["mul"]),
            (5, [("pow", 5)]),  # neither
            (15, [("pow", 3)]),  # a multiple of p: the cube of the cached 5
            (18, ["mul", ("pow", 3)]),  # 6 is one past 5, and 18 = 6^3
            (2, ["mul"]),  # one past 1, cached on the way to 9
            (24, [("pow", 8), ("pow", 3)]),  # 24 = 8^3, and 8 is neither
            (20, [("pow", 20)]),
            (21, ["mul"]),
            (9, []),
        ]
        for k, branch in steps:
            calls.clear()
            assert subject.action_power(k) == expected[k], k
            assert calls == branch, k

    @pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2)])
    def test_moved_and_relative_norm_are_the_power_sums(self, p, n):
        # the power sums the ladder check formed before they moved here
        pr = GroupParams(p, n)
        for name, build in _sigma_subjects(pr):
            subject = build()
            g = len(subject.action)
            if not g:
                continue
            ident = intmat.identity(g)
            for j in range(n + 1):
                s = intmat.mat_pow(subject.action, p ** (n - j))
                assert subject.moved_matrix(j) == intmat.mat_sub(s, ident), (name, j)
            cols = [[(r * 7 + c * 3) % 5 - 2 for c in range(3)] for r in range(g)]
            for i in range(1, n + 1):
                norm = intmat.zeros(g, g)
                for k in range(p):
                    norm = intmat.mat_add(norm, intmat.mat_pow(subject.action, k * p ** (n - i)))
                assert subject.apply_relative_norm(i, ident) == norm, (name, i)
                assert subject.apply_relative_norm(i, cols) == intmat.mat_mul(norm, cols)
            with pytest.raises(ValueError):
                subject.apply_relative_norm(0, ident)

    def test_zero_rank_subjects(self):
        pr = GroupParams(3, 2)
        for subject in (GammaLattice(pr, []), FiniteGammaModule.zero(pr)):
            assert subject.action_power(4) == []
            assert subject.moved_matrix(1) == []
            assert subject.apply_relative_norm(2, []) == []


class TestCosetShift:
    @pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_matches_the_shift_matrices(self, p, n):
        pr = GroupParams(p, n)
        order = pr.order
        # the regular representation, as the lattices wrote it out
        regular = [[1 if i == (j + 1) % order else 0 for j in range(order)] for i in range(order)]
        assert coset_shift(pr, 0) == regular
        assert coset_shift(pr, 0) == GroupRingElt.sigma_power(pr, 1).to_matrix()
        assert group_ring_lattice(pr).action == regular
        for j in range(n + 1):
            m = p ** (n - j)
            shift = [[1 if r == (c + 1) % m else 0 for c in range(m)] for r in range(m)]
            assert coset_shift(pr, j) == shift
            assert permutation_lattice(pr, j).action == shift
            assert FiniteGammaModule.standard(pr, 1, j).action == shift
            assert intmat.is_identity(intmat.mat_pow(shift, m))

    def test_rejects_levels_outside_the_tower(self):
        pr = GroupParams(3, 2)
        with pytest.raises(ValueError):
            coset_shift(pr, 3)
        with pytest.raises(ValueError):
            coset_shift(pr, -1)
        with pytest.raises(TypeError):
            coset_shift(pr, 1.0)
