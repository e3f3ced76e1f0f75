"""Integer lattices with a cyclic p-group action."""

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from cyclat import cohomology, diagrams, intmat
from cyclat.groupring import GroupParams, norm_element, relative_norm_element
from cyclat.lattices import (
    GammaLattice,
    direct_sum,
    fixed_sublattice,
    group_ring_lattice,
    ideal_generator_matrix,
    mab_lattice,
    permutation_lattice,
    random_unimodular_change,
)


def fixed_rank(lat, j):
    return fixed_sublattice(lat, j)[1]


def all_labels(n):
    return [(a, b) for a in range(1, n + 1) for b in range(0, n + 1 - a)]


class TestPermutationLattice:
    def test_rank_and_top_level(self):
        for p, n in ((3, 1), (3, 2), (3, 3), (5, 2)):
            pr = GroupParams(p, n)
            for i in range(n + 1):
                assert permutation_lattice(pr, i).rank == p ** (n - i)
            top = permutation_lattice(pr, n)
            assert top.rank == 1
            assert top.action == [[1]]

    def test_regular_representation_is_a_cycle(self):
        pr = GroupParams(3, 1)
        lat = permutation_lattice(pr, 0)
        assert lat.rank == 3
        assert lat.action == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        assert group_ring_lattice(pr).action == lat.action

    def test_fixed_ranks_count_orbits(self):
        for p, n in ((3, 2), (3, 3), (5, 2)):
            pr = GroupParams(p, n)
            for i in range(n + 1):
                lat = permutation_lattice(pr, i)
                for j in range(n + 1):
                    assert fixed_rank(lat, j) == p ** (n - max(i, j))


class TestMabLattice:
    def test_rank_formula(self):
        for p, n in ((3, 2), (3, 3), (5, 2)):
            pr = GroupParams(p, n)
            for a, b in all_labels(n):
                lat = mab_lattice(pr, a, b)
                expected = p**n if b else p**n - p ** (n - a)
                assert lat.rank == expected

    def test_small_frozen_ranks(self):
        pr = GroupParams(3, 2)
        assert mab_lattice(pr, 1, 0).rank == 6
        assert mab_lattice(pr, 1, 1).rank == 9

    def test_full_rank_ideal_quotient_order(self):
        # the ideal (p, sigma^{p^c} - 1) with (a, b) = (1, 1) at p = 3,
        # n = 2 has index 3 in the group ring: cross-checked by the Smith
        # form of the explicit generator matrix, independently of the
        # lattice code
        p, n, a = 3, 2, 1
        order = p**n
        shift = [[1 if r == (c + 1) % order else 0 for c in range(order)] for r in range(order)]
        torsion = intmat.mat_scale(p**a, intmat.identity(order))
        step = intmat.mat_sub(intmat.mat_pow(shift, p ** (n - 2)), intmat.identity(order))
        gens = sympy.Matrix(intmat.hstack(torsion, step))
        d = smith_normal_form(gens)
        index = 1
        for i in range(order):
            index *= abs(int(d[i, i]))
        assert index == 3

    @pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
    def test_b0_closed_form_is_the_saturated_hermite_form(self, p, n):
        # the columns e_k - e_(N-m+(k mod m)) are the p-saturated column
        # HNF of the generators sigma^k (sigma^m - 1), computed over Z
        pr = GroupParams(p, n)
        for a in range(1, n + 1):
            lat = mab_lattice(pr, a, 0)
            ref = intmat.hnf_p_saturated(ideal_generator_matrix(pr, n - a), p)
            assert lat.basis_in_group_ring == ref, (p, n, a)

    def test_parameter_validation(self):
        pr = GroupParams(3, 2)
        for bad in ((0, 0), (0, 1), (3, 0), (1, 2), (2, 1), (-1, 0)):
            with pytest.raises(ValueError):
                mab_lattice(pr, *bad)
        with pytest.raises(TypeError):
            mab_lattice(pr, 1.0, 0)


def norm_quotient_lattice(params):
    """Group ring modulo its norm line, built directly on the power basis.

    Basis: images of 1, sigma, ..., sigma^(p^n - 2); the generator sends
    the last one to minus the sum of all of them.
    """
    m = params.order - 1
    action = intmat.zeros(m, m)
    for c in range(m - 1):
        action[c + 1][c] = 1
    for r in range(m):
        action[r][m - 1] = -1
    return GammaLattice(params, action)


class TestAugmentationKernelLattice:
    def test_rank_and_trivial_fixed_part(self):
        for p, n in ((3, 1), (3, 2)):
            pr = GroupParams(p, n)
            lat = mab_lattice(pr, n, 0)
            assert lat.rank == p**n - 1
            assert fixed_rank(lat, n) == 0

    def test_matches_norm_quotient_lattice(self):
        # same rank and fixed-rank profile, and the same cohomology
        # diagram, as the group ring modulo its norm line
        for p, n in ((3, 1), (3, 2)):
            pr = GroupParams(p, n)
            ker_lat = mab_lattice(pr, n, 0)
            quo_lat = norm_quotient_lattice(pr)
            assert ker_lat.rank == quo_lat.rank
            for j in range(n + 1):
                assert (
                    fixed_rank(ker_lat, j)
                    == fixed_rank(quo_lat, j)
                )
            assert (
                diagrams.diagram_isomorphic(
                    cohomology.yakovlev_diagram(ker_lat),
                    cohomology.yakovlev_diagram(quo_lat),
                )
                is diagrams.IsoResult.YES
            )


class TestFixedSublattice:
    def test_regular_lattice_fixed_ranks(self):
        pr = GroupParams(3, 2)
        assert fixed_rank(permutation_lattice(pr, 0), 1) == 3

    def test_splits_over_direct_sums(self):
        pr = GroupParams(3, 2)
        m = mab_lattice(pr, 1, 0)
        nlat = permutation_lattice(pr, 1)
        both = direct_sum([m, nlat])
        for j in range(3):
            assert (
                fixed_rank(both, j)
                == fixed_rank(m, j) + fixed_rank(nlat, j)
            )

    def test_reports_trivial_action_on_result(self):
        pr = GroupParams(3, 2)
        fixed, rank = fixed_sublattice(permutation_lattice(pr, 0), 2)
        assert rank == 1
        assert intmat.is_identity(fixed.action)

    def test_rejects_bad_level(self):
        pr = GroupParams(3, 1)
        lat = permutation_lattice(pr, 0)
        with pytest.raises(ValueError):
            fixed_sublattice(lat, 2)


class TestDirectSumAndBaseChange:
    def test_direct_sum_rank_adds(self):
        pr = GroupParams(3, 2)
        a = mab_lattice(pr, 1, 1)
        b = permutation_lattice(pr, 2)
        assert direct_sum([a, b]).rank == a.rank + b.rank

    def test_direct_sum_rejects_mixed_parameters(self):
        a = permutation_lattice(GroupParams(3, 1), 0)
        b = permutation_lattice(GroupParams(3, 2), 0)
        with pytest.raises(ValueError):
            direct_sum([a, b])

    def test_base_change_preserves_rank_profile(self):
        pr = GroupParams(3, 2)
        base = direct_sum([mab_lattice(pr, 1, 1), permutation_lattice(pr, 1)])
        for seed in (0, 1, 2022):
            twisted = random_unimodular_change(base, seed)
            assert twisted.rank == base.rank
            for j in range(3):
                assert (
                    fixed_rank(twisted, j)
                    == fixed_rank(base, j)
                )

    def test_base_change_is_deterministic_per_seed(self):
        pr = GroupParams(3, 1)
        base = mab_lattice(pr, 1, 0)
        assert (
            random_unimodular_change(base, 5).action
            == random_unimodular_change(base, 5).action
        )
        assert (
            random_unimodular_change(base, 5).action
            != random_unimodular_change(base, 6).action
        )

    def test_base_change_preserves_diagram(self):
        pr = GroupParams(3, 2)
        base = mab_lattice(pr, 1, 1)
        target = cohomology.yakovlev_diagram(base)
        for seed in (10, 11):
            twisted = random_unimodular_change(base, seed)
            assert (
                diagrams.diagram_isomorphic(
                    cohomology.yakovlev_diagram(twisted), target
                )
                is diagrams.IsoResult.YES
            )


class TestAppliedNorms:
    """Norms and subgroup generators built down the chain match the formed ones."""

    @pytest.mark.parametrize("p, n", [(3, 3), (5, 2), (7, 2)])
    def test_match_products_of_formed_relative_norms(self, p, n):
        pr = GroupParams(p, n)
        lattices = [
            mab_lattice(pr, 1, 0),
            mab_lattice(pr, 1, 1),
            random_unimodular_change(
                direct_sum([mab_lattice(pr, 2, 0), permutation_lattice(pr, 1)]), 5
            ),
        ]
        for lat in lattices:
            norm = intmat.identity(lat.rank)
            for j in range(1, n + 1):
                s = intmat.mat_pow(lat.action, p ** (n - j))
                assert lat.action_power(p ** (n - j)) == s
                relative = intmat.identity(lat.rank)
                term = intmat.identity(lat.rank)
                for _ in range(p - 1):
                    term = intmat.mat_mul(term, s)
                    relative = intmat.mat_add(relative, term)
                assert lat.relative_norm_matrix(j) == relative
                norm = intmat.mat_mul(relative, norm)
                assert lat.norm_matrix(j) == norm


    @pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2), (7, 2)])
    def test_group_ring_norms_are_the_norm_elements(self, p, n):
        # the circulant of the group-ring element, formed coefficient by
        # coefficient, against the norms applied down the subgroup chain
        pr = GroupParams(p, n)
        lat = group_ring_lattice(pr)
        for j in range(n + 1):
            assert norm_element(pr, j).to_matrix() == lat.norm_matrix(j)
        for i in range(1, n + 1):
            assert relative_norm_element(pr, i).to_matrix() == lat.relative_norm_matrix(i)

    @pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2)])
    def test_norm_kernel_is_the_saturated_moved_image(self, p, n):
        # ker N_j is saturated and has the rank of im(s_j - 1) (the Tate
        # group between them is finite), so it is the saturation of that
        # image: the first rank columns of U^-1 for the Smith form U A V
        pr = GroupParams(p, n)
        lattices = [permutation_lattice(pr, i) for i in range(n + 1)]
        for k, (a, b) in enumerate(all_labels(n)):
            lat = mab_lattice(pr, a, b)
            summed = direct_sum([lat, permutation_lattice(pr, k % (n + 1))])
            lattices += [lat, random_unimodular_change(summed, k)]
        for lat in lattices:
            for j in range(1, n + 1):
                moved = lat.moved_matrix(j)
                d, u, _ = intmat.snf(moved)
                rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
                saturation = [row[:rank] for row in intmat.unimodular_inverse(u)]
                kernel = intmat.kernel(lat.norm_matrix(j), ncols=lat.rank)
                assert intmat.hnf_cols(kernel) == intmat.hnf_cols(saturation)


class TestActionContract:
    def test_generator_has_exact_p_power_order(self):
        for p, n in ((3, 1), (3, 2), (5, 2)):
            pr = GroupParams(p, n)
            built = [
                group_ring_lattice(pr),
                permutation_lattice(pr, 1),
                mab_lattice(pr, 1, 0),
                mab_lattice(pr, n, 0),
            ]
            for lat in built:
                assert intmat.is_identity(lat.action_power(p**n))

    def test_rejects_invalid_actions(self):
        pr = GroupParams(3, 1)
        with pytest.raises(ValueError):
            GammaLattice(pr, [[3]])  # determinant divisible by p
        with pytest.raises(ValueError):
            GammaLattice(pr, [[2]])  # finite order fails
        with pytest.raises(ValueError):
            GammaLattice(pr, [[1, 0]])  # not square
