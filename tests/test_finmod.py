"""Finite modules with group action: canonical forms and recognition."""

import itertools
import random

import pytest

from cyclat import intmat
from cyclat.finmod import (
    FiniteGammaModule,
    GammaMap,
    InvariantError,
    NotStandard,
    gamma_generator_indices,
    module_direct_sum,
    recognize_standard_sum,
    snf_invariants,
    standard_sum,
)
from cyclat.groupring import GroupParams


def all_labels(params):
    return [
        (a, j)
        for a in range(1, params.n + 1)
        for j in range(0, params.n + 1)
    ]


def scramble(module, seed):
    """Re-present the module on a randomly changed generating basis."""
    rng = random.Random(seed)
    g = module.gens
    if g == 0:
        return module
    u = intmat.identity(g)
    for _ in range(3 * g + 5):
        k = rng.randrange(g)
        l = rng.randrange(g)
        if k == l:
            continue
        coeff = rng.choice((-2, -1, 1, 2))
        for idx in range(g):
            u[l][idx] += coeff * u[k][idx]
    uinv = intmat.unimodular_inverse(u)
    relations = intmat.mat_mul(u, module.relations)
    action = intmat.mat_mul(intmat.mat_mul(u, module.action), uinv)
    return FiniteGammaModule(module.params, g, relations, action)


# ---------------------------------------------------------------------------
# brute-force oracle: decide which multiset of cyclic-coefficient blocks a
# small module is isomorphic to, by explicit surjection search
# ---------------------------------------------------------------------------


def enumerate_elements(moduli):
    return itertools.product(*(range(m) for m in moduli))


def oracle_admits_surjection(module, multiset):
    """Whether a sum of blocks given by ``multiset`` surjects onto ``module``.

    For equal orders that is the same as isomorphism.  Works on the
    minimized presentation and tries every choice of block-generator image
    satisfying the block's torsion and fixedness constraints.
    """
    p, n = module.params.p, module.params.n
    mod = module.minimized()[0]
    moduli = list(mod.invariants())
    g = len(moduli)
    if g == 0:
        return not multiset
    relations = mod.relations
    full_log = mod.order_log()

    def constrained_elements(a, j):
        out = []
        stab = mod.action_power(p ** (n - j))
        for vec in enumerate_elements(moduli):
            v = list(vec)
            if any(mod.reduce_vec([p**a * x for x in v])):
                continue
            moved = intmat.mat_vec(stab, v)
            diff = [moved[i] - v[i] for i in range(g)]
            if any(mod.reduce_vec(diff)):
                continue
            out.append(v)
        return out

    labels = []
    for (a, j), mult in sorted(multiset.items()):
        labels.extend([(a, j)] * mult)
    pools = [constrained_elements(a, j) for a, j in labels]
    for choice in itertools.product(*pools):
        cols = []
        for (a, j), v in zip(labels, choice):
            w = list(v)
            for _ in range(p ** (n - j)):
                cols.append(list(w))
                w = intmat.mat_vec(mod.action, w)
        stacked = intmat.hstack(
            [[col[i] for col in cols] for i in range(g)], relations
        )
        cokernel = sum(
            intmat.p_valuation(d, p) for d in intmat.snf_diagonal(stacked)
        )
        if cokernel == 0:
            return True
    return False


def oracle_recognize(module, max_summands=3):
    """All multisets of blocks of the right order that surject onto module."""
    p, n = module.params.p, module.params.n
    target_log = module.order_log()
    label_logs = [
        ((a, j), a * p ** (n - j))
        for a in range(1, n + 1)
        for j in range(0, n + 1)
    ]
    found = []

    def extend(idx, remaining, current):
        if remaining == 0:
            ms = {}
            for lab in current:
                ms[lab] = ms.get(lab, 0) + 1
            if oracle_admits_surjection(module, ms):
                found.append(ms)
            return
        if idx == len(label_logs) or len(current) == max_summands:
            return
        lab, log = label_logs[idx]
        extend(idx + 1, remaining, current)
        if log <= remaining:
            extend(idx, remaining - log, current + [lab])

    extend(0, target_log, [])
    return found


class TestInvariants:
    def test_standard_block_invariants(self):
        pr = GroupParams(3, 2)
        assert snf_invariants(FiniteGammaModule.standard(pr, 2, 1)) == (9, 9, 9)
        assert snf_invariants(FiniteGammaModule.standard(pr, 1, 2)) == (3,)
        assert snf_invariants(FiniteGammaModule.zero(pr)) == ()

    def test_direct_sum_concatenates_invariants(self):
        pr = GroupParams(3, 2)
        a = FiniteGammaModule.standard(pr, 2, 2)
        b = FiniteGammaModule.standard(pr, 1, 2)
        assert snf_invariants(module_direct_sum([a, b])) == (9, 3)

    def test_order_and_exponent_logs(self):
        pr = GroupParams(3, 2)
        m = FiniteGammaModule.standard(pr, 2, 1)
        assert m.order_log() == 6
        assert m.exponent_log() == 2
        assert FiniteGammaModule.zero(pr).order_log() == 0

    def test_presentation_independence(self):
        pr = GroupParams(3, 2)
        base = standard_sum(pr, {(2, 1): 1, (1, 2): 1})
        for seed in range(5):
            assert snf_invariants(scramble(base, seed)) == snf_invariants(base)


class TestStandardSum:
    def test_empty_multiset_is_zero(self):
        pr = GroupParams(3, 1)
        assert standard_sum(pr, {}).is_zero()

    def test_block_sizes(self):
        pr = GroupParams(3, 2)
        m = standard_sum(pr, {(1, 0): 1, (2, 2): 2})
        assert m.gens == 9 + 1 + 1
        assert m.order_log() == 9 + 2 + 2

    def test_rejects_out_of_range_labels(self):
        pr = GroupParams(3, 2)
        with pytest.raises(ValueError):
            standard_sum(pr, {(0, 1): 1})
        with pytest.raises(ValueError):
            standard_sum(pr, {(3, 1): 1})
        with pytest.raises(ValueError):
            standard_sum(pr, {(1, 3): 1})


class TestRecognition:
    def test_round_trip_single_blocks(self):
        for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2)):
            pr = GroupParams(p, n)
            for a, j in all_labels(pr):
                m = standard_sum(pr, {(a, j): 1})
                assert recognize_standard_sum(m) == {(a, j): 1}

    def test_round_trip_single_blocks_large_group(self):
        pr = GroupParams(5, 3)
        labels = [(a, j) for a, j in all_labels(pr) if j >= 1]
        labels.append((1, 0))  # one rank-125 block as a scale check
        for a, j in labels:
            m = standard_sum(pr, {(a, j): 1})
            assert recognize_standard_sum(m) == {(a, j): 1}

    def test_round_trip_composites(self):
        pr = GroupParams(3, 2)
        cases = [
            {(1, 0): 1, (1, 1): 1},
            {(2, 1): 1, (1, 2): 2},
            {(1, 1): 3},
            {(2, 2): 1, (1, 0): 1},
            {(1, 2): 1, (2, 1): 1, (1, 1): 1},
        ]
        for ms in cases:
            assert recognize_standard_sum(standard_sum(pr, ms)) == ms

    def test_mixed_coefficients_example(self):
        pr = GroupParams(3, 2)
        m = standard_sum(pr, {(2, 1): 1, (1, 2): 1})
        assert recognize_standard_sum(m) == {(2, 1): 1, (1, 2): 1}

    def test_zero_module_recognized_as_empty(self):
        pr = GroupParams(3, 2)
        assert recognize_standard_sum(FiniteGammaModule.zero(pr)) == {}

    def test_non_block_module_reports_sentinel(self):
        # Z/9 with trivial action at n = 1: torsion exponent exceeds every
        # available coefficient exponent, so no block sum matches
        pr = GroupParams(3, 1)
        m = FiniteGammaModule.from_invariant_relations(pr, [9], [[1]])
        assert recognize_standard_sum(m) is NotStandard
        assert not NotStandard

    def test_scrambled_presentations_recognized(self):
        pr = GroupParams(3, 2)
        cases = [
            {(1, 1): 1},
            {(1, 2): 2},
            {(2, 2): 1},
            {(1, 1): 1, (1, 2): 1},
        ]
        for seed in range(20):
            ms = cases[seed % len(cases)]
            scrambled = scramble(standard_sum(pr, ms), seed)
            recognized = recognize_standard_sum(scrambled)
            assert recognized == ms
            # independent confirmation by exhaustive surjection search:
            # exactly one multiset of blocks fits
            assert oracle_recognize(scrambled) == [ms]


class TestMinimization:
    def test_minimized_preserves_isomorphism_data(self):
        pr = GroupParams(3, 2)
        m = standard_sum(pr, {(1, 1): 1, (2, 2): 1})
        mm, to_min, from_min = m.minimized()
        assert mm.gens == len(mm.invariants())
        assert mm.invariants() == m.invariants()
        assert recognize_standard_sum(mm) == {(1, 1): 1, (2, 2): 1}
        # the two transport matrices invert each other modulo relations
        round_trip = intmat.mat_mul(to_min, from_min)
        for c in range(mm.gens):
            diff = [
                round_trip[r][c] - (1 if r == c else 0) for r in range(mm.gens)
            ]
            assert not any(mm.reduce_vec(diff))

    def test_quotient_order_grid(self):
        pr = GroupParams(3, 2)
        m = FiniteGammaModule.standard(pr, 2, 1)
        # killing p^a and the order-p^j subgroup action leaves
        # (Z/p^min(a,2))[orbit space]
        assert m.quotient_order_log(2, 1) == 6
        assert m.quotient_order_log(1, 1) == 3
        assert m.quotient_order_log(2, 2) == 2
        assert m.quotient_order_log(1, 0) == 3


    @pytest.mark.parametrize(
        "n, modulus, unit, ok",
        [
            (1, 9, 4, True),  # 4^3 = 64 = 1 mod 9
            (1, 9, 2, False),  # 2^3 = 8 mod 9
            (3, 27, 4, True),  # 4 has order 9 mod 27, and 9 | 27
            (1, 27, 4, False),  # 4^3 = 10 mod 27
            (2, 3**20, 3**19 + 1, True),  # order 3 mod 3^20
            (1, 3**20, 3**18 + 1, False),  # order 9 mod 3^20
        ],
    )
    def test_sigma_order_check(self, n, modulus, unit, ok):
        pr = GroupParams(3, n)
        if ok:
            FiniteGammaModule(pr, 1, [[modulus]], [[unit]])
        else:
            with pytest.raises(ValueError):
                FiniteGammaModule(pr, 1, [[modulus]], [[unit]])

    def test_minimized_rejects_action_that_breaks_relations(self):
        # e_0 is a relation (zero in the module), but sigma sends it to e_0 + e_1,
        # which is not; the invariant-factor form drops e_0, so only the
        # transport can see the fault
        pr = GroupParams(3, 1)
        relations = [[1, 0], [0, 3]]
        action = [[1, 0], [1, 1]]
        with pytest.raises(ValueError):
            FiniteGammaModule(pr, 2, relations, action)
        raw = FiniteGammaModule(pr, 2, relations, action, _trusted=True)
        with pytest.raises(ValueError):
            raw.minimized()


class TestGeneratorCount:
    def test_block_sums_need_one_generator_per_block(self):
        pr = GroupParams(3, 2)
        for ms in ({(1, 1): 1}, {(1, 1): 2}, {(2, 2): 1, (1, 0): 1}):
            m = standard_sum(pr, ms)
            idx = gamma_generator_indices(m)
            assert len(idx) == sum(ms.values())

    def test_indices_generate_the_module(self):
        pr = GroupParams(3, 2)
        m = scramble(standard_sum(pr, {(1, 1): 1, (1, 2): 1}), 99)
        idx = gamma_generator_indices(m)
        p = pr.p
        cols = []
        for i in idx:
            v = [1 if r == i else 0 for r in range(m.gens)]
            for _ in range(pr.order):
                cols.append(v)
                v = intmat.mat_vec(m.action, v)
        stacked = intmat.hstack(
            [[c[r] for c in cols] for r in range(m.gens)], m.relations
        )
        cokernel = sum(intmat.p_valuation(d, p) for d in intmat.snf_diagonal(stacked))
        assert cokernel == 0

    def test_zero_module_has_no_generators(self):
        pr = GroupParams(3, 1)
        assert gamma_generator_indices(FiniteGammaModule.zero(pr)) == []


class TestGammaMap:
    def test_zero_map_and_identity(self):
        pr = GroupParams(3, 1)
        m = FiniteGammaModule.standard(pr, 1, 0)
        z = GammaMap.zero(m, m)
        assert z.is_zero_map()
        ident = GammaMap(m, m, intmat.identity(m.gens))
        assert ident.is_surjective()
        assert ident.image_order_log() == m.order_log()

    def test_rejects_non_equivariant_matrix(self):
        pr = GroupParams(3, 1)
        m = FiniteGammaModule.standard(pr, 1, 0)
        swap_two = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        with pytest.raises(InvariantError):
            GammaMap(m, m, swap_two)

    def test_rejects_relation_violation(self):
        pr = GroupParams(3, 2)
        src = FiniteGammaModule.standard(pr, 1, 2)  # killed by 3
        tgt = FiniteGammaModule.standard(pr, 2, 2)  # killed by 9
        with pytest.raises(InvariantError):
            GammaMap(src, tgt, [[1]])  # 3 * image != 0
        GammaMap(src, tgt, [[3]])  # scaled copy is fine

    def test_compose_and_image_order(self):
        pr = GroupParams(3, 2)
        m = FiniteGammaModule.standard(pr, 2, 2)
        triple = GammaMap(m, m, [[3]])
        assert triple.image_order_log() == 1
        assert triple.compose(triple).is_zero_map()
        assert not triple.is_surjective()

    def test_action_map_is_automorphism(self):
        pr = GroupParams(3, 2)
        m = standard_sum(pr, {(1, 1): 1, (1, 2): 1})
        shift = GammaMap(m, m, m.action)
        assert shift.is_surjective()

    def test_compose_requires_the_same_middle_module(self):
        pr = GroupParams(3, 2)
        first = FiniteGammaModule.standard(pr, 1, 2)
        second = FiniteGammaModule.standard(pr, 1, 2)  # same shape, other object
        f = GammaMap(first, first, [[1]])
        g = GammaMap(second, second, [[1]])
        with pytest.raises(ValueError):
            g.compose(f)
        assert f.compose(f).equals_mod(f)

    def test_compose_through_zero_module(self):
        pr = GroupParams(3, 2)
        m = standard_sum(pr, {(1, 1): 2})
        nothing = standard_sum(pr, {})
        collapse = GammaMap.zero(m, nothing)
        include = GammaMap.zero(nothing, m)
        comp = include.compose(collapse)
        assert comp.source is m and comp.target is m
        assert comp.is_zero_map()
        assert len(comp.matrix) == m.gens
        assert all(len(row) == m.gens for row in comp.matrix)


def _direct_quotient_order_log(module, a, j):
    """log_p |M / (p^a M + (s_j - 1) M)| from one Smith form of the stacked
    relations [R | p^a I | S_j - I], independent of ``level_divisors``."""
    p, n, g = module.params.p, module.params.n, module.gens
    if g == 0:
        return 0
    moved = intmat.mat_sub(module.action_power(p ** (n - j)), intmat.identity(g))
    stacked = intmat.hstack(
        intmat.hstack(module.relations, intmat.mat_scale(p**a, intmat.identity(g))), moved
    )
    return sum(intmat.p_valuation(d, p) for d in intmat.snf_diagonal(stacked))


class TestLevelDivisors:
    def _modules(self):
        pr = GroupParams(3, 2)
        yield standard_sum(pr, {(1, 0): 1, (2, 1): 1, (1, 2): 2})
        yield scramble(standard_sum(pr, {(2, 1): 1, (1, 1): 1}), 7)
        # not standard: Z/9 with sigma = 4 (order 3 mod 9)
        yield FiniteGammaModule(pr, 1, [[9]], [[4]])
        # F_3[x]/(x - 1)^2, a Jordan block
        yield FiniteGammaModule(pr, 2, [[3, 0], [0, 3]], [[1, 1], [0, 1]])
        # exponent 3^3 above p^n
        yield FiniteGammaModule.from_invariant_relations(pr, [27, 3], [[1, 0], [0, 1]])
        yield FiniteGammaModule.zero(pr)

    def test_quotient_orders_match_the_stacked_smith_form(self):
        for m in self._modules():
            n = m.params.n
            for j in range(n + 1):
                for a in range(n + 2):
                    assert m.quotient_order_log(a, j) == _direct_quotient_order_log(m, a, j)

    def test_level_zero_is_the_abelian_invariants(self):
        for m in self._modules():
            assert m.level_divisors(0) == tuple(sorted(m.invariants()))
            assert sum(
                intmat.p_valuation(d, 3) for d in m.level_divisors(0)
            ) == m.order_log()

    def test_standard_module_counts(self):
        # (Z/p^a)[Gamma/Gamma_j'] has p^(n - max(j, j')) divisors p^a at level j
        pr = GroupParams(3, 3)
        for a, jp in all_labels(pr):
            m = FiniteGammaModule.standard(pr, a, jp)
            for j in range(pr.n + 1):
                assert m.level_divisors(j) == (3**a,) * 3 ** (pr.n - max(j, jp))

    def test_rejects_level_outside_range(self):
        m = FiniteGammaModule.standard(GroupParams(3, 2), 1, 1)
        with pytest.raises(ValueError):
            m.level_divisors(3)
        with pytest.raises(ValueError):
            m.quotient_order_log(1, -1)

    def test_at_most_one_smith_diagonal_per_level(self, monkeypatch):
        calls = []
        original = intmat.snf_diagonal

        def counting(a):
            calls.append(intmat.shape(a))
            return original(a)

        monkeypatch.setattr(intmat, "snf_diagonal", counting)
        pr = GroupParams(3, 2)
        m = scramble(standard_sum(pr, {(1, 0): 1, (2, 1): 1, (1, 2): 1}), 3)
        n = pr.n
        m.invariants()
        m.exponent_log()
        for a in range(n + 2):
            for j in range(n + 1):
                m.quotient_order_log(a, j)
        m.coinvariants_order_log()
        assert recognize_standard_sum(m) == {(1, 0): 1, (2, 1): 1, (1, 2): 1}
        gamma_generator_indices(m)
        assert len(calls) <= n + 1


class TestExponentAboveGroupOrder:
    """Modules killed by no p^a with a <= n: recognition counts every
    divisor p^a with a >= n at a = n, and the confirmation rejects them."""

    def test_induced_module_with_large_coefficients(self):
        # (Z/9)[Gamma] at n = 1: three copies of Z/9 permuted cyclically
        pr = GroupParams(3, 1)
        shift = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        m = FiniteGammaModule.from_invariant_relations(pr, [9, 9, 9], shift)
        assert m.exponent_log() == 2
        assert m.invariants() == (9, 9, 9)
        assert [m.quotient_order_log(1, j) for j in range(2)] == [3, 1]
        assert [m.quotient_order_log(2, j) for j in range(2)] == [6, 2]
        assert recognize_standard_sum(m) is NotStandard

    def test_standard_summand_plus_large_cyclic(self):
        # F_3 (label (1, 2)) plus Z/27 with trivial action, at n = 2
        pr = GroupParams(3, 2)
        m = FiniteGammaModule.from_invariant_relations(pr, [3, 27], [[1, 0], [0, 1]])
        for j in range(pr.n + 1):
            assert m.quotient_order_log(pr.n, j) == 1 + 2
            assert m.quotient_order_log(pr.n + 1, j) == 1 + 3
        assert recognize_standard_sum(m) is NotStandard

    def test_exponent_exactly_p_to_the_n_is_recognized(self):
        pr = GroupParams(3, 2)
        m = FiniteGammaModule.from_invariant_relations(pr, [3, 9], [[1, 0], [0, 1]])
        assert [m.quotient_order_log(pr.n, j) for j in range(3)] == [3, 3, 3]
        assert recognize_standard_sum(m) == {(1, 2): 1, (2, 2): 1}


class TestShapeErrors:
    def test_ragged_relations_raise_value_error(self):
        pr = GroupParams(3, 2)
        with pytest.raises(ValueError, match="same length"):
            FiniteGammaModule(pr, 2, [[3, 0], [0]], intmat.identity(2))

    def test_ragged_map_matrix_reports_its_row_lengths(self):
        m = FiniteGammaModule.standard(GroupParams(3, 1), 1, 0)
        with pytest.raises(ValueError, match=r"got 3 rows of lengths \[2, 3\]"):
            GammaMap(m, m, [[1, 0, 0], [0, 1], [0, 0, 1]])
        with pytest.raises(ValueError, match="got 2 x 3"):
            GammaMap(m, m, [[1, 0, 0], [0, 1, 0]])
