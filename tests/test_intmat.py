"""Exact integer linear algebra, cross-checked against sympy normal forms."""

import itertools
import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from cyclat import intmat


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


SHAPES = [(1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (4, 6), (5, 3), (2, 2)]


def sympy_det(mat):
    return int(sympy.Matrix(mat).det())


class TestSmithForm:
    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(20260822)
        for trial in range(40):
            rows, cols = SHAPES[trial % len(SHAPES)]
            a = random_matrix(rng, rows, cols)
            d, u, v = intmat.snf(a)
            assert intmat.mat_mul(intmat.mat_mul(u, a), v) == d
            assert sympy_det(u) in (1, -1)
            assert sympy_det(v) in (1, -1)
            mine = intmat.snf_diagonal(a)
            ref = smith_normal_form(sympy.Matrix(a))
            ref_diag = [
                abs(int(ref[i, i]))
                for i in range(min(rows, cols))
                if int(ref[i, i]) != 0
            ]
            assert mine == ref_diag

    def test_divisibility_chain_and_nonnegativity(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_matrix(rng, 4, 5)
            divs = intmat.snf_diagonal(a)
            assert all(x > 0 for x in divs)
            for x, y in zip(divs, divs[1:]):
                assert y % x == 0

    def test_zero_and_identity(self):
        assert intmat.snf_diagonal(intmat.zeros(3, 4)) == []
        assert intmat.snf_diagonal(intmat.identity(4)) == [1, 1, 1, 1]


class TestHermiteForm:
    def test_row_hnf_transform_and_echelon_shape(self):
        rng = random.Random(11)
        for trial in range(30):
            rows, cols = SHAPES[trial % len(SHAPES)]
            a = random_matrix(rng, rows, cols)
            h, t = intmat.row_hnf(a)
            assert intmat.mat_mul(t, a) == h
            assert sympy_det(t) in (1, -1)
            assert sum(1 for row in h if any(row)) == sympy.Matrix(a).rank()
            # echelon: pivot columns strictly increase, pivots positive,
            # entries above each pivot reduced into [0, pivot)
            last_col = -1
            for row in h:
                piv_col = next((j for j, x in enumerate(row) if x), None)
                if piv_col is None:
                    continue
                assert piv_col > last_col
                last_col = piv_col
                piv = row[piv_col]
                assert piv > 0
                for other in h:
                    if other is row:
                        break
                    assert 0 <= other[piv_col] < piv

    def test_col_hnf_transform(self):
        rng = random.Random(13)
        for _ in range(10):
            a = random_matrix(rng, 4, 3)
            h, w = intmat.col_hnf(a)
            assert intmat.mat_mul(a, w) == h
            assert sympy_det(w) in (1, -1)

    def test_rank_matches_sympy(self):
        rng = random.Random(17)
        for _ in range(20):
            a = random_matrix(rng, 4, 5, lo=-3, hi=3)
            assert intmat.rank(a) == sympy.Matrix(a).rank()


class TestKernel:
    def test_kernel_annihilates_and_has_full_dimension(self):
        rng = random.Random(23)
        for _ in range(20):
            rows, cols = SHAPES[rng.randrange(len(SHAPES))]
            a = random_matrix(rng, rows, cols, lo=-4, hi=4)
            k = intmat.kernel(a)
            dim = len(k[0]) if k and k[0] else 0
            assert dim == cols - sympy.Matrix(a).rank()
            if dim:
                assert intmat.is_zero_mat(intmat.mat_mul(a, k))

    def test_kernel_is_saturated(self):
        # every rational kernel vector, scaled primitive, lies in the
        # integer span of the returned basis
        rng = random.Random(29)
        for _ in range(10):
            a = random_matrix(rng, 3, 5, lo=-3, hi=3)
            k = intmat.kernel(a)
            for vec in sympy.Matrix(a).nullspace():
                denom = sympy.lcm([sympy.fraction(x)[1] for x in vec])
                ivec = [int(x * denom) for x in vec]
                g = 0
                for x in ivec:
                    g = sympy.gcd(g, x)
                prim = [x // int(g) for x in ivec]
                assert intmat.in_colspan(k, prim)

    def test_empty_matrix_requires_ncols(self):
        with pytest.raises(ValueError):
            intmat.kernel([])
        assert intmat.kernel([], ncols=3) == intmat.identity(3)


class TestSolveExact:
    def test_recovers_unique_solution(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randrange(1, 4)
            m = n + rng.randrange(0, 3)
            while True:
                a = random_matrix(rng, m, n, lo=-5, hi=5)
                if sympy.Matrix(a).rank() == n:
                    break
            x = random_matrix(rng, n, 2, lo=-7, hi=7)
            b = intmat.mat_mul(a, x)
            assert intmat.solve_exact(a, b) == x

    def test_rejects_non_integer_solution(self):
        with pytest.raises(ValueError):
            intmat.solve_exact([[2], [0]], [[1], [0]])

    def test_rejects_inconsistent_system(self):
        with pytest.raises(ValueError):
            intmat.solve_exact([[2], [0]], [[4], [1]])

    def test_rejects_column_rank_deficiency(self):
        with pytest.raises(ValueError):
            intmat.solve_exact([[1, 2], [2, 4]], [[1], [2]])


class TestExpressInColspan:
    def test_membership_round_trip(self):
        rng = random.Random(37)
        for _ in range(20):
            a = random_matrix(rng, 4, 3, lo=-4, hi=4)
            x = [rng.randint(-5, 5) for _ in range(3)]
            b = intmat.mat_vec(a, x)
            sol = intmat.express_in_colspan(a, b)
            assert sol is not None
            assert intmat.mat_vec(a, sol) == b

    def test_rejects_outside_vector(self):
        a = [[2, 0], [0, 2]]
        assert intmat.express_in_colspan(a, [1, 0]) is None
        assert intmat.in_colspan(a, [2, -4])


class TestPSaturatedForm:
    def test_unit_factor_is_stripped(self):
        # columns (2,0) and (0,3): the prime-to-3 factor 2 is invertible
        # locally, so the pivots come out as (1, 3)
        out = intmat.hnf_p_saturated([[2, 0], [0, 3]], 3)
        assert out == [[1, 0], [0, 3]]

    def test_identity_and_p_scalar_are_fixed_points(self):
        assert intmat.hnf_p_saturated(intmat.identity(3), 3) == intmat.identity(3)
        p_scalar = intmat.mat_scale(3, intmat.identity(4))
        assert intmat.hnf_p_saturated(p_scalar, 3) == p_scalar

    def test_idempotent_and_pivots_are_p_powers(self):
        rng = random.Random(41)
        for _ in range(20):
            a = random_matrix(rng, 4, rng.randrange(2, 7), lo=-6, hi=6)
            b = intmat.hnf_p_saturated(a, 3)
            assert intmat.hnf_p_saturated(b, 3) == b
            for divisor in intmat.snf_diagonal(b):
                assert divisor == intmat.p_part(divisor, 3)

    def test_saturation_contains_input_with_p_power_index(self):
        rng = random.Random(43)
        for _ in range(10):
            a = random_matrix(rng, 3, 4, lo=-6, hi=6)
            b = intmat.hnf_p_saturated(a, 3)
            ncols_b = len(b[0]) if b and b[0] else 0
            # input span sits inside the saturated span
            for j in range(4):
                col = [a[i][j] for i in range(3)]
                assert intmat.in_colspan(b, col)
            # each basis vector re-enters the input span after scaling by
            # the prime-to-3 part of the index, so nothing was added at 3
            index = 1
            for divisor in intmat.snf_diagonal(a):
                index *= divisor
            away_from_p = index // intmat.p_part(index, 3)
            for j in range(ncols_b):
                col = [away_from_p * b[i][j] for i in range(3)]
                assert intmat.in_colspan(a, col)


class TestHelpers:
    def test_mat_pow_agrees_with_repeated_product(self):
        a = [[1, 1], [0, 1]]
        acc = intmat.identity(2)
        for k in range(6):
            assert intmat.mat_pow(a, k) == acc
            acc = intmat.mat_mul(acc, a)

    def test_block_and_stack_shapes(self):
        b = intmat.block_diag([[[1]], [[2, 0], [0, 2]]])
        assert b == [[1, 0, 0], [0, 2, 0], [0, 0, 2]]
        # rectangular and empty blocks
        r = intmat.block_diag([[[5]], [], [[1, 1, 0], [0, 1, 1]]])
        assert r == [[5, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
        assert intmat.hstack([[1], [2]], [[3], [4]]) == [[1, 3], [2, 4]]
        assert intmat.vstack([[1, 2]], [[3, 4]]) == [[1, 2], [3, 4]]

    def test_p_valuation_and_p_part(self):
        assert intmat.p_valuation(54, 3) == 3
        assert intmat.p_part(54, 3) == 27
        assert intmat.p_part(8, 3) == 1

    def test_unimodular_inverse_round_trip(self):
        u = [[2, 1], [1, 1]]
        inv = intmat.unimodular_inverse(u)
        assert intmat.mat_mul(u, inv) == intmat.identity(2)
        with pytest.raises(ValueError):
            intmat.unimodular_inverse([[2, 0], [0, 1]])


def naive_mul(a, b):
    """Reference product by the textbook triple loop."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for row in a
    ]


class TestMatMul:
    def test_matches_triple_loop_on_seeded_matrices(self):
        rng = random.Random(20261018)
        big = 2**70
        for trial in range(60):
            rows, inner, cols = (rng.randint(0, 7) for _ in range(3))
            density = rng.choice((0.0, 0.1, 0.5, 1.0))
            pick = rng.choice(
                (
                    lambda: rng.choice((-1, 1)),
                    lambda: rng.randint(-9, 9),
                    lambda: rng.randint(-big, big),
                )
            )

            def entry():
                return pick() if rng.random() < density else 0

            a = [[entry() for _ in range(inner)] for _ in range(rows)]
            b = [[entry() for _ in range(cols)] for _ in range(inner)]
            if rows and rng.random() < 0.3:
                a[rng.randrange(rows)] = [0] * inner  # an all-zero row
            assert intmat.mat_mul(a, b) == naive_mul(a, b)

    def test_large_negative_entries(self):
        x = -(2**65) - 3
        a = [[x, 1], [0, -1]]
        b = [[x, 0], [2, x]]
        assert intmat.mat_mul(a, b) == [[x * x + 2, x], [-2, -x]]

    def test_empty_shapes(self):
        assert intmat.mat_mul([], [[1, 2], [3, 4]]) == []  # 0 x k
        assert intmat.mat_mul([[], []], []) == [[], []]  # k x 0 times []
        assert intmat.mat_mul([[1, 2]], [[], []]) == [[]]  # zero-column b
        assert intmat.mat_mul([], []) == []

    def test_inner_dimension_truncates(self):
        # like zip, a row longer than b stops at the last row of b
        assert intmat.mat_mul([[1, 2, 3]], [[4], [5]]) == [[14]]

    def test_mat_pow_matches_repeated_products(self):
        rng = random.Random(5)
        for size in (0, 1, 3, 5):
            a = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(size)] for _ in range(size)]
            acc = intmat.identity(size)
            for k in range(9):
                assert intmat.mat_pow(a, k) == acc
                acc = naive_mul(acc, a)


class TestPivotColumnsModP:
    @staticmethod
    def in_span_mod_p(cols, v, p):
        """Brute force: v is an F_p-combination of cols."""
        for coeffs in itertools.product(range(p), repeat=len(cols)):
            if all(
                (sum(c * col[i] for c, col in zip(coeffs, cols)) - v[i]) % p == 0
                for i in range(len(v))
            ):
                return True
        return False

    def test_matches_brute_force_span_membership(self):
        rng = random.Random(11)
        for p in (2, 3, 5):
            for rows, cols in [(1, 4), (2, 4), (3, 5), (4, 3), (3, 3)]:
                for _ in range(6):
                    a = random_matrix(rng, rows, cols, -6, 6)
                    columns = [list(c) for c in zip(*a)]
                    want = [
                        c for c in range(cols)
                        if not self.in_span_mod_p(columns[:c], columns[c], p)
                    ]
                    assert intmat.pivot_columns_mod_p(a, p) == want

    def test_empty_and_zero_mod_p(self):
        assert intmat.pivot_columns_mod_p([], 3) == []
        assert intmat.pivot_columns_mod_p([[], []], 3) == []
        assert intmat.pivot_columns_mod_p([[3, 6], [9, 0]], 3) == []
        assert intmat.pivot_columns_mod_p(intmat.identity(3), 5) == [0, 1, 2]
