"""Exact integer linear algebra, cross-checked against sympy normal forms."""

import hashlib
import itertools
import json
import random

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from cyclat import intmat


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def in_colspan(a, b):
    """Whether the column b lies in the integer column span of a."""
    return intmat.express_in_colspan(a, b) is not None


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


def snf_pin_corpus():
    """200 seeded matrices for the pinned Smith transforms: dense small-entry
    matrices of many shapes (many +-1 and zero entries), sparse ones with
    p-divisible and 40-bit entries, and lower-triangular p-power Hermite
    forms of the kind ``FiniteGammaModule.minimized`` factors."""
    rng = random.Random(20261019)
    for trial in range(200):
        kind = trial % 4
        rows, cols = rng.randrange(0, 7), rng.randrange(0, 7)
        if kind == 0:
            yield random_matrix(rng, rows, cols, -2, 2)
        elif kind == 1:
            yield random_matrix(rng, rows, cols)
        elif kind == 2:
            p = (3, 5, 7)[trial % 3]
            bound = 2**40 if trial % 8 == 2 else 4
            yield [
                [rng.choice((0, 0, 0, rng.randint(-bound, bound) * p ** rng.randrange(3)))
                 for _ in range(cols)]
                for _ in range(rows)
            ]
        else:
            p = (3, 5, 7)[trial % 3]
            m = rng.randrange(1, 9)
            e = rng.randrange(1, 4)
            gens = random_matrix(rng, m, rng.randrange(0, m + 2), -30, 30)
            yield intmat.hnf_mod_prime_power(gens, p, e)


# SHA-256 of the (D, U, V) that ``snf`` returned on ``snf_pin_corpus()``
# before its pivot scan stopped at the first unit and its divisibility
# sweep skipped unit pivots; equal digests mean the same pivot sequence.
SNF_PIN = "bc0fa85d401de5134853a6f9c5183f5fa4e3cef9c7d42163fbdc0d506bcb9204"


class TestSmithTransformsPinned:
    def test_transforms_on_the_seeded_corpus_are_unchanged(self):
        out = []
        for a in snf_pin_corpus():
            d, u, v = intmat.snf(a)
            assert intmat.mat_mul(intmat.mat_mul(u, a), v) == d
            out.append([d, u, v])
        text = json.dumps(out, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == SNF_PIN


def row_hnf_pin_corpus():
    """200 seeded matrices for the pinned Hermite transforms: dense small-entry
    matrices of many shapes, rank-deficient ones (last row a combination of
    the first two), sparse ones with p-divisible and 40-bit entries, and the
    transposed s - I of permutation actions, whose kernels the lattices take
    from T."""
    rng = random.Random(20261020)
    for trial in range(200):
        kind = trial % 4
        rows, cols = rng.randrange(0, 8), rng.randrange(0, 8)
        if kind == 0:
            yield random_matrix(rng, rows, cols, -2, 2)
        elif kind == 1:
            a = random_matrix(rng, rows, cols)
            if rows >= 3:
                a[-1] = [2 * x - y for x, y in zip(a[0], a[1])]
            yield a
        elif kind == 2:
            p = (3, 5, 7)[trial % 3]
            bound = 2**40 if trial % 8 == 2 else 4
            yield [
                [rng.choice((0, 0, 0, rng.randint(-bound, bound) * p ** rng.randrange(3)))
                 for _ in range(cols)]
                for _ in range(rows)
            ]
        else:
            k = rng.randrange(1, 10)
            perm = rng.sample(range(k), k)
            yield [[int(perm[c] == r) - int(c == r) for r in range(k)] for c in range(k)]


# SHA-256 of the (H, T) that ``row_hnf`` returned on ``row_hnf_pin_corpus()``
# when it still updated T in lockstep with H; kernel bases and factors come
# from T, so equal digests mean the same H^1 presentations.
ROW_HNF_PIN = "8f25268d50a82e7b5c380c356ef48d184193956b15e39884c28f321307aae284"


class TestHermiteTransformsPinned:
    def test_transforms_on_the_seeded_corpus_are_unchanged(self):
        out = []
        for a in row_hnf_pin_corpus():
            h, t = intmat.row_hnf(a)
            assert intmat.mat_mul(t, a) == h
            assert intmat.row_echelon(a) == [row for row in h if any(row)]
            out.append([h, t])
        text = json.dumps(out, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == ROW_HNF_PIN


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


def sparse_full_column_rank(rng, rows, cols):
    """A seeded rows x cols matrix of full column rank whose rows are mostly
    long runs of zeros: one or two nonzero entries each, some of them 2^70."""
    while True:
        a = intmat.zeros(rows, cols)
        for j, i in enumerate(rng.sample(range(rows), cols)):
            a[i][j] = rng.choice((1, -1, 2, 3, -5))
        for row in a:
            if rng.random() < 0.5:
                row[rng.randrange(cols)] = rng.choice((1, -1, 4, -6, 2**70))
        if sympy.Matrix(a).rank() == cols:
            return a


def row_hnf_by_sympy(a):
    """Row HNF of a full-column-rank a from sympy's column HNF (reversing
    both coordinates maps its convention onto this one)."""
    ref = hermite_normal_form(sympy.Matrix([row[::-1] for row in intmat.transpose(a)[::-1]]))
    ref = [[int(ref[i, j]) for j in range(ref.cols)] for i in range(ref.rows)]
    return intmat.transpose([row[::-1] for row in ref[::-1]])


class TestHermiteSparsePivotRows:
    """Row operations run over the nonzero entries of the pivot row only; the
    pivot rows here are long zero runs followed by a nonzero transform tail."""

    def test_row_hnf_against_sympy(self):
        rng = random.Random(20261021)
        for trial in range(12):
            cols = rng.randint(2, 9)
            a = sparse_full_column_rank(rng, cols + rng.randint(0, 6), cols)
            h, t = intmat.row_hnf(a)
            assert intmat.mat_mul(t, a) == h
            assert sympy_det(t) in (1, -1)
            assert h[:cols] == row_hnf_by_sympy(a)
            assert not any(any(row) for row in h[cols:])

    def test_tail_carries_every_operation(self):
        # [a | U] with a dense unimodular U as the tail: the tail must end up
        # T @ U for the T of row_hnf(a), zeros of the pivot rows skipped or not
        rng = random.Random(20261022)
        for trial in range(12):
            cols = rng.randint(2, 8)
            a = sparse_full_column_rank(rng, cols + rng.randint(0, 5), cols)
            m = len(a)
            u = intmat.identity(m)
            for _ in range(3 * m):
                i, k = rng.sample(range(m), 2)
                intmat._row_sub(u, i, k, rng.choice((1, -1, 2, -3)))
            rows = [ra + ru for ra, ru in zip(a, u)]
            assert intmat._hermite(rows, cols) == cols
            h, t = intmat.row_hnf(a)
            assert [row[:cols] for row in rows] == h
            assert [row[cols:] for row in rows] == intmat.mat_mul(t, u)


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
                assert in_colspan(k, prim)

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
        assert in_colspan(a, [2, -4])


def in_span_by_smith(a, b):
    """Integer column-span membership from the Smith form: U a V = D."""
    d, u, _ = intmat.snf(a)
    ub = [sum(x * y for x, y in zip(row, b)) for row in u]
    for i, y in enumerate(ub):
        piv = d[i][i] if i < len(d[0]) else 0
        if (piv == 0 and y) or (piv and y % piv):
            return False
    return True


class TestHnfCoordinates:
    """The many-column reduction against one Hermite form, per column."""

    def test_agrees_with_single_column_solve(self):
        rng = random.Random(53)
        for trial in range(40):
            rows, cols = SHAPES[trial % len(SHAPES)]
            a = random_matrix(rng, rows, cols, lo=-4, hi=4)
            if trial % 3 == 0 and cols >= 2:
                # rank deficient: the last column is a combination of two others
                for row in a:
                    row[-1] = 2 * row[0] - row[-2]
                assert sympy.Matrix(a).rank() < cols
            bs = [[0] * rows]  # zero right-hand side
            bs += [intmat.mat_vec(a, [rng.randint(-3, 3) for _ in range(cols)]) for _ in range(3)]
            bs += [[rng.randint(-5, 5) for _ in range(rows)] for _ in range(3)]
            many = intmat.hnf_coordinates(a, [], bs)
            assert many == [intmat.express_in_colspan(a, b) for b in bs]
            for b, x in zip(bs, many):
                assert (x is not None) == in_span_by_smith(a, b)
                if x is not None:
                    assert intmat.mat_vec(a, x) == b
            assert many[0] == [0] * cols

    def test_solves_modulo_the_relations(self):
        # reducing a and rel together gives the same elimination as the
        # column solve on [a | rel], restricted to a's coordinates
        rng = random.Random(59)
        reached = missed = 0
        for trial in range(40):
            rows, cols = SHAPES[trial % len(SHAPES)]
            if trial % 5 == 0:
                cols = 0
            a = random_matrix(rng, rows, cols, lo=-4, hi=4)
            rel = random_matrix(rng, rows, rng.randrange(1, 4), lo=-6, hi=6)
            both = intmat.hstack(a, rel)
            width = cols + len(rel[0])
            bs = [[0] * rows]
            bs += [intmat.mat_vec(both, [rng.randint(-3, 3) for _ in range(width)]) for _ in range(3)]
            bs += [[rng.randint(-5, 5) for _ in range(rows)] for _ in range(3)]
            for b, x in zip(bs, intmat.hnf_coordinates(a, rel, bs)):
                full = intmat.express_in_colspan(both, b)
                assert x == (None if full is None else full[:cols])
                reached += x is not None
                missed += x is None
        assert reached and missed

    def test_unreachable_columns_give_none(self):
        a = [[2, 4], [0, 6], [0, 0]]
        xs = intmat.hnf_coordinates(a, [], [[1, 0, 0], [0, 0, 1], [2, 6, 0], [0, 0, 0]])
        assert xs[0] is None  # pivot 2 does not divide 1
        assert xs[1] is None  # residue left in a zero row
        assert intmat.mat_vec(a, xs[2]) == [2, 6, 0] and xs[3] == [0, 0]

    def test_zero_column_matrix(self):
        for a in ([], [[], []]):
            assert intmat.hnf_coordinates(a, [], [[0, 0], [0, 1]]) == [[], None]
            assert intmat.express_in_colspan(a, [0, 0]) == []
            assert intmat.express_in_colspan(a, [1, 0]) is None

    def test_no_right_hand_sides(self):
        assert intmat.hnf_coordinates([[1, 2], [3, 4]], [], []) == []


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
                assert in_colspan(b, col)
            # each basis vector re-enters the input span after scaling by
            # the prime-to-3 part of the index, so nothing was added at 3
            index = 1
            for divisor in intmat.snf_diagonal(a):
                index *= divisor
            away_from_p = index // intmat.p_part(index, 3)
            for j in range(ncols_b):
                col = [away_from_p * b[i][j] for i in range(3)]
                assert in_colspan(a, col)


    @staticmethod
    def full_path(cols, p, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(intmat, "_is_p_saturated_hnf", lambda a, q: False)
            return intmat.hnf_p_saturated(cols, p)

    @staticmethod
    def saturated_hnf(rng, size, p):
        """Lower-triangular p-power diagonal, entries left of it in [0, d_i)."""
        a = intmat.zeros(size, size)
        for i in range(size):
            a[i][i] = p ** rng.randrange(0, 4)
            for k in range(i):
                a[i][k] = rng.randrange(a[i][i])
        return a

    def test_shortcut_input_is_returned_unchanged(self, monkeypatch):
        rng = random.Random(59)
        for trial in range(30):
            p = (3, 5)[trial % 2]
            a = self.saturated_hnf(rng, rng.randrange(1, 6), p)
            assert intmat._is_p_saturated_hnf(a, p)
            out = intmat.hnf_p_saturated(a, p)
            assert out == a and out is not a
            assert out == self.full_path(a, p, monkeypatch)

    def test_each_broken_condition_takes_the_full_path(self, monkeypatch):
        rng = random.Random(61)
        p = 3

        def non_p_power_diagonal(a):
            a[-1][-1] *= 2

        def negative_left_entry(a):
            a[-1][0] = -1

        def unreduced_left_entry(a):
            a[-1][0] = a[-1][-1] + 1

        def nonzero_above_diagonal(a):
            a[0][-1] = 1

        def negative_diagonal(a):
            a[-1][-1] = -a[-1][-1]

        def non_square(a):
            for row in a:
                row.append(0 if rng.randrange(2) else p)

        breaks = (
            non_p_power_diagonal,
            negative_left_entry,
            unreduced_left_entry,
            nonzero_above_diagonal,
            negative_diagonal,
            non_square,
        )
        for trial in range(36):
            a = self.saturated_hnf(rng, rng.randrange(2, 6), p)
            breaks[trial % len(breaks)](a)
            assert not intmat._is_p_saturated_hnf(a, p)
            assert intmat.hnf_p_saturated(a, p) == self.full_path(a, p, monkeypatch)

    def test_standard_modules_and_sums_need_no_smith_form(self, monkeypatch):
        from cyclat.finmod import FiniteGammaModule, standard_sum
        from cyclat.groupring import GroupParams

        calls = []
        original = intmat.snf

        def counting(a):
            calls.append(intmat.shape(a))
            return original(a)

        monkeypatch.setattr(intmat, "snf", counting)
        for p, n in ((3, 2), (3, 3), (5, 2)):
            params = GroupParams(p, n)
            for a in range(1, n + 1):
                for j in range(n + 1):
                    FiniteGammaModule.standard(params, a, j)
            standard_sum(params, {(1, 0): 1, (n, 1): 2, (1, n): 1})
        assert calls == []


def p_power_cases(seed, trials, exponents):
    """Seeded (cols, p, e), p cycling through 3, 5, 7 and e through
    ``exponents``, with negative, multi-word, zero and p-divisible entries,
    zero columns, and inputs with no columns at all."""
    rng = random.Random(seed)
    for trial in range(trials):
        p = (3, 5, 7)[trial % 3]
        e = exponents[trial // 3 % len(exponents)]
        m = rng.randrange(1, 7)
        n = rng.randrange(0, 8)
        bound = 2**70 if trial % 4 == 0 else 9
        cols = [
            [rng.randint(-bound, bound) * p ** rng.randrange(e + 1) for _ in range(n)]
            for _ in range(m)
        ]
        for row in cols:
            for j in range(0, n, 3):
                row[j] = 0  # every third column is zero
        yield cols, p, e


class TestHnfModPrimePower:
    """The HNF of span(cols) + p^e . Z^m, against two independent oracles."""

    @staticmethod
    def seeded_cases():
        return p_power_cases(20261018, 120, (1, 2, 3, 4))

    @staticmethod
    def p_power_scalar(m, q):
        return [[q if i == k else 0 for k in range(m)] for i in range(m)]

    def test_matches_column_hnf_with_the_p_power_block(self):
        for cols, p, e in self.seeded_cases():
            q = p**e
            ref = intmat.hnf_cols(intmat.hstack(cols, self.p_power_scalar(len(cols), q)))
            assert intmat.hnf_mod_prime_power(cols, p, e) == ref

    def test_matches_sympy_hermite_form(self):
        # sympy's HNF is upper triangular with entries right of each pivot
        # reduced; reversing the coordinates maps it onto this convention
        for cols, p, e in self.seeded_cases():
            full = intmat.hstack(cols, self.p_power_scalar(len(cols), p**e))
            ref = hermite_normal_form(sympy.Matrix(full))
            ref = [[int(ref[i, j]) for j in range(ref.cols)] for i in range(ref.rows)]
            out = intmat.hnf_mod_prime_power(cols[::-1], p, e)
            assert [row[::-1] for row in out[::-1]] == ref

    def test_result_is_its_own_p_saturated_form(self):
        for cols, p, e in self.seeded_cases():
            out = intmat.hnf_mod_prime_power(cols, p, e)
            assert intmat._is_p_saturated_hnf(out, p)
            assert all(p**e % out[i][i] == 0 for i in range(len(out)))

    def test_degenerate_shapes(self):
        assert intmat.hnf_mod_prime_power([], 3, 2) == []
        assert intmat.hnf_mod_prime_power([[], [], []], 5, 2) == self.p_power_scalar(3, 25)
        zero = intmat.zeros(2, 3)
        assert intmat.hnf_mod_prime_power(zero, 7, 1) == self.p_power_scalar(2, 7)
        # columns (9, 3) and (6, -27) span (3, 0) and (0, 3) together with 9 . Z^2
        assert intmat.hnf_mod_prime_power([[9, 6], [3, -27]], 3, 2) == [[3, 0], [0, 3]]
        assert intmat.hnf_mod_prime_power([[2, 1], [5, 3]], 3, 4) == intmat.identity(2)
        assert intmat.hnf_mod_prime_power([[2, 1], [5, 4]], 3, 4) == [[1, 0], [1, 3]]


class TestSmithDiagonalModPrimePower:
    """The Smith diagonal of [cols | p^e . I], against Z and sympy oracles."""

    @staticmethod
    def seeded_cases():
        return p_power_cases(20261020, 150, (0, 1, 2, 3, 4))

    @staticmethod
    def with_p_power_block(cols, q):
        m = len(cols)
        return intmat.hstack(cols, [[q if i == k else 0 for k in range(m)] for i in range(m)])

    def test_matches_smith_diagonal_over_z(self):
        for cols, p, e in self.seeded_cases():
            full = self.with_p_power_block(cols, p**e)
            ref = [intmat.p_part(d, p) for d in intmat.snf_diagonal(full)]
            assert intmat.smith_diagonal_mod_prime_power(cols, p, e) == ref, (cols, p, e)

    def test_matches_sympy_smith_form(self):
        for cols, p, e in self.seeded_cases():
            full = self.with_p_power_block(cols, p**e)
            ref = smith_normal_form(sympy.Matrix(full))
            ref = sorted(abs(int(ref[i, i])) for i in range(len(cols)))
            assert intmat.smith_diagonal_mod_prime_power(cols, p, e) == ref

    def test_degenerate_shapes(self):
        assert intmat.smith_diagonal_mod_prime_power([], 3, 2) == []
        assert intmat.smith_diagonal_mod_prime_power([[], [], []], 5, 2) == [25, 25, 25]
        assert intmat.smith_diagonal_mod_prime_power(intmat.zeros(2, 3), 7, 1) == [7, 7]
        assert intmat.smith_diagonal_mod_prime_power([[4, 2], [6, 9]], 3, 0) == [1, 1]
        # [[3, 1], [0, 3]] presents Z/9, so its diagonal modulo 27 is (1, 9)
        assert intmat.smith_diagonal_mod_prime_power([[3, 1], [0, 3]], 3, 3) == [1, 9]
        assert intmat.smith_diagonal_mod_prime_power([[2**80 * 3]], 3, 2) == [3]


class TestFactoredSolve:
    def test_one_factor_serves_every_right_hand_side(self):
        rng = random.Random(11)
        for rows, cols in ((3, 3), (5, 3), (6, 2), (4, 1)):
            a = random_matrix(rng, rows, cols)
            if intmat.rank(a) < cols:
                continue
            factor = intmat.factor_full_column_rank(a)
            for _ in range(3):
                x = random_matrix(rng, cols, rng.randrange(0, 4))
                b = intmat.mat_mul(a, x)
                assert intmat.solve_factored(factor, b) == intmat.solve_exact(a, b) == x

    def test_back_substitution_above_non_unit_pivots(self):
        # the row HNF of a is [[2, 1], [0, 3]] with a zero row below: the
        # entry above the second pivot is nonzero, and both pivots divide
        a = [[2, 1], [0, 3], [4, 2]]
        factor = intmat.factor_full_column_rank(a)
        n, _, pivots = factor
        assert n == 2 and pivots == [(2, []), (3, [(0, 1)])]
        x = [[5, -7], [-4, 2]]
        assert intmat.solve_factored(factor, intmat.mat_mul(a, x)) == x
        with pytest.raises(ValueError, match="divisibility"):
            intmat.solve_factored(factor, [[1], [0], [2]])
        with pytest.raises(ValueError, match="inconsistent"):
            intmat.solve_factored(factor, [[2], [0], [0]])

    def test_saturated_basis_has_identity_top_block(self):
        basis = intmat.kernel([[1, 2, 3, 4], [0, 3, -3, 9]], ncols=4)
        n, _, pivots = intmat.factor_full_column_rank(basis)
        assert pivots == [(1, [])] * n

    def test_rank_deficiency_is_caught_when_factoring(self):
        with pytest.raises(ValueError, match="full column rank"):
            intmat.factor_full_column_rank([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="full column rank"):
            intmat.factor_full_column_rank([[1, 2, 3]])

    def test_no_unknowns(self):
        factor = intmat.factor_full_column_rank([[], []])
        assert intmat.solve_factored(factor, [[0, 0], [0, 0]]) == []
        with pytest.raises(ValueError):
            intmat.solve_factored(factor, [[0], [1]])


class TestHelpers:
    def test_mat_pow_rejects_negative_exponents(self):
        # a negative exponent used to loop forever: k >>= 1 stays at -1
        with pytest.raises(ValueError, match="negative"):
            intmat.mat_pow([[1, 1], [0, 1]], -1)
        with pytest.raises(ValueError, match="negative"):
            intmat.mat_pow([], -3)

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

    def test_both_factors_sparse(self):
        # zeros on both sides: a few +-1 and 2^70 entries in each factor,
        # all-zero rows and columns of b, rectangular shapes
        rng = random.Random(20261019)
        values = (1, -1, 1, -1, 2, -3, 2**70, -(2**70) + 1)
        for trial in range(80):
            rows, inner, cols = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 12)
            a = [[rng.choice(values) if rng.random() < 0.2 else 0 for _ in range(inner)]
                 for _ in range(rows)]
            b = [[rng.choice(values) if rng.random() < 0.2 else 0 for _ in range(cols)]
                 for _ in range(inner)]
            b[rng.randrange(inner)] = [0] * cols  # an all-zero row of b
            dead = rng.randrange(cols)
            for row in b:  # an all-zero column of b
                row[dead] = 0
            out = intmat.mat_mul(a, b)
            assert out == naive_mul(a, b)
            assert all(row[dead] == 0 for row in out)
            assert [len(row) for row in out] == [cols] * rows

    def test_zero_column_b_and_zero_factors(self):
        a = [[0, 2**70, 0], [-1, 0, 1]]
        assert intmat.mat_mul(a, [[], [], []]) == [[], []]
        zero_b = intmat.zeros(3, 4)
        assert intmat.mat_mul(a, zero_b) == intmat.zeros(2, 4)
        assert intmat.mat_mul(intmat.zeros(2, 3), [[1, -1], [2**70, 0], [0, 5]]) == intmat.zeros(2, 2)

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
