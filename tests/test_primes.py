"""Prime search for the splitting criterion, against brute-force enumeration."""

import pytest

from cyclat.primes import (
    DensityReport,
    PrimeSearchResult,
    density_report,
    find_qualifying,
    is_prime,
    is_qualifying,
)


def trial_division_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def oracle_is_qualifying(p, q):
    """Direct check: q = 1 mod p but not mod p^2, and p avoids the set of
    p-th powers modulo q, the latter by enumerating every residue."""
    if q % p != 1 or q % (p * p) == 1:
        return False
    powers = {pow(x, p, q) for x in range(q)}
    return p % q not in powers


class TestPrimality:
    def test_agrees_with_trial_division(self):
        for m in range(2, 3000):
            assert is_prime(m) == trial_division_prime(m)

    def test_handles_large_inputs(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) ** 2)

    def test_small_inputs(self):
        assert not is_prime(1)
        assert not is_prime(0)

    def test_rejects_out_of_domain_inputs(self):
        with pytest.raises(ValueError):
            is_prime(-7)
        with pytest.raises(ValueError):
            is_prime(2**64)
        with pytest.raises(TypeError):
            is_prime(7.0)


class TestQualifying:
    def test_congruent_to_one_mod_p_squared_fails(self):
        assert not is_qualifying(3, 19)

    def test_small_qualifying_primes(self):
        # 7: cubes mod 7 are {0, 1, 6}, and 3 is not among them
        assert is_qualifying(3, 7)
        # 13: 13 = 4 mod 9 and 3 is not a cube mod 13
        assert is_qualifying(3, 13)

    def test_matches_enumeration_oracle_below_ten_thousand(self):
        expected = [
            q for q in range(3, 10**4) if trial_division_prime(q) and q != 3
        ]
        for q in expected:
            assert is_qualifying(3, q) == oracle_is_qualifying(3, q)

    def test_rejects_non_prime_inputs(self):
        with pytest.raises(ValueError):
            is_qualifying(3, 15)
        with pytest.raises(ValueError):
            is_qualifying(9, 7)


class TestSearch:
    def test_small_window(self):
        result = find_qualifying(3, 40)
        assert isinstance(result, PrimeSearchResult)
        assert result.qualifying == (7, 13, 31)
        assert result.p == 3
        assert result.bound == 40

    def test_empty_window(self):
        assert find_qualifying(3, 7).qualifying == ()

    @pytest.mark.parametrize("bound", [0, 1])
    def test_bounds_zero_and_one_are_empty_ranges(self, bound):
        result = find_qualifying(3, bound)
        assert result.qualifying == ()
        assert result.scanned == 0

    @pytest.mark.parametrize("bound", [-1, -5])
    def test_rejects_negative_bound(self, bound):
        with pytest.raises(ValueError, match="nonnegative"):
            find_qualifying(3, bound)
        with pytest.raises(ValueError, match="nonnegative"):
            density_report(3, bound)

    def test_matches_oracle_on_larger_window(self):
        got = find_qualifying(3, 10**4).qualifying
        want = tuple(
            q
            for q in range(2, 10**4)
            if trial_division_prime(q) and oracle_is_qualifying(3, q)
        )
        assert got == want

    def test_prefix_property(self):
        small = find_qualifying(5, 500).qualifying
        large = find_qualifying(5, 2000).qualifying
        assert large[: len(small)] == small

    def test_subset_of_unit_residues(self):
        result = find_qualifying(5, 2000)
        assert all(q % 5 == 1 for q in result.qualifying)
        assert all(is_prime(q) for q in result.qualifying)

    def test_scanned_counts_progression_primes(self):
        result = find_qualifying(3, 200)
        want = sum(
            1 for q in range(2, 200) if trial_division_prime(q) and q % 3 == 1
        )
        assert result.scanned == want


class TestDensity:
    def test_observed_fraction_near_prediction(self):
        report = density_report(3, 10**5)
        assert isinstance(report, DensityReport)
        assert report.expected == pytest.approx(4 / 9)
        assert abs(report.observed - 0.444) <= 0.05

    def test_observed_fraction_near_prediction_p_five(self):
        report = density_report(5, 10**5)
        assert report.expected == pytest.approx(16 / 25)
        assert abs(report.observed - 0.64) <= 0.06

    def test_rejects_insufficient_sample(self):
        with pytest.raises(ValueError):
            density_report(3, 100)

    def test_counts_are_consistent(self):
        report = density_report(3, 10**4)
        result = find_qualifying(3, 10**4)
        assert report.qualifying == len(result.qualifying)
        assert report.scanned == result.scanned
        assert 0 < report.qualifying < report.scanned
