"""Qualifying auxiliary primes for a fixed odd prime p.

A prime q qualifies when

  * q = 1 (mod p),
  * q != 1 (mod p^2), and
  * p^((q-1)/p) != 1 (mod q), i.e. p is not a p-th power residue mod q.

Such q are the moduli for which the relevant degree-p cyclic subfield of
Q(zeta_q) is ramified at q with the generic splitting behaviour of p.  By
Chebotarev, their density among all primes congruent to 1 mod p is
(1 - 1/p)^2: a factor (1 - 1/p) for the congruence q != 1 (mod p^2) inside
q = 1 (mod p), and an independent factor (1 - 1/p) for p not being a p-th
power.  ``density_report`` measures the observed frequency.

Primality is decided deterministically: the Miller-Rabin witness set used
here is proven correct for every modulus below 3.3 * 10^24, which covers
the full 64-bit input range accepted by this module.
"""

from __future__ import annotations

from dataclasses import dataclass

# Deterministic witnesses for n < 3,317,044,064,679,887,385,961,981 (> 2^64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_MAX_INPUT = 2**64


def is_prime(m):
    """Deterministic primality test for 0 <= m < 2^64."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError("is_prime expects an integer")
    if m >= _MAX_INPUT or m < 0:
        raise ValueError("is_prime accepts nonnegative integers below 2^64")
    if m < 2:
        return False
    for small in _MR_WITNESSES:
        if m == small:
            return True
        if m % small == 0:
            return False
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _check_p(p):
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError("p must be an integer")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError("p must be an odd prime >= 3")


def is_qualifying(p, q):
    """Whether the prime q qualifies for p; rejects non-prime q loudly."""
    _check_p(p)
    if not isinstance(q, int) or isinstance(q, bool):
        raise TypeError("q must be an integer")
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    return q % p == 1 and _qualifies(p, q)


def _qualifies(p, q):
    """The test for a prime q = 1 (mod p): q != 1 (mod p^2), p not a p-th power mod q."""
    return q % (p * p) != 1 and pow(p, (q - 1) // p, q) != 1


def _scan(p, bound):
    """(count of primes q = 1 (mod p) below bound, the qualifying ones ascending)."""
    _check_p(p)
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if bound > _MAX_INPUT:
        raise ValueError("bound exceeds the supported 64-bit range")
    scanned = 0
    qualifying = []
    # only odd q = 1 (mod p) can qualify, i.e. q = 1 (mod 2p)
    q = 2 * p + 1
    while q < bound:
        if is_prime(q):
            scanned += 1
            if _qualifies(p, q):
                qualifying.append(q)
        q += 2 * p
    return scanned, qualifying


@dataclass(frozen=True)
class PrimeSearchResult:
    """Qualifying primes below a bound, with the progression scan count."""

    p: int
    bound: int
    qualifying: tuple
    scanned: int  # primes q = 1 (mod p) below bound


def find_qualifying(p, bound):
    """All qualifying primes q < bound, ascending."""
    scanned, qualifying = _scan(p, bound)
    return PrimeSearchResult(p, bound, tuple(qualifying), scanned)


@dataclass(frozen=True)
class DensityReport:
    p: int
    bound: int
    scanned: int          # primes q = 1 (mod p) below bound
    qualifying: int
    expected_num: int     # expected density (1 - 1/p)^2, as a fraction
    expected_den: int

    @property
    def observed(self):
        return self.qualifying / self.scanned

    @property
    def expected(self):
        return self.expected_num / self.expected_den


def density_report(p, bound):
    """Observed vs expected qualifying density among primes = 1 (mod p).

    Requires at least 200 scanned primes in the progression, so the observed
    frequency is statistically meaningful; raises ValueError otherwise.
    """
    scanned, qualifying = _scan(p, bound)
    if scanned < 200:
        raise ValueError(
            f"only {scanned} primes = 1 (mod {p}) below {bound}; "
            "need at least 200 for a density estimate"
        )
    return DensityReport(
        p=p,
        bound=bound,
        scanned=scanned,
        qualifying=len(qualifying),
        expected_num=(p - 1) * (p - 1),
        expected_den=p * p,
    )
