"""The cyclic group of order p^n and its integral group ring.

``GroupParams(p, n)`` fixes a cyclic group of odd prime-power order p^n
with a distinguished generator ``sigma``.  For j in 0..n the subgroup of
order p^j is generated by sigma^(p^(n-j)); index 0 is the trivial subgroup
and index n the full group.

``GroupRingElt`` is an element of Z[sigma]/(sigma^(p^n) - 1), stored as the
dense coefficient vector on the power basis 1, sigma, ..., sigma^(p^n - 1).
Multiplication is cyclic convolution.  Coefficients are exact Python ints;
the coefficient ring of interest downstream is Z localized at p, so any
prime-to-p integer is a unit there — that division is only ever performed
at normal-form time, never here.

``SigmaAction`` is sigma acting through a matrix: the powers, s_j - 1 and
the relative norms that lattices and finite modules both compute with, and
``coset_shift`` is sigma on the permutation module Z[Gamma/Gamma_j].
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .primes import is_prime


def check_int(value, what):
    """value itself, or TypeError unless it is an int (bools and floats are not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer")
    return value


@dataclass(frozen=True)
class GroupParams:
    """An odd prime p >= 3 and tower height n >= 1; group order p^n."""

    p: int
    n: int

    def __post_init__(self):
        check_int(self.p, "p")
        check_int(self.n, "n")
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError("p must be an odd prime >= 3")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def order(self):
        return self.p**self.n

    def subgroup_order(self, j):
        """Order p^j of the j-th subgroup, j in 0..n."""
        self.check_level(j)
        return self.p**j

    def subgroup_generator_exponent(self, j):
        """Exponent e with sigma^e generating the subgroup of order p^j (j >= 1)."""
        self.check_level(j)
        if j == 0:
            raise ValueError("the trivial subgroup has no generator exponent")
        return self.p ** (self.n - j)

    def check_level(self, j):
        check_int(j, "subgroup index")
        if not 0 <= j <= self.n:
            raise ValueError(f"subgroup index {j} outside 0..{self.n}")
        return j


@dataclass(frozen=True)
class GroupRingElt:
    """Element of Z[Gamma] for Gamma cyclic of order p^n."""

    params: GroupParams
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.params.order:
            raise ValueError(
                f"coefficient vector has length {len(self.coeffs)}, "
                f"expected {self.params.order}"
            )
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in self.coeffs):
            raise TypeError("coefficients must be integers")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @classmethod
    def zero(cls, params):
        return cls(params, (0,) * params.order)

    @classmethod
    def one(cls, params):
        return cls.sigma_power(params, 0)

    @classmethod
    def sigma_power(cls, params, k):
        coeffs = [0] * params.order
        coeffs[k % params.order] = 1
        return cls(params, tuple(coeffs))

    def __add__(self, other):
        self._check_compatible(other)
        return GroupRingElt(
            self.params, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check_compatible(other)
        return GroupRingElt(
            self.params, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return GroupRingElt(self.params, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return GroupRingElt(self.params, tuple(other * a for a in self.coeffs))
        self._check_compatible(other)
        order = self.params.order
        out = [0] * order
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % order] += a * b
        return GroupRingElt(self.params, tuple(out))

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, GroupRingElt):
            raise TypeError(f"expected GroupRingElt, got {type(other).__name__}")
        if other.params != self.params:
            raise ValueError("group parameters differ")

    def augmentation(self):
        """Sum of coefficients (image under Gamma -> 1)."""
        return sum(self.coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def to_matrix(self):
        """Matrix of left multiplication by self on the power basis (circulant)."""
        order = self.params.order
        return [
            [self.coeffs[(i - j) % order] for j in range(order)] for i in range(order)
        ]


def norm_element(params, j):
    """Sum over the subgroup of order p^j: sum_{k < p^j} sigma^(k * p^(n-j)).

    For j = 0 this is the ring identity; augmentation is always p^j.
    """
    params.check_level(j)
    order = params.order
    stride = params.p ** (params.n - j)
    coeffs = [0] * order
    for k in range(params.p**j):
        coeffs[(k * stride) % order] += 1
    return GroupRingElt(params, tuple(coeffs))


def relative_norm_element(params, i):
    """Sum of the p coset representatives sigma^(k * p^(n-i)), k = 0..p-1.

    This is the norm of the subgroup of order p^i relative to its index-p
    subgroup (of order p^(i-1)); requires i >= 1.
    """
    params.check_level(i)
    if i < 1:
        raise ValueError("relative norm needs a nontrivial subgroup (i >= 1)")
    order = params.order
    stride = params.p ** (params.n - i)
    coeffs = [0] * order
    for k in range(params.p):
        coeffs[(k * stride) % order] += 1
    return GroupRingElt(params, tuple(coeffs))


def coset_shift(params, j):
    """Action of sigma on Z[Gamma/Gamma_j]: the cyclic shift of its p^(n-j) cosets.

    At j = 0 this is the regular representation on the power basis.
    """
    params.check_level(j)
    m = params.p ** (params.n - j)
    return [[1 if r == (c + 1) % m else 0 for c in range(m)] for r in range(m)]


class SigmaAction:
    """Sigma acting through the square integer matrix ``self.action``.

    Mixed into ``GammaLattice`` and ``FiniteGammaModule``, which hold
    ``params`` and ``action``; on a module every matrix here acts on the
    presentation generators and is read modulo the relations.
    """

    def action_power(self, k):
        """A^k for k taken mod p^n, kept in the one power cache.

        A power one past a cached one costs one product, a multiple of p is
        the p-th power of its p-th part (so the generator s_j = A^(p^(n-j))
        of the order-p^j subgroup is s_(j+1)^p), and any other power is one
        ``mat_pow``.
        """
        cache = self.__dict__.setdefault("_power_cache", {})
        if not self.action:
            return []
        k %= self.params.order
        if k not in cache:
            p = self.params.p
            if k - 1 in cache:
                cache[k] = intmat.mat_mul(self.action, cache[k - 1])
            elif k and k % p == 0:
                cache[k] = intmat.mat_pow(self.action_power(k // p), p)
            else:
                cache[k] = intmat.mat_pow(self.action, k)
        return cache[k]

    def moved_matrix(self, j):
        """s_j - I, for s_j = sigma^(p^(n-j)) generating the subgroup of order p^j."""
        self.params.check_level(j)
        s = self.action_power(self.params.p ** (self.params.n - j))
        return [[x - (r == c) for c, x in enumerate(row)] for r, row in enumerate(s)]

    def apply_relative_norm(self, i, cols):
        """(1 + s + ... + s^(p-1)) @ cols, for s generating the order-p^i subgroup (i >= 1).

        Costs p - 1 products by s and never forms the norm itself.
        """
        s = self.action_power(self.params.subgroup_generator_exponent(i))
        total = term = cols
        for _ in range(self.params.p - 1):
            term = intmat.mat_mul(s, term)
            total = intmat.mat_add(total, term)
        return total
