"""Integral lattices with an action of the cyclic group of order p^n.

A lattice here is a free Z-module of finite rank together with an integer
matrix A giving the action of the generator sigma, subject to A^(p^n) = I
and det(A) coprime to p.  Two lattices are regarded as equivalent when an
integer base change with determinant coprime to p intertwines the actions;
all constructions below are exact and stay inside Z, with prime-to-p
denominators eliminated only through p-saturated Hermite forms.

The library lattices are ideals of the group ring: for 1 <= a, 0 <= b,
a + b <= n and c = n - (a + b),

  * b = 0: the ideal generated by sigma^(p^c) - 1 (rank p^n - p^(n-a)),
  * b > 0: the ideal generated by p^a and sigma^(p^c) - 1 (full rank, with
    quotient of order p^(a * p^c)).

Permutation lattices Z[Gamma/Gamma_i] carry the coset-shift action.
"""

from __future__ import annotations

import random

from . import intmat
from .groupring import GroupParams, SigmaAction, coset_shift


class GammaLattice(SigmaAction):
    """Free Z-module of finite rank with a generator action matrix."""

    def __init__(self, params, action, _trusted=False):
        if not isinstance(params, GroupParams):
            raise TypeError("params must be a GroupParams")
        self.params = params
        self.action = [list(map(int, row)) for row in action]
        self.rank = len(self.action)
        for row in self.action:
            if len(row) != self.rank:
                raise ValueError("action matrix must be square")
        if not _trusted:
            self._validate()

    def _validate(self):
        if self.rank == 0:
            return
        p, n = self.params.p, self.params.n
        if intmat.det_mod(self.action, p) == 0:
            raise ValueError("action determinant is divisible by p")
        if not intmat.is_identity(intmat.mat_pow(self.action, p**n)):
            raise ValueError("action does not have order dividing p^n")

    # the benchmark tracer patches this name in the class's own namespace
    action_power = SigmaAction.action_power

    def relative_norm_matrix(self, i):
        """Matrix of 1 + s + ... + s^(p-1) for s generating the order-p^i subgroup."""
        return self.apply_relative_norm(i, intmat.identity(self.rank))

    def norm_matrix(self, j):
        """Matrix of the full subgroup norm sum_{g in Gamma_j} g (j in 0..n).

        Applied down the subgroup chain: N_1 is the relative norm R_1, and
        N_j = R_j @ N_(j-1) is R_j applied to N_(j-1), p - 1 products by the
        sparse s_j, with no relative norm formed and no dense product.
        """
        self.params.check_level(j)
        cache = self.__dict__.setdefault("_norm_cache", {})
        if j not in cache:
            if j == 0:
                cache[j] = intmat.identity(self.rank)
            elif j == 1:
                cache[j] = self.relative_norm_matrix(1)
            else:
                cache[j] = self.apply_relative_norm(j, self.norm_matrix(j - 1))
        return cache[j]

    def __repr__(self):
        return (
            f"GammaLattice(p={self.params.p}, n={self.params.n}, rank={self.rank})"
        )


def group_ring_lattice(params):
    """The regular representation Z[Gamma] as a lattice of rank p^n."""
    return GammaLattice(params, coset_shift(params, 0), _trusted=True)


def permutation_lattice(params, i):
    """Z[Gamma/Gamma_i]: rank p^(n-i), sigma cyclically shifting the cosets."""
    return GammaLattice(params, coset_shift(params, i), _trusted=True)


def ideal_generator_matrix(params, c):
    """Columns sigma^k (sigma^(p^c) - 1), k = 0 .. p^n - 1, in Z[Gamma]."""
    order = params.order
    stride = params.p**c
    cols = []
    for k in range(order):
        col = [0] * order
        col[(k + stride) % order] += 1
        col[k] -= 1
        cols.append(col)
    return intmat.transpose(cols)


def mab_lattice(params, a, b):
    """Library ideal lattice with parameters (a, b); see module docstring.

    The basis is the column Hermite form of the ideal in Z[Gamma].  For
    b > 0 the ideal contains p^a . Z[Gamma], so that form is taken modulo
    p^a from the sigma^k (sigma^(p^c) - 1) alone, and its index is a power
    of p.  For b = 0 the ideal (sigma^m - 1), m = p^c, is the kernel of
    Z[Gamma] -> Z[C_m], sigma -> a generator of C_m: the elements whose
    coefficients sum to zero over each residue class mod m.  So it is
    saturated of rank N - m, N = p^n, and the columns
    e_k - e_(N-m+(k mod m)) for k < N - m lie in it.  They are lower
    triangular with unit pivots on the first N - m rows, so they span a
    saturated lattice of that rank, which is the ideal.  With unit pivots
    and nothing left of them, they already are its column Hermite form.
    """
    if not isinstance(a, int) or not isinstance(b, int):
        raise TypeError("a and b must be integers")
    if a < 1 or b < 0 or a + b > params.n:
        raise ValueError(
            f"require 1 <= a and 0 <= b with a + b <= n; got (a, b) = ({a}, {b})"
        )
    p, n = params.p, params.n
    order = params.order
    c = n - (a + b)
    stride = p**c
    if b > 0:
        basis = intmat.hnf_mod_prime_power(ideal_generator_matrix(params, c), p, a)
    else:
        rank = order - stride
        basis = intmat.zeros(order, rank)
        for k in range(rank):
            basis[k][k] = 1
            basis[rank + k % stride][k] = -1
    shifted = intmat.mat_mul(coset_shift(params, 0), basis)
    action = intmat.solve_exact(basis, shifted)
    lattice = GammaLattice(params, action, _trusted=True)
    lattice.__dict__["basis_in_group_ring"] = basis
    return lattice


def fixed_sublattice(lattice, j):
    """The sigma^(p^(n-j))-fixed sublattice with its inherited action.

    Returns (sublattice, rank).  The sublattice is saturated (a direct
    summand rationally), carries the restricted Gamma-action (on which the
    subgroup of order p^j acts trivially by construction), and has rank
    equal to the number of characters of the action with order <= p^(n-j).
    """
    lattice.params.check_level(j)
    r = lattice.rank
    if r == 0:
        return GammaLattice(lattice.params, [], _trusted=True), 0
    if j == 0:
        return lattice, r
    fixed_basis = intmat.kernel(lattice.moved_matrix(j))
    f = len(fixed_basis[0]) if fixed_basis and fixed_basis[0] else 0
    if f == 0:
        return GammaLattice(lattice.params, [], _trusted=True), 0
    image = intmat.mat_mul(lattice.action, fixed_basis)
    sub_action = intmat.solve_exact(fixed_basis, image)
    return GammaLattice(lattice.params, sub_action, _trusted=True), f


def direct_sum(lattices):
    """Direct sum of lattices over the same group (block-diagonal action)."""
    lattices = list(lattices)
    if not lattices:
        raise ValueError("direct_sum needs at least one summand")
    params = lattices[0].params
    for lat in lattices[1:]:
        if lat.params != params:
            raise ValueError("direct summands have mismatched group parameters")
    action = intmat.block_diag([lat.action for lat in lattices])
    return GammaLattice(params, action, _trusted=True)


def random_unimodular_change(lattice, seed):
    """Conjugate the action by a seeded random unimodular base change.

    The result is the same abstract lattice presented on a different basis:
    T A T^(-1) for a deterministic pseudo-random T with det T = +/-1.
    """
    r = lattice.rank
    if r == 0:
        return lattice
    rng = random.Random(seed)
    t = intmat.identity(r)
    tinv = intmat.identity(r)
    steps = 2 * r + 8
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0 and r >= 2:
            # add c * (row k) to row l of T;  inverse: column op on Tinv
            k, l = rng.sample(range(r), 2)
            coeff = rng.choice((-2, -1, 1, 2))
            tk, tl = t[k], t[l]
            for idx in range(r):
                tl[idx] += coeff * tk[idx]
            for row in tinv:
                row[k] -= coeff * row[l]
        elif kind == 1 and r >= 2:
            k, l = rng.sample(range(r), 2)
            t[k], t[l] = t[l], t[k]
            for row in tinv:
                row[k], row[l] = row[l], row[k]
        else:
            k = rng.randrange(r)
            t[k] = [-x for x in t[k]]
            for row in tinv:
                row[k] = -row[k]
    conjugated = intmat.mat_mul(intmat.mat_mul(t, lattice.action), tinv)
    return GammaLattice(lattice.params, conjugated, _trusted=True)
