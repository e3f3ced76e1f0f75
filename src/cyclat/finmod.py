"""Finite modules over the cyclic group of order p^n, by presentation.

A ``FiniteGammaModule`` is a finite abelian p-group presented as
Z^g / (column span of a relation matrix), together with a g x g integer
matrix giving the action of the group generator sigma.  The coefficient
ring is Z localized at p: relation spans are normalized to their p-saturated
Hermite form at construction time, which discards prime-to-p invariant
factors and makes every later membership test a clean integral reduction
(the saturated span has p-power index, so integral and local membership
agree).

Every size and invariant of a module is read off one list per subgroup
level: ``level_divisors(j)``, the invariant factors of M / (s_j - 1)M, where
s_j = sigma^(p^(n-j)) generates the subgroup Gamma_j of order p^j.  Level 0
is M itself, so its divisors are the abelian invariants; the quotient
orders |M / (p^a, s_j - 1)M| are sums of min(a, v_p(d)); and the standard
module (Z/p^a)[Gamma/Gamma_j'] contributes p^(n - max(j, j')) divisors p^a
at level j, which is how standard sums are recognized.

Presentations can be minimized (Smith form of the relations), which is how
the rest of the package keeps search spaces small: a minimized module has
invariant-factor relations diag(d_1, ..., d_k) and its canonical coordinate
boxes enumerate the group exactly.

``GammaMap`` is a homomorphism of such modules given by a matrix on
presentation generators; well-definedness and sigma-equivariance are
checked modulo the target relations at construction.
"""

from __future__ import annotations

from . import intmat
from .groupring import GroupParams


class InvariantError(RuntimeError):
    """An internal structural invariant failed; indicates a bug, not bad input."""


class _NotStandard:
    """Returned when a module is provably not a sum of standard modules."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotStandard"

    def __bool__(self):
        return False


NotStandard = _NotStandard()


class FiniteGammaModule:
    """Finite p-power-order module over Z_p[Gamma], by generators and relations."""

    def __init__(self, params, gens, relations, action, _trusted=False):
        if not isinstance(params, GroupParams):
            raise TypeError("params must be a GroupParams")
        self.params = params
        self.gens = int(gens)
        if self.gens < 0:
            raise ValueError("generator count must be nonnegative")
        if self.gens == 0:
            self.relations = []
            self.action = []
        else:
            relations = [list(map(int, row)) for row in relations]
            if len(relations) != self.gens:
                raise ValueError("relation matrix must have one row per generator")
            if len({len(row) for row in relations}) != 1:
                raise ValueError("relation matrix rows must all have the same length")
            self.relations = intmat.hnf_p_saturated(relations, params.p)
            ncols = len(self.relations[0]) if self.relations and self.relations[0] else 0
            if ncols != self.gens:
                raise ValueError(
                    "relations do not cut out a finite module "
                    f"(saturated rank {ncols} < {self.gens} generators)"
                )
            self.action = [list(map(int, row)) for row in action]
            if len(self.action) != self.gens or any(
                len(row) != self.gens for row in self.action
            ):
                raise ValueError("action matrix must be gens x gens")
        if not _trusted:
            self._validate()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, params):
        return cls(params, 0, [], [], _trusted=True)

    @classmethod
    def standard(cls, params, a, j):
        """(Z/p^a)[Gamma/Gamma_j]: coset basis, cyclic shift, p^a-torsion."""
        params.check_level(j)
        if not 1 <= a <= params.n:
            raise ValueError(f"coefficient exponent a={a} outside 1..{params.n}")
        m = params.p ** (params.n - j)
        pa = params.p**a
        relations = [[pa if i == k else 0 for k in range(m)] for i in range(m)]
        action = [[1 if i == (k + 1) % m else 0 for k in range(m)] for i in range(m)]
        return cls(params, m, relations, action, _trusted=True)

    @classmethod
    def from_invariant_relations(cls, params, moduli, action):
        """Module with diagonal relations diag(moduli) and the given action."""
        g = len(moduli)
        relations = [[moduli[i] if i == k else 0 for k in range(g)] for i in range(g)]
        return cls(params, g, relations, action)

    def _validate(self):
        if self.gens == 0:
            return
        p, n = self.params.p, self.params.n
        # sigma stabilizes the relation span
        if not self.is_zero_mat(intmat.mat_mul(self.action, self.relations)):
            raise ValueError("action does not preserve the relation span")
        # sigma^(p^n) acts as the identity; the exponent p^e kills the
        # module, so each p-th power is taken mod p^e
        modulus = p ** self.exponent_log()
        full = self.action
        for _ in range(n):
            full = intmat.mat_mod(intmat.mat_pow(full, p), modulus)
        if not self.is_zero_mat(intmat.mat_sub(full, intmat.identity(self.gens))):
            raise ValueError("sigma^(p^n) does not act trivially")

    # -- canonical reduction --------------------------------------------------

    def reduce_vec(self, v):
        """Canonical representative of v modulo the relation span.

        The saturated relations form a lower-triangular column echelon with
        p-power pivots on the diagonal, so reduction is a single forward pass.
        """
        if self.gens == 0:
            return []
        rel = self.relations
        out = list(v)
        for i in range(self.gens):
            piv = rel[i][i]
            q = out[i] // piv
            if q:
                for k in range(i, self.gens):
                    out[k] -= q * rel[k][i]
        return out

    def is_zero_vec(self, v):
        return not any(self.reduce_vec(v))

    def is_zero_mat(self, m):
        """Whether every column of m (gens rows) lies in the relation span."""
        return all(self.is_zero_vec(col) for col in zip(*m))

    # -- sizes and invariants -------------------------------------------------

    def order_log(self):
        """log_p of the module order."""
        if self.gens == 0:
            return 0
        p = self.params.p
        return sum(intmat.p_valuation(self.relations[i][i], p) for i in range(self.gens))

    def is_zero(self):
        return self.order_log() == 0

    def level_divisors(self, j):
        """Invariant factors > 1 of M / (s_j - 1)M, smallest first.

        s_j = sigma^(p^(n-j)) generates the subgroup of order p^j; every
        divisor is a power of p.  One Smith diagonal of [relations | S_j - I]
        per level, cached: all other sizes and invariants read from these.
        """
        self.params.check_level(j)
        cache = self.__dict__.setdefault("_level_divisors", {})
        if j not in cache:
            divs = ()
            if self.gens:
                moved = intmat.mat_sub(
                    self.action_power(self.params.p ** (self.params.n - j)),
                    intmat.identity(self.gens),
                )
                divs = intmat.snf_diagonal(intmat.hstack(self.relations, moved))
            cache[j] = tuple(d for d in divs if d > 1)
        return cache[j]

    def invariants(self):
        """Abelian invariant factors (p-powers > 1), largest first."""
        return self.level_divisors(0)[::-1]

    def exponent_log(self):
        inv = self.invariants()
        return intmat.p_valuation(inv[0], self.params.p) if inv else 0

    def action_power(self, k):
        cache = self.__dict__.setdefault("_power_cache", {})
        if self.gens == 0:
            return []
        k = k % self.params.order
        if k not in cache:
            cache[k] = intmat.mat_pow(self.action, k)
        return cache[k]

    # -- minimized presentation -----------------------------------------------

    def minimized(self):
        """(module', to_min, from_min): invariant-factor presentation.

        module' has diagonal relations with all pivots > 1; to_min maps old
        generator coordinates to new (k x g), from_min maps back (g x k),
        and both are inverse to each other modulo relations.  Raises
        ValueError if sigma does not preserve the relation span: in Smith
        coordinates that is d_i | d_k * A'[i][k] for the transported action
        A', which catches generators that are dropped as trivial but whose
        image is not.
        """
        cache = self.__dict__.get("_minimized")
        if cache is not None:
            return cache
        if self.gens == 0:
            cache = (self, [], [])
            self.__dict__["_minimized"] = cache
            return cache
        d, u, v = intmat.snf(self.relations)
        uinv = intmat.unimodular_inverse(u)
        keep = [i for i in range(self.gens) if d[i][i] != 1]
        moduli = [d[i][i] for i in keep]
        to_min = [u[i] for i in keep]
        from_min = [[uinv[r][i] for i in keep] for r in range(self.gens)]
        if not keep:
            zero = FiniteGammaModule.zero(self.params)
            cache = (zero, to_min, from_min)
            self.__dict__["_minimized"] = cache
            return cache
        # transported action, with each row reduced modulo its own modulus
        full = intmat.mat_mul(intmat.mat_mul(u, self.action), uinv)
        for i in keep:
            if any(full[i][k] * d[k][k] % d[i][i] for k in range(self.gens)):
                raise ValueError("action does not preserve the relation span")
        act = [[full[i][k] % d[i][i] for k in keep] for i in keep]
        k = len(keep)
        relations = [[moduli[i] if i == c else 0 for c in range(k)] for i in range(k)]
        mod = FiniteGammaModule(self.params, k, relations, act, _trusted=True)
        cache = (mod, to_min, from_min)
        self.__dict__["_minimized"] = cache
        return cache

    # -- quotient sizes and standard-sum recognition --------------------------

    def quotient_order_log(self, a, j):
        """log_p | M / (p^a M + (sigma^(p^(n-j)) - 1) M) |."""
        p = self.params.p
        return sum(min(a, intmat.p_valuation(d, p)) for d in self.level_divisors(j))

    def coinvariants_order_log(self):
        """log_p of |M / (pM + (sigma - 1)M)| — the Gamma-generator count."""
        return self.quotient_order_log(1, self.params.n)

    def __repr__(self):
        inv = ",".join(str(d) for d in self.invariants()) or "0"
        return f"FiniteGammaModule(p={self.params.p}, n={self.params.n}, [{inv}])"


def snf_invariants(module):
    """Abelian-group type of the module: p-power invariant factors, largest first."""
    return module.invariants()


def module_direct_sum(modules):
    """Block direct sum; generator blocks are concatenated in order."""
    modules = list(modules)
    if not modules:
        raise ValueError("direct sum needs at least one summand")
    params = modules[0].params
    if any(m.params != params for m in modules):
        raise ValueError("summands have mismatched group parameters")
    gens = sum(m.gens for m in modules)
    if gens == 0:
        return FiniteGammaModule.zero(params)
    relations = intmat.block_diag([m.relations for m in modules])
    action = intmat.block_diag([m.action for m in modules])
    return FiniteGammaModule(params, gens, relations, action, _trusted=True)


def standard_sum(params, multiset):
    """Canonical direct sum of standard modules.

    ``multiset`` maps (a, j) to a multiplicity; summands are laid out in a
    deterministic order (larger order first, then lexicographic (a, j)).
    """
    labels = sorted(
        multiset.items(),
        key=lambda item: (-item[0][0] * params.p ** (params.n - item[0][1]), item[0]),
    )
    parts = []
    for (a, j), mult in labels:
        if mult < 0:
            raise ValueError("negative multiplicity")
        for _ in range(mult):
            parts.append(FiniteGammaModule.standard(params, a, j))
    if not parts:
        return FiniteGammaModule.zero(params)
    return module_direct_sum(parts)


def standard_sum_invariants(params, multiset):
    """Abelian invariants of a standard sum, largest first."""
    p, n = params.p, params.n
    out = []
    for (a, j), mult in multiset.items():
        out.extend([p**a] * (mult * p ** (n - j)))
    return tuple(sorted(out, reverse=True))


def recognize_standard_sum(module):
    """Multiset {(a, j): multiplicity} if the module is a standard sum.

    The standard module (Z/p^a)[Gamma/Gamma_j'] has p^(n - max(j, j')) divisors
    p^a at level j (``level_divisors``), so for a standard sum the number of
    divisors p^a at level j is  E(a, j) = sum_j' m_(a,j') p^(n - max(j, j')).
    E(a, n) is sum_j' m_(a,j'), and E(a, j) - E(a, j+1) is the partial sum
    over j' <= j times p^(n-j) - p^(n-j-1); those partial sums give the
    multiplicities.  Exponents above p^n are counted with a = n, and the
    candidate is confirmed against the total order and the full abelian
    invariant multiset, which rejects them; any failure returns
    ``NotStandard`` (a value, not an exception).
    """
    params = module.params
    p, n = params.p, params.n
    if module.is_zero():
        return {}
    vals = [
        [min(intmat.p_valuation(d, p), n) for d in module.level_divisors(j)]
        for j in range(n + 1)
    ]
    multiset = {}
    for a in range(1, n + 1):
        count = [vals[j].count(a) for j in range(n + 1)]
        prev = 0
        for j in range(n + 1):
            # partial = sum over j' <= j of m_(a, j')
            partial, rem = count[n], 0
            if j < n:
                partial, rem = divmod(count[j] - count[j + 1], p ** (n - j) - p ** (n - j - 1))
            if rem or partial < prev:
                return NotStandard
            if partial > prev:
                multiset[(a, j)] = partial - prev
            prev = partial

    # confirmation: total order and full invariant multiset must match
    total = sum(
        mult * a * p ** (n - j) for (a, j), mult in multiset.items()
    )
    if total != module.order_log():
        return NotStandard
    if standard_sum_invariants(params, multiset) != module.invariants():
        return NotStandard
    return multiset


def gamma_generator_indices(module):
    """Indices of presentation generators forming a minimal Gamma-generating set.

    Z_p[Gamma] is local with residue field F_p, so by Nakayama a set generates
    iff its image spans M/(p, sigma-1)M over F_p; a greedy pass over the
    presentation generators always finds a basis among them.
    """
    cache = module.__dict__.get("_gamma_gen_idx")
    if cache is not None:
        return cache
    g = module.gens
    # generator e_k is chosen when it is not in the F_p-span of the
    # relations, (S - I) and the earlier generators; p*M vanishes mod p
    moved = intmat.mat_sub(module.action, intmat.identity(g))
    cols = intmat.hstack(intmat.hstack(module.relations, moved), intmat.identity(g))
    chosen = [
        c - 2 * g for c in intmat.pivot_columns_mod_p(cols, module.params.p) if c >= 2 * g
    ]
    expected = module.coinvariants_order_log()
    if len(chosen) != expected:
        raise InvariantError(
            f"found {len(chosen)} Gamma-generators, coinvariants say {expected}"
        )
    module.__dict__["_gamma_gen_idx"] = chosen
    return chosen


class GammaMap:
    """Homomorphism of finite Gamma-modules, as a matrix on generators."""

    def __init__(self, source, target, matrix, _trusted=False):
        if source.params != target.params:
            raise ValueError("source and target have mismatched group parameters")
        self.source = source
        self.target = target
        self.matrix = [list(map(int, row)) for row in matrix]
        widths = sorted({len(row) for row in self.matrix})
        if len(self.matrix) != target.gens or widths not in ([], [source.gens]):
            got = f"{len(self.matrix)} x {widths[0] if widths else 0}"
            if len(widths) > 1:
                got = f"{len(self.matrix)} rows of lengths {widths}"
            raise ValueError(f"matrix must be {target.gens} x {source.gens}, got {got}")
        if not _trusted:
            self._validate()

    def _validate(self):
        src, tgt = self.source, self.target
        # relations of the source must die in the target
        if not tgt.is_zero_mat(intmat.mat_mul(self.matrix, src.relations)):
            raise InvariantError("map does not kill the source relations")
        # sigma-equivariance modulo target relations
        left = intmat.mat_mul(self.matrix, src.action)
        right = intmat.mat_mul(tgt.action, self.matrix)
        if not tgt.is_zero_mat(intmat.mat_sub(left, right)):
            raise InvariantError("map is not sigma-equivariant")

    @classmethod
    def zero(cls, source, target):
        return cls(
            source, target, [[0] * source.gens for _ in range(target.gens)], _trusted=True
        )

    def apply(self, v):
        return self.target.reduce_vec(intmat.mat_vec(self.matrix, v)) if self.target.gens else []

    def compose(self, other):
        """self after other (other first)."""
        if other.target is not self.source:
            raise ValueError("composition needs other.target to be self.source")
        if self.target.gens == 0 or other.source.gens == 0 or self.source.gens == 0:
            # a zero endpoint or a zero middle module forces the zero map
            return GammaMap.zero(other.source, self.target)
        return GammaMap(
            other.source,
            self.target,
            intmat.mat_mul(self.matrix, other.matrix),
            _trusted=True,
        )

    def equals_mod(self, other):
        """Whether two maps with the same endpoints agree modulo relations."""
        return self.target.is_zero_mat(intmat.mat_sub(self.matrix, other.matrix))

    def is_zero_map(self):
        return self.target.is_zero_mat(self.matrix)

    def image_order_log(self):
        """log_p of the image size."""
        tgt = self.target
        if tgt.gens == 0 or self.source.gens == 0:
            return 0
        stacked = intmat.hstack(self.matrix, tgt.relations)
        divs = intmat.snf_diagonal(stacked)
        cokernel = sum(intmat.p_valuation(d, tgt.params.p) for d in divs if d)
        return tgt.order_log() - cokernel

    def is_surjective(self):
        return self.image_order_log() == self.target.order_log()

    def __repr__(self):
        return f"GammaMap({self.source!r} -> {self.target!r})"
