"""Ladder diagrams of level modules linked by up and down maps.

A diagram holds one finite module per level i = 1..n (the level-i module is
p^i-torsion and the subgroup of index p^i acts trivially on it) together
with an up map A_i -> A_(i+1) and a down map A_(i+1) -> A_i for each rung.
The two composites are constrained exactly: up after down is multiplication
by p on the upper level, and down after up is the relative-norm operator
(the sum of the p translates by the subgroup one step down) on the lower
level.  ``validate_diagram`` checks all of it and is run on everything this
package constructs.

The module also knows the closed-form diagrams of the ideal-lattice library
(``library_diagram``), decides isomorphism of diagrams by an invariant
screen followed by an exact equivariant search (``diagram_isomorphic``),
and matches a diagram against the library (``subtract_library``).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from . import intmat
from .finmod import (
    FiniteGammaModule,
    GammaMap,
    NotStandard,
    gamma_generator_indices,
    module_direct_sum,
    recognize_standard_sum,
)
from .groupring import GroupParams


class DiagramError(RuntimeError):
    """A ladder diagram violates one of its structural constraints."""


class IsoResult(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"

    def __repr__(self):
        return f"IsoResult.{self.name}"


class YakovlevDiagram:
    """Levels A_1..A_n with up maps A_i -> A_(i+1) and down maps A_(i+1) -> A_i."""

    def __init__(self, params, levels, ups, downs):
        if not isinstance(params, GroupParams):
            raise TypeError("params must be a GroupParams")
        levels = list(levels)
        ups = list(ups)
        downs = list(downs)
        if len(levels) != params.n:
            raise ValueError(f"need {params.n} levels, got {len(levels)}")
        if len(ups) != params.n - 1 or len(downs) != params.n - 1:
            raise ValueError("need n-1 up maps and n-1 down maps")
        for i, u in enumerate(ups):
            if u.source is not levels[i] or u.target is not levels[i + 1]:
                raise ValueError(f"up map {i + 1} does not connect levels {i + 1}, {i + 2}")
        for i, d in enumerate(downs):
            if d.source is not levels[i + 1] or d.target is not levels[i]:
                raise ValueError(f"down map {i + 1} does not connect levels {i + 2}, {i + 1}")
        self.params = params
        self.levels = levels
        self.ups = ups
        self.downs = downs

    @property
    def n(self):
        return self.params.n

    def level(self, i):
        """Level module A_i, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"level {i} outside 1..{self.n}")
        return self.levels[i - 1]

    def up(self, i):
        """Up map A_i -> A_(i+1), defined for 1 <= i <= n-1."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"up map index {i} outside 1..{self.n - 1}")
        return self.ups[i - 1]

    def down(self, i):
        """Down map A_(i+1) -> A_i, defined for 1 <= i <= n-1."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"down map index {i} outside 1..{self.n - 1}")
        return self.downs[i - 1]

    def total_order_log(self):
        return sum(m.order_log() for m in self.levels)

    def is_zero(self):
        return self.total_order_log() == 0

    def level_invariants(self):
        return tuple(m.invariants() for m in self.levels)

    def __repr__(self):
        sizes = ", ".join(
            "0" if m.is_zero() else "p^" + str(m.order_log()) for m in self.levels
        )
        return f"YakovlevDiagram(p={self.params.p}, n={self.n}, |A_i|=[{sizes}])"


def _check_diagram(diagram):
    """Check every structural constraint; raises DiagramError on the first failure."""
    params = diagram.params
    p, n = params.p, params.n
    for i in range(1, n + 1):
        mod = diagram.level(i)
        if mod.params != params:
            raise DiagramError(f"level {i} has mismatched group parameters")
        if mod.exponent_log() > i:
            raise DiagramError(
                f"level {i} is not killed by p^{i} (exponent p^{mod.exponent_log()})"
            )
        moved = intmat.mat_sub(mod.action_power(p ** (n - i)), intmat.identity(mod.gens))
        if not mod.is_zero_mat(moved):
            raise DiagramError(f"index-p^{i} subgroup does not act trivially on level {i}")
    for i in range(1, n):
        up, down = diagram.up(i), diagram.down(i)
        try:
            up._validate()
            down._validate()
        except Exception as exc:
            raise DiagramError(f"rung {i} map is not a module map: {exc}") from exc
        upper, lower = diagram.level(i + 1), diagram.level(i)
        # up after down = multiplication by p on the upper level; a composite
        # through a zero module is zero, and the sign of the difference does
        # not matter
        diff = intmat.mat_scale(p, intmat.identity(upper.gens))
        if lower.gens:
            diff = intmat.mat_sub(intmat.mat_mul(up.matrix, down.matrix), diff)
        if not upper.is_zero_mat(diff):
            raise DiagramError(f"up(down(.)) != p . on level {i + 1}")
        # down after up = relative-norm operator on the lower level
        step = p ** (n - i - 1)
        diff = intmat.zeros(lower.gens, lower.gens)
        for k in range(p):
            diff = intmat.mat_add(diff, lower.action_power(k * step))
        if upper.gens:
            diff = intmat.mat_sub(intmat.mat_mul(down.matrix, up.matrix), diff)
        if not lower.is_zero_mat(diff):
            raise DiagramError(f"down(up(.)) != relative norm on level {i}")
    return True


def validate_diagram(diagram):
    """True iff every structural constraint holds.

    Checks, as exact congruences modulo each level's relations: levels share the
    diagram's group parameters, level i is annihilated by p^i and fixed by the
    index-p^i subgroup, the rung maps are module maps, and both composites
    (up after down = multiplication by p; down after up = the relative-norm
    operator) hold on every rung.  Never raises on a malformed diagram.
    """
    try:
        return _check_diagram(diagram)
    except DiagramError:
        return False


def zero_diagram(params):
    levels = [FiniteGammaModule.zero(params) for _ in range(params.n)]
    ups = [GammaMap.zero(levels[i], levels[i + 1]) for i in range(params.n - 1)]
    downs = [GammaMap.zero(levels[i + 1], levels[i]) for i in range(params.n - 1)]
    return YakovlevDiagram(params, levels, ups, downs)


def _stack_map(sources, targets, blocks, joined_src, joined_tgt):
    """Block-diagonal map matrix from per-summand map matrices."""
    rows = sum(t.gens for t in targets)
    cols = sum(s.gens for s in sources)
    out = intmat.zeros(rows, cols)
    ro = co = 0
    for src, tgt, blk in zip(sources, targets, blocks):
        for r in range(tgt.gens):
            for c in range(src.gens):
                out[ro + r][co + c] = blk[r][c]
        ro += tgt.gens
        co += src.gens
    return GammaMap(joined_src, joined_tgt, out, _trusted=True)


def diagram_direct_sum(diagrams):
    """Levelwise direct sum with block-diagonal maps."""
    diagrams = list(diagrams)
    if not diagrams:
        raise ValueError("direct sum needs at least one diagram")
    params = diagrams[0].params
    if any(d.params != params for d in diagrams):
        raise ValueError("diagrams have mismatched group parameters")
    n = params.n
    levels = [
        module_direct_sum([d.levels[i] for d in diagrams]) for i in range(n)
    ]
    ups, downs = [], []
    for i in range(n - 1):
        ups.append(
            _stack_map(
                [d.levels[i] for d in diagrams],
                [d.levels[i + 1] for d in diagrams],
                [d.ups[i].matrix for d in diagrams],
                levels[i],
                levels[i + 1],
            )
        )
        downs.append(
            _stack_map(
                [d.levels[i + 1] for d in diagrams],
                [d.levels[i] for d in diagrams],
                [d.downs[i].matrix for d in diagrams],
                levels[i + 1],
                levels[i],
            )
        )
    return YakovlevDiagram(params, levels, ups, downs)


def _library_summand_diagram(params, a, b):
    """Closed-form diagram of the ideal lattice with label (a, b).

    Level i is the standard module with coefficient exponent min(i, a) on the
    cosets of the subgroup at level max(i, a+b).  While both rungs sit at or
    below level a+b the modules have equal coset rank and the rung maps are
    identity down / multiply-by-p up; above a+b the down map spreads a coset
    over its p preimage cosets and the up map projects cosets.
    """
    n, p = params.n, params.p
    c = a + b
    levels = [
        FiniteGammaModule.standard(params, *library_level_type(a, b, i))
        for i in range(1, n + 1)
    ]
    ups, downs = [], []
    for i in range(1, n):
        lower, upper = levels[i - 1], levels[i]
        if i + 1 <= c:
            down = intmat.identity(lower.gens)
            up = intmat.mat_scale(p, intmat.identity(lower.gens))
        else:
            m_low, m_high = lower.gens, upper.gens  # p^(n-i), p^(n-i-1)
            down = [
                [1 if r % m_high == t else 0 for t in range(m_high)]
                for r in range(m_low)
            ]
            up = [
                [1 if t % m_high == r else 0 for t in range(m_low)]
                for r in range(m_high)
            ]
        # checked once, on the assembled sum in library_diagram
        ups.append(GammaMap(lower, upper, up, _trusted=True))
        downs.append(GammaMap(upper, lower, down, _trusted=True))
    return YakovlevDiagram(params, levels, ups, downs)


def library_diagram(params, multiset):
    """Canonical diagram of a direct sum of library lattices.

    ``multiset`` maps labels (a, b) — with a >= 1, b >= 0, a + b <= n — to
    multiplicities.  The empty multiset gives the zero diagram.
    """
    parts = []
    for (a, b) in sorted(multiset):
        mult = multiset[(a, b)]
        if mult < 0:
            raise ValueError("negative multiplicity")
        if not (1 <= a and 0 <= b and a + b <= params.n):
            raise ValueError(f"label ({a}, {b}) outside the library range")
        parts.extend(_library_summand_diagram(params, a, b) for _ in range(mult))
    if not parts:
        return zero_diagram(params)
    out = diagram_direct_sum(parts)
    _check_diagram(out)
    return out


# -- isomorphism testing ------------------------------------------------------


def _minimized_diagram(diagram):
    """Same diagram on invariant-factor presentations (maps transported).

    The transported maps are built unchecked: they are module maps whenever
    the input maps are, and callers check either the input or the result.
    """
    n = diagram.n
    mins = [lvl.minimized() for lvl in diagram.levels]
    levels = [m[0] for m in mins]
    ups, downs = [], []

    def transport(raw, src_idx, tgt_idx):
        src, tgt = levels[src_idx], levels[tgt_idx]
        if src.gens == 0 or tgt.gens == 0:
            return GammaMap.zero(src, tgt)
        to_tgt = mins[tgt_idx][1]
        from_src = mins[src_idx][2]
        mat = intmat.mat_mul(to_tgt, intmat.mat_mul(raw.matrix, from_src))
        return GammaMap(src, tgt, mat, _trusted=True)

    for i in range(n - 1):
        ups.append(transport(diagram.ups[i], i, i + 1))
        downs.append(transport(diagram.downs[i], i + 1, i))
    return YakovlevDiagram(diagram.params, levels, ups, downs)


def _same_presentation(d1, d2):
    for m1, m2 in zip(d1.levels, d2.levels):
        if m1.gens != m2.gens or m1.relations != m2.relations or m1.action != m2.action:
            return False
    for u1, u2 in zip(d1.ups, d2.ups):
        if not u1.equals_mod(u2):
            return False
    for w1, w2 in zip(d1.downs, d2.downs):
        if not w1.equals_mod(w2):
            return False
    return True


def _word_matrices(source, target, q):
    """Per-generator matrices expressing a hom by its values on Gamma-generators.

    For every presentation generator e_l of ``source`` and every chosen
    Gamma-generator slot j, returns P[(l, j)] with: any hom h sending the
    j-th Gamma-generator to y_j has h(e_l) = sum_j P[(l, j)] y_j modulo the
    target relations, where P is the word of e_l in the sigma-orbit of the
    Gamma-generators, evaluated on the target action.  Entries are reduced
    mod q.
    """
    params = source.params
    order = params.order
    gen_idx = gamma_generator_indices(source)
    s = len(gen_idx)
    g = source.gens
    gt = target.gens
    orbit_cols = []
    for j in range(s):
        k = gen_idx[j]
        for t in range(order):
            power = source.action_power(t)
            orbit_cols.append([power[r][k] for r in range(g)])
    rel_cols = [
        [source.relations[r][c] for r in range(g)] for c in range(g)
    ]
    aug = intmat.transpose(orbit_cols + rel_cols)
    words = {}
    for l in range(g):
        e = [1 if r == l else 0 for r in range(g)]
        coeff = intmat.express_in_colspan(aug, e)
        if coeff is None:
            raise DiagramError("generator not reached by the Gamma-orbit span")
        words[l] = coeff[: s * order]
    pmats = {}
    for l in range(g):
        for j in range(s):
            acc = intmat.zeros(gt, gt)
            base = j * order
            for t in range(order):
                cf = words[l][base + t]
                if cf:
                    acc = intmat.mat_add(
                        acc, intmat.mat_scale(cf, target.action_power(t))
                    )
            pmats[(l, j)] = intmat.mat_mod(acc, q)
    return gen_idx, pmats


def _surjective_mod_p(h, rows, p):
    """Full row rank of h over F_p (Nakayama: equivalent to surjectivity)."""
    return len(intmat.pivot_columns_mod_p(h, p)) == rows


@dataclass
class _HomSystem:
    """Linear parametrization of levelwise hom tuples commuting with the rungs."""

    q: int
    layout: list  # per level: (base index, s, target gens)
    hsyms: list  # per level: hsym[l][r] = coefficient row of entry (r, l) over all unknowns
    total: int
    basis: list = field(default_factory=list)  # triangular lattice basis columns
    pivots: list = field(default_factory=list)


def _square_rows(h_out, a, b, h_in, target, q):
    """Constraint rows saying h_out . a - b . h_in vanishes modulo the target relations.

    ``h_in`` and ``h_out`` are symbolic level homs on the two sides of a
    commuting square (``h[l][r]`` is the coefficient row of entry (r, l) over
    all unknowns); ``a`` is the integer matrix on the source-diagram side and
    ``b`` the one on the target-diagram side.  ``target`` is the minimized
    module the square lands in, with diagonal relations d_r: the entry in
    row r must vanish mod d_r, so its form is scaled by q // d_r to make every
    row a congruence mod q.  A zero-generator module on any corner leaves the
    matching products empty, so it needs no special case.
    """
    rows = []
    for r in range(target.gens):
        scale = q // target.relations[r][r]
        for l, col in enumerate(h_in):
            terms = [(x[l], h_out[k][r]) for k, x in enumerate(a) if x[l]]
            terms += [(-c, col[k]) for k, c in enumerate(b[r]) if c]
            if not terms:
                continue
            form = [0] * len(terms[0][1])
            for c, sym in terms:
                for u, v in enumerate(sym):
                    if v:
                        form[u] += c * v
            row = [scale * x % q for x in form]
            if any(row):
                rows.append(row)
    return rows


def _build_hom_system(md1, md2):
    """Solution lattice of the diagram homs from ``md1`` to ``md2`` (minimized).

    The unknowns are the images, in each target level, of the chosen
    Gamma-generators of the source level; every level hom is a fixed linear
    form in them (``_word_matrices``).  A tuple of level homs is a diagram
    hom exactly when one condition holds on every commuting square:
    h_out . a - b . h_in = 0 modulo the target relations, for
    a = the source relations and b = 0 (h kills them), a = b = sigma on each
    side, and the up and down rungs.  ``_square_rows`` turns each square into
    rows of R, and the homs are {y : R y = 0 mod q} with q = p^n.

    That lattice is fixed by the set of constraints, not by how its rows are
    written, and ``basis`` is its column Hermite form, which is unique; so
    negating or reordering rows leaves ``basis`` and ``pivots`` unchanged.
    """
    params = md1.params
    q = params.p**params.n
    layout, hsyms, total = [], [], 0
    words = [_word_matrices(src, tgt, q) for src, tgt in zip(md1.levels, md2.levels)]
    for (gen_idx, _), tgt in zip(words, md2.levels):
        layout.append((total, len(gen_idx), tgt.gens))
        total += len(gen_idx) * tgt.gens
    for (base, s, gt), (_, pmats), src in zip(layout, words, md1.levels):
        hsym = []
        for l in range(src.gens):
            col = []
            for r in range(gt):
                form = [0] * total
                for j in range(s):
                    form[base + j * gt : base + (j + 1) * gt] = pmats[(l, j)][r]
                col.append(form)
            hsym.append(col)
        hsyms.append(hsym)
    rows = []
    for h, src, tgt in zip(hsyms, md1.levels, md2.levels):
        rows += _square_rows(h, src.relations, intmat.zeros(tgt.gens, tgt.gens), h, tgt, q)
        rows += _square_rows(h, src.action, tgt.action, h, tgt, q)
    for i in range(params.n - 1):
        up1, up2 = md1.ups[i].matrix, md2.ups[i].matrix
        down1, down2 = md1.downs[i].matrix, md2.downs[i].matrix
        rows += _square_rows(hsyms[i + 1], up1, up2, hsyms[i], md2.levels[i + 1], q)
        rows += _square_rows(hsyms[i], down1, down2, hsyms[i + 1], md2.levels[i], q)
    system = _HomSystem(q=q, layout=layout, hsyms=hsyms, total=total)
    if total == 0:
        return system
    if rows:
        h, _ = intmat.row_hnf(rows)
        h = [row for row in h if any(row)]
    else:
        h = []
    if not h:
        lattice = intmat.identity(total)
    else:
        qblock = [[q if i == k else 0 for k in range(len(h))] for i in range(len(h))]
        ker = intmat.kernel(intmat.hstack(h, qblock))
        proj = ker[:total] if ker and ker[0] else [[] for _ in range(total)]
        qfull = intmat.mat_scale(q, intmat.identity(total))
        lattice = intmat.hnf_cols(intmat.hstack(proj, qfull))
    system.basis = lattice
    system.pivots = [lattice[i][i] for i in range(total)]
    return system


def _candidate_maps(system, coeffs, md1, md2):
    """Evaluate the parametrization at one coefficient tuple."""
    q = system.q
    total = system.total
    y = [0] * total
    for idx, c in enumerate(coeffs):
        if c:
            col = [system.basis[k][idx] for k in range(total)]
            for k in range(total):
                if col[k]:
                    y[k] = (y[k] + c * col[k]) % q
    mats = []
    for i in range(md1.params.n):
        src, tgt = md1.levels[i], md2.levels[i]
        hsym = system.hsyms[i]
        h = [
            [
                sum(
                    cf * y[k]
                    for k, cf in enumerate(hsym[l][r])
                    if cf
                )
                % q
                for l in range(src.gens)
            ]
            for r in range(tgt.gens)
        ]
        mats.append(h)
    return mats


def _level_key(module):
    """Screen key of a level: its standard-sum labels, or else its divisor lists.

    The divisor lists are ``level_divisors(j)`` for j = 0..n.  Recognition
    is a function of those lists, and the labels of a standard sum determine
    them, so two keys agree exactly when the divisor lists do.
    """
    labels = recognize_standard_sum(module)
    if labels is not NotStandard:
        return labels
    return tuple(module.level_divisors(j) for j in range(module.params.n + 1))


def _isomorphism_search(d1, d2, budget, seed):
    """(IsoResult, witness): exact decision whenever the screen or search settles it.

    The screen compares ``_level_key`` level by level, then the image order
    of every rung map.  These are isomorphism invariants, so a mismatch is
    a definitive No.  The abelian invariants and coinvariant sizes of a
    level are functions of its divisor lists, so they need no check of
    their own.  Past the screen, equal minimized presentations give Yes;
    otherwise the diagram homs are searched for one that is surjective on
    every level, exhaustively when the hom group has at most ``budget``
    elements (Yes or No), else by ``budget`` seeded samples (Yes or
    Unknown).
    """
    if d1.params != d2.params:
        raise ValueError("cannot compare diagrams over different groups")
    params = d1.params
    n = params.n
    if any(_level_key(a) != _level_key(b) for a, b in zip(d1.levels, d2.levels)):
        return IsoResult.NO, None
    for i in range(n - 1):
        if d1.ups[i].image_order_log() != d2.ups[i].image_order_log():
            return IsoResult.NO, None
        if d1.downs[i].image_order_log() != d2.downs[i].image_order_log():
            return IsoResult.NO, None
    if d1.is_zero():
        return IsoResult.YES, [[] for _ in range(n)]
    md1, md2 = _minimized_diagram(d1), _minimized_diagram(d2)
    if _same_presentation(md1, md2):
        return IsoResult.YES, [intmat.identity(m.gens) for m in md1.levels]
    system = _build_hom_system(md1, md2)
    if system.total == 0:
        # nonzero diagram with no hom unknowns cannot happen (screen passed)
        return IsoResult.NO, None
    q = system.q
    ranges = [q // t for t in system.pivots]
    group_size = 1
    for r in ranges:
        group_size *= r
        if group_size > budget:
            break
    exhaustive = group_size <= budget
    p = params.p

    def check(coeffs):
        mats = _candidate_maps(system, coeffs, md1, md2)
        for i in range(n):
            if not _surjective_mod_p(mats[i], md2.levels[i].gens, p):
                return None
        return mats

    tested = 0
    if exhaustive:
        coeffs = [0] * system.total
        while True:
            mats = check(coeffs)
            tested += 1
            if mats is not None:
                return IsoResult.YES, mats
            pos = 0
            while pos < system.total:
                coeffs[pos] += 1
                if coeffs[pos] < ranges[pos]:
                    break
                coeffs[pos] = 0
                pos += 1
            if pos == system.total:
                return IsoResult.NO, None
    rng = random.Random(seed)
    while tested < budget:
        coeffs = [rng.randrange(r) for r in ranges]
        mats = check(coeffs)
        tested += 1
        if mats is not None:
            return IsoResult.YES, mats
    return IsoResult.UNKNOWN, None


def diagram_isomorphic(d1, d2, budget=10**6, seed=0):
    """Decide isomorphism of two diagrams: Yes, No, or Unknown.

    No is returned only from genuine invariant mismatches or an exhausted
    search over the full hom space; Unknown means the sampling budget ran
    out before a witness appeared.
    """
    result, _ = _isomorphism_search(d1, d2, budget, seed)
    return result


def indecomposability_certificate(diagram):
    """True when the diagram is certified indecomposable.

    The certificate: every nonzero level is generated by one element over
    the group ring, the nonzero levels form one contiguous block, and each
    rung inside the block carries at least one nonzero map.  A True answer
    is a proof; False means only that this certificate does not apply.
    The zero diagram is True by convention.
    """
    nz = [i for i in range(diagram.n) if not diagram.levels[i].is_zero()]
    if not nz:
        return True
    if nz != list(range(nz[0], nz[-1] + 1)):
        return False
    for i in nz:
        if diagram.levels[i].coinvariants_order_log() > 1:
            return False
    for i in range(nz[0], nz[-1]):
        if diagram.ups[i].is_zero_map() and diagram.downs[i].is_zero_map():
            return False
    return True


# -- matching against the library ---------------------------------------------


class _Unresolved:
    """Sentinel: the diagram could not be fully matched against the library."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unresolved"

    def __bool__(self):
        return False


Unresolved = _Unresolved()


@dataclass
class SubtractResult:
    """Outcome of matching a diagram against the lattice library.

    ``extracted`` maps labels (a, b) to multiplicities; ``remainder`` is the
    zero diagram when the match is complete, or the ``Unresolved`` sentinel
    when it is not.  Partial extraction is never attempted: either the whole
    diagram is accounted for or nothing is.
    """

    extracted: dict
    remainder: object  # YakovlevDiagram | Unresolved

    @property
    def fully_resolved(self):
        return self.remainder is not Unresolved


def _library_labels(n):
    return [(a, b) for a in range(1, n + 1) for b in range(0, n - a + 1)]


def library_level_type(a, b, i):
    """Standard-module label of level i of the library diagram (a, b)."""
    return (min(i, a), max(i, a + b))


def subtract_library(diagram, budget=10**6, seed=0):
    """Match the whole diagram against a sum of library diagrams.

    Recognizes every level as a sum of standard modules, solves the exact
    linear system for a library multiset reproducing all level types at
    once, and confirms by an isomorphism search against the canonical
    library diagram.  Any failure along the way returns the input unmatched.
    """
    params = diagram.params
    n = params.n
    recog = []
    for i in range(1, n + 1):
        r = recognize_standard_sum(diagram.level(i))
        if r is NotStandard:
            return SubtractResult({}, Unresolved)
        recog.append(r)
    labels = _library_labels(n)
    type_index = {}
    for i in range(1, n + 1):
        for lab in labels:
            type_index.setdefault((i, library_level_type(lab[0], lab[1], i)), len(type_index))
        for t in recog[i - 1]:
            type_index.setdefault((i, t), len(type_index))
    nrows = len(type_index)
    a_mat = intmat.zeros(nrows, len(labels))
    for col, (a, b) in enumerate(labels):
        for i in range(1, n + 1):
            a_mat[type_index[(i, library_level_type(a, b, i))]][col] += 1
    rhs = [[0] for _ in range(nrows)]
    for i in range(1, n + 1):
        for t, count in recog[i - 1].items():
            rhs[type_index[(i, t)]][0] = count
    try:
        sol = intmat.solve_exact(a_mat, rhs)
    except ValueError:
        return SubtractResult({}, Unresolved)
    mults = [sol[c][0] for c in range(len(labels))]
    if any(m < 0 for m in mults):
        return SubtractResult({}, Unresolved)
    multiset = {lab: m for lab, m in zip(labels, mults) if m}
    canonical = library_diagram(params, multiset)
    verdict, _ = _isomorphism_search(diagram, canonical, budget, seed)
    if verdict is not IsoResult.YES:
        return SubtractResult({}, Unresolved)
    return SubtractResult(multiset, zero_diagram(params))
