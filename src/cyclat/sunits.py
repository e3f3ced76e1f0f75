"""Predicted unit-group structure for cyclic prime-power extensions.

This module turns abstract extension data — real/complex place counts,
ramification records, and a set of auxiliary split places — into predictions
about the Galois-module structure of the unit group upstairs: presentations
of the ladder levels, the full predicted ladder diagram, recovery of the
decomposition into library lattices plus permutation pieces, counts of
free (Minkowski-style) summands, and the exact bookkeeping identity that
ties those counts to the ramification statistics.

Two regimes are supported.  The Hilbert-cyclic regime (trivial ambient
class-group obstruction) admits the full pipeline: closed-form level
presentations, predicted diagram, and structure recovery.  The general
regime only supports the guaranteed-summand extraction, which needs no
class-group information at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diagrams
from .finmod import FiniteGammaModule, GammaMap, InvariantError
from .groupring import GroupParams
from . import intmat

HILBERT_CYCLIC = "HilbertCyclic"
GENERAL = "General"

RESOLVED = "Resolved"
PARTIALLY_RESOLVED = "PartiallyResolved"


class UnsupportedRegimeError(Exception):
    """The requested operation has no closed form for this kind of datum."""


def _p_power_log(p, value, what):
    """Exponent e with value = p**e, or a ValueError naming the field."""
    if value < 1:
        raise ValueError(f"{what} must be a positive power of {p}, got {value}")
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    if value != 1:
        raise ValueError(f"{what} must be a power of {p}")
    return e


@dataclass(frozen=True)
class RamifiedPlace:
    """One ramified place, recorded by its inertia and decomposition orders."""

    inertia_order: int
    decomposition_order: int

    def type_pair(self):
        return (self.inertia_order, self.decomposition_order)


@dataclass(frozen=True)
class ExtensionDatum:
    """Input data describing a cyclic extension together with a split set.

    ``r1`` and ``r2`` count the real and complex places of the base field;
    ``ramified`` lists one record per ramified place; ``s_counts`` is the
    sequence s_0..s_n where s_j counts auxiliary places whose decomposition
    group is the subgroup of order p^j; ``regime`` selects which closed
    forms apply; ``all_S_split`` flags that every auxiliary place splits
    completely (s_j = 0 for all j > 0).
    """

    params: GroupParams
    r1: int
    r2: int
    ramified: tuple = ()
    s_counts: tuple = None
    regime: str = HILBERT_CYCLIC
    all_S_split: bool = None

    def __post_init__(self):
        p, n = self.params.p, self.params.n
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("place counts r1, r2 must be nonnegative")
        if self.r1 + self.r2 < 1:
            raise ValueError("unit rank r1 + r2 - 1 must be nonnegative")
        places = []
        for rec in self.ramified:
            if isinstance(rec, RamifiedPlace):
                place = rec
            else:
                io, do = rec
                place = RamifiedPlace(int(io), int(do))
            ie = _p_power_log(p, place.inertia_order, "inertia order")
            de = _p_power_log(p, place.decomposition_order, "decomposition order")
            if ie < 1:
                raise ValueError(
                    "a listed place must be ramified: inertia order >= p"
                )
            if ie > de or de > n:
                raise ValueError(
                    "need inertia | decomposition | group order for each place"
                )
            places.append(place)
        object.__setattr__(self, "ramified", tuple(places))
        counts = self.s_counts
        if counts is None:
            counts = (0,) * (n + 1)
        counts = tuple(int(c) for c in counts)
        if len(counts) != n + 1:
            raise ValueError(f"s_counts must have length n + 1 = {n + 1}")
        if any(c < 0 for c in counts):
            raise ValueError("s_counts entries must be nonnegative")
        object.__setattr__(self, "s_counts", counts)
        if self.regime not in (HILBERT_CYCLIC, GENERAL):
            raise ValueError(f"unknown regime {self.regime!r}")
        split = sum(counts[1:]) == 0
        if self.all_S_split is None:
            object.__setattr__(self, "all_S_split", split)
        elif bool(self.all_S_split) != split:
            raise ValueError("all_S_split flag contradicts s_counts")

    def unit_rank(self):
        """Free rank of the base-field unit group."""
        return self.r1 + self.r2 - 1

    def split_count(self):
        """Number of auxiliary places that split completely."""
        return self.s_counts[0]

    def s_size(self):
        """Total number of auxiliary places."""
        return sum(self.s_counts)


@dataclass(frozen=True)
class UpsilonStats:
    """Ramification statistics: type census with the three-place threshold.

    ``type_counts`` maps (inertia order, decomposition order) pairs to the
    number of places of that type; ``heavy_types`` lists the pairs carried
    by at least three places; ``heavy_places`` counts the places lying in
    those types.
    """

    type_counts: dict
    heavy_types: tuple
    heavy_places: int


def upsilon_stats(datum):
    """Census of ramification types and the three-or-more statistics."""
    counts = {}
    for place in datum.ramified:
        pair = place.type_pair()
        counts[pair] = counts.get(pair, 0) + 1
    heavy = tuple(sorted(pair for pair, c in counts.items() if c >= 3))
    heavy_places = sum(counts[pair] for pair in heavy)
    return UpsilonStats(counts, heavy, heavy_places)


def character_ranks(datum):
    """Predicted fixed-point free ranks rk_0..rk_n of the upstairs units.

    rk_j = (r1 + r2) p^{n-j} + sum_i s_i p^{n-max(i,j)} - 1: each base place
    contributes the orbit count of the index-p^j subgroup acting on the
    places above it, and one global relation is subtracted.
    """
    p, n = datum.params.p, datum.params.n
    out = []
    for j in range(n + 1):
        total = (datum.r1 + datum.r2) * p ** (n - j)
        for i, count in enumerate(datum.s_counts):
            total += count * p ** (n - max(i, j))
        out.append(total - 1)
    return out


def _core_order(datum):
    """Order of the smallest subgroup containing every inertia group and
    every auxiliary-place decomposition group."""
    core = 1
    for place in datum.ramified:
        core = max(core, place.inertia_order)
    p = datum.params.p
    for i, count in enumerate(datum.s_counts):
        if count:
            core = max(core, p**i)
    return core


def _require_ramified_closed_form(datum):
    if datum.regime != HILBERT_CYCLIC:
        raise UnsupportedRegimeError(
            "level presentations are only available in the Hilbert-cyclic regime"
        )
    if not datum.ramified:
        raise UnsupportedRegimeError(
            "level presentations need at least one ramified place"
        )


def _library_label(p, type_pair):
    """Library label (log_p e, log_p f - log_p e) of a place with inertia
    order e and decomposition order f."""
    io, do = type_pair
    a = _p_power_log(p, io, "inertia order")
    return (a, _p_power_log(p, do, "decomposition order") - a)


def _anchored_level(datum, j, blocks):
    """Level j from the standard-module block of each ramified place.

    A distinguished generator, fixed by the group action, is prepended and
    annihilated by max(p^j, core) / core, for the core order of
    ``_core_order``; each block relation also feeds -max(p^j, core) /
    max(min(p^j, f), core) into it, where f is the place's decomposition
    order.
    """
    params = datum.params
    sub = params.p**j
    core = _core_order(datum)
    relations = intmat.block_diag([[[max(sub, core) // core]]] + [b.relations for b in blocks])
    action = intmat.block_diag([[[1]]] + [b.action for b in blocks])
    offset = 1
    for place, block in zip(datum.ramified, blocks):
        feed = max(sub, core) // max(min(sub, place.decomposition_order), core)
        relations[0][offset : offset + block.gens] = [-feed] * block.gens
        offset += block.gens
    return FiniteGammaModule(params, len(action), relations, action)


def wj_presentation(datum, j):
    """Presentation of the ladder level attached to the subgroup of order p^j.

    Each ramified place contributes level j of its library summand: label
    (a, b) = (log_p e, log_p f - log_p e), a standard module whose generators
    are cyclically permuted (``diagrams.library_level_type``).  One more
    generator is fixed by the group action and annihilated by a power
    determined by the subgroup order against the core order, and each block
    generator's torsion relation feeds back into it (``_anchored_level``).
    j = 0 gives the zero module.
    """
    _require_ramified_closed_form(datum)
    params = datum.params
    if not 0 <= j <= params.n:
        raise ValueError(f"level index {j} outside 0..{params.n}")
    if j == 0:
        return FiniteGammaModule.zero(params)
    blocks = [
        FiniteGammaModule.standard(
            params,
            *diagrams.library_level_type(*_library_label(params.p, place.type_pair()), j),
        )
        for place in datum.ramified
    ]
    return _anchored_level(datum, j, blocks)


def predict_diagram(datum):
    """Predicted ladder diagram for the upstairs unit lattice.

    Ramified Hilbert-cyclic data get the explicit level presentations; each
    place's block, and its rung maps (identity down and p up while the upper
    subgroup lies in the decomposition group, spreading down and projecting
    up beyond it), come from the place's library summand diagram, and the
    distinguished generator maps by 1 down and p up.  Unramified data with
    a completely split auxiliary set reduce to the library diagram of the
    norm-kernel lattice (levels Z/p^i with natural projections and
    multiplication by p).
    """
    params = datum.params
    p, n = params.p, params.n
    if datum.regime != HILBERT_CYCLIC:
        raise UnsupportedRegimeError(
            "diagram prediction is only available in the Hilbert-cyclic regime"
        )
    if not datum.ramified:
        if not datum.all_S_split:
            raise UnsupportedRegimeError(
                "unramified data need a completely split auxiliary set"
            )
        return diagrams.library_diagram(params, {(n, 0): 1})
    summands = [
        diagrams._library_summand_diagram(params, *_library_label(p, place.type_pair()))
        for place in datum.ramified
    ]
    levels = [
        _anchored_level(datum, j, [s.level(j) for s in summands]) for j in range(1, n + 1)
    ]
    ups, downs = [], []
    for i in range(1, n):
        # checked once, with the ladder identities, below
        down = intmat.block_diag([[[1]]] + [s.down(i).matrix for s in summands])
        up = intmat.block_diag([[[p]]] + [s.up(i).matrix for s in summands])
        downs.append(GammaMap(levels[i], levels[i - 1], down, _trusted=True))
        ups.append(GammaMap(levels[i - 1], levels[i], up, _trusted=True))
    diagram = diagrams.YakovlevDiagram(params, levels, ups, downs)
    diagrams._check_diagram(diagram)
    return diagram


def library_fixed_rank(params, a, b, j):
    """Free rank of the fixed points of the library lattice (a, b) under the
    subgroup of order p^j; j = 0 gives the full rank."""
    p, n = params.p, params.n
    if not (1 <= a and 0 <= b and a + b <= n):
        raise ValueError(f"label ({a}, {b}) outside the library range")
    if not 0 <= j <= n:
        raise ValueError(f"subgroup index {j} outside 0..{n}")
    if b > 0:
        return p ** (n - j)
    return p ** (n - j) - p ** min(n - j, n - a)


@dataclass(frozen=True)
class GuaranteedSummands:
    """Library summands forced by ramification type multiplicity alone.

    ``summands`` maps labels (a, b) to guaranteed multiplicities; ``pair_count``
    is the number of subgroup pairs for this group order; ``remainder_bound``
    bounds the generator count of the unresolved complement."""

    summands: dict
    pair_count: int
    remainder_bound: int


def guaranteed_summands(datum):
    """Library summands guaranteed by types carried by three or more places.

    A type with t >= 3 places of inertia order p^a and decomposition order
    p^{a+b} forces t - 2 copies of library label (a, b), in every regime.
    The remainder bound 1 + 2·pair_count caps the generator count of
    whatever is left over.
    """
    p = datum.params.p
    n = datum.params.n
    stats = upsilon_stats(datum)
    summands = {
        _library_label(p, pair): stats.type_counts[pair] - 2 for pair in stats.heavy_types
    }
    pair_count = (n + 1) * (n + 2) // 2
    return GuaranteedSummands(summands, pair_count, 1 + 2 * pair_count)


def _residual_d_prime(params, extracted, guaranteed):
    """Rank drop rk(M) - rk(M^{Gamma_1}) of the non-guaranteed extracted part."""
    total = 0
    for label in set(extracted) | set(guaranteed):
        mult = extracted.get(label, 0) - guaranteed.get(label, 0)
        a, b = label
        total += mult * (
            library_fixed_rank(params, a, b, 0) - library_fixed_rank(params, a, b, 1)
        )
    return total


@dataclass(frozen=True)
class DecompositionReport:
    """Recovered structure of the upstairs unit lattice.

    ``library_summands`` maps library labels to multiplicities;
    ``perm_multiplicities`` is the sequence t_0..t_n of permutation-lattice
    multiplicities (None when unresolved); ``minkowski_count`` is the number
    of free group-ring summands (None unless Resolved); ``residual`` is the
    bookkeeping triple (heavy type count, heavy place count, rank drop of
    the non-guaranteed part); ``diagnostics`` explains any degradation.
    """

    library_summands: dict
    perm_multiplicities: tuple
    minkowski_count: int
    residual: tuple
    status: str
    diagnostics: tuple = ()


def recover_structure(datum, budget=10**6, seed=0):
    """Full structure recovery: predicted diagram, library subtraction, and
    the rank recursion for permutation multiplicities.

    The predicted diagram is matched against the library; on a full match
    the fixed-point ranks of the extracted part are subtracted from the
    predicted unit ranks and the remaining differences are divided down to
    the multiplicities t_0..t_n.  Any failure — unmatched diagram,
    non-integral division, or a negative multiplicity — degrades the status
    to PartiallyResolved with a diagnostic; negative multiplicities are
    reported as computed, never clamped.
    """
    params = datum.params
    p, n = params.p, params.n
    stats = upsilon_stats(datum)
    residual_base = (len(stats.heavy_types), stats.heavy_places)
    diagram = predict_diagram(datum)
    sub = diagrams.subtract_library(diagram, budget=budget, seed=seed)
    if not sub.fully_resolved:
        return DecompositionReport(
            {},
            None,
            None,
            residual_base + (None,),
            PARTIALLY_RESOLVED,
            ("library subtraction left the diagram unresolved",),
        )
    extracted = dict(sub.extracted)
    guaranteed = guaranteed_summands(datum).summands
    d_prime = _residual_d_prime(params, extracted, guaranteed)
    residual = residual_base + (d_prime,)
    ranks = character_ranks(datum)
    fixed = [
        sum(
            mult * library_fixed_rank(params, a, b, j)
            for (a, b), mult in extracted.items()
        )
        for j in range(n + 1)
    ]
    partial = []
    for j in range(n):
        numerator = (ranks[j] - ranks[j + 1]) - (fixed[j] - fixed[j + 1])
        denominator = p ** (n - j) - p ** (n - j - 1)
        if numerator % denominator:
            return DecompositionReport(
                extracted,
                None,
                None,
                residual,
                PARTIALLY_RESOLVED,
                (f"rank recursion is non-integral at level {j}",),
            )
        partial.append(numerator // denominator)
    mults = [partial[0]]
    for j in range(1, n):
        mults.append(partial[j] - partial[j - 1])
    mults.append(ranks[n] - fixed[n] - partial[n - 1])
    mults = tuple(mults)
    if any(m < 0 for m in mults):
        bad = [i for i, m in enumerate(mults) if m < 0]
        return DecompositionReport(
            extracted,
            mults,
            None,
            residual,
            PARTIALLY_RESOLVED,
            tuple(
                f"negative permutation multiplicity t_{i} = {mults[i]}" for i in bad
            ),
        )
    accounted = fixed[0] + sum(m * p ** (n - i) for i, m in enumerate(mults))
    if accounted != ranks[0]:
        raise InvariantError(
            f"rank accounting failed: {accounted} != predicted total {ranks[0]}"
        )
    return DecompositionReport(
        extracted, mults, mults[0], residual, RESOLVED
    )


def minkowski_count(report):
    """Number of free group-ring summands; defined only on Resolved reports."""
    if report.status != RESOLVED:
        raise ValueError("minkowski count needs a fully resolved report")
    return report.minkowski_count


def corollary_residual(datum, report):
    """Rank-drop residual of the non-guaranteed part, with the exact identity
    t_0 = r1 + r2 + s_0 + (2·heavy types - heavy places) - residual/(p^n - p^{n-1})
    asserted; any failure raises rather than passing silently."""
    if report.status != RESOLVED:
        raise ValueError("the bookkeeping identity needs a fully resolved report")
    params = datum.params
    p, n = params.p, params.n
    heavy_types, heavy_places, d_prime = report.residual
    unit_step = p**n - p ** (n - 1)
    if d_prime % unit_step:
        raise InvariantError(
            f"residual rank drop {d_prime} is not a multiple of {unit_step}"
        )
    expected = (
        datum.r1
        + datum.r2
        + datum.split_count()
        + (2 * heavy_types - heavy_places)
        - d_prime // unit_step
    )
    if report.perm_multiplicities[0] != expected:
        raise InvariantError(
            f"bookkeeping identity failed: t_0 = {report.perm_multiplicities[0]} "
            f"but the ramification statistics give {expected}"
        )
    return d_prime
