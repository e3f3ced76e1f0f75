"""The hom system of the isomorphism search parametrizes diagram homs only.

Every basis column of ``_build_hom_system`` and every random combination of
them, evaluated by ``_candidate_maps``, must be a levelwise family of module
maps (checked by the untrusted ``GammaMap`` constructor: relations and
sigma) that commutes with every up and down map modulo the target relations.
"""

import random

import pytest

from cyclat import diagrams, intmat
from cyclat.cohomology import yakovlev_diagram
from cyclat.diagrams import (
    IsoResult,
    YakovlevDiagram,
    _build_hom_system,
    _candidate_maps,
    _isomorphism_search,
    _library_labels,
    _minimized_diagram,
    _word_matrices,
    library_diagram,
    validate_diagram,
)
from cyclat.finmod import FiniteGammaModule, GammaMap, standard_sum
from cyclat.groupring import GroupParams
from cyclat.lattices import (
    direct_sum,
    mab_lattice,
    permutation_lattice,
    random_unimodular_change,
)


def _variant(rng, params, a, b):
    """The lattice (a, b) with a permutation summand and/or a base change."""
    lat = mab_lattice(params, a, b)
    choice = rng.randrange(3)
    if choice > 0:
        lat = direct_sum([lat, permutation_lattice(params, rng.randrange(params.n + 1))])
    if choice != 1:
        lat = random_unimodular_change(lat, rng.getrandbits(64))
    return lat


def _zero_bottom_diagram(params):
    """Valid diagram whose lowest level is zero: 0, F_p, F_p with up = 1, down = 0."""
    zero = FiniteGammaModule.zero(params)
    mid = FiniteGammaModule.standard(params, 1, params.n)
    top = FiniteGammaModule.standard(params, 1, params.n)
    ups = [GammaMap.zero(zero, mid), GammaMap(mid, top, [[1]])]
    downs = [GammaMap.zero(mid, zero), GammaMap.zero(top, mid)]
    return YakovlevDiagram(params, [zero, mid, top], ups, downs)


def _top_zero_pair(params):
    """Diagrams F_p -> F_p[x]/(x - 1)^2 on level 1 (p = 3, n = 2), zero above.

    F_p[x]/(x - 1)^2 is F_p[Gamma/Gamma_1] modulo its norm, so both levels
    are killed by the relative norm and the rung maps can be zero; sigma
    fixes only part of the target, so only the sigma constraint keeps the
    homs equivariant.
    """
    zero = FiniteGammaModule.zero(params)
    trivial = FiniteGammaModule.standard(params, 1, params.n)
    twisted = FiniteGammaModule.from_invariant_relations(params, [3, 3], [[0, -1], [1, -1]])

    def one_level(mod):
        return YakovlevDiagram(
            params, [mod, zero], [GammaMap.zero(mod, zero)], [GammaMap.zero(zero, mod)]
        )

    return one_level(trivial), one_level(twisted)


def _twisted_pair(params):
    """Ladders F_p -> Z/p^2 -> F_p (p = 3, n = 3) with sigma = 4, then 7, on Z/9.

    sigma = 7 = 4^2 is the twist of sigma = 4 by the automorphism sigma ->
    sigma^2 of the group, which changes no divisor list and no image
    order, so the screen passes; yet no unit u of Z/9 has 4u = 7u, so the
    middle levels are not isomorphic and only an exhaustive search says No.
    """

    def ladder(unit):
        low = FiniteGammaModule.standard(params, 1, params.n)
        mid = FiniteGammaModule.from_invariant_relations(params, [9], [[unit]])
        top = FiniteGammaModule.standard(params, 1, params.n)
        ups = [GammaMap(low, mid, [[3]]), GammaMap(mid, top, [[1]])]
        downs = [GammaMap(mid, low, [[1]]), GammaMap(top, mid, [[3]])]
        return YakovlevDiagram(params, [low, mid, top], ups, downs)

    return ladder(4), ladder(7)


def _twisted(diagram, k):
    """The ladder with sigma acting as sigma^k on every level, k prime to p.

    sigma^k generates every subgroup that sigma does, so the twist is a
    valid ladder with the same divisor lists and image orders, and the
    screen passes it against anything the original passes against.
    """
    levels = [
        FiniteGammaModule(m.params, m.gens, m.relations, m.action_power(k))
        for m in diagram.levels
    ]
    ups = [GammaMap(levels[i], levels[i + 1], u.matrix) for i, u in enumerate(diagram.ups)]
    downs = [GammaMap(levels[i + 1], levels[i], d.matrix) for i, d in enumerate(diagram.downs)]
    twisted = YakovlevDiagram(diagram.params, levels, ups, downs)
    assert validate_diagram(twisted)
    return twisted


def _unit(rng, params):
    """A unit k != 1 modulo p^n."""
    return rng.choice([k for k in range(2, params.order) if k % params.p])


def _pairs():
    rng = random.Random(20261018)
    for n in (2, 3):
        params = GroupParams(3, n)
        for a, b in _library_labels(n):
            lib = library_diagram(params, {(a, b): 1})
            lat = yakovlev_diagram(_variant(rng, params, a, b))
            yield f"p3n{n}_({a},{b})_lattice_to_library", lat, lib
            yield f"p3n{n}_({a},{b})_library_to_lattice", lib, lat
    params = GroupParams(3, 2)
    two = library_diagram(params, {(1, 0): 1, (1, 1): 1})
    summed = yakovlev_diagram(
        random_unimodular_change(
            direct_sum([mab_lattice(params, 1, 0), mab_lattice(params, 1, 1)]), 7
        )
    )
    yield "p3n2_two_summands", summed, two
    # not isomorphic; the target has larger exponents and smaller stabilizers
    # than the source, so killing the relations and commuting with sigma are
    # real constraints here (between equal level types they hold for free)
    yield "p3n2_(1,1)_to_(2,0)+(1,0)", library_diagram(
        params, {(1, 1): 1}
    ), library_diagram(params, {(2, 0): 1, (1, 0): 1})
    yield ("p3n2_trivial_to_twisted", *_top_zero_pair(params))
    zero_bottom = _zero_bottom_diagram(GroupParams(3, 3))
    yield "p3n3_zero_bottom_level", zero_bottom, zero_bottom
    yield ("p3n3_twisted_middle_level", *_twisted_pair(GroupParams(3, 3)))
    for p, n in ((3, 2), (3, 3), (5, 2)):
        params = GroupParams(p, n)
        for a, b in _library_labels(n):
            lib = library_diagram(params, {(a, b): 1})
            lat = yakovlev_diagram(_variant(rng, params, a, b))
            name = f"p{p}n{n}_({a},{b})"
            yield f"{name}_twisted_library_to_lattice", _twisted(lib, _unit(rng, params)), lat
            yield f"{name}_twisted_lattice_to_library", _twisted(lat, _unit(rng, params)), lib


PAIRS = {name: (d1, d2) for name, d1, d2 in _pairs()}


def _check_diagram_hom(mats, md1, md2):
    homs = [GammaMap(s, t, m) for s, t, m in zip(md1.levels, md2.levels, mats)]
    for i in range(md1.n - 1):
        assert homs[i + 1].compose(md1.ups[i]).equals_mod(md2.ups[i].compose(homs[i]))
        assert homs[i].compose(md1.downs[i]).equals_mod(md2.downs[i].compose(homs[i + 1]))


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_every_parametrized_tuple_is_a_diagram_hom(name):
    md1, md2 = (_minimized_diagram(d) for d in PAIRS[name])
    system = _build_hom_system(md1, md2)
    assert system.total > 0
    # each level's forms span exactly its own block of unknowns
    ends = [first for first, _ in system.levels[1:]] + [system.total]
    for (first, forms), end in zip(system.levels, ends):
        assert all(len(form) == end - first for col in forms for form in col), name
    for idx in range(system.total):
        coeffs = [int(k == idx) for k in range(system.total)]
        _check_diagram_hom(_candidate_maps(system, coeffs, md2), md1, md2)
    rng = random.Random(name)
    for _ in range(5):
        coeffs = [rng.randrange(system.q // t) for t in system.pivots]
        _check_diagram_hom(_candidate_maps(system, coeffs, md2), md1, md2)


def test_one_hermite_form_per_level_for_the_generator_words(monkeypatch):
    calls = []
    original = intmat._hermite

    def counting(rows, width):
        calls.append(width)
        return original(rows, width)

    monkeypatch.setattr(intmat, "_hermite", counting)
    widest = 0
    for name in sorted(PAIRS):
        md1, md2 = (_minimized_diagram(d) for d in PAIRS[name])
        q = md1.params.p ** md1.params.n
        for src, tgt in zip(md1.levels, md2.levels):
            calls.clear()
            _word_matrices(src, tgt, q)
            # one elimination over the level's generator coordinates
            assert calls == [src.gens], name
            widest = max(widest, src.gens)
    # levels with several generators are where a per-generator form would show
    assert widest >= 3


def test_solution_lattice_is_the_hermite_form_over_z(monkeypatch):
    # the lattice is reduced modulo q = p^n without a transform; it must be
    # the column HNF over Z of the kernel projection next to q . I
    seen = []
    original = intmat.hnf_mod_prime_power

    def recording(cols, p, e):
        out = original(cols, p, e)
        seen.append((cols, p**e, out))
        return out

    monkeypatch.setattr(intmat, "hnf_mod_prime_power", recording)
    for name in sorted(PAIRS):
        md1, md2 = (_minimized_diagram(d) for d in PAIRS[name])
        seen.clear()
        system = _build_hom_system(md1, md2)
        assert len(seen) == 1, name
        cols, q, out = seen[0]
        qfull = intmat.mat_scale(q, intmat.identity(system.total))
        assert out == intmat.hnf_cols(intmat.hstack(cols, qfull)), name
        assert system.basis == out
        assert system.pivots == [out[i][i] for i in range(system.total)]


def _full_orbits(monkeypatch):
    """Unroll every Gamma-orbit to the group order p^n, whatever sigma's order."""
    monkeypatch.setattr(FiniteGammaModule, "sigma_order", lambda self: self.params.order)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_sigma_order_words_give_the_same_solution_lattice(name, monkeypatch):
    md1, md2 = (_minimized_diagram(d) for d in PAIRS[name])
    short = _build_hom_system(md1, md2)
    _full_orbits(monkeypatch)
    full = _build_hom_system(md1, md2)
    assert (short.total, short.basis, short.pivots) == (full.total, full.basis, full.pivots)


def _search(d1, d2, budget, monkeypatch):
    """(verdict, witness reduced by the target relations, candidates tested)."""
    tested = []
    original = diagrams._candidate_maps

    def counting(*args):
        tested.append(1)
        return original(*args)

    monkeypatch.setattr(diagrams, "_candidate_maps", counting)
    verdict, witness = _isomorphism_search(d1, d2, budget, 0)
    if witness is not None:
        targets = _minimized_diagram(d2).levels
        witness = [
            [tgt.reduce_vec(list(col)) for col in zip(*h)] for h, tgt in zip(witness, targets)
        ]
    return verdict, witness, len(tested)


@pytest.mark.parametrize("budget", [30, 10**6])
def test_sigma_order_words_give_the_same_search(budget, monkeypatch):
    short = {name: _search(d1, d2, budget, monkeypatch) for name, (d1, d2) in PAIRS.items()}
    _full_orbits(monkeypatch)
    full = {name: _search(d1, d2, budget, monkeypatch) for name, (d1, d2) in PAIRS.items()}
    assert short == full
    # the searches that build a hom system test candidates
    assert any(tested for _, _, tested in short.values())


def test_trivially_acting_level_has_one_orbit_row_per_generator(monkeypatch):
    params = GroupParams(5, 3)
    source = standard_sum(params, {(1, 3): 1, (2, 3): 1, (3, 3): 1})
    assert source.gens == 3 and source.sigma_order() == 1
    seen = []
    original = intmat._hermite

    def recording(rows, width):
        seen.append((len(rows), width))
        return original(rows, width)

    monkeypatch.setattr(intmat, "_hermite", recording)
    width, forms = _word_matrices(source, source, params.order)
    # three Gamma-generators, each with three target coordinates
    assert width == 3 * 3
    # s . 1 orbit rows and one row per relation column, not s . p^n = 375 orbit rows
    assert seen == [(3 * 1 + 3, 3)]
    # identity words: entry (r, l) is coordinate r of the image of generator l
    assert forms == [
        [[int(l == j and r == c) for j in range(3) for c in range(3)] for r in range(3)]
        for l in range(3)
    ]


def _group_size(d1, d2):
    system = _build_hom_system(*(_minimized_diagram(d) for d in (d1, d2)))
    size = 1
    for t in system.pivots:
        size *= system.q // t
    return size


def test_exhaustive_no_tests_every_tuple_once(monkeypatch):
    d1, d2 = PAIRS["p3n3_twisted_middle_level"]
    size = _group_size(d1, d2)
    assert size == 729
    assert _search(d1, d2, size, monkeypatch) == (IsoResult.NO, None, size)


def test_exhaustive_yes_returns_the_first_surjective_tuple(monkeypatch):
    d1, d2 = PAIRS["p3n2_(1,0)_library_to_lattice"]
    md1, md2 = (_minimized_diagram(d) for d in (d1, d2))
    system = _build_hom_system(md1, md2)
    ranges = [system.q // t for t in system.pivots]
    p = md1.params.p
    # an odometer over the hom group, c_0 running fastest
    coeffs, index = [0] * system.total, 0
    while True:
        mats = _candidate_maps(system, coeffs, md2)
        if all(
            len(intmat.pivot_columns_mod_p(h, p)) == tgt.gens
            for h, tgt in zip(mats, md2.levels)
        ):
            break
        index += 1
        pos = 0
        while coeffs[pos] == ranges[pos] - 1:
            coeffs[pos] = 0
            pos += 1
        coeffs[pos] += 1
    assert index > 0
    tested = []
    original = diagrams._candidate_maps

    def counting(*args):
        tested.append(1)
        return original(*args)

    monkeypatch.setattr(diagrams, "_candidate_maps", counting)
    verdict, witness = _isomorphism_search(d1, d2, _group_size(d1, d2), 0)
    assert (verdict, witness, len(tested)) == (IsoResult.YES, mats, index + 1)
