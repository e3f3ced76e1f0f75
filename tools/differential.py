"""Seeded differential corpus: digests of cyclat's canonical outputs.

Run from the root of a source checkout:

    python3 tools/differential.py [--seed N]

It imports ``cyclat`` from that checkout's ``src/`` and prints one line per
section (name, number of records, SHA-256 of the records as canonical JSON)
and a last line digesting all sections.  Two checkouts agree on the corpus
exactly when they print the same lines, so an old-versus-new check is

    diff <(cd old && python3 tools/differential.py) \\
         <(cd new && python3 tools/differential.py)

The records are library ideal bases, kernel bases, level relations
(saturated Hermite forms), level divisors and invariants, minimized diagrams
with their rung matrices, hom-system bases and pivots, and isomorphism
verdicts with their witnesses at budget 10^6 (``verdicts``) and at budget 30
(``verdicts_budget30``: a hom group of more than 30 elements is sampled).  A witness
is a hom, not a matrix: its columns are recorded reduced by the target
level's relations, so two searches that find the same hom through different
integer representatives agree.  Most of these are unique normal forms, which
do not depend on how they were computed.  Two are not.  The rung matrices
are printed by ``diagram`` in minimized coordinates, which come from the
Smith transform that ``FiniteGammaModule.minimized`` takes of the saturated
relations, so they move whenever that transform's pivot sequence moves.  The
``kernel_bases`` section holds ``intmat.kernel`` of each corpus lattice's
norm_matrix(j) and moved_matrix(j), which are rows of ``row_hnf``'s
transform; the H^1 presentations are written in those bases, so a drift in
the Hermite transform shows there under its own name.  The ``large_diagrams`` section holds the minimized diagrams of the
six library labels at (5, 3), rank up to 125.  The diagram pairs include
twists (sigma acting as sigma^k, k prime to p, on every level) of library
and lattice ladders, which pass the invariant screen.  The
``large_hom_systems`` section holds the hom system of the (3, 4) predicted
diagram of the mixed golden shape into its library diagram (216 unknowns),
where levels have many generators.  The ``predicted`` section
holds, for seeded Hilbert-cyclic extension data (p in {3, 5}, n <= 3, one
to four ramified places), every ``wj_presentation`` level, the minimized
``predict_diagram`` and the ``recover_structure`` report.  Each section
prints its own digest, so a mismatch names the layer where the outputs part.
The ``powers`` section holds, for each corpus lattice and each of its H^1
levels, the digest of ``action_power(k)`` for every k < p^n; powers are
exact, so it cannot depend on how the power cache chains its products.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from cyclat.cohomology import tate_h0, tate_h1, yakovlev_diagram  # noqa: E402
from cyclat.diagrams import (  # noqa: E402
    YakovlevDiagram,
    _build_hom_system,
    _check_diagram,
    _isomorphism_search,
    _library_labels,
    _minimized_diagram,
    library_diagram,
    subtract_library,
)
from cyclat.finmod import FiniteGammaModule, GammaMap  # noqa: E402
from cyclat.groupring import GroupParams  # noqa: E402
from cyclat.intmat import kernel  # noqa: E402
from cyclat.lattices import (  # noqa: E402
    direct_sum,
    mab_lattice,
    permutation_lattice,
    random_unimodular_change,
)
from cyclat.sunits import (  # noqa: E402
    ExtensionDatum,
    predict_diagram,
    recover_structure,
    wj_presentation,
)

# (p, n) groups of the lattice corpus; the last one only for bare library labels
GROUPS = ((3, 2), (3, 3), (5, 2), (7, 2))
LARGE = (3, 4)
# group whose library-label diagrams make the large_diagrams section
LARGE_DIAGRAMS = (5, 3)
# groups of the diagram-pair corpus (hom systems and verdicts)
PAIR_GROUPS = ((3, 2), (3, 3), (5, 2))
# group of the large_hom_systems section, and the datum shape it predicts:
# r1, r2 and the ramified places of tests/golden/datum_p3_n3_mixed.json
LARGE_HOMS = (3, 4)
MIXED_SHAPE = (1, 0, ((9, 9), (3, 27), (3, 3)))
BUDGET = 10**6
# budget of the section that exercises the sampled search
SMALL_BUDGET = 30
# number of extension data in the predicted section
PREDICT_DATA = 60


def lattice_corpus(rng):
    """(name, lattice) over every group: permutation lattices, each library
    label, and the label with a seeded permutation summand and base change."""
    for p, n in GROUPS:
        params = GroupParams(p, n)
        for i in range(n + 1):
            yield f"p{p}n{n}_perm{i}", permutation_lattice(params, i)
        for a, b in _library_labels(n):
            lat = mab_lattice(params, a, b)
            yield f"p{p}n{n}_({a},{b})", lat
            summed = direct_sum([lat, permutation_lattice(params, rng.randrange(n + 1))])
            yield f"p{p}n{n}_({a},{b})+perm", summed
            yield f"p{p}n{n}_({a},{b})+perm_changed", random_unimodular_change(
                summed, rng.getrandbits(64)
            )
    p, n = LARGE
    params = GroupParams(p, n)
    for a, b in _library_labels(n):
        yield f"p{p}n{n}_({a},{b})", mab_lattice(params, a, b)


def powers_digest(obj):
    """Digest of sigma^k on a lattice or module, for every k < p^n."""
    return digest([obj.action_power(k) for k in range(obj.params.order)])


def module_record(module):
    n = module.params.n
    return {
        "gens": module.gens,
        "relations": module.relations,
        "action": module.action,
        "divisors": [list(module.level_divisors(j)) for j in range(n + 1)],
    }


def diagram_record(diagram):
    md = _minimized_diagram(diagram)
    return {
        "levels": [module_record(m) for m in md.levels],
        "ups": [m.matrix for m in md.ups],
        "downs": [m.matrix for m in md.downs],
        "invariants": [list(x) for x in diagram.level_invariants()],
    }


def witness_record(witness, md2):
    """Witness columns reduced by the target level's relations, so two
    witnesses that are the same hom give the same record."""
    if witness is None:
        return None
    return [[tgt.reduce_vec(list(col)) for col in zip(*h)] for h, tgt in zip(witness, md2.levels)]


def pair_corpus(rng):
    """(name, d1, d2): each library label against a seeded variant lattice,
    both ways, plus cross-label pairs whose answer is No."""
    for p, n in PAIR_GROUPS:
        params = GroupParams(p, n)
        labels = _library_labels(n)
        for a, b in labels:
            lib = library_diagram(params, {(a, b): 1})
            lat = mab_lattice(params, a, b)
            if rng.randrange(2):
                lat = direct_sum([lat, permutation_lattice(params, rng.randrange(n + 1))])
            lat = random_unimodular_change(lat, rng.getrandbits(64))
            diag = yakovlev_diagram(lat)
            yield f"p{p}n{n}_({a},{b})_lattice_to_library", diag, lib
            yield f"p{p}n{n}_({a},{b})_library_to_lattice", lib, diag
            other = labels[rng.randrange(len(labels))]
            yield f"p{p}n{n}_({a},{b})_to_{other}", lib, library_diagram(params, {other: 1})
    params = GroupParams(3, 2)
    yield "p3n2_(1,1)_to_(2,0)+(1,0)", library_diagram(
        params, {(1, 1): 1}
    ), library_diagram(params, {(2, 0): 1, (1, 0): 1})
    # twists pass the screen against whatever the untwisted ladder passes it against
    for p, n in PAIR_GROUPS:
        params = GroupParams(p, n)
        units = [k for k in range(2, params.order) if k % p]
        for a, b in _library_labels(n):
            lib = library_diagram(params, {(a, b): 1})
            lat = yakovlev_diagram(
                random_unimodular_change(mab_lattice(params, a, b), rng.getrandbits(64))
            )
            yield f"p{p}n{n}_({a},{b})_twisted_library_to_lattice", twisted(
                lib, rng.choice(units)
            ), lat
            yield f"p{p}n{n}_({a},{b})_twisted_lattice_to_library", twisted(
                lat, rng.choice(units)
            ), lib


def twisted(diagram, k):
    """The ladder with sigma acting as sigma^k on every level, k prime to p.

    sigma^k generates every subgroup that sigma does, so the twist is a
    valid ladder (checked) with the same divisor lists and image orders.
    """
    levels = [
        FiniteGammaModule(m.params, m.gens, m.relations, m.action_power(k))
        for m in diagram.levels
    ]
    ups = [GammaMap(levels[i], levels[i + 1], u.matrix) for i, u in enumerate(diagram.ups)]
    downs = [GammaMap(levels[i + 1], levels[i], d.matrix) for i, d in enumerate(diagram.downs)]
    out = YakovlevDiagram(diagram.params, levels, ups, downs)
    _check_diagram(out)
    return out


def large_hom_system_record(p, n):
    """Hom system of the mixed-shape predicted diagram into its library diagram."""
    datum = ExtensionDatum(GroupParams(p, n), *MIXED_SHAPE, (4,) + (0,) * (n - 1) + (2,))
    diagram = predict_diagram(datum)
    library = library_diagram(datum.params, subtract_library(diagram).extracted)
    system = _build_hom_system(_minimized_diagram(diagram), _minimized_diagram(library))
    return [p, n, system.total, system.basis, system.pivots]


def predict_corpus(rng):
    """Seeded Hilbert-cyclic data: p in {3, 5}, n <= 3, one to four ramified
    places, random place counts and auxiliary-place counts."""
    for _ in range(PREDICT_DATA):
        p, n = rng.choice((3, 5)), rng.randrange(1, 4)
        places = []
        for _ in range(rng.randrange(1, 5)):
            c = rng.randrange(1, n + 1)
            places.append((p ** rng.randrange(1, c + 1), p**c))
        r1 = rng.randrange(3)
        r2 = rng.randrange(0 if r1 else 1, 3)
        counts = tuple(rng.randrange(3) for _ in range(n + 1))
        yield ExtensionDatum(GroupParams(p, n), r1, r2, tuple(places), counts)


def predicted_record(datum):
    n = datum.params.n
    report = recover_structure(datum)
    return {
        "datum": [
            datum.params.p,
            n,
            datum.r1,
            datum.r2,
            [place.type_pair() for place in datum.ramified],
            datum.s_counts,
        ],
        "levels": [module_record(wj_presentation(datum, j)) for j in range(n + 1)],
        "diagram": diagram_record(predict_diagram(datum)),
        "report": [
            sorted([a, b, m] for (a, b), m in report.library_summands.items()),
            report.perm_multiplicities,
            report.minkowski_count,
            report.residual,
            report.status,
            report.diagnostics,
        ],
    }


def sections(seed):
    rng = random.Random(seed)
    ideals, kernels, h1, h0, diagrams, powers = [], [], [], [], [], []
    for p, n in GROUPS + (LARGE,):
        params = GroupParams(p, n)
        for a, b in _library_labels(n):
            lat = mab_lattice(params, a, b)
            ideals.append([p, n, a, b, lat.basis_in_group_ring, lat.action])
    for name, lat in lattice_corpus(rng):
        n = lat.params.n
        kernels.append(
            [
                name,
                [
                    [kernel(m, ncols=lat.rank) for m in (lat.norm_matrix(j), lat.moved_matrix(j))]
                    for j in range(1, n + 1)
                ],
            ]
        )
        h1.append([name, [module_record(tate_h1(lat, j)) for j in range(n + 1)]])
        h0.append([name, [module_record(tate_h0(lat, j)) for j in range(n + 1)]])
        diagrams.append([name, diagram_record(yakovlev_diagram(lat))])
        levels = [powers_digest(tate_h1(lat, j)) for j in range(1, n + 1)]
        powers.append([name, powers_digest(lat), levels])
    large = []
    p, n = LARGE_DIAGRAMS
    params = GroupParams(p, n)
    for a, b in _library_labels(n):
        large.append([p, n, a, b, diagram_record(yakovlev_diagram(mab_lattice(params, a, b)))])
    homs, verdicts, sampled = [], [], []
    for name, d1, d2 in pair_corpus(rng):
        md1, md2 = _minimized_diagram(d1), _minimized_diagram(d2)
        for budget, records in ((BUDGET, verdicts), (SMALL_BUDGET, sampled)):
            verdict, witness = _isomorphism_search(d1, d2, budget, 0)
            records.append([name, verdict.name, witness_record(witness, md2)])
        system = _build_hom_system(md1, md2)
        homs.append([name, system.total, system.basis, system.pivots])
    large_homs = [large_hom_system_record(*LARGE_HOMS)]
    predicted = [predicted_record(datum) for datum in predict_corpus(rng)]
    return {
        "ideals": ideals,
        "kernel_bases": kernels,
        "h1_levels": h1,
        "h0_levels": h0,
        "diagrams": diagrams,
        "large_diagrams": large,
        "hom_systems": homs,
        "large_hom_systems": large_homs,
        "verdicts": verdicts,
        "verdicts_budget30": sampled,
        "predicted": predicted,
        "powers": powers,
    }


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="corpus seed (default 1)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    out = sections(args.seed)
    width = max(map(len, out))
    for name, records in out.items():
        print(f"{name:{width}s} {len(records):4d} {digest(records)}")
    print(f"{'all':{width}s} {sum(len(r) for r in out.values()):4d} {digest(out)}")
    print(f"# seed {args.seed}, {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
