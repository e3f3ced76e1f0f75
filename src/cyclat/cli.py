"""Command-line interface.

Subcommands:

* ``diagram``  — print the cohomology ladder of a permutation or library
                 lattice as JSON (levels with recognized labels, map
                 matrices row-major).
* ``predict``  — run the arithmetic pipeline on a JSON datum document and
                 emit the structure report.
* ``primes``   — list qualifying auxiliary primes, or report their density.
* ``density``  — density report as JSON.
* ``selftest`` — run a built-in verification suite.

Exit codes: 0 success, 2 input error, 3 partially resolved structure,
4 unsupported regime, 5 internal invariant failure.  Identical inputs
produce byte-identical output: keys are emitted in sorted order, all
randomness is seeded, and no timestamps appear in any payload.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, primes, selftest, sunits
from .cohomology import yakovlev_diagram
from .diagrams import DiagramError
from .finmod import InvariantError, NotStandard, recognize_standard_sum
from .groupring import GroupParams
from .lattices import mab_lattice, permutation_lattice

TOOL_VERSION = f"cyclat {__version__}"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARTIAL = 3
EXIT_UNSUPPORTED = 4
EXIT_INTERNAL = 5

_DATUM_KEYS = {
    "p",
    "n",
    "r1",
    "r2",
    "ramified",
    "s_counts",
    "regime",
    "all_S_split",
}
_PLACE_KEYS = {"inertia_order", "decomposition_order"}


def _canonical(payload):
    """Canonical JSON text: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from exc
    sys.stdout.write(text)


def _require_int(obj, key, where):
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{where}: field {key!r} must be an integer")
    return value


def _load_datum(obj):
    """Strictly validated ExtensionDatum from a parsed JSON document."""
    if not isinstance(obj, dict):
        raise ValueError("datum document must be a JSON object")
    unknown = set(obj) - _DATUM_KEYS
    if unknown:
        raise ValueError(f"datum document has unknown fields {sorted(unknown)}")
    for key in ("p", "n", "r1", "r2"):
        if key not in obj:
            raise ValueError(f"datum document is missing field {key!r}")
    params = GroupParams(_require_int(obj, "p", "datum"), _require_int(obj, "n", "datum"))
    records = obj.get("ramified", [])
    if not isinstance(records, list):
        raise ValueError("ramified must be an array of objects")
    ramified = []
    for pos, rec in enumerate(records):
        if not isinstance(rec, dict) or set(rec) != _PLACE_KEYS:
            raise ValueError(
                f"ramified[{pos}] must be an object with exactly "
                "inertia_order and decomposition_order"
            )
        ramified.append(
            (
                _require_int(rec, "inertia_order", f"ramified[{pos}]"),
                _require_int(rec, "decomposition_order", f"ramified[{pos}]"),
            )
        )
    s_counts = obj.get("s_counts")
    if s_counts is not None:
        if not isinstance(s_counts, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in s_counts
        ):
            raise ValueError("s_counts must be an array of integers")
        s_counts = tuple(s_counts)
    regime = obj.get("regime", sunits.HILBERT_CYCLIC)
    if not isinstance(regime, str):
        raise ValueError("regime must be a string")
    all_split = obj.get("all_S_split")
    if all_split is not None and not isinstance(all_split, bool):
        raise ValueError("all_S_split must be a boolean")
    return sunits.ExtensionDatum(
        params,
        _require_int(obj, "r1", "datum"),
        _require_int(obj, "r2", "datum"),
        tuple(ramified),
        s_counts,
        regime,
        all_split,
    )


def _datum_document(datum):
    """Normalized echo of a datum, in the interchange schema."""
    return {
        "p": datum.params.p,
        "n": datum.params.n,
        "r1": datum.r1,
        "r2": datum.r2,
        "ramified": [
            {
                "inertia_order": place.inertia_order,
                "decomposition_order": place.decomposition_order,
            }
            for place in datum.ramified
        ],
        "s_counts": list(datum.s_counts),
        "regime": datum.regime,
        "all_S_split": datum.all_S_split,
    }


def _labels_document(multiset):
    return [[a, b, mult] for (a, b), mult in sorted(multiset.items())]


def _level_document(index, module):
    recognized = recognize_standard_sum(module)
    return {
        "index": index,
        "invariants": list(module.invariants()),
        "recognized": None
        if recognized is NotStandard
        else _labels_document(recognized),
    }


def _diagram_document(diagram):
    return {
        "levels": [
            _level_document(i, diagram.level(i)) for i in range(1, diagram.n + 1)
        ],
        "ups": [m.matrix for m in diagram.ups],
        "downs": [m.matrix for m in diagram.downs],
    }


# the options of the other kind, which a diagram of this kind must not be given
_FOREIGN_FLAGS = {"perm": ("a", "b"), "mab": ("i",)}


def cmd_diagram(args):
    for name in _FOREIGN_FLAGS[args.kind]:
        if getattr(args, name) is not None:
            raise ValueError(f"--kind {args.kind} does not take --{name}")
    params = GroupParams(args.p, args.n)
    if args.kind == "perm":
        index = 0 if args.i is None else args.i
        lattice = permutation_lattice(params, index)
        described = {"kind": "perm", "i": index}
    else:
        if args.a is None or args.b is None:
            raise ValueError("--kind mab needs both --a and --b")
        lattice = mab_lattice(params, args.a, args.b)
        described = {"kind": "mab", "a": args.a, "b": args.b}
    payload = {"p": params.p, "n": params.n, **described}
    payload.update(_diagram_document(yakovlev_diagram(lattice)))
    _emit(_canonical(payload), None)
    return EXIT_OK


def cmd_predict(args):
    try:
        with open(args.input, encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # nesting deeper than the parser's recursion limit is bad input too
        raise ValueError(f"{args.input} is not valid JSON: {exc}") from exc
    datum = _load_datum(obj)
    report = sunits.recover_structure(datum, budget=args.budget, seed=args.seed)
    identity_checked = report.status == sunits.RESOLVED
    if identity_checked:
        sunits.corollary_residual(datum, report)  # raises on failure
    heavy_types, heavy_places, rank_drop = report.residual
    payload = {
        "input": _datum_document(datum),
        "report": {
            "library_summands": _labels_document(report.library_summands),
            "perm_multiplicities": None
            if report.perm_multiplicities is None
            else list(report.perm_multiplicities),
            "minkowski_count": report.minkowski_count,
            "residual": {
                "heavy_type_count": heavy_types,
                "heavy_place_count": heavy_places,
                "rank_drop": rank_drop,
            },
            "identity_checked": identity_checked,
            "status": report.status,
            "diagnostics": list(report.diagnostics),
        },
        "tool_version": TOOL_VERSION,
    }
    _emit(_canonical(payload), args.out)
    return EXIT_OK if report.status == sunits.RESOLVED else EXIT_PARTIAL


def _density_document(p, bound):
    report = primes.density_report(p, bound)
    return {
        "p": report.p,
        "bound": report.bound,
        "scanned": report.scanned,
        "qualifying": report.qualifying,
        "observed": report.observed,
        "expected": report.expected,
        "expected_fraction": [report.expected_num, report.expected_den],
    }


def cmd_primes(args):
    if args.density:
        _emit(_canonical(_density_document(args.p, args.bound)), None)
        return EXIT_OK
    result = primes.find_qualifying(args.p, args.bound)
    for q in result.qualifying:
        sys.stdout.write(f"{q}\n")
    return EXIT_OK


def cmd_density(args):
    _emit(_canonical(_density_document(args.p, args.bound)), None)
    return EXIT_OK


def cmd_selftest(args):
    checks = selftest.run_suite(args.suite, args.seed)
    width = max(len(name) for name, _, _ in checks)
    failures = 0
    for name, ok, detail in sorted(checks):
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        sys.stdout.write(f"{status}  {name:<{width}}  {detail}\n")
    sys.stdout.write(
        f"{len(checks) - failures}/{len(checks)} checks passed"
        f" (suite {args.suite}, seed {args.seed})\n"
    )
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cyclat",
        description="Cohomology ladders and unit-structure prediction "
        "for cyclic prime-power Galois groups.",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("diagram", help="ladder diagram of a named lattice")
    d.add_argument("--p", type=int, required=True, help="odd prime")
    d.add_argument("--n", type=int, required=True, help="group order exponent")
    d.add_argument("--kind", choices=("perm", "mab"), required=True)
    d.add_argument("--a", type=int, help="torsion exponent of the library label")
    d.add_argument("--b", type=int, help="twist width of the library label")
    d.add_argument("--i", type=int, help="subgroup index for kind=perm")
    d.set_defaults(handler=cmd_diagram)

    pr = sub.add_parser("predict", help="structure report for a datum document")
    pr.add_argument("--input", required=True, help="path to the datum JSON")
    pr.add_argument("--out", help="also write the report to this path")
    pr.add_argument("--budget", type=int, default=10**6)
    pr.add_argument("--seed", type=int, default=0)
    pr.set_defaults(handler=cmd_predict)

    q = sub.add_parser("primes", help="qualifying auxiliary primes")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--bound", type=int, required=True)
    q.add_argument("--density", action="store_true", help="report density instead")
    q.set_defaults(handler=cmd_primes)

    de = sub.add_parser("density", help="qualifying-prime density report")
    de.add_argument("--p", type=int, required=True)
    de.add_argument("--bound", type=int, required=True)
    de.set_defaults(handler=cmd_density)

    st = sub.add_parser("selftest", help="run a built-in verification suite")
    st.add_argument(
        "--suite", choices=selftest.SUITES + ("all",), default="all"
    )
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except sunits.UnsupportedRegimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNSUPPORTED
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (InvariantError, DiagramError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
