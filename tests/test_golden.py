"""Golden CLI outputs: stdout and exit code must stay identical across refactors.

Each case is an argv for ``cyclat``, the file under ``tests/golden`` holding
its recorded stdout, and its recorded exit code in ``exit_codes.json``.  To
re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.

The mixed-ramification ``predict`` data have n >= 2, so their library
confirmation runs the full hom-system search with up and down rungs;
``datum_p3_n3_unresolved.json`` is a datum that comes back partially
resolved (exit code 3).
"""

import contextlib
import io
import json
import pathlib

import pytest

from cyclat.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"


def _diagram_cases():
    for p, n in [(3, 1), (3, 2), (3, 3), (5, 2)]:
        for a in range(1, n + 1):
            for b in range(0, n - a + 1):
                argv = ["diagram", "--p", str(p), "--n", str(n), "--kind", "mab",
                        "--a", str(a), "--b", str(b)]
                yield f"diagram_p{p}_n{n}_a{a}_b{b}.txt", argv


def _predict_cases():
    yield "predict_readme.txt", ["predict", "--input", str(GOLDEN / "readme_datum.json")]
    for datum in sorted(GOLDEN.glob("datum_*.json")):
        name = "predict_" + datum.stem[len("datum_"):] + ".txt"
        yield name, ["predict", "--input", str(datum)]


CASES = {**dict(_diagram_cases()), **dict(_predict_cases())}
CASES["selftest_all.txt"] = ["selftest", "--suite", "all"]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, out = _run(CASES[name])
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = _run(argv)
        (GOLDEN / name).write_text(out, encoding="utf-8")
        print(f"wrote {name} (exit code {codes[name]})")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
