"""Golden CLI outputs: stdout must stay byte-identical across refactors.

Each case is an argv for ``cyclat`` and the file under ``tests/golden``
holding its recorded stdout.  To re-record after an intended output change,
run ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from cyclat.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
README_DATUM = GOLDEN / "readme_datum.json"


def _diagram_cases():
    for p, n in [(3, 1), (3, 2), (3, 3), (5, 2)]:
        for a in range(1, n + 1):
            for b in range(0, n - a + 1):
                argv = ["diagram", "--p", str(p), "--n", str(n), "--kind", "mab",
                        "--a", str(a), "--b", str(b)]
                yield f"diagram_p{p}_n{n}_a{a}_b{b}.txt", argv


CASES = dict(_diagram_cases())
CASES["predict_readme.txt"] = ["predict", "--input", str(README_DATUM)]
CASES["selftest_all.txt"] = ["selftest", "--suite", "all"]


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, out = _stdout(CASES[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        code, out = _stdout(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
        print(f"wrote {name}")
