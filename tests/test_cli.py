"""Command-line interface: exit codes, document shapes, reproducibility."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import cyclat
from cyclat.cli import TOOL_VERSION, main

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOOD_DATUM = {
    "p": 3,
    "n": 1,
    "r1": 1,
    "r2": 0,
    "ramified": [{"inertia_order": 3, "decomposition_order": 3}],
    "s_counts": [0, 0],
    "regime": "HilbertCyclic",
    "all_S_split": True,
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_datum(tmp_path, payload, name="datum.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestDiagramCommand:
    def test_library_label_document(self, capsys):
        code, out, err = run(
            capsys, ["diagram", "--p", "3", "--n", "2", "--kind", "mab", "--a", "1", "--b", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "mab"
        assert [lvl["recognized"] for lvl in doc["levels"]] == [
            [[1, 2, 1]],
            [[1, 2, 1]],
        ]

    def test_permutation_lattice_has_zero_levels(self, capsys):
        code, out, _ = run(
            capsys, ["diagram", "--p", "3", "--n", "2", "--kind", "perm", "--i", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        for lvl in doc["levels"]:
            assert lvl["invariants"] == []
            assert lvl["recognized"] == []

    def test_rejects_out_of_range_label(self, capsys):
        code, _, err = run(
            capsys, ["diagram", "--p", "3", "--n", "2", "--kind", "mab", "--a", "0", "--b", "0"]
        )
        assert code == 2
        assert "error" in err

    def test_rejects_bad_prime(self, capsys):
        code, _, err = run(
            capsys, ["diagram", "--p", "4", "--n", "1", "--kind", "perm"]
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--kind", "perm", "--i", "1", "--a", "2"], "--a"),
            (["--kind", "perm", "--b", "0"], "--b"),
            (["--kind", "mab", "--a", "1", "--b", "0", "--i", "2"], "--i"),
        ],
    )
    def test_rejects_the_other_kinds_flags(self, capsys, extra, flag):
        code, out, err = run(capsys, ["diagram", "--p", "3", "--n", "2", *extra])
        assert code == 2
        assert out == ""
        assert flag in err

    def test_byte_identical_reruns(self, capsys):
        argv = ["diagram", "--p", "3", "--n", "2", "--kind", "mab", "--a", "2", "--b", "0"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestPredictCommand:
    def test_resolved_report(self, capsys, tmp_path):
        path = write_datum(tmp_path, GOOD_DATUM)
        code, out, _ = run(capsys, ["predict", "--input", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["status"] == "Resolved"
        assert doc["report"]["library_summands"] == [[1, 0, 1]]
        assert doc["report"]["perm_multiplicities"] == [0, 0]
        assert doc["report"]["minkowski_count"] == 0
        assert doc["report"]["identity_checked"] is True
        assert doc["input"]["p"] == 3
        assert doc["tool_version"].startswith("cyclat ")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = write_datum(tmp_path, GOOD_DATUM)
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, ["predict", "--input", path, "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.read_text() == out

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, target):
        # a missing directory, then a path that is a directory
        path = write_datum(tmp_path, GOOD_DATUM)
        out_path = str(tmp_path / target)
        code, out, err = run(capsys, ["predict", "--input", path, "--out", out_path])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = write_datum(tmp_path, GOOD_DATUM)
        _, first, _ = run(capsys, ["predict", "--input", path])
        _, second, _ = run(capsys, ["predict", "--input", path])
        assert first == second

    def test_partially_resolved_exits_three(self, capsys, tmp_path):
        payload = dict(GOOD_DATUM)
        payload.update(
            {
                "n": 2,
                "ramified": [
                    {"inertia_order": 3, "decomposition_order": 9}
                ]
                * 4,
                "s_counts": [0, 0, 0],
            }
        )
        path = write_datum(tmp_path, payload)
        code, out, _ = run(capsys, ["predict", "--input", path])
        assert code == 3
        doc = json.loads(out)
        assert doc["report"]["status"] == "PartiallyResolved"
        assert doc["report"]["diagnostics"]

    def test_unsupported_regime_exits_four(self, capsys, tmp_path):
        payload = dict(GOOD_DATUM)
        payload.update(
            {"n": 2, "ramified": [], "s_counts": [1, 1, 0], "all_S_split": False}
        )
        path = write_datum(tmp_path, payload)
        code, _, err = run(capsys, ["predict", "--input", path])
        assert code == 4
        assert "error" in err

    def test_truncated_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"p": 3, "n":')
        code, _, err = run(capsys, ["predict", "--input", str(path)])
        assert code == 2
        assert "error" in err

    def test_deeply_nested_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, ["predict", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert "is not valid JSON" in err

    def test_unknown_field_exits_two(self, capsys, tmp_path):
        payload = dict(GOOD_DATUM)
        payload["surprise"] = 1
        path = write_datum(tmp_path, payload)
        code, _, err = run(capsys, ["predict", "--input", path])
        assert code == 2
        assert "surprise" in err

    def test_missing_field_exits_two(self, capsys, tmp_path):
        payload = dict(GOOD_DATUM)
        del payload["r1"]
        path = write_datum(tmp_path, payload)
        code, _, _ = run(capsys, ["predict", "--input", path])
        assert code == 2

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["predict", "--input", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("ramified", [5, None, {"inertia_order": 3}, "places"])
    def test_ramified_must_be_an_array(self, capsys, tmp_path, ramified):
        payload = dict(GOOD_DATUM)
        payload["ramified"] = ramified
        path = write_datum(tmp_path, payload)
        code, out, err = run(capsys, ["predict", "--input", path])
        assert code == 2
        assert out == ""
        assert "ramified must be an array" in err

    def test_boolean_masquerading_as_int_exits_two(self, capsys, tmp_path):
        payload = dict(GOOD_DATUM)
        payload["r1"] = True
        path = write_datum(tmp_path, payload)
        code, _, _ = run(capsys, ["predict", "--input", path])
        assert code == 2


class TestPredictBudget:
    MIXED = str(GOLDEN / "datum_p3_n2_mixed.json")

    @pytest.mark.parametrize("budget", ["-5", "-1"])
    def test_negative_budget_exits_two(self, capsys, budget):
        code, out, err = run(capsys, ["predict", "--input", self.MIXED, "--budget", budget])
        assert code == 2
        assert out == ""
        assert "budget must be nonnegative" in err

    def test_zero_budget_runs_the_search(self, capsys):
        # nothing is sampled, so the mixed datum stays unresolved (exit 3)
        code, out, err = run(capsys, ["predict", "--input", self.MIXED, "--budget", "0"])
        assert code == 3
        assert err == ""
        assert json.loads(out)["report"]["status"] == "PartiallyResolved"


class TestPrimesCommand:
    def test_lists_one_prime_per_line(self, capsys):
        code, out, _ = run(capsys, ["primes", "--p", "3", "--bound", "40"])
        assert code == 0
        assert out.splitlines() == ["7", "13", "31"]

    def test_density_flag_emits_document(self, capsys):
        code, out, _ = run(
            capsys, ["primes", "--p", "3", "--bound", "6000", "--density"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] == 3
        assert doc["expected_fraction"] == [4, 9]
        assert 0 < doc["observed"] < 1
        assert doc["scanned"] >= 200

    def test_density_subcommand_matches_flag(self, capsys):
        _, via_flag, _ = run(
            capsys, ["primes", "--p", "3", "--bound", "6000", "--density"]
        )
        _, via_cmd, _ = run(capsys, ["density", "--p", "3", "--bound", "6000"])
        assert via_cmd == via_flag

    def test_insufficient_sample_exits_two(self, capsys):
        code, _, err = run(capsys, ["density", "--p", "3", "--bound", "100"])
        assert code == 2
        assert "error" in err

    def test_rejects_even_p(self, capsys):
        code, _, _ = run(capsys, ["primes", "--p", "4", "--bound", "100"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["primes", "--p", "3", "--bound", "-5"],
            ["primes", "--p", "3", "--bound", "-5", "--density"],
            ["density", "--p", "3", "--bound", "-5"],
        ],
    )
    def test_negative_bound_exits_two(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "nonnegative" in err

    def test_zero_bound_lists_nothing(self, capsys):
        code, out, _ = run(capsys, ["primes", "--p", "3", "--bound", "0"])
        assert code == 0
        assert out == ""


class TestSelftestCommand:
    def test_corollary_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, ["selftest", "--suite", "corollary", "--seed", "0"]
        )
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "checks passed" in lines[-1]
        names = [line.split()[1] for line in lines[:-1]]
        assert names == sorted(names)

    def test_failing_check_exits_five(self, capsys, monkeypatch):
        import cyclat.selftest

        monkeypatch.setattr(
            cyclat.selftest,
            "run_suite",
            lambda name, seed: [("broken-check", False, "synthetic failure")],
        )
        code, out, _ = run(capsys, ["selftest", "--suite", "lemma"])
        assert code == 5
        assert "FAIL" in out


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "cyclat 0.1.0" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conjecture"])
        assert exc.value.code == 2


class TestModuleEntryPoint:
    """``python -m cyclat`` runs ``cli.main`` and exits with its code."""

    @staticmethod
    def run_module(*argv):
        src = str(pathlib.Path(cyclat.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        return subprocess.run(
            [sys.executable, "-m", "cyclat", *argv], capture_output=True, env=env
        )

    def test_version(self):
        proc = self.run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.decode() == TOOL_VERSION + "\n"

    def test_diagram_matches_golden(self):
        argv = ["diagram", "--p", "3", "--n", "2", "--kind", "mab", "--a", "1", "--b", "1"]
        proc = self.run_module(*argv)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "diagram_p3_n2_a1_b1.txt").read_bytes()

    def test_exit_code_passes_through(self):
        proc = self.run_module("primes", "--p", "3", "--bound", "-5")
        assert proc.returncode == 2
        assert proc.stdout == b""
