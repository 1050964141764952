"""Command-line surface: payloads, formats, determinism, exit codes."""

import csv
import io
import json
from itertools import combinations

import numpy as np
import pytest

import xxring.cli as cli
from xxring.hamiltonian import Coupling
from xxring.oracle import full_hamiltonian


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_runtime(text):
    return "\n".join(line for line in text.splitlines() if "runtime_ms" not in line)


class TestPayloads:
    def test_concurrence_command(self, capsys):
        code, doc = run_json(capsys, ["concurrence", "--n", "4", "--j", "-1",
                                      "--pair", "1", "2"])
        assert code == 0
        assert doc["command"] == "concurrence"
        assert doc["rows"][0]["p"] == 1 and doc["rows"][0]["q"] == 2
        assert doc["rows"][0]["concurrence"] == pytest.approx(0.457106781187, abs=1e-10)
        assert doc["meta"]["version"]

    def test_concurrence_twelve_significant_digits(self, capsys):
        cli.run(["concurrence", "--n", "4", "--pair", "1", "2"])
        out = capsys.readouterr().out
        assert '"concurrence": 0.457106781187' in out

    def test_ground_command(self, capsys):
        code, doc = run_json(capsys, ["ground", "--n", "3", "--j", "1"])
        assert code == 0
        assert len(doc["rows"]) == 4
        assert {(r["k"], r["m"]) for r in doc["rows"]} == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert all(r["degeneracy"] == 4 for r in doc["rows"])

    def test_spectrum_covers_all_levels(self, capsys):
        code, doc = run_json(capsys, ["spectrum", "--n", "4", "--j", "1"])
        assert code == 0
        energies = sorted(r["energy"] for r in doc["rows"])
        reference = np.linalg.eigvalsh(full_hamiltonian(4, Coupling(1.0)))
        np.testing.assert_allclose(energies, reference, atol=1e-10)

    def test_spectrum_prints_zero_levels_exactly(self, capsys):
        n = 6
        code, doc = run_json(capsys, ["spectrum", "--n", str(n), "--j", "-1"])
        assert code == 0
        near_zero = [r["energy"] for r in doc["rows"] if abs(r["energy"]) < 1e-6]
        assert all(e == 0.0 for e in near_zero)
        # Jordan-Wigner: a k-up level is a sum of k distinct -2 cos q, with
        # q = 2*pi*l/n for odd k and q = 2*pi*(l + 1/2)/n for even k
        zeros = 0
        for k in range(n + 1):
            q = 2 * np.pi * (np.arange(n) + (k + 1) % 2 / 2) / n
            zeros += sum(abs(np.cos(q[list(occupied)]).sum()) < 1e-9
                         for occupied in combinations(range(n), k))
        assert len(near_zero) == zeros

    def test_lp_csv(self, capsys):
        code = cli.run(["lp", "--n", "6", "--j", "-1", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 4
        probs = sorted(float(r["member_probability"]) for r in rows)
        np.testing.assert_allclose(probs, [1 / 72, 1 / 18, 1 / 18, 1 / 8], atol=1e-10)

    def test_sweep_command(self, capsys):
        code, doc = run_json(capsys, ["sweep", "--n", "3..7", "--parity", "odd",
                                      "--regime", "antiferro"])
        assert code == 0
        np.testing.assert_allclose([r["concurrence"] for r in doc["rows"]],
                                   [0.0, 0.213049516850, 0.274290939912], atol=1e-10)

    def test_extrapolate_command(self, capsys):
        code, doc = run_json(capsys, ["extrapolate", "--n", "4..10", "--parity", "even"])
        assert code == 0
        row = doc["rows"][0]
        assert 0.32 <= row["c_infinity"] <= 0.36
        assert row["points"] == "4 6 8 10"

    def test_verify_clean_range(self, capsys):
        code, doc = run_json(capsys, ["verify", "--n", "2..5"])
        assert code == 0
        assert all(r["ok"] for r in doc["rows"])
        assert len(doc["rows"]) == 8  # both signs per ring size


class TestFormats:
    def test_json_and_csv_agree(self, capsys):
        cli.run(["lp", "--n", "4", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        cli.run(["lp", "--n", "4", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == len(doc["rows"])
        for parsed, original in zip(rows, doc["rows"]):
            for key, value in original.items():
                if isinstance(value, float):
                    assert float(parsed[key]) == pytest.approx(value, abs=1e-12)
                elif value is None:
                    assert parsed[key] == ""
                else:
                    assert parsed[key] == str(value)

    def test_byte_determinism_modulo_runtime(self, capsys):
        cli.run(["ground", "--n", "5", "--j", "1"])
        first = capsys.readouterr().out
        cli.run(["ground", "--n", "5", "--j", "1"])
        second = capsys.readouterr().out
        assert strip_runtime(first) == strip_runtime(second)

    def test_table_format(self, capsys):
        code = cli.run(["concurrence", "--n", "3", "--b", "0.1", "--format", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "concurrence" in out.splitlines()[0]
        assert "0.666666666667" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = cli.run(["ground", "--n", "4", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["rows"][0]["energy"] == pytest.approx(-2 * np.sqrt(2), abs=1e-10)


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert cli.run(["concurrence", "--n", "4", "--frobnicate"]) == 2

    def test_usage_error_missing_command(self, capsys):
        assert cli.run([]) == 2

    def test_usage_error_bad_pair(self, capsys):
        assert cli.run(["concurrence", "--n", "4", "--pair", "2", "2"]) == 2
        assert cli.run(["concurrence", "--n", "4", "--pair", "1", "9"]) == 2

    def test_usage_error_bad_range(self, capsys):
        assert cli.run(["sweep", "--n", "junk"]) == 2
        assert cli.run(["ground", "--n", "25"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "1-based" in capsys.readouterr().out

    def test_verify_mismatch_exits_one(self, capsys, monkeypatch):
        from xxring.oracle import PipelineAgreement

        def broken(n, coupling, field=None, tol=None, **_):
            return PipelineAgreement(n=n, j=coupling.j, energy_delta=1.0,
                                     oracle_degeneracy=1, pipeline_degeneracy=1,
                                     concurrence_delta=0.0, probability_delta=0.0)

        monkeypatch.setattr(cli, "compare_with_pipeline", broken)
        assert cli.run(["verify", "--n", "2..3"]) == 1

