"""Command-line surface: payloads, formats, determinism, exit codes."""

import csv
import io
import json
from itertools import combinations

import numpy as np
import pytest

import xxring.cli as cli
from xxring.hamiltonian import Coupling

from reference import full_hamiltonian


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_runtime(text):
    return "\n".join(line for line in text.splitlines() if "runtime_ms" not in line)


def reference_to_json(obj, indent=0):
    """The recursive JSON writer, one call per value: the reference for ``cli._to_json``."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(k)}: {reference_to_json(v, indent + 1)}"
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{reference_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    return cli._json_scalar(obj)


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

    # X states with |z| = sqrt(u+ u-) exactly, where rounding used to print 1e-17..1e-16
    @pytest.mark.parametrize("argv", [["--n", "4", "--j", "-1", "--distance", "2"],
                                      ["--n", "4", "--j", "1", "--distance", "2"],
                                      ["--n", "6", "--j", "-1", "--distance", "3"],
                                      ["--n", "6", "--j", "1", "--distance", "3"],
                                      ["--n", "3", "--j", "1"]])
    def test_concurrence_prints_exact_zero(self, capsys, argv):
        assert cli.run(["concurrence", *argv]) == 0
        assert '"concurrence": 0,' in capsys.readouterr().out

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

    @pytest.mark.parametrize("n", [13, 15])
    @pytest.mark.parametrize("j", ["-1", "1"])
    def test_spectrum_prints_one_set_of_levels_per_symmetry_class(self, capsys, n, j):
        code, doc = run_json(capsys, ["spectrum", "--n", str(n), "--j", j])
        assert code == 0
        levels = {}
        for row in doc["rows"]:
            levels.setdefault((row["k"], row["m"]), []).append(row["energy"])
        for k in range(n + 1):
            for m in range(n):
                # spin flip k -> n-k and momentum reversal m -> n-m
                for image in ((n - k, m), (k, -m % n), (n - k, -m % n)):
                    assert levels.get(image) == levels.get((k, m))

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


COMMAND_SHAPES = [
    ["spectrum", "--n", "5", "--j", "0.5", "--b", "0.2"],
    ["spectrum", "--n", "4", "--k", "0", "--m", "1"],  # an empty block: no rows
    ["ground", "--n", "5", "--j", "1"],
    ["concurrence", "--n", "6", "--distance", "2"],
    ["lp", "--n", "6"],
    ["sweep", "--n", "4..6"],
    ["extrapolate", "--n", "4..8"],
    ["verify", "--n", "2..4"],
]


class TestJsonWriter:
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize("argv", COMMAND_SHAPES, ids=lambda argv: "-".join(argv[:3]))
    def test_every_command_shape_matches_the_reference(self, capsys, monkeypatch,
                                                       argv, fmt):
        documents, render = [], cli._render

        def capture(document, fmt):
            documents.append(document)
            return render(document, fmt)

        def refuse(obj, indent=0):
            raise AssertionError("csv and table output must not go through the JSON writer")

        monkeypatch.setattr(cli, "_render", capture)
        if fmt != "json":
            monkeypatch.setattr(cli, "_to_json", refuse)
        assert cli.run(argv + ["--format", fmt]) == 0
        out = capsys.readouterr().out
        monkeypatch.undo()
        [document] = documents
        assert cli._to_json(document) == reference_to_json(document)
        if fmt == "json":
            assert out == reference_to_json(document) + "\n"

    @pytest.mark.parametrize("document", [
        {"rows": []},
        {"rows": [{}]},
        {"rows": [{"a": 1}, {}]},
        {"rows": [{"x": 1.0}, {"x": -0.0}]},
        {"rows": [{"{k}": 1, "}{": True, "a\"b": "{0}"},
                  {"{k}": None, "}{": False, "a\"b": "é"}]},
        {"rows": [{"a": 1, "b": 2.0}, {"b": 2.0, "a": 1}, {"a": 1}]},
        {"rows": [{"f": np.float64(0.1) * 3, "i": 7, "g": 1e-300, "h": float("nan"),
                   "big": 2 ** 70}]},
        {"rows": [{"n": 4, "e": -2.82842712475}], "meta": {"v": "0"}, "empty": []},
        {"command": "{x}", "config": {"{k}": -0.0, "}{": None, "a\"b": "é", "n": 2 ** 70},
         "rows": [], "meta": {}},
        {"command": "c", "config": {}, "rows": [{"a": 1}],
         "meta": {"}}": np.float64(1e-300), "ü": True}},
    ])
    def test_documents_match_the_reference(self, document):
        assert cli._to_json(document) == reference_to_json(document)

    @pytest.mark.parametrize("value, text", [
        (-0.0, "0"), (np.float64(-0.0), "0"), (np.float64(0.1) * 3, "0.3"),
        (1 / 3, "0.333333333333"), (2 ** 70, "1180591620717411303424"),
        (True, "true"), (None, "null"), ("é{}", '"\\u00e9{}"'),
    ])
    def test_scalars(self, value, text):
        """The reference shares ``_json_scalar``, so its output is pinned here."""
        assert cli._json_scalar(value) == text
        assert cli._csv_cell(value) == (value if isinstance(value, str) else
                                        "" if value is None else text)

    @pytest.mark.parametrize("document", [
        {"rows": [{"a": np.int64(3)}]},
        {"rows": [{"a": object()}]},
        {"rows": [{"a": [1, 2.5]}]},
        {"rows": [{"a": {"b": None}}]},
        {"rows": [{"a": ()}]},
        {"rows": [{"a": 1}, 2]},
        {"rows": [["a", 1]]},
        {"rows": ({"x": 1.0},)},
        {"config": {"a": [1]}},
        {"meta": {"a": {"b": 1}}},
    ])
    def test_unprintable_values_still_raise(self, document):
        """Nested values and non-dict rows are outside the payload shape and raise."""
        with pytest.raises(TypeError):
            cli._to_json(document)


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

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--n", "0"], "ring size must be in 1..20"),
        (["spectrum", "--n", "-3"], "ring size must be in 1..20"),
        (["concurrence", "--n", "0"], "ring size must be in 1..20"),
        (["concurrence", "--n", "1"], "at least two sites"),
        (["concurrence", "--n", "4", "--distance", "0"], "--distance"),
        (["concurrence", "--n", "4", "--distance", "4"], "--distance"),
        (["concurrence", "--n", "4", "--distance", "-1"], "--distance"),
        (["spectrum", "--n", "6", "--k", "7"], "up-spin count must be in 0..6, got 7"),
        (["spectrum", "--n", "6", "--m", "6"], "momentum index must be in 0..5, got 6"),
    ])
    def test_refuses_out_of_range_size_or_distance(self, capsys, argv, message):
        assert cli.run(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--n", "4..6", "--distance", "9"], "--distance 9"),
        (["sweep", "--n", "4..4", "--parity", "odd"], "--parity odd"),
        (["extrapolate", "--n", "4..6", "--distance", "9"], "--distance 9"),
    ])
    def test_refuses_sweep_that_keeps_no_size(self, capsys, argv, message):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "4.." in captured.err

    def test_verify_refuses_empty_range(self, capsys):
        assert cli.run(["verify", "--n", "5..3"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_verify_refuses_single_site(self, capsys):
        assert cli.run(["verify", "--n", "1..3"]) == 2
        assert "at least two sites" in capsys.readouterr().err

    def test_verify_refuses_range_beyond_oracle_cap_before_solving(self, capsys,
                                                                    monkeypatch):
        from xxring.oracle import PipelineAgreement
        calls = []

        def counting(n, coupling, field=None, tol=None, **_):
            calls.append(n)
            return PipelineAgreement(n=n, j=coupling.j, energy_delta=0.0,
                                     oracle_degeneracy=1, pipeline_degeneracy=1,
                                     concurrence_delta=0.0, probability_delta=0.0)

        monkeypatch.setattr(cli, "compare_with_pipeline", counting)
        assert cli.run(["verify", "--n", "12..15"]) == 2
        captured = capsys.readouterr()
        assert calls == [] and captured.out == ""
        assert "full diagonalization is capped at n=14" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["ground", "--n", "6", "--tol", "-1"], "tol must be finite and nonnegative"),
        (["ground", "--n", "6", "--tol", "nan"], "tol must be finite and nonnegative"),
        (["ground", "--n", "6", "--b", "nan"], "b must be finite"),
        (["ground", "--n", "6", "--j", "nan"], "j must be finite"),
        (["ground", "--n", "6", "--j", "inf"], "j must be finite"),
        (["spectrum", "--n", "4", "--tol", "-1"], "--tol must be finite and nonnegative"),
        (["spectrum", "--n", "4", "--tol", "nan"], "--tol must be finite and nonnegative"),
        (["spectrum", "--n", "4", "--tol", "inf"], "--tol must be finite and nonnegative"),
        (["verify", "--n", "2..3", "--tol", "nan"], "--tol must be finite and nonnegative"),
    ])
    def test_refuses_negative_or_non_finite_input(self, capsys, argv, message):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.filterwarnings("error")  # overflow is refused, not warned about
    @pytest.mark.parametrize("argv, message", [
        (["ground", "--n", "2", "--b", "1e308"], "J=-1, b=1e+308"),
        (["ground", "--n", "4", "--j", "1e308"], "J=1e+308, b=0"),
        (["concurrence", "--n", "4", "--j=-1e308"], "J=-1e+308, b=0"),
        (["spectrum", "--n", "4", "--b", "1e308"], "J=-1, b=1e+308"),
        (["spectrum", "--n", "2", "--b", "1e308"], "J=-1, b=1e+308"),  # range inf
        (["spectrum", "--n", "4", "--j", "1e308"], "J=1e+308, b=0"),
    ])
    def test_refuses_energies_that_overflow(self, capsys, argv, message):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"xxring: error: energies overflow at {message}\n"

    def test_verify_mismatch_exits_one(self, capsys, monkeypatch):
        from xxring.oracle import PipelineAgreement

        def broken(n, coupling, field=None, tol=None, **_):
            return PipelineAgreement(n=n, j=coupling.j, energy_delta=1.0,
                                     oracle_degeneracy=1, pipeline_degeneracy=1,
                                     concurrence_delta=0.0, probability_delta=0.0)

        monkeypatch.setattr(cli, "compare_with_pipeline", broken)
        assert cli.run(["verify", "--n", "2..3"]) == 1

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, target):
        path = tmp_path / target
        assert cli.run(["ground", "--n", "4", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("xxring: error: ") and str(path) in captured.err
        assert not (tmp_path / "missing").exists()


class TestParserReuse:
    def test_parser_built_once_without_leaking_arguments(self, capsys, monkeypatch):
        built, original = [], cli.build_parser

        def counted():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        code, doc = run_json(capsys, ["concurrence", "--n", "4", "--pair", "1", "3"])
        assert code == 0 and (doc["rows"][0]["p"], doc["rows"][0]["q"]) == (1, 3)
        code, doc = run_json(capsys, ["concurrence", "--n", "4"])
        assert code == 0 and (doc["rows"][0]["p"], doc["rows"][0]["q"]) == (1, 2)
        assert len(built) == 1
