"""Command-line surface: payloads, formats, determinism, exit codes."""

import csv
import io
import json
from itertools import combinations

import numpy as np
import pytest

import xxring.cli as cli
from xxring import __version__, concurrence
from xxring.hamiltonian import Coupling, FieldSetting, sector_energy_offset
from xxring.spectra import DEGENERACY_RTOL, _unit_levels

from reference import full_hamiltonian, rows_json_whole


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_runtime(text):
    return "\n".join(line for line in text.splitlines() if "runtime_ms" not in line)


def as_dicts(rows):
    """A payload's ``Rows`` as one dict per row, array values as Python scalars."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in rows.columns]
    return [dict(zip(rows.keys, values)) for values in zip(*columns)]


def reference_to_json(obj, indent=0):
    """The recursive JSON writer, one call per value: the reference for ``cli._to_json``."""
    if isinstance(obj, cli.Rows):
        obj = as_dicts(obj)
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


def reference_render(document, fmt):
    """A payload written from one dict per row: the reference for ``cli._render``."""
    if fmt == "json":
        return reference_to_json(document) + "\n"
    rows = document["rows"]
    if isinstance(rows, cli.Rows):
        rows = as_dicts(rows)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([cli._csv_cell(v) for v in row.values()])
        return out.getvalue()
    if not rows:
        return "(no rows)\n"
    headers = list(rows[0].keys())
    cells = [[cli._csv_cell(v) for v in row.values()] for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def reference_spectrum_rows(n, j=-1.0, b=0.0, k=None, m=None, tol=DEGENERACY_RTOL):
    """``spectrum`` rows built level by level, one float and one dict per level.

    Each block is sliced from its sector's J = 1 table, scaled by J (which
    reverses it for J < 0) and shifted by the sector's field offset.
    """
    field = FieldSetting(b=b)
    zero = tol * n * abs(j)
    rows = []
    for kk in range(n + 1) if k is None else [k]:
        offset = sector_energy_offset(kk, n, field)
        levels, bounds = _unit_levels(n, min(kk, n - kk))
        for mm in range(n) if m is None else [m]:
            block = j * levels[bounds[mm]:bounds[mm + 1]]
            for level, energy in enumerate(block[::-1] if j < 0 else block):
                energy = float(energy) + offset
                rows.append({"k": kk, "m": mm, "level": level,
                             "energy": 0.0 if abs(energy) <= zero else energy})
    return rows


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

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("options", [
        {}, {"k": 2}, {"m": 1}, {"k": 2, "m": 1}, {"b": 0.3}, {"j": 0.5},
        {"j": 1.0, "b": -1e-3}, {"k": 0, "m": 1}, {"tol": 0.0}, {"j": -2.5, "b": 0.7, "k": 1},
    ], ids=lambda options: "-".join(f"{key}{value}" for key, value in options.items()))
    def test_spectrum_matches_the_per_level_reference(self, capsys, n, options):
        """Byte for byte, in every format, the rows built one level at a time."""
        options = {key: min(value, n) if key == "k" else min(value, n - 1) if key == "m"
                   else value for key, value in options.items()}
        argv = ["spectrum", "--n", str(n)] + [f"--{key}={value}"
                                              for key, value in options.items()]
        config = {"n": n, "j": -1.0, "b": 0.0, "k": None, "m": None, "tol": DEGENERACY_RTOL}
        config.update(options)
        rows = reference_spectrum_rows(**config)
        document = {"command": "spectrum", "config": config, "rows": rows,
                    "meta": {"version": __version__, "runtime_ms": 0.0}}
        for fmt in ("json", "csv", "table"):
            assert cli.run(argv + ["--format", fmt]) == 0
            out = capsys.readouterr().out
            assert strip_runtime(out) == strip_runtime(reference_render(document, fmt))

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


Rows = cli.Rows


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
        assert isinstance(document["rows"], Rows)
        assert cli._to_json(document) == reference_to_json(document)
        assert out == reference_render(document, fmt)

    @pytest.mark.parametrize("document", [
        {"rows": Rows((), ())},
        {"rows": Rows(("k", "e"), (np.array([0, -3, 2 ** 62]),
                                   np.array([-0.0, np.float64(0.1) * 3, 1e-300])))},
        {"rows": Rows(("%d", "f", "ok"), (np.array([7], dtype=np.uint8),
                                          np.array([np.nan]), np.array([True])))},
        {"rows": Rows(("x",), ([1.0, -0.0],))},
        {"rows": Rows(("{k}", "}{", "a\"b"), ([1, None], [True, False], ["{0}", "é"]))},
        {"rows": Rows(("level", "pattern", "weight"),
                      (np.arange(3), ["|j>", None, "é"], [0.5, 2 ** 70, -0.0]))},
        {"rows": Rows(("f", "i", "g", "h", "big"),
                      ([np.float64(0.1) * 3], [7], [1e-300], [float("nan")], [2 ** 70]))},
        {"rows": Rows(("n", "e"), ([4], [-2.82842712475])), "meta": {"v": "0"},
         "empty": Rows(("a",), ([],))},
        {"command": "{x}", "config": {"{k}": -0.0, "}{": None, "a\"b": "é", "n": 2 ** 70},
         "rows": Rows((), ()), "meta": {}},
        {"command": "c", "config": {}, "rows": Rows(("a",), ([1],)),
         "meta": {"}}": np.float64(1e-300), "ü": True}},
    ])
    def test_documents_match_the_reference(self, document):
        assert cli._to_json(document) == reference_to_json(document)
        for fmt in ("csv", "table"):
            assert cli._render(document, fmt) == reference_render(document, fmt)

    @pytest.mark.parametrize("count", [0, 1, cli._JSON_SLICE - 1, cli._JSON_SLICE,
                                       cli._JSON_SLICE + 1, 2 * cli._JSON_SLICE + 1])
    def test_slices_equal_the_whole_template(self, count):
        rng = np.random.default_rng(count)
        rows = Rows(("k", "energy", "pattern", "ok", "corr", "m"),
                    (np.arange(count, dtype=np.int64) - 3, rng.normal(size=count) * 1e3,
                     [f"|j,j+{i % 7}>" for i in range(count)],
                     [i % 3 == 0 for i in range(count)],
                     [None if i % 5 else 0.25 * i - 1.0 for i in range(count)],
                     list(range(count))))
        assert cli._rows_json(rows) == rows_json_whole(rows)
        document = {"command": "c", "config": {}, "rows": rows, "meta": {}}
        assert cli._to_json(document) == reference_to_json(document)

    def test_every_paper_listing_is_one_slice(self):
        # spectrum --n 12, the largest listing of the paper's tables, has 2^12 rows
        assert cli._JSON_SLICE >= 1 << 12

    def test_a_slice_checks_the_shape_of_all_rows(self):
        rows = Rows(("a", "b"), ([1, 2, 3], [1.0, 2.0]))
        with pytest.raises(TypeError):
            cli._columns(rows, cli._json_scalar, 0, 2)

    def test_array_columns_print_as_their_scalars(self):
        """``%.12g`` of an array's floats and ``%d`` of its ints, as ``_json_scalar`` writes them."""
        rng = np.random.default_rng(5)
        floats = np.concatenate([rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200),
                                 [0.0, -0.0, 1e16, 1e-5, 123456789012.5, 0.1 * 3, np.inf,
                                  -np.inf, np.nan, 5e-324, 1.7976931348623157e308]])
        ints = rng.integers(-2 ** 62, 2 ** 62, len(floats))
        rows = Rows(("x", "i"), (floats, ints))
        assert cli._to_json({"rows": rows}) == reference_to_json({"rows": rows})
        assert cli._render({"rows": rows}, "csv").splitlines()[1:] == [
            f"{cli._json_scalar(x)},{i}" for x, i in zip(floats.tolist(), ints.tolist())]

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
        {"rows": Rows(("a",), ([np.int64(3)],))},
        {"rows": Rows(("a",), ([object()],))},
        {"rows": Rows(("a",), ([[1, 2.5]],))},
        {"rows": Rows(("a",), ([{"b": None}],))},
        {"rows": Rows(("a",), ([()],))},
        {"rows": Rows(("a", "b"), ([1], [1, 2]))},
        {"rows": [["a", 1]]},
        {"rows": ({"x": 1.0},)},
        {"config": {"a": [1]}},
        {"meta": {"a": {"b": 1}}},
        {"rows": [{"a": 1}]},
        {"rows": Rows(("a", "b"), ([1],))},
        {"rows": Rows(("a",), (np.zeros((1, 2)),))},
        {"rows": Rows(("a",), (np.array([1j]),))},
        {"rows": Rows(("a",), ((1,),))},
    ])
    def test_unprintable_values_still_raise(self, document):
        """Nested values and rows outside the one row shape raise, in every format."""
        with pytest.raises(TypeError):
            cli._to_json(document)
        if "rows" in document:
            for fmt in ("csv", "table"):
                with pytest.raises(TypeError):
                    cli._render(document, fmt)


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

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "4..x"],
        ["extrapolate", "--n", "x..9"],
        ["verify", "--n", "3..2..5"],
        ["verify", "--n", ".."],
        ["sweep", "--n", "junk"],
        ["sweep", "--n", "4.5"],
    ])
    def test_refuses_malformed_size_range(self, capsys, argv):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("xxring: error: --n must be N or N..M in whole numbers, "
                                f"got {argv[2]!r}\n")

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

    @pytest.mark.parametrize("k, m, message", [
        (3, 6, "momentum index must be in 0..5, got 6"),
        (3, -1, "momentum index must be in 0..5, got -1"),
    ])
    def test_spectrum_refuses_momentum_before_reading_levels(self, capsys, monkeypatch,
                                                             k, m, message):
        monkeypatch.setattr(cli, "ring_levels", pytest.fail)
        assert cli.run(["spectrum", "--n", "6", "--k", str(k), "--m", str(m)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"xxring: error: {message}\n"

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

    @pytest.mark.parametrize("sites", [["--pair", "1", "2", "--distance", "3"],
                                       ["--distance", "1", "--pair", "1", "2"],
                                       ["--pair", "1", "2", "--distance", "1"]])
    def test_concurrence_refuses_pair_with_distance(self, capsys, sites):
        assert cli.run(["concurrence", "--n", "6"] + sites) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

    def test_verify_refuses_empty_range(self, capsys):
        assert cli.run(["verify", "--n", "5..3"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_verify_refuses_single_site(self, capsys):
        assert cli.run(["verify", "--n", "1..3"]) == 2
        assert "at least two sites" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "0", "1..3", "0..2"])
    def test_verify_refuses_rings_below_two_sites_before_solving(self, capsys, monkeypatch,
                                                                 n):
        calls = []
        monkeypatch.setattr(cli, "compare_with_pipeline", lambda n, *_, **__: calls.append(n))
        assert cli.run(["verify", "--n", n]) == 2
        captured = capsys.readouterr()
        assert calls == [] and captured.out == ""
        assert f"--n must lie in 2..{cli.FULL_DIAGONALIZE_CAP}, got {n}" in captured.err

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
        # subnormal J or b: the tolerance window would swallow the whole spectrum
        (["ground", "--n", "3", "--j", "1e-320"], "exchange constant j is subnormal"),
        (["ground", "--n", "1", "--b", "1e-320"], "field b is subnormal"),
        (["spectrum", "--n", "4", "--b", "-1e-320"], "field b is subnormal"),
        (["concurrence", "--n", "4", "--j", "5e-324"], "exchange constant j is subnormal"),
    ])
    def test_refuses_negative_or_non_finite_input(self, capsys, argv, message):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("tol", ["-1", "-1e-12", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "4"], ["ground", "--n", "4"], ["concurrence", "--n", "4"],
        ["lp", "--n", "4"], ["sweep", "--n", "4..6"], ["extrapolate", "--n", "4..8"],
        ["verify", "--n", "2..3"],
    ], ids=lambda argv: argv[0])
    def test_every_command_refuses_a_bad_tol_alike(self, capsys, monkeypatch, argv, tol):
        # checked once, before the command runs
        monkeypatch.setitem(cli._COMMANDS, argv[0], pytest.fail)
        assert cli.run(argv + ["--tol", tol]) == 2
        captured = capsys.readouterr()
        message = f"--tol must be finite and nonnegative, got {float(tol)}"
        assert captured.out == "" and captured.err == f"xxring: error: {message}\n"

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

    @pytest.mark.filterwarnings("error")  # the listing leaves overflow to the caller, unwarned
    def test_spectrum_refuses_only_the_levels_it_prints(self, capsys):
        # every level of the n = 4 ring's blocks m = 1 is 0, so J = 1e308 overflows none of them
        code, doc = run_json(capsys, ["spectrum", "--n", "4", "--j", "1e308", "--m", "1"])
        assert code == 0
        assert [(r["k"], r["energy"]) for r in doc["rows"]] == [(1, 0.0), (2, 0.0), (3, 0.0)]
        assert cli.run(["spectrum", "--n", "4", "--j", "1e308", "--m", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "xxring: error: energies overflow at J=1e+308, b=0\n"

    @pytest.mark.parametrize("option, value", [
        ("--b", "-1e-3"), ("--b", "-1E+2"), ("--j", "-.5e1"), ("--j", "-1e-3"),
        ("--tol", "-0e0"), ("--b", "-5"), ("--j", "-0.25"),
    ])
    def test_negative_value_with_an_exponent(self, capsys, option, value):
        # argparse alone took -1e-3 for an option and exited 2
        assert cli.run(["ground", "--n", "4", option, value]) == 0
        spaced = capsys.readouterr().out
        assert cli.run(["ground", "--n", "4", f"{option}={value}"]) == 0
        assert strip_runtime(spaced) == strip_runtime(capsys.readouterr().out)

    @pytest.mark.parametrize("argv, message", [
        (["ground", "--n", "4", "--b", "-1e309"], "field b must be finite, got -inf"),
        (["concurrence", "--n", "4", "--j", "-1e308"], "energies overflow at J=-1e+308"),
        (["ground", "--n", "4", "--tol", "-1e-3"], "tol must be finite and nonnegative"),
    ])
    def test_negative_exponent_refused_as_a_value(self, capsys, argv, message):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" not in captured.err
        assert message in captured.err

    @pytest.mark.parametrize("argv", [
        ["ground", "--n", "4", "--b", "-x"],
        ["ground", "--n", "4", "--b", "--n", "5"],
        ["ground", "--n", "4", "--bb", "-1e-3"],
        ["verify", "--n", "2..3", "--b", "-1e-3"],
    ])
    def test_mistyped_option_is_still_a_usage_error(self, capsys, argv):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err

    def test_verify_mismatch_exits_one(self, capsys, monkeypatch):
        from xxring.oracle import PipelineAgreement

        def broken(n, coupling, field=None, tol=None, **_):
            return PipelineAgreement(n=n, j=coupling.j, energy_delta=1.0,
                                     oracle_degeneracy=1, pipeline_degeneracy=1,
                                     concurrence_delta=0.0, probability_delta=0.0)

        monkeypatch.setattr(cli, "compare_with_pipeline", broken)
        assert cli.run(["verify", "--n", "2..3"]) == 1

    def test_verify_checks_the_printed_concurrence(self, capsys, monkeypatch):
        # concurrence, sweep and extrapolate print the profile's values, so a
        # profile moved by 1e-9 (ten times verify's 1e-10) is a mismatch
        profile = concurrence._concurrence_profile
        monkeypatch.setattr(concurrence, "_concurrence_profile",
                            lambda manifold: profile(manifold) + 1e-9)
        assert cli.run(["verify", "--n", "2..6"]) == 1

    def test_verify_checks_the_pipeline_concurrence_solver(self, capsys, monkeypatch):
        # the oracle computes its own concurrence, so a fault in the
        # pipeline's Wootters solver (here a scale of 1 + 1e-8) is a mismatch;
        # an empty profile cache makes every profile go through the fault
        wootters = concurrence._wootters
        monkeypatch.setattr(concurrence, "_PROFILES", {})
        monkeypatch.setattr(concurrence, "_wootters",
                            lambda matrices: wootters(matrices) * (1 + 1e-8))
        assert cli.run(["verify", "--n", "2..6"]) == 1

    def test_verify_checks_every_distance(self, capsys, monkeypatch):
        # a pipeline fault at every distance but the nearest (1e-8, a hundred
        # times verify's 1e-10) is a mismatch; the d = 1 values stay exact
        wootters = concurrence._wootters

        def shifted(matrices):
            values = wootters(matrices)
            values[1:] += 1e-8
            return values

        monkeypatch.setattr(concurrence, "_PROFILES", {})
        monkeypatch.setattr(concurrence, "_wootters", shifted)
        assert cli.run(["verify", "--n", "2..8"]) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["ok"] for r in rows] == [True] * 4 + [False] * 10

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
