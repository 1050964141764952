"""Command-line front end: batch computations serialized as JSON, CSV or text.

Sites are 1-based on this surface (internally 0-based).  Every command
returns its ``config`` and its ``Rows``, and ``run`` writes one payload: the
``command`` name, a flat ``config`` dict, the rows and a flat ``meta`` dict.
Every command's rows have one shape, never a dict per row: a tuple of keys
and one column per key, each a list of scalars or a one-dimensional numpy
array.  ``spectrum`` takes its columns from the one level listing,
``spectra.ring_levels``, which the ground scan reads too: the ``--m``
mask, the overflow check and the exact-zero snap act on its arrays; the
other commands transpose one value tuple per row.  The JSON writer prints
each row as a flat object, from one template per row filled
``_JSON_SLICE`` rows at a time by a single ``%`` each; the CSV and table
writers print one line per row under a header of the keys.
Floats are printed with 12 significant digits and a fixed field order, so
identical invocations produce identical payloads apart from two timing
fields: ``runtime_ms`` in ``meta`` and the ``seconds`` of each sweep row.
Ground solves are reused within a process, so a sweep row whose solve was
already done reads near zero seconds.  ``run`` builds its argument parser
on the first call and reuses it.  Exit status: 0 on success, 1 when a row
reports ``ok`` false (a ``verify`` mismatch), 2 for a usage error, a
refused input or an ``--out`` that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import __version__
from .basis import check_ring_size, check_sector
from .concurrence import ground_concurrence
from .hamiltonian import Coupling, FieldSetting, check_momentum
from .oracle import FULL_DIAGONALIZE_CAP, compare_with_pipeline
from .polarization import lp_table
from .spectra import DEGENERACY_RTOL, check_finite_energies, ground_manifold, ring_levels
from .sweeps import extrapolate, sweep

_JSON_SLICE = 4096  # rows the JSON writer converts and fills at a time


class Rows(NamedTuple):
    """A payload's rows: the ``keys`` of every row and one column per key.

    A column is a list of scalars or a one-dimensional numpy array, and all
    columns have one length, the number of rows.
    """

    keys: tuple
    columns: tuple


def _table(keys: tuple, records) -> Rows:
    """Rows from one value tuple per row."""
    return Rows(keys, tuple(map(list, zip(*records))) or ([],) * len(keys))


def _json_scalar(value) -> str:
    """A bool, float, int, None or str as JSON; anything else raises TypeError."""
    if type(value) is float:  # exact types first: nearly every value is one of these
        return f"{value + 0.0:.12g}"  # +0.0 normalizes negative zero
    if type(value) is int:
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # np.float64
        return _json_scalar(float(value))
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"a payload value must be a scalar, not {type(value).__name__}")


@lru_cache(maxsize=64)
def _template(keys: tuple, indent: int, conversions: tuple | None = None) -> str:
    """The ``%`` template of a flat dict with these keys at this indent.

    One conversion per value, ``%s`` unless ``conversions`` names them.
    """
    if not keys:
        return "{}"
    inner = "  " * (indent + 1)
    fields = ",\n".join(inner + json.dumps(k).replace("%", "%%") + ": " + c
                        for k, c in zip(keys, conversions or ("%s",) * len(keys)))
    return "{\n" + fields + "\n" + "  " * indent + "}"


def _flat_json(obj: dict, indent: int) -> str:
    if not isinstance(obj, dict):
        raise TypeError(f"expected a flat dict, not {type(obj).__name__}")
    return _template(tuple(obj), indent) % tuple(map(_json_scalar, obj.values()))


def _row_count(rows: Rows) -> int:
    """The number of rows, once ``rows`` is checked to be one column per key, all one length."""
    if not isinstance(rows, Rows):
        raise TypeError(f"expected Rows, not {type(rows).__name__}")
    keys, columns = rows
    if (len(columns) != len(keys)
            or not all(isinstance(c, list) or isinstance(c, np.ndarray) and c.ndim == 1
                       for c in columns)
            or len(set(map(len, columns))) > 1):
        raise TypeError("rows need one list or 1-d array per key, all of one length")
    return len(columns[0]) if columns else 0


def _columns(rows: Rows, scalar, start: int = 0,
             stop: int | None = None) -> list[tuple[str, list]]:
    """Each column of ``rows[start:stop]`` as a ``%`` conversion and the values it converts.

    The shape of the whole of ``rows`` is checked first.  A float array
    keeps its values for ``%.12g``, negative zero made positive by adding
    0.0, and an integer array for ``%d``: the text ``_json_scalar`` writes
    for them.  Any other column is written with ``%s`` from ``scalar`` of
    each value.
    """
    _row_count(rows)
    converted = []
    for column in rows.columns:
        column = column[start:stop]
        kind = column.dtype.kind if isinstance(column, np.ndarray) else ""
        if kind == "f":
            converted.append(("%.12g", (column + 0.0).tolist()))
        elif kind in ("i", "u"):
            converted.append(("%d", column.tolist()))
        else:
            values = column.tolist() if kind else column
            converted.append(("%s", list(map(scalar, values))))
    return converted


def _rows_json(rows: Rows) -> str:
    """The rows as flat JSON objects at indent 2, comma-joined ("" for no rows).

    ``_JSON_SLICE`` rows at a time: a slice's values are converted, one
    template per row is joined and filled by a single ``%``, and only the
    slice's text is kept, so the converted values and templates of one
    slice are alive at a time.
    """
    slices = []
    for start in range(0, _row_count(rows), _JSON_SLICE):
        columns = _columns(rows, _json_scalar, start, start + _JSON_SLICE)
        template = _template(rows.keys, 2, tuple(c for c, _ in columns))
        slices.append(",\n    ".join([template] * len(columns[0][1])) % tuple(
            chain.from_iterable(zip(*(values for _, values in columns)))))
    return ",\n    ".join(slices)


def _to_json(document: dict) -> str:
    """The payload as JSON: scalars, flat dicts and ``Rows`` under one dict."""
    values = []
    for value in document.values():
        if isinstance(value, dict):
            values.append(_flat_json(value, 1))
        elif isinstance(value, Rows):
            text = _rows_json(value)
            values.append(f"[\n    {text}\n  ]" if text else "[]")
            del text  # one copy of the rows' text at a time
        else:
            values.append(_json_scalar(value))
    return _template(tuple(document), 0) % tuple(values)


def _csv_cell(value) -> str:
    return "" if value is None else value if isinstance(value, str) else _json_scalar(value)


def _render(document: dict, fmt: str) -> str:
    if fmt == "json":
        return _to_json(document) + "\n"
    rows = document["rows"]
    cells = [values if conversion == "%s" else map(conversion.__mod__, values)
             for conversion, values in _columns(rows, _csv_cell)]
    if not (rows.columns and len(rows.columns[0])):
        return "" if fmt == "csv" else "(no rows)\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(rows.keys)
        writer.writerows(zip(*cells))
        return out.getvalue()
    # plain text table
    cells = [list(column) for column in cells]
    widths = [max(len(key), *map(len, column)) for key, column in zip(rows.keys, cells)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(rows.keys, widths)).rstrip()]
    for row in zip(*cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _parse_range(text: str) -> tuple[int, int]:
    """Accept '7' or '2..9'; refuse anything else in terms of the option."""
    try:
        lo, hi = text.split("..", 1) if ".." in text else (text, text)
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--n must be N or N..M in whole numbers, got {text!r}") from None


def _pair_arg(args, n: int) -> tuple[int, int]:
    """Resolve --pair (1-based sites) or --distance to internal 0-based."""
    check_ring_size(n)
    if n < 2:
        raise ValueError("pairwise concurrence needs at least two sites")
    if args.pair is not None:
        p, q = sorted(args.pair)
        if not (1 <= p < q <= n):
            raise ValueError(f"pair sites must be distinct and within 1..{n}")
        return p - 1, q - 1
    distance = 1 if args.distance is None else args.distance
    if not 1 <= distance <= n - 1:
        raise ValueError(f"--distance must be in 1..{n - 1}, got {distance}")
    return 0, distance


def _add_common(parser: argparse.ArgumentParser, *, coupling: bool = True) -> None:
    if coupling:
        parser.add_argument("--j", type=float, default=-1.0,
                            help="exchange constant (j<0 ferromagnetic, j>0 antiferromagnetic)")
        parser.add_argument("--b", type=float, default=0.0, help="uniform field strength")
    parser.add_argument("--tol", type=float, default=DEGENERACY_RTOL,
                        help="degeneracy tolerance relative to the spectral range")
    parser.add_argument("--format", choices=("json", "csv", "table"), default="json")
    parser.add_argument("--out", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxring",
        description="Exact diagonalization and pairwise concurrence of the spin-1/2 XX ring. "
                    "Sites are 1-based on the command line.")
    parser.add_argument("--version", action="version", version=f"xxring {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues per sector and momentum block")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="restrict to one up-spin count")
    p.add_argument("--m", type=int, default=None, help="restrict to one momentum index")
    _add_common(p)

    p = sub.add_parser("ground", help="ground energy, degeneracy and state tags")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("concurrence", help="pair concurrence of the ground mixture")
    p.add_argument("--n", type=int, required=True)
    # no --distance default: argparse lets an option that equals its default
    # past the group, so --pair 1 2 --distance 1 would pass
    sites = p.add_mutually_exclusive_group()
    sites.add_argument("--pair", type=int, nargs=2, metavar=("P", "Q"),
                       help="1-based site pair (default: 1 2)")
    sites.add_argument("--distance", type=int, help="ring distance from site 1 (default: 1)")
    _add_common(p)

    p = sub.add_parser("lp", help="orbit probabilities and clustering of the ground mixture")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("sweep", help="concurrence for a range of ring sizes")
    p.add_argument("--n", required=True, help="size range, e.g. 4..14")
    p.add_argument("--parity", choices=("all", "even", "odd"), default="all")
    p.add_argument("--regime", choices=("ferro", "antiferro"), default="ferro")
    p.add_argument("--distance", type=int, default=1)
    _add_common(p, coupling=False)

    p = sub.add_parser("extrapolate", help="1/n fit of a concurrence sweep")
    p.add_argument("--n", required=True, help="size range, e.g. 4..14")
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.add_argument("--regime", choices=("ferro", "antiferro"), default="ferro")
    p.add_argument("--distance", type=int, default=1)
    _add_common(p, coupling=False)

    p = sub.add_parser("verify", help="cross-check the pipeline against the 2^n oracle")
    p.add_argument("--n", required=True, help="size range, e.g. 2..9")
    _add_common(p, coupling=False)
    return parser


def _cmd_spectrum(args) -> tuple[dict, Rows]:
    check_sector(args.n, args.k or 0)  # the ring size, then --k, then --m
    check_momentum(args.m or 0, args.n)
    coupling, field = Coupling(j=args.j), FieldSetting(b=args.b)
    k, m, energy = ring_levels(args.n, coupling, field, None if args.k is None else [args.k])
    block = k * args.n + m  # ascending in listing order
    level = np.arange(len(energy)) - np.searchsorted(block, block)
    kept = slice(None) if args.m is None else m == args.m
    k, m, level, energy = k[kept], m[kept], level[kept], energy[kept]
    check_finite_energies(energy, coupling, field)
    # exact zero levels come out as LAPACK noise
    energy[np.abs(energy) <= args.tol * args.n * abs(args.j)] = 0.0
    return {"n": args.n, "j": args.j, "b": args.b, "k": args.k, "m": args.m,
            "tol": args.tol}, Rows(("k", "m", "level", "energy"), (k, m, level, energy))


def _cmd_ground(args) -> tuple[dict, Rows]:
    manifold = ground_manifold(args.n, Coupling(j=args.j), FieldSetting(b=args.b),
                               tol=args.tol)
    rows = _table(("energy", "degeneracy", "k", "m"),
                  [(manifold.energy, manifold.degeneracy, state.k, state.momentum)
                   for state in manifold.states])
    return {"n": args.n, "j": args.j, "b": args.b, "tol": args.tol}, rows


def _cmd_concurrence(args) -> tuple[dict, Rows]:
    pair = _pair_arg(args, args.n)
    coupling, field = Coupling(j=args.j), FieldSetting(b=args.b)
    manifold = ground_manifold(args.n, coupling, field, tol=args.tol)
    value = ground_concurrence(args.n, coupling, field, pair, tol=args.tol)
    d = abs(pair[0] - pair[1])
    rows = _table(("n", "p", "q", "distance", "concurrence", "degeneracy", "energy"),
                  [(args.n, pair[0] + 1, pair[1] + 1, min(d, args.n - d), value,
                    manifold.degeneracy, manifold.energy)])
    return {"n": args.n, "j": args.j, "b": args.b, "tol": args.tol}, rows


def _cmd_lp(args) -> tuple[dict, Rows]:
    report = lp_table(args.n, Coupling(j=args.j), FieldSetting(b=args.b), tol=args.tol)
    corr = report.rank_correlation
    rows = _table(("orbit", "period", "member_probability", "orbit_probability",
                   "clustering", "dihedral_class", "rank_correlation"),
                  [(row.pattern, row.period, row.member_probability, row.orbit_probability,
                    row.clustering, row.dihedral_class, corr)
                   for row in report.rows])
    return {"n": args.n, "j": args.j, "b": args.b, "tol": args.tol,
            "k": report.k, "sector_weight": report.sector_weight}, rows


def _sweep(args) -> tuple[dict, list]:
    """The config of a ``sweep`` or ``extrapolate`` command and its sweep rows."""
    n_min, n_max = _parse_range(args.n)
    rows = sweep(n_min, n_max, parity=args.parity, regime=args.regime,
                 distance=args.distance, tol=args.tol)
    return {"n_min": n_min, "n_max": n_max, "parity": args.parity,
            "regime": args.regime, "distance": args.distance, "tol": args.tol}, rows


def _cmd_sweep(args) -> tuple[dict, Rows]:
    config, rows = _sweep(args)
    return config, _table(("n", "regime", "distance", "concurrence", "degeneracy",
                           "energy", "seconds"),
                          [(row.n, row.regime, row.distance, row.concurrence,
                            row.degeneracy, row.energy, row.seconds) for row in rows])


def _cmd_extrapolate(args) -> tuple[dict, Rows]:
    config, rows = _sweep(args)
    fit = extrapolate(rows)
    return config, _table(("c_infinity", "a", "b", "residual", "points"),
                          [(fit.c_infinity, fit.a, fit.b, fit.residual,
                            " ".join(str(n) for n in fit.points))])


def _cmd_verify(args) -> tuple[dict, Rows]:
    n_min, n_max = _parse_range(args.n)
    if n_min > n_max:
        raise ValueError(f"verify range {n_min}..{n_max} is empty")
    if n_min < 2:  # the oracle's pair reduction needs two sites
        raise ValueError(f"verify compares rings of at least two sites: --n must lie in "
                         f"2..{FULL_DIAGONALIZE_CAP}, got {args.n}")
    if n_max > FULL_DIAGONALIZE_CAP:  # refuse before any row is solved
        raise ValueError(f"full diagonalization is capped at n={FULL_DIAGONALIZE_CAP}")
    records = []
    for n in range(n_min, n_max + 1):
        for j in (-1.0, 1.0):
            result = compare_with_pipeline(n, Coupling(j=j), tol=args.tol)
            records.append((n, j, result.energy_delta, result.oracle_degeneracy,
                            result.pipeline_degeneracy, result.concurrence_delta,
                            result.probability_delta, result.ok))
    return {"n_min": n_min, "n_max": n_max, "tol": args.tol}, _table(
        ("n", "j", "energy_delta", "oracle_degeneracy", "pipeline_degeneracy",
         "concurrence_delta", "probability_delta", "ok"), records)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "ground": _cmd_ground,
    "concurrence": _cmd_concurrence,
    "lp": _cmd_lp,
    "sweep": _cmd_sweep,
    "extrapolate": _cmd_extrapolate,
    "verify": _cmd_verify,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write ``--b -1e-3`` as ``--b=-1e-3`` for the float options.

    argparse reads a token as a negative number only when it is digits with
    at most a decimal point, so it takes -1e-3, -1E+2 or -.5e1 after --j, --b
    or --tol for an option.  A token that ``float`` reads is joined to the
    option before it; anything else is left for argparse to refuse.
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in ("--j", "--b", "--tol") and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None
                                                          else argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if not (math.isfinite(args.tol) and args.tol >= 0):  # every command has --tol
            raise ValueError(f"--tol must be finite and nonnegative, got {args.tol}")
        config, rows = _COMMANDS[args.command](args)
        meta = {"version": __version__,
                "runtime_ms": round((time.perf_counter() - started) * 1000.0, 3)}
        text = _render({"command": args.command, "config": config, "rows": rows,
                        "meta": meta}, args.format)
        if args.out:  # opened only now, so a refused command leaves no file behind
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, ValueError) as exc:
        print(f"xxring: error: {exc}", file=sys.stderr)
        return 2
    keys, columns = rows
    return int("ok" in keys and any(ok is False for ok in columns[keys.index("ok")]))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
