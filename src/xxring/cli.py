"""Command-line front end: batch computations serialized as JSON, CSV or text.

Sites are 1-based on this surface (internally 0-based).  Every command
returns its ``config`` and ``rows``, and ``run`` writes one payload: the
``command`` name, a flat ``config`` dict, ``rows`` as a list of flat dicts and
a flat ``meta`` dict.  Floats are printed with 12 significant digits and a
fixed field order, so identical invocations produce identical payloads apart
from two timing fields: ``runtime_ms`` in ``meta`` and the ``seconds`` of
each sweep row.  Ground solves are reused within a process, so a sweep row
whose solve was already done reads near zero seconds.  ``run`` builds its
argument parser on the first call and reuses it.  Exit status: 0 on success,
1 when a row reports ``ok`` false (a ``verify`` mismatch), 2 for a usage
error, a refused input or an ``--out`` that cannot be written.
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

import numpy as np

from . import __version__
from .basis import check_ring_size
from .concurrence import concurrence_wootters, manifold_pair_density
from .hamiltonian import Coupling, FieldSetting, sector_energy_offset
from .oracle import FULL_DIAGONALIZE_CAP, compare_with_pipeline
from .polarization import lp_table
from .spectra import DEGENERACY_RTOL, block_levels, check_finite_energies, ground_manifold
from .sweeps import extrapolate, sweep


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
def _template(keys: tuple, indent: int) -> str:
    """The ``str.format`` template of a flat dict with these keys at this indent."""
    if not keys:
        return "{{}}"
    inner = "  " * (indent + 1)
    fields = ",\n".join(inner + json.dumps(k).replace("{", "{{").replace("}", "}}") + ": {}"
                        for k in keys)
    return "{{\n" + fields + "\n" + "  " * indent + "}}"


def _flat_json(obj: dict, indent: int) -> str:
    if not isinstance(obj, dict):
        raise TypeError(f"expected a flat dict, not {type(obj).__name__}")
    return _template(tuple(obj), indent).format(*map(_json_scalar, obj.values()))


def _to_json(document: dict) -> str:
    """The payload as JSON: scalars, flat dicts and lists of flat dicts under one dict."""
    values = []
    for value in document.values():
        if isinstance(value, dict):
            values.append(_flat_json(value, 1))
        elif isinstance(value, list):
            rows = ",\n    ".join(_flat_json(row, 2) for row in value)
            values.append(f"[\n    {rows}\n  ]" if value else "[]")
        else:
            values.append(_json_scalar(value))
    return _template(tuple(document), 0).format(*values)


def _csv_cell(value) -> str:
    return "" if value is None else value if isinstance(value, str) else _json_scalar(value)


def _render(document: dict, fmt: str) -> str:
    if fmt == "json":
        return _to_json(document) + "\n"
    rows = document["rows"]
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_csv_cell(v) for v in row.values()])
        return out.getvalue()
    # plain text table
    if not rows:
        return "(no rows)\n"
    headers = list(rows[0].keys())
    cells = [[_csv_cell(v) for v in row.values()] for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _parse_range(text: str) -> tuple[int, int]:
    """Accept '7' or '2..9'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


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
    if not 1 <= args.distance <= n - 1:
        raise ValueError(f"--distance must be in 1..{n - 1}, got {args.distance}")
    return 0, args.distance


def _check_tol(tol: float) -> None:
    """Refuse a --tol that is negative or not finite."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"--tol must be finite and nonnegative, got {tol}")


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
    p.add_argument("--pair", type=int, nargs=2, metavar=("P", "Q"),
                   help="1-based site pair (default: 1 2)")
    p.add_argument("--distance", type=int, default=1, help="ring distance when --pair is absent")
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


def _cmd_spectrum(args) -> tuple[dict, list[dict]]:
    check_ring_size(args.n)
    _check_tol(args.tol)
    field = FieldSetting(b=args.b)
    coupling = Coupling(j=args.j)
    ks = range(args.n + 1) if args.k is None else [args.k]
    rows = []
    ms = range(args.n) if args.m is None else [args.m]
    zero = args.tol * args.n * abs(args.j)  # exact zero levels come out as LAPACK noise
    with np.errstate(over="ignore"):  # refused below
        for k in ks:
            offset = sector_energy_offset(k, args.n, field)
            for m in ms:
                for level, energy in enumerate(block_levels(args.n, k, m, coupling)):
                    energy = float(energy) + offset
                    rows.append({"k": k, "m": m, "level": level,
                                 "energy": 0.0 if abs(energy) <= zero else energy})
    check_finite_energies([row["energy"] for row in rows], coupling, field)
    return {"n": args.n, "j": args.j, "b": args.b, "k": args.k, "m": args.m,
            "tol": args.tol}, rows


def _cmd_ground(args) -> tuple[dict, list[dict]]:
    manifold = ground_manifold(args.n, Coupling(j=args.j), FieldSetting(b=args.b),
                               tol=args.tol)
    rows = [{"energy": manifold.energy, "degeneracy": manifold.degeneracy,
             "k": state.k, "m": state.momentum}
            for state in manifold.states]
    return {"n": args.n, "j": args.j, "b": args.b, "tol": args.tol}, rows


def _cmd_concurrence(args) -> tuple[dict, list[dict]]:
    pair = _pair_arg(args, args.n)
    manifold = ground_manifold(args.n, Coupling(j=args.j), FieldSetting(b=args.b),
                               tol=args.tol)
    value = concurrence_wootters(manifold_pair_density(manifold, pair)).value
    d = abs(pair[0] - pair[1])
    rows = [{"n": args.n, "p": pair[0] + 1, "q": pair[1] + 1,
             "distance": min(d, args.n - d),
             "concurrence": value, "degeneracy": manifold.degeneracy,
             "energy": manifold.energy}]
    return {"n": args.n, "j": args.j, "b": args.b, "tol": args.tol}, rows


def _cmd_lp(args) -> tuple[dict, list[dict]]:
    report = lp_table(args.n, Coupling(j=args.j), FieldSetting(b=args.b), tol=args.tol)
    corr = report.rank_correlation
    rows = [{"orbit": row.pattern, "period": row.period,
             "member_probability": row.member_probability,
             "orbit_probability": row.orbit_probability,
             "clustering": row.clustering, "dihedral_class": row.dihedral_class,
             "rank_correlation": corr}
            for row in report.rows]
    return {"n": args.n, "j": args.j, "b": args.b, "tol": args.tol,
            "k": report.k, "sector_weight": report.sector_weight}, rows


def _sweep(args) -> tuple[dict, list]:
    """The config of a ``sweep`` or ``extrapolate`` command and its sweep rows."""
    n_min, n_max = _parse_range(args.n)
    rows = sweep(n_min, n_max, parity=args.parity, regime=args.regime,
                 distance=args.distance, tol=args.tol)
    return {"n_min": n_min, "n_max": n_max, "parity": args.parity,
            "regime": args.regime, "distance": args.distance, "tol": args.tol}, rows


def _cmd_sweep(args) -> tuple[dict, list[dict]]:
    config, rows = _sweep(args)
    return config, [{"n": row.n, "regime": row.regime, "distance": row.distance,
                     "concurrence": row.concurrence, "degeneracy": row.degeneracy,
                     "energy": row.energy, "seconds": row.seconds}
                    for row in rows]


def _cmd_extrapolate(args) -> tuple[dict, list[dict]]:
    config, rows = _sweep(args)
    fit = extrapolate(rows)
    return config, [{"c_infinity": fit.c_infinity, "a": fit.a, "b": fit.b,
                     "residual": fit.residual,
                     "points": " ".join(str(n) for n in fit.points)}]


def _cmd_verify(args) -> tuple[dict, list[dict]]:
    n_min, n_max = _parse_range(args.n)
    if n_min > n_max:
        raise ValueError(f"verify range {n_min}..{n_max} is empty")
    if n_max > FULL_DIAGONALIZE_CAP:  # refuse before any row is solved
        raise ValueError(f"full diagonalization is capped at n={FULL_DIAGONALIZE_CAP}")
    _check_tol(args.tol)  # the oracle runs before the pipeline would refuse it
    rows = []
    for n in range(n_min, n_max + 1):
        for j in (-1.0, 1.0):
            result = compare_with_pipeline(n, Coupling(j=j), tol=args.tol)
            rows.append({"n": n, "j": j, "energy_delta": result.energy_delta,
                         "oracle_degeneracy": result.oracle_degeneracy,
                         "pipeline_degeneracy": result.pipeline_degeneracy,
                         "concurrence_delta": result.concurrence_delta,
                         "probability_delta": result.probability_delta,
                         "ok": result.ok})
    return {"n_min": n_min, "n_max": n_max, "tol": args.tol}, rows


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


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
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
    return int(any(row.get("ok") is False for row in rows))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
