"""Command-line front end: batch computations serialized as JSON, CSV or text.

Sites are 1-based on this surface (internally 0-based).  Floats are printed
with 12 significant digits and a fixed field order, so identical invocations
produce identical payloads (the runtime entry in ``meta`` is the one field
that varies).  Exit status: 0 on success, 1 when ``verify`` finds a mismatch,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import __version__
from .concurrence import concurrence_wootters, manifold_pair_density
from .hamiltonian import Coupling, FieldSetting, sector_energy_offset
from .oracle import compare_with_pipeline
from .polarization import lp_table
from .spectra import DEGENERACY_RTOL, block_levels, ground_manifold
from .sweeps import extrapolate, sweep


def _format_float(x: float) -> str:
    return f"{x + 0.0:.12g}"  # +0.0 normalizes negative zero


def _json_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return json.dumps(value)


def _to_json(obj, indent: int = 0) -> str:
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(k)}: {_to_json(v, indent + 1)}"
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    return _json_scalar(obj)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    return "" if value is None else str(value)


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


def _emit(command: str, config: dict, rows: list[dict], args, started: float) -> None:
    document = {
        "command": command,
        "config": config,
        "rows": rows,
        "meta": {"version": __version__,
                 "runtime_ms": round((time.perf_counter() - started) * 1000.0, 3)},
    }
    text = _render(document, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> tuple[int, int]:
    """Accept '7' or '2..9'."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _pair_arg(args, n: int) -> tuple[int, int]:
    """Resolve --pair (1-based sites) or --distance to internal 0-based."""
    if args.pair is not None:
        p, q = sorted(args.pair)
        if not (1 <= p < q <= n):
            raise ValueError(f"pair sites must be distinct and within 1..{n}")
        return p - 1, q - 1
    return 0, args.distance % n


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


def _cmd_spectrum(args) -> int:
    started = time.perf_counter()
    field = FieldSetting(b=args.b)
    coupling = Coupling(j=args.j)
    ks = range(args.n + 1) if args.k is None else [args.k]
    rows = []
    ms = range(args.n) if args.m is None else [args.m]
    zero = args.tol * args.n * abs(args.j)  # exact zero levels come out as LAPACK noise
    for k in ks:
        offset = sector_energy_offset(k, args.n, field)
        for m in ms:
            for level, energy in enumerate(block_levels(args.n, k, m, coupling)):
                energy = float(energy) + offset
                rows.append({"k": k, "m": m, "level": level,
                             "energy": 0.0 if abs(energy) <= zero else energy})
    config = {"n": args.n, "j": args.j, "b": args.b,
              "k": args.k, "m": args.m, "tol": args.tol}
    _emit("spectrum", config, rows, args, started)
    return 0


def _cmd_ground(args) -> int:
    started = time.perf_counter()
    manifold = ground_manifold(args.n, Coupling(j=args.j), FieldSetting(b=args.b),
                               tol=args.tol)
    rows = [{"energy": manifold.energy, "degeneracy": manifold.degeneracy,
             "k": state.k, "m": state.momentum}
            for state in manifold.states]
    config = {"n": args.n, "j": args.j, "b": args.b, "tol": args.tol}
    _emit("ground", config, rows, args, started)
    return 0


def _cmd_concurrence(args) -> int:
    started = time.perf_counter()
    pair = _pair_arg(args, args.n)
    manifold = ground_manifold(args.n, Coupling(j=args.j), FieldSetting(b=args.b),
                               tol=args.tol)
    value = concurrence_wootters(manifold_pair_density(manifold, pair)).value
    d = abs(pair[0] - pair[1])
    rows = [{"n": args.n, "p": pair[0] + 1, "q": pair[1] + 1,
             "distance": min(d, args.n - d),
             "concurrence": value, "degeneracy": manifold.degeneracy,
             "energy": manifold.energy}]
    config = {"n": args.n, "j": args.j, "b": args.b, "tol": args.tol}
    _emit("concurrence", config, rows, args, started)
    return 0


def _cmd_lp(args) -> int:
    started = time.perf_counter()
    report = lp_table(args.n, Coupling(j=args.j), FieldSetting(b=args.b), tol=args.tol)
    corr = report.rank_correlation
    rows = [{"orbit": row.pattern, "period": row.period,
             "member_probability": row.member_probability,
             "orbit_probability": row.orbit_probability,
             "clustering": row.clustering, "dihedral_class": row.dihedral_class,
             "rank_correlation": corr}
            for row in report.rows]
    config = {"n": args.n, "j": args.j, "b": args.b, "tol": args.tol,
              "k": report.k, "sector_weight": report.sector_weight}
    _emit("lp", config, rows, args, started)
    return 0


def _cmd_sweep(args) -> int:
    started = time.perf_counter()
    n_min, n_max = _parse_range(args.n)
    rows_out = []
    for row in sweep(n_min, n_max, parity=args.parity, regime=args.regime,
                     distance=args.distance, tol=args.tol):
        rows_out.append({"n": row.n, "regime": row.regime, "distance": row.distance,
                         "concurrence": row.concurrence, "degeneracy": row.degeneracy,
                         "energy": row.energy, "seconds": row.seconds})
    config = {"n_min": n_min, "n_max": n_max, "parity": args.parity,
              "regime": args.regime, "distance": args.distance, "tol": args.tol}
    _emit("sweep", config, rows_out, args, started)
    return 0


def _cmd_extrapolate(args) -> int:
    started = time.perf_counter()
    n_min, n_max = _parse_range(args.n)
    rows = sweep(n_min, n_max, parity=args.parity, regime=args.regime,
                 distance=args.distance, tol=args.tol)
    fit = extrapolate(rows)
    rows_out = [{"c_infinity": fit.c_infinity, "a": fit.a, "b": fit.b,
                 "residual": fit.residual,
                 "points": " ".join(str(n) for n in fit.points)}]
    config = {"n_min": n_min, "n_max": n_max, "parity": args.parity,
              "regime": args.regime, "distance": args.distance, "tol": args.tol}
    _emit("extrapolate", config, rows_out, args, started)
    return 0


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    n_min, n_max = _parse_range(args.n)
    rows = []
    all_ok = True
    for n in range(n_min, n_max + 1):
        for j in (-1.0, 1.0):
            result = compare_with_pipeline(n, Coupling(j=j), tol=args.tol)
            all_ok &= result.ok
            rows.append({"n": n, "j": j, "energy_delta": result.energy_delta,
                         "oracle_degeneracy": result.oracle_degeneracy,
                         "pipeline_degeneracy": result.pipeline_degeneracy,
                         "concurrence_delta": result.concurrence_delta,
                         "probability_delta": result.probability_delta,
                         "ok": result.ok})
    config = {"n_min": n_min, "n_max": n_max, "tol": args.tol}
    _emit("verify", config, rows, args, started)
    return 0 if all_ok else 1


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "ground": _cmd_ground,
    "concurrence": _cmd_concurrence,
    "lp": _cmd_lp,
    "sweep": _cmd_sweep,
    "extrapolate": _cmd_extrapolate,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"xxring: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
