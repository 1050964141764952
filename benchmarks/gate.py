"""Correctness gate for the CLI payloads of the benchmark workloads.

Shares no code with the program it checks.  The XX ring maps onto free
fermions by the Jordan-Wigner transform (Lieb, Schultz & Mattis, Ann. Phys.
16, 407 (1961)): with k up spins on n sites, the single-particle energies are
2J cos q with q = 2*pi*(l + phi)/n, phi = 1/2 (antiperiodic) for even k and
phi = 0 (periodic) for odd k.  Every sector eigenvalue is the sum over a
k-subset of these modes, and the subset's total momentum index sum(l + phi)
mod n is the translation momentum m of the block it lives in.  From that:

* ground energies: the minimum over k of the k lowest modes, minus b(k - n/2);
* degeneracy at zero field: 1 for even n, 2 for odd n with J < 0, 4 for odd
  n with J > 0;
* even-ring nearest-pair concurrence: C = 2|G| + 2G^2 - 1/2 with
  G = (1/n) sum over the occupied modes of cos q (|G| because J > 0 maps onto
  J < 0 by rotating every second spin of an even ring);
* every eigenvalue of every (k, m) block of ``spectrum``.

Values with no closed form here (odd-ring and distant-pair concurrences,
orbit tables, fit coefficients) are compared with ``reference.json``, which
``record_reference.py`` wrote from the payloads of the seed version of the
program.  Every float is compared to a relative tolerance of 1e-10 (payloads
print 12 significant digits).
"""

from __future__ import annotations

import itertools
import json
import math
import os

TOL = 1e-10
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REGIME_J = {"ferro": -1.0, "antiferro": 1.0}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _modes(n: int, k: int, j: float) -> list[tuple[float, float]]:
    """(energy, momentum index l + phi) of the n single-particle modes."""
    phi = 0.5 if k % 2 == 0 else 0.0
    return [(2.0 * j * math.cos(2.0 * math.pi * (l + phi) / n), l + phi) for l in range(n)]


def sector_energy(n: int, k: int, j: float) -> float:
    return sum(sorted(e for e, _ in _modes(n, k, j))[:k])


def ground_sectors(n: int, j: float, b: float = 0.0) -> tuple[float, list[int]]:
    """Ground energy and the up-spin counts that reach it."""
    energies = [sector_energy(n, k, j) - b * (k - n / 2) for k in range(n + 1)]
    e0 = min(energies)
    return e0, [k for k, e in enumerate(energies) if abs(e - e0) <= TOL * max(1.0, abs(e0))]


def ground_degeneracy(n: int, j: float) -> int:
    """Zero-field ground degeneracy of the n-site ring."""
    if n % 2 == 0:
        return 1
    return 2 if j < 0 else 4


def nearest_pair_concurrence(n: int, j: float) -> float:
    """Closed-form nearest-pair concurrence of an even ring at zero field."""
    _, (k,) = ground_sectors(n, j)
    occupied = sorted(_modes(n, k, j))[:k]
    g = sum(math.cos(2.0 * math.pi * q / n) for _, q in occupied) / n
    return 2.0 * abs(g) + 2.0 * g * g - 0.5


def block_spectra(n: int, k: int, j: float) -> dict[int, list[float]]:
    """Sorted eigenvalues of every nonempty momentum block of sector k."""
    modes = _modes(n, k, j)
    blocks: dict[int, list[float]] = {}
    for subset in itertools.combinations(modes, k):
        m = round(sum(q for _, q in subset)) % n
        blocks.setdefault(m, []).append(sum(e for e, _ in subset))
    return {m: sorted(values) for m, values in blocks.items()}


def _options(argv: list[str]) -> dict[str, str]:
    flags = argv[1:]
    return {flag.lstrip("-"): value for flag, value in zip(flags[::2], flags[1::2])}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(got, want) -> bool:
    if _is_number(got) and _is_number(want):
        return abs(got - want) <= TOL * max(1.0, abs(want))
    return got == want


def _sizes(opts: dict[str, str]) -> list[int]:
    lo, hi = (int(x) for x in opts["n"].split(".."))
    parity = opts.get("parity", "all")
    return [n for n in range(lo, hi + 1)
            if parity == "all" or n % 2 == (0 if parity == "even" else 1)]


def _closed_nearest(n: int, distance: int) -> bool:
    return n % 2 == 0 and distance == 1


def reference_values(argv: list[str], doc: dict) -> dict:
    """The payload values this gate has no closed form for, flattened."""
    command, opts = argv[0], _options(argv)
    distance = int(opts.get("distance", "1"))
    if command == "concurrence":
        row = doc["rows"][0]
        return {} if _closed_nearest(row["n"], distance) else {"concurrence": row["concurrence"]}
    if command == "lp":
        values = {"k": doc["config"]["k"], "sector_weight": doc["config"]["sector_weight"]}
        for i, row in enumerate(doc["rows"]):
            values.update({f"rows.{i}.{field}": v for field, v in row.items()})
        return values
    if command == "sweep":
        return {f"n={row['n']}.concurrence": row["concurrence"] for row in doc["rows"]
                if not _closed_nearest(row["n"], distance)}
    if command == "extrapolate":
        return dict(doc["rows"][0])
    return {}


def _check_closed_forms(argv: list[str], doc: dict, expect) -> None:
    command, opts = argv[0], _options(argv)
    j = float(opts.get("j", "-1"))
    b = float(opts.get("b", "0"))
    distance = int(opts.get("distance", "1"))
    if command == "concurrence":
        n = int(opts["n"])
        row = doc["rows"][0]
        expect("energy", row["energy"], ground_sectors(n, j, b)[0])
        expect("degeneracy", row["degeneracy"], ground_degeneracy(n, j))
        if _closed_nearest(n, distance):
            expect("concurrence", row["concurrence"], nearest_pair_concurrence(n, j))
    elif command == "lp":
        n = int(opts["n"])
        expect("k", doc["config"]["k"], min(ground_sectors(n, j, b)[1]))
    elif command == "spectrum":
        n = int(opts["n"])
        expect("rows", len(doc["rows"]), 2 ** n)
        for k in range(n + 1):
            for m, want in block_spectra(n, k, j).items():
                got = sorted(r["energy"] for r in doc["rows"] if r["k"] == k and r["m"] == m)
                expect(f"k={k} m={m} levels", len(got), len(want))
                for level, (g, w) in enumerate(zip(got, want)):
                    expect(f"k={k} m={m} level {level}", g, w - b * (k - n / 2))
    elif command == "sweep":
        j = REGIME_J[opts.get("regime", "ferro")]
        sizes = [n for n in _sizes(opts) if distance < n]
        expect("sizes", [row["n"] for row in doc["rows"]], sizes)
        for row in doc["rows"]:
            n = row["n"]
            expect(f"n={n} energy", row["energy"], ground_sectors(n, j)[0])
            expect(f"n={n} degeneracy", row["degeneracy"], ground_degeneracy(n, j))
            if _closed_nearest(n, distance):
                expect(f"n={n} concurrence", row["concurrence"], nearest_pair_concurrence(n, j))
    elif command == "verify":
        lo, hi = (int(x) for x in opts["n"].split(".."))
        expect("rows", [(r["n"], r["j"]) for r in doc["rows"]],
               [(n, jj) for n in range(lo, hi + 1) for jj in (-1, 1)])
        for row in doc["rows"]:
            label = f"n={row['n']} j={row['j']}"
            expect(f"{label} ok", row["ok"], True)
            want = ground_degeneracy(row["n"], row["j"])
            expect(f"{label} oracle degeneracy", row["oracle_degeneracy"], want)
            expect(f"{label} pipeline degeneracy", row["pipeline_degeneracy"], want)
    elif command != "extrapolate":
        raise ValueError(f"no check for command {command!r}")


def check(argv: list[str], code, text: str, reference: dict) -> list[str]:
    """Failure messages for one command's exit status and payload; empty if correct."""
    if code != 0:
        return [f"exit status {code}"]
    try:
        doc = json.loads(text)
        failures: list[str] = []

        def expect(label, got, want):
            if not _close(got, want):
                failures.append(f"{label}: got {got!r}, want {want!r}")

        _check_closed_forms(argv, doc, expect)
        got = reference_values(argv, doc)
        want = reference.get(" ".join(argv), {}) if got else {}
        expect("reference fields", sorted(got), sorted(want))
        for key in sorted(set(got) & set(want)):
            expect(key, got[key], want[key])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed payload: {exc!r}"]
    return failures
