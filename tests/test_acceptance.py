"""Acceptance gate: ten criteria, each printed as one PASS/FAIL line.

Every tolerance is pinned here, not calibrated.  Three targets printed in
the source paper (arXiv quant-ph/0609140) contradict the paper's own data
and are replaced by closed forms from Jordan-Wigner free fermions (Lieb,
Schultz & Mattis, Ann. Phys. 16, 407 (1961)): the 8-site pair concurrence
and the 7-site antiferromagnetic one (criterion 1), the 7-site
ferromagnetic ground energy (criterion 2) and the 8-site orbit
probabilities (criterion 3).  Those targets are computed below with numpy
alone, never from this library; the paper's printed values stay beside
them as comments with the reason each was rejected.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines of the passing criteria too.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from xxring.basis import enumerate_sector
from xxring.concurrence import concurrence_wootters, pair_density, state_concurrence
from xxring.hamiltonian import Coupling, FieldSetting, build_momentum_block
from xxring.oracle import compare_with_pipeline, eigenvector_concurrence_scan
from xxring.polarization import lp_table
from xxring.spectra import SectorState, ground_concurrence, ground_manifold
from xxring.sweeps import extrapolate, sweep

from reference import build_sector_hamiltonian, concurrence_xstate

FERRO = Coupling(-1.0)
ANTIFERRO = Coupling(1.0)


def report(number, ok, text, elapsed=None, limit=None):
    budget = "" if elapsed is None else f" [{elapsed:.2f}s, budget {limit:.0f}s]"
    line = f"ACCEPTANCE {number:>2} [{'PASS' if ok else 'FAIL'}] {text}{budget}"
    print("\n" + line)
    return line


def slater_mixture_concurrence(n, determinants):
    """Nearest-pair concurrence of an equal-weight mixture of free-fermion
    Slater determinants, each given by its occupied momenta.

    Adjacent sites carry no Jordan-Wigner string, so each determinant gives
    z = <c0+ c1> = sum(exp(iq))/n and, by Wick's theorem,
    u+ = (k/n)^2 - |z|^2, u- = (1 - k/n)^2 - |z|^2.  The mixture's pair
    density is X-shaped: C = 2 max(0, |mean z| - sqrt(mean u+ * mean u-)).
    """
    z, u_plus, u_minus = [], [], []
    for momenta in determinants:
        filling = len(momenta) / n
        z.append(np.exp(1j * np.asarray(momenta)).sum() / n)
        u_plus.append(filling ** 2 - abs(z[-1]) ** 2)
        u_minus.append((1 - filling) ** 2 - abs(z[-1]) ** 2)
    return 2 * max(0.0, abs(np.mean(z)) - np.sqrt(np.mean(u_plus) * np.mean(u_minus)))


def slater_orbit_probabilities(n, momenta):
    """Sorted per-configuration probabilities |det[exp(i q_a x_b)]|^2 / n^k of
    a free-fermion Slater determinant, one per translation orbit of the
    occupied sites x (a momentum eigenstate weighs every orbit member alike).
    """
    by_orbit = {}
    for sites in itertools.combinations(range(n), len(momenta)):
        orbit = min(tuple(sorted((x + s) % n for x in sites)) for s in range(n))
        amplitude = np.linalg.det(np.exp(1j * np.outer(momenta, sites)))
        by_orbit[orbit] = abs(amplitude) ** 2 / n ** len(momenta)
    return np.sort(list(by_orbit.values()))


def test_criterion_01_pair_concurrence_table():
    # Even rings fill the Fermi sea once: C = 2G + 2G^2 - 1/2 with G the
    # hopping correlation |<c0+ c1>|.  The paper's 4- and 6-site values
    # (0.45711, 0.38889) follow it; its printed 0.37048 for 8 sites does not.
    g8 = (np.cos(np.pi / 8) + np.cos(3 * np.pi / 8)) / 4
    even8 = 2 * g8 + 2 * g8 ** 2 - 0.5  # = 0.366670; paper: 0.37048
    # The 7-site antiferromagnetic level is four-fold: k=3 with periodic
    # momenta 2pi{2,3,4}/7 and 2pi{3,4,5}/7, and their particle-hole
    # partners in k=4 with antiperiodic momenta pi{3,5,7,9}/7 and
    # pi{5,7,9,11}/7.  Their mixture gives 0.274291.  The paper prints 0.0,
    # but its 5-site value 0.21305 is the same kind of mixture and is
    # nonzero: degeneracy lowers the concurrence, it does not remove it.
    odd7 = slater_mixture_concurrence(7, [
        2 * np.pi * np.array([2, 3, 4]) / 7, 2 * np.pi * np.array([3, 4, 5]) / 7,
        np.pi * np.array([3, 5, 7, 9]) / 7, np.pi * np.array([5, 7, 9, 11]) / 7])
    targets = [
        (2, FERRO, 1.0), (4, FERRO, 0.45711), (6, FERRO, 0.38889), (8, FERRO, even8),
        (2, ANTIFERRO, 1.0), (4, ANTIFERRO, 0.45711), (6, ANTIFERRO, 0.38889),
        (8, ANTIFERRO, even8),
        (3, FERRO, 0.33333), (5, FERRO, 0.33666), (7, FERRO, 0.33787),
        (3, ANTIFERRO, 0.0), (5, ANTIFERRO, 0.21305), (7, ANTIFERRO, odd7),
    ]
    started = time.perf_counter()
    failures = []
    for n, coupling, expected in targets:
        got = ground_concurrence(n, coupling)
        if abs(got - expected) > 1e-4:
            failures.append(f"(n={n}, {coupling.regime[:5]}): target {expected:.6f}, "
                            f"computed {got:.6f}")
    elapsed = time.perf_counter() - started
    line = report(1, not failures, "ground-mixture concurrence table, 1e-4",
                  elapsed, 5.0)
    assert elapsed < 5.0
    assert not failures, f"{line}\n  " + "\n  ".join(failures)


def test_criterion_02_ground_energy_closed_forms():
    sqrt2, sqrt5 = np.sqrt(2.0), np.sqrt(5.0)
    closed_forms = [
        (3, FERRO, 2 * FERRO.j), (3, ANTIFERRO, -ANTIFERRO.j),
        (4, FERRO, 2 * sqrt2 * FERRO.j), (4, ANTIFERRO, -2 * sqrt2 * ANTIFERRO.j),
        (5, FERRO, (sqrt5 + 1) * FERRO.j), (5, ANTIFERRO, -(3 + sqrt5) / 2 * ANTIFERRO.j),
        (6, FERRO, 4 * FERRO.j), (6, ANTIFERRO, -4 * ANTIFERRO.j),
        (8, FERRO, 2 * np.sqrt(4 + 2 * sqrt2) * FERRO.j),
        # k=3 with periodic momenta 0, +-2pi/7.  The paper prints 4.4611*J,
        # 0.033 off, yet its own 7-site amplitudes (0.064, 0.143, 0.178,
        # 0.143, 0.257) belong to the ground state at this energy.
        (7, FERRO, 2 * (1 + 2 * np.cos(2 * np.pi / 7)) * FERRO.j),
    ]
    started = time.perf_counter()
    failures = []
    for n, coupling, expected in closed_forms:
        got = ground_manifold(n, coupling).energy
        if abs(got - expected) > 1e-9 * abs(expected):
            failures.append(f"(n={n}, {coupling.regime[:5]}): closed form {expected:.9f}, "
                            f"computed {got:.9f}")
    elapsed = time.perf_counter() - started
    line = report(2, not failures, "ground energies vs closed forms", elapsed, 5.0)
    assert elapsed < 5.0
    assert not failures, f"{line}\n  " + "\n  ".join(failures)


def test_criterion_03_orbit_probability_table():
    started = time.perf_counter()
    failures = []

    got4 = [row.member_probability for row in lp_table(4, FERRO).rows]
    if np.abs(np.array(got4) - [1 / 8, 1 / 4]).max() > 1e-10:
        failures.append(f"n=4: target [1/8, 1/4], computed {got4}")

    got6 = [row.member_probability for row in lp_table(6, FERRO).rows]
    if np.abs(np.array(got6) - [1 / 72, 1 / 18, 1 / 18, 1 / 8]).max() > 1e-10:
        failures.append(f"n=6: target [1/72, 1/18, 1/18, 1/8], computed {got6}")

    # The 8-site ground state is the Slater determinant of q = +-pi/8,
    # +-3pi/8; the 4-site targets above are the same formula,
    # sin^2(pi d/4)/4 for up spins d sites apart.  The paper prints the
    # coefficients 0.022, 0.056, 0.074, 0.056, 0.074, 0.136, 0.127, 0.136,
    # 0.147, 0.417; as a 70-state vector they are no eigenvector (Rayleigh
    # quotient -4.732 against E0 = -5.226, residual 1.84), and only dividing
    # the period-4 and period-2 coefficients by sqrt(2) and 2 brings their
    # squares within 3.8e-4.
    q8 = np.pi * np.array([1, -1, 3, -3]) / 8
    target8 = slater_orbit_probabilities(8, q8)
    got8 = np.sort([row.member_probability for row in lp_table(8, FERRO).rows])
    bad = np.abs(got8 - target8) > 1e-10
    if bad.any():
        rows = "; ".join(f"target {t:.12f} vs computed {g:.12f}"
                         for t, g, b in zip(target8, got8, bad) if b)
        failures.append(f"n=8: {rows}")
    elapsed = time.perf_counter() - started
    line = report(3, not failures, "orbit probability tables (n=4, 6, 8)", elapsed, 5.0)
    assert elapsed < 5.0
    assert not failures, f"{line}\n  " + "\n  ".join(failures)


def test_criterion_04_degeneracy_pattern():
    started = time.perf_counter()
    failures = []
    for n in range(2, 13, 2):
        for coupling in (FERRO, ANTIFERRO):
            d = ground_manifold(n, coupling).degeneracy
            if d != 1:
                failures.append(f"(n={n}, {coupling.regime[:5]}): d={d}, want 1")
    for n in (3, 5, 7, 9):
        for coupling, want in ((FERRO, 2), (ANTIFERRO, 4)):
            d = ground_manifold(n, coupling).degeneracy
            if d != want:
                failures.append(f"(n={n}, {coupling.regime[:5]}): d={d}, want {want}")
    elapsed = time.perf_counter() - started
    line = report(4, not failures, "zero-field degeneracy pattern", elapsed, 60.0)
    assert not failures, f"{line}\n  " + "\n  ".join(failures)


def test_criterion_05_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    for n in range(2, 11):
        for coupling in (FERRO, ANTIFERRO):
            result = compare_with_pipeline(n, coupling)
            if not result.ok:
                failures.append(str(result))
    elapsed = time.perf_counter() - started
    line = report(5, not failures,
                  "full 2^n oracle vs momentum pipeline, n=2..10, both signs",
                  elapsed, 120.0)
    assert elapsed < 120.0
    assert not failures, f"{line}\n  " + "\n  ".join(failures)


def test_criterion_06_field_lifting():
    started = time.perf_counter()
    manifold = ground_manifold(3, FERRO, FieldSetting(b=0.1))
    mixture = [(1 / manifold.degeneracy, s) for s in manifold.states]
    value = concurrence_wootters(pair_density(mixture, (0, 1)))
    ok = manifold.degeneracy == 1 and len({s.k for s in manifold.states}) == 1 \
        and abs(value - 2 / 3) <= 1e-10
    line = report(6, ok, f"small field lifts n=3 degeneracy to C=2/3 (got {value:.12f})",
                  time.perf_counter() - started, 60.0)
    assert ok, line


def test_criterion_07_w_state_pairs():
    started = time.perf_counter()
    failures = []
    for n in range(3, 13):
        state = SectorState(basis=enumerate_sector(n, 1),
                            amplitudes=np.full(n, 1 / np.sqrt(n)))
        for q in range(1, n):
            got = state_concurrence(state, (0, q))
            if abs(got - 2 / n) > 1e-12:
                failures.append(f"(n={n}, pair (1,{q + 1})): {got} vs 2/{n}")
    line = report(7, not failures, "uniform one-up states give 2/n on every pair",
                  time.perf_counter() - started, 60.0)
    assert not failures, f"{line}\n  " + "\n  ".join(failures)


def test_criterion_08_limit_extrapolation():
    started = time.perf_counter()
    rows = sweep(4, 14, parity="even", regime="ferro")
    values = [row.concurrence for row in rows]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    fit = extrapolate(rows)
    tail_fit = extrapolate([row for row in rows if row.n >= 6])
    in_band = 0.3324 <= fit.c_infinity <= 0.3524
    elapsed = time.perf_counter() - started
    line = report(8, decreasing and in_band,
                  f"even sweep to n=14: fit c_inf={fit.c_infinity:.5f} "
                  f"(n>=6 fit {tail_fit.c_infinity:.5f}), band [0.3324, 0.3524]",
                  elapsed, 600.0)
    assert elapsed < 600.0
    assert decreasing, f"{line}\n  sequence not strictly decreasing: {values}"
    assert in_band, f"{line}\n  fitted limit outside the band"


def test_criterion_09_property_suites():
    started = time.perf_counter()
    failures = []

    # Hermiticity of every momentum block, n <= 10
    for n in range(2, 11):
        for k in range(n + 1):
            basis = enumerate_sector(n, k)
            for m in range(n):
                h = build_momentum_block(basis, m, ANTIFERRO).matrix
                if h.size and np.abs(h - h.conj().T).max() > 1e-12 * max(np.abs(h).max(), 1.0):
                    failures.append(f"block (n={n}, k={k}, m={m}) not Hermitian")

    # trace / Hermiticity / positivity of pair densities over ground mixtures
    # (enforced on construction; a violation raises)
    try:
        for n in range(2, 9):
            for coupling in (FERRO, ANTIFERRO):
                manifold = ground_manifold(n, coupling)
                d = manifold.degeneracy
                for q in range(1, n):
                    pair_density([(1 / d, s) for s in manifold.states], (0, q))
    except ValueError as exc:
        failures.append(f"pair-density invariant violated: {exc}")

    # X-form fast path against the general route, 1000 random fixed-k states
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, n))
        basis = enumerate_sector(n, k)
        amp = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        state = SectorState(basis=basis, amplitudes=amp / np.linalg.norm(amp))
        rho = pair_density([(1.0, state)], (0, int(rng.integers(1, n))))
        if abs(concurrence_xstate(rho) - concurrence_wootters(rho)) > 1e-10:
            failures.append("x-state fast path disagrees with the general route")
            break

    # translation invariance of the manifold pair concurrence
    for n, coupling in [(5, FERRO), (6, ANTIFERRO), (7, ANTIFERRO)]:
        manifold = ground_manifold(n, coupling)
        mixture = [(1 / manifold.degeneracy, s) for s in manifold.states]
        for distance in range(1, n // 2 + 1):
            values = []
            for shift in range(n):
                p, q = sorted(((shift) % n, (shift + distance) % n))
                values.append(concurrence_wootters(pair_density(mixture, (p, q))))
            if max(values) - min(values) > 1e-10:
                failures.append(f"pair concurrence not translation invariant (n={n})")

    # particle-hole spectrum equality, n <= 10
    for n in range(2, 11):
        for k in range(n // 2 + 1):
            a = np.linalg.eigvalsh(build_sector_hamiltonian(enumerate_sector(n, k), FERRO))
            b = np.linalg.eigvalsh(build_sector_hamiltonian(enumerate_sector(n, n - k), FERRO))
            if np.abs(a - b).max() > 1e-10:
                failures.append(f"particle-hole spectra differ (n={n}, k={k})")

    # dihedral partners share the mixture probability, even n <= 12
    for n in range(2, 13, 2):
        by_class = {}
        for row in lp_table(n, FERRO).rows:
            by_class.setdefault(row.dihedral_class, []).append(row.member_probability)
        for probs in by_class.values():
            if max(probs) - min(probs) > 1e-9:
                failures.append(f"dihedral partners differ in probability (n={n})")

    line = report(9, not failures, "property suites (hermiticity, pair-density "
                  "invariants, x-path agreement, translation invariance, "
                  "particle-hole, dihedral equality)",
                  time.perf_counter() - started, 300.0)
    assert not failures, f"{line}\n  " + "\n  ".join(failures)


def test_criterion_10_ground_maximality_claim_logged():
    started = time.perf_counter()
    outcomes = []
    for n in range(2, 7):
        for coupling in (FERRO, ANTIFERRO):
            scan = eigenvector_concurrence_scan(n, coupling)
            outcomes.append((n, coupling.regime, scan.ground_is_max,
                             scan.rows[0].concurrence,
                             max(r.concurrence for r in scan.rows)))
    line = report(10, True, "ground-level maximality claim (soft check, logged)",
                  time.perf_counter() - started, 60.0)
    for n, regime, leads, ground_c, best_c in outcomes:
        note = "holds" if leads else "VIOLATED"
        print(f"  n={n} {regime}: ground C={ground_c:.5f}, best level C={best_c:.5f} "
              f"-> {note}")
        if not leads:
            warnings.warn(
                f"ground level is not maximal for n={n} {regime}: the degenerate "
                f"ground mixture gives {ground_c:.5f} while an excited level "
                f"reaches {best_c:.5f}", stacklevel=1)
    assert line  # soft criterion: outcomes are logged, never failed
