"""Nearest-pair concurrence of the ground state: parity, degeneracy, field.

Even rings have a unique ground state and one concurrence value per size,
identical in both coupling regimes.  Odd rings carry a degenerate ground
level; the symmetric (equal-weight) mixture over it depresses the
concurrence, fourfold degeneracy more so than twofold.  A small uniform
field selects a single sector and restores the single-state value.
"""

import numpy as np

from xxring import (Coupling, FieldSetting, concurrence_wootters, enumerate_sector,
                    ground_concurrence, ground_manifold, state_concurrence, SectorState)
from xxring.concurrence import pair_density

FERRO, ANTIFERRO = Coupling(-1.0), Coupling(1.0)

print("=== nearest-pair concurrence of the ground mixture ===")
print(f"{'n':>3s} {'ferro':>12s} {'antiferro':>12s} {'degeneracy f/af':>16s}")
for n in range(2, 9):
    cf = ground_concurrence(n, FERRO)
    ca = ground_concurrence(n, ANTIFERRO)
    df = ground_manifold(n, FERRO).degeneracy
    da = ground_manifold(n, ANTIFERRO).degeneracy
    print(f"{n:3d} {cf:12.6f} {ca:12.6f} {df:8d}/{da}")

print()
print("=== degeneracy is what separates the columns ===")
print("3-site ferro ground manifold: two states; each alone is a uniform")
print("one-up (or one-down) superposition with pair concurrence 2/3, but the")
print("equal-weight mixture drops to 1/3:")
manifold = ground_manifold(3, FERRO)
for state in manifold.states:
    print(f"  single state (k={state.k}, m={state.momentum}): "
          f"C = {state_concurrence(state, (0, 1)):.6f}")
# the general Wootters formula on the mixture's 4x4 pair density, as a float
d = manifold.degeneracy
mixture = concurrence_wootters(pair_density([(1 / d, s) for s in manifold.states], (0, 1)))
print(f"  equal-weight mixture: C = {mixture:.6f}")

print()
print("A weak uniform field splits the two sectors and picks one state:")
for b in (0.0, 0.05, 0.1):
    value = ground_concurrence(3, FERRO, FieldSetting(b=b))
    d = ground_manifold(3, FERRO, FieldSetting(b=b)).degeneracy
    print(f"  b = {b:4.2f}: degeneracy {d}, C = {value:.10f}")

print()
print("=== uniform one-up states share 2/n between every pair ===")
for n in (3, 6, 12):
    state = SectorState(basis=enumerate_sector(n, 1),
                        amplitudes=np.full(n, 1 / np.sqrt(n)))
    values = {state_concurrence(state, (0, q)) for q in range(1, n)}
    print(f"  n={n:2d}: all pairs give {min(values):.6f} (2/n = {2 / n:.6f})")

print()
print("=== distance matters: only the nearest pair is entangled at n=4 ===")
for distance in (1, 2):
    value = ground_concurrence(4, FERRO, pair=(0, distance))
    print(f"  distance {distance}: C = {value:.6f}")
