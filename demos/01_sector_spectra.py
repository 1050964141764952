"""How the ring Hamiltonian splits into sectors and momentum blocks.

The 2^n configurations of an n-site ring never need to be diagonalized in
one piece: the up-spin count k is conserved, and within a sector ring
translations single out momentum blocks whose size is roughly C(n,k)/n.
This script walks that reduction for a few ring sizes and checks the block
spectra against closed-form ground energies.
"""

import math

import numpy as np

from xxring import Coupling, build_momentum_block, enumerate_sector, eigh, ground_manifold
from xxring.basis import rotation_order

np.set_printoptions(precision=6, suppress=True)

print("=== counting: sector and block sizes ===")
for n in (8, 12, 15):
    k = n // 2
    basis = enumerate_sector(n, k)
    largest = max(build_momentum_block(basis, m, Coupling(-1.0)).dim for m in range(n))
    print(f"n={n:2d}: full space 2^n = {1 << n:6d}, half-filling sector "
          f"C({n},{k}) = {basis.dim:5d}, largest momentum block = {largest}")

print()
print("=== the 4-site ring, by hand-sized pieces ===")
basis = enumerate_sector(4, 2)
# rotation_order lists the orbits' members run by run, each run in rotation order
runs = np.split(basis.bits[rotation_order(basis)], np.cumsum(basis.period)[:-1])
for rep, members in zip(basis.reps.tolist(), runs):
    listed = ", ".join(f"{c:04b}" for c in members.tolist())
    print(f"orbit of {rep:04b}: period {len(members)} ({listed})")
for m in range(4):
    block = build_momentum_block(basis, m, Coupling(-1.0))
    print(f"momentum m={m}: dimension {block.dim}, "
          f"eigenvalues {np.linalg.eigvalsh(block.matrix)}")

print()
print("=== ground energies against closed forms ===")
closed_forms = {
    (2, -1.0): ("2J", -2.0),
    (3, -1.0): ("2J", -2.0),
    (3, +1.0): ("-J", -1.0),
    (4, -1.0): ("2*sqrt(2)J", -2 * math.sqrt(2)),
    (5, -1.0): ("(sqrt(5)+1)J", -(math.sqrt(5) + 1)),
    (5, +1.0): ("-(3+sqrt(5))J/2", -(3 + math.sqrt(5)) / 2),
    (6, -1.0): ("4J", -4.0),
    (7, -1.0): ("2(1+2cos(2pi/7))J", -2 * (1 + 2 * math.cos(2 * math.pi / 7))),
    (8, -1.0): ("2*sqrt(4+2sqrt(2))J", -2 * math.sqrt(4 + 2 * math.sqrt(2))),
}
for (n, j), (formula, value) in closed_forms.items():
    manifold = ground_manifold(n, Coupling(j))
    regime = "ferro" if j < 0 else "antiferro"
    print(f"n={n} {regime:9s}: E0 = {manifold.energy:+.9f}  vs  {formula} = "
          f"{value:+.9f}   degeneracy {manifold.degeneracy}")

print()
print("=== a momentum block is genuinely Hermitian and small ===")
basis = enumerate_sector(7, 3)
block = build_momentum_block(basis, 0, Coupling(-1.0))
spectrum = eigh(block.matrix)
print(f"n=7, k=3, m=0: {block.dim}x{block.dim} block, eigenvalues {spectrum.values}")
print("ground amplitudes per orbit pattern:")
reps, periods = basis.reps[block.orbits].tolist(), basis.period[block.orbits].tolist()
for rep, period, amp in zip(reps, periods, spectrum.vectors[:, 0]):
    print(f"  representative {rep:07b} (period {period}): "
          f"per-member amplitude {abs(amp) / math.sqrt(period):.4f}")
