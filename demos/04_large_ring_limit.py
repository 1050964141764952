"""Finite-size trend of the nearest-pair concurrence and its limit.

The nearest-pair concurrence of an even ring's ground level is
C = 2G + 2G^2 - 1/2, G being the hopping correlation |<c0+ c1>|, and
G -> 1/pi on large rings (Lieb, Schultz & Mattis, 1961), so the exact limit
is 2/pi + 2/pi^2 - 1/2 = 0.339262.  Even rings approach it from above, by
about 1.71/n^2 (0.348072 at n = 14), and odd ferromagnetic rings from below
(0.338844 at n = 13).  Even rings have no 1/n term, so a second-order fit
in 1/n over the even sizes 4..14 reads 0.343282, above the limit; the
paper's 0.3424 overshoots the same way.  Writes the sweep to
``ring_sweep.csv`` and, when matplotlib is importable, a plot to
``ring_sweep.png``.
"""

import csv
from math import pi

from xxring import extrapolate, sweep

even = sweep(4, 14, parity="even", regime="ferro")
odd = sweep(3, 13, parity="odd", regime="ferro")

print("=== nearest-pair concurrence vs ring size (ferromagnetic) ===")
print(f"{'n':>3s} {'even rings':>12s}    {'n':>3s} {'odd rings':>12s}")
for e, o in zip(even, odd):
    print(f"{e.n:3d} {e.concurrence:12.8f}    {o.n:3d} {o.concurrence:12.8f}")

fit_even = extrapolate(even)
fit_tail = extrapolate([row for row in even if row.n >= 6])
fit_odd = extrapolate(odd)
print()
print("second-order fits C(n) = c_inf + a/n + b/n^2:")
print(f"  even n=4..14 : c_inf = {fit_even.c_infinity:.5f} "
      f"(residual {fit_even.residual:.1e})")
print(f"  even n=6..14 : c_inf = {fit_tail.c_infinity:.5f} "
      f"(residual {fit_tail.residual:.1e})")
print(f"  odd  n=3..13 : c_inf = {fit_odd.c_infinity:.5f} "
      f"(residual {fit_odd.residual:.1e})")
limit = 2 / pi + 2 / pi ** 2 - 0.5
print()
print(f"exact limit 2/pi + 2/pi^2 - 1/2 = {limit:.6f}")
print(f"even rings approach it from above, by about 1.71/n^2 "
      f"({even[-1].concurrence:.6f} at n = {even[-1].n}),")
print(f"odd rings from below ({odd[-1].concurrence:.6f} at n = {odd[-1].n}); "
      "even rings have no 1/n term,")
print("so the even fits overshoot the limit, as the paper's 0.3424 does")

with open("ring_sweep.csv", "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["n", "parity", "concurrence", "degeneracy", "energy"])
    for row in even + odd:
        writer.writerow([row.n, row.n % 2 and "odd" or "even",
                         f"{row.concurrence:.12g}", row.degeneracy,
                         f"{row.energy:.12g}"])
print("wrote ring_sweep.csv")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping ring_sweep.png")
else:
    fig, ax = plt.subplots(figsize=(5.2, 3.6))
    ax.plot([r.n for r in even], [r.concurrence for r in even], "o-", label="even n")
    ax.plot([r.n for r in odd], [r.concurrence for r in odd], "s-", label="odd n (ferro)")
    ax.axhline(fit_even.c_infinity, color="gray", lw=0.8, ls="--",
               label=f"fitted limit {fit_even.c_infinity:.4f}")
    ax.axhline(limit, color="black", lw=0.8, label=f"exact limit {limit:.6f}")
    ax.set_xlabel("ring size n")
    ax.set_ylabel("nearest-pair concurrence")
    ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig("ring_sweep.png", dpi=150)
    print("wrote ring_sweep.png")
