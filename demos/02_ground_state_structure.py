"""Which configurations make up the ground state, and with what weight.

Every member of a translation orbit appears in the ground state with the
same probability, so the state is summarized by a handful of orbit rows.
A clear pattern emerges: the more bunched the up spins (higher clustering
score), the smaller the weight.  Reflection partners tie only up to
rounding: their probabilities can differ in the last bits, and those bits
decide which of a tied pair is listed first.  (That is why the benchmark
gate must compare tied rows as a set, ROADMAP item 1, and the orbit tables
must stop depending on those bits, item 2, before a change that moves them,
such as item 8's real ground solve, can land.)  The alternating pattern
always dominates, the contiguous block is rarest.
"""

from xxring import Coupling, lp_table

for n in (4, 6, 8):
    report = lp_table(n, Coupling(-1.0))
    print(f"=== {n}-site ring, ground state lives in the k={report.k} sector ===")
    print(f"{'orbit':22s} {'period':>6s} {'P(member)':>12s} {'P(orbit)':>10s} "
          f"{'clustering':>10s} {'class':>5s}")
    for row in report.rows:
        print(f"{row.pattern:22s} {row.period:6d} {row.member_probability:12.6f} "
              f"{row.orbit_probability:10.6f} {row.clustering:10.4f} "
              f"{row.dihedral_class:5d}")
    print(f"rank correlation (clustering vs probability): {report.rank_correlation:+.3f}")
    print()

print("Notes on the 8-site table:")
print(" - the two rows with clustering 41/12 = 3.4167 tie in probability even")
print("   though they are not reflections of each other (classes differ);")
print(" - probability is not strictly monotone in the clustering score: the")
print("   period-4 orbit |j,j+1,j+4,j+5> outweighs the |j,j+2,j+3,j+5> row")
print("   despite its larger score, so the trend is qualitative, not a law.")
print()

report = lp_table(5, Coupling(-1.0))
print("=== odd rings: the ground level is degenerate, mixing two sectors ===")
print(f"5-site ferromagnetic ground manifold puts weight {report.sector_weight:.2f}")
print(f"in the k={report.k} sector; within it the orbit table reads:")
for row in report.rows:
    print(f"  {row.pattern:12s} period {row.period}  P(member) = {row.member_probability:.6f}")
