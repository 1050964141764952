"""Exact diagonalization and pairwise entanglement of the spin-1/2 XX ring.

The ring Hamiltonian conserves magnetization and commutes with translations,
so every computation runs over fixed-up-spin sectors split into momentum
blocks (429 states at most for rings up to 15 sites, against 2^15 raw).  On
top of that sit the ground-manifold extraction with degeneracy detection,
two-qubit reduced density matrices with Wootters concurrence, orbit-resolved
probability reports, a full 2^n brute-force cross-check, and size sweeps
with a 1/n extrapolation of the nearest-pair concurrence.

Values and results (``Coupling``, ``FieldSetting``, ``SectorState``, the
ground manifold, the reports and rows) are immutable named tuples: their
fields read by name, ``_replace`` makes a changed copy, and a type that
checks its inputs checks them on that path too.
"""

from .basis import enumerate_sector
from .concurrence import concurrence_wootters, state_concurrence
from .hamiltonian import Coupling, FieldSetting, build_momentum_block
from .polarization import lp_table
from .spectra import SectorState, eigh, ground_concurrence, ground_manifold
from .sweeps import extrapolate, sweep

__version__ = "0.1.0"

__all__ = [
    "Coupling", "FieldSetting", "SectorState",
    "enumerate_sector", "build_momentum_block",
    "eigh", "ground_manifold",
    "concurrence_wootters", "state_concurrence", "ground_concurrence",
    "lp_table",
    "sweep", "extrapolate",
    "__version__",
]
