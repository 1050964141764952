"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces each public layer function below by a timing
wrapper in every ``xxring`` module that binds it by name (callers use
``from .spectra import ground_manifold``, so one function is rebound in
several modules).  Each call records a span (id, parent id, command id, name,
start, end) in memory; a span's self time is its duration minus the time its
child spans cover.  A few wrappers also derive counts from the call's
arguments or result; these repeat exactly from run to run.  A function that a
later version of the program no longer has is skipped and reads as zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYER_FUNCTIONS = (
    "basis.enumerate_sector", "basis.translation_orbits",
    "hamiltonian.hop_table", "hamiltonian.build_momentum_block",
    "spectra.eigh", "spectra.lift_block_vector", "spectra.ground_manifold",
    "concurrence.pair_density", "concurrence.concurrence_wootters",
    "polarization.lp_table", "polarization.orbit_probabilities",
    "sweeps.sweep", "sweeps.extrapolate",
    "oracle.compare_with_pipeline", "oracle.full_diagonalize",
    "oracle.eigenvector_concurrence_scan",
    "cli.run",
)
CALL_COUNTS = ("basis.enumerate_sector", "hamiltonian.build_momentum_block",
               "spectra.eigh", "spectra.ground_manifold", "concurrence.pair_density")


def now() -> float:
    """Monotonic clock shared by all processes on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _observe_eigh(tracer, arguments, result):
    dim = len(arguments["matrix"])
    tracer.counts["spectra.eigh.dim3_sum"] += dim ** 3
    tracer.counts["spectra.eigvec_bytes"] += result.vectors.nbytes
    tracer.counts["spectra.block_dim_max"] = max(tracer.counts["spectra.block_dim_max"], dim)


def _observe_pair_density(tracer, arguments, result):
    tracer.counts["concurrence.configs_reduced"] += sum(
        len(state.amplitudes) for _, state in arguments["states"])


def _observe_full_diagonalize(tracer, arguments, result):
    tracer.counts["oracle.full_dim_sum"] += 2 ** arguments["n"]


def _observe_hop_table(tracer, arguments, result):
    tracer.counts["hamiltonian.hops"] += len(result)


def _observe_block(tracer, arguments, result):
    tracer.counts["hamiltonian.empty_blocks"] += result.dim == 0


def _observe_inputs(tracer, arguments, result, name):
    tracer.inputs[name].add(repr(sorted(arguments.items())))


_OBSERVERS = {
    "basis.enumerate_sector": functools.partial(_observe_inputs, name="basis.enumerate_sector"),
    "hamiltonian.hop_table": _observe_hop_table,
    "hamiltonian.build_momentum_block": _observe_block,
    "spectra.eigh": _observe_eigh,
    "spectra.ground_manifold": functools.partial(_observe_inputs, name="spectra.ground_manifold"),
    "concurrence.pair_density": _observe_pair_density,
    "oracle.full_diagonalize": _observe_full_diagonalize,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, command, name, start, end]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.inputs: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._command = -1

    def install(self, package: str = "xxring") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for qualname in LAYER_FUNCTIONS:
            module_name, func = qualname.split(".")
            original = getattr(sys.modules.get(f"{package}.{module_name}"), func, None)
            if original is None:
                continue
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name: str, original):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(original) if observe else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._command += 1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = now()
            try:
                result = original(*args, **kwargs)
            finally:
                end = now()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
                self.spans.append([frame[0], parent[0] if parent else None,
                                   self._command, name, start, end])
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, by metric name."""
        out = {f"{name}.self_s": self.self_s[name] for name in LAYER_FUNCTIONS}
        out.update({f"{name}.calls": self.calls[name] for name in CALL_COUNTS})
        for name in ("hamiltonian.hops", "hamiltonian.empty_blocks", "spectra.block_dim_max",
                     "spectra.eigh.dim3_sum", "spectra.eigvec_bytes",
                     "concurrence.configs_reduced", "oracle.full_dim_sum"):
            out[name] = self.counts[name]
        for metric, name in (("basis.sector_reuse", "basis.enumerate_sector"),
                             ("spectra.solve_reuse", "spectra.ground_manifold")):
            calls = self.calls[name]
            out[metric] = len(self.inputs[name]) / calls if calls else 0.0
        out["cli.commands"] = self.calls["cli.run"]
        return out
