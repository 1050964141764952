"""Workload definitions: the CLI commands one pass of each workload issues.

Each workload is a closed loop with one client: the next command is issued
only after the previous one returns.  The seed only shuffles the order of the
commands inside a pass, so the amount of work per pass is fixed and a cache
in the program cannot profit from one particular order.
"""

from __future__ import annotations

import random


def _ring15() -> list[list[str]]:
    # The two odd-ring degeneracy patterns (2-fold and 4-fold): 212 blocks per
    # solve, largest block 429.  Dominated by the eigensolver and its memory.
    return [["concurrence", "--n", "15", "--j", "-1"],
            ["concurrence", "--n", "15", "--j", "1"]]


def _paper_tables() -> list[list[str]]:
    # Every table of the paper up to n=13: many small and medium solves with
    # repeated sector construction, many pair reductions and orbit tables.
    # 106 ground solves per pass against 19 distinct inputs.
    commands = []
    for n in range(4, 13):
        for j in ("-1", "1"):
            for distance in range(1, n // 2 + 1):
                commands.append(["concurrence", "--n", str(n), "--j", j,
                                 "--distance", str(distance)])
            commands.append(["lp", "--n", str(n), "--j", j])
    for parity in ("even", "odd"):
        commands.append(["sweep", "--n", "4..13", "--parity", parity])
        commands.append(["extrapolate", "--n", "4..13", "--parity", parity])
    for n in (6, 9, 12):
        commands.append(["spectrum", "--n", str(n)])
    return commands


def _verify_oracle() -> list[list[str]]:
    # The 2^n brute-force cross-check, as a user runs it: one command.  Most
    # of its time is in the oracle, so pipeline changes should not move it.
    return [["verify", "--n", "2..12"]]


WORKLOADS = {
    "ring15": _ring15,
    "paper_tables": _paper_tables,
    "verify_oracle": _verify_oracle,
}


def passes(name: str, seed: int):
    """Endless stream of shuffled command lists for one workload and seed."""
    rng = random.Random(seed)
    base = WORKLOADS[name]()
    while True:
        commands = list(base)
        rng.shuffle(commands)
        yield commands
