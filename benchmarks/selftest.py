"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

1. The gate accepts real payloads of the program and rejects each of them
   once one value is perturbed: an energy or a concurrence by 1e-8 (closed
   form), a distant-pair concurrence or an orbit probability by 1e-8
   (reference values), a block eigenvalue, a degeneracy, a ``verify`` flag,
   and a nonzero exit status.
2. Two traced runs of ``paper_tables`` with different seeds, so different
   command orders, report identical counts: every per-layer metric that is
   not a time.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from gate import check, load_reference
from worker import import_program, run_commands

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _edit(*path, change):
    """A mutation that replaces the value at ``path`` of a payload by ``change(value)``."""
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = change(doc[last])
    return mutate


def _bump(x):
    return x + 1e-8


PERTURBATIONS = [
    (["concurrence", "--n", "6", "--j", "-1"], "energy", _edit("rows", 0, "energy", change=_bump)),
    (["concurrence", "--n", "6", "--j", "-1"], "concurrence",
     _edit("rows", 0, "concurrence", change=_bump)),
    (["concurrence", "--n", "7", "--j", "1", "--distance", "2"], "degeneracy",
     _edit("rows", 0, "degeneracy", change=lambda d: d // 2)),
    (["concurrence", "--n", "7", "--j", "1", "--distance", "2"], "reference concurrence",
     _edit("rows", 0, "concurrence", change=_bump)),
    (["lp", "--n", "8", "--j", "1"], "orbit probability",
     _edit("rows", 0, "member_probability", change=_bump)),
    (["spectrum", "--n", "6"], "block eigenvalue", _edit("rows", 7, "energy", change=_bump)),
    (["verify", "--n", "2..5"], "verify flag", _edit("rows", 3, "ok", change=lambda ok: not ok)),
]


def check_gate() -> list[str]:
    problems = []
    reference = load_reference()
    cli = import_program(ROOT)
    commands = [argv for argv, _, _ in PERTURBATIONS]
    for (argv, what, mutate), (code, text) in zip(PERTURBATIONS, run_commands(cli, commands)):
        label = " ".join(argv)
        if check(argv, code, text, reference):
            problems.append(f"gate rejects the unperturbed payload of {label}")
        doc = json.loads(text)
        mutate(doc)
        if not check(argv, code, json.dumps(doc), reference):
            problems.append(f"gate accepts {label} with a perturbed {what}")
        if not check(argv, 1, text, reference):
            problems.append(f"gate accepts {label} with exit status 1")
    return problems


def traced_counts(seed: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                          "--workload", "paper_tables", "--seed", str(seed),
                          "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] != "s"}


def check_counts() -> list[str]:
    first, second = traced_counts(1), traced_counts(2)
    return [f"count {name} differs between runs: {first[name]} vs {second.get(name)}"
            for name in first if first[name] != second.get(name)]


def main() -> int:
    problems = check_gate()
    print(f"gate: {len(PERTURBATIONS)} perturbations, {len(problems)} problems")
    count_problems = check_counts()
    print(f"counts: two traced runs, {len(count_problems)} problems")
    for problem in problems + count_problems:
        print(f"  {problem}")
    return 1 if problems or count_problems else 0


if __name__ == "__main__":
    sys.exit(main())
