"""Rewrite reference.json from the payloads of the program in this checkout.

    python3 benchmarks/record_reference.py

The gate compares the values it has no closed form for against this file, so
run it only on a version of the program whose outputs are trusted; the
committed file was recorded from the seed version.
"""

from __future__ import annotations

import json
import os
import sys

from gate import REFERENCE_PATH, reference_values
from worker import import_program, run_commands
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    cli = import_program(ROOT)
    commands = [argv for make in WORKLOADS.values() for argv in make()]
    reference = {}
    for argv, (code, text) in zip(commands, run_commands(cli, commands)):
        if code != 0:
            print(f"{' '.join(argv)}: exit status {code}", file=sys.stderr)
            return 1
        values = reference_values(argv, json.loads(text))
        if values:
            reference[" ".join(argv)] = values
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(reference)} entries to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
