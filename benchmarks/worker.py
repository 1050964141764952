"""One pass of a workload, run by ``run.py`` in a fresh interpreter.

    python worker.py ROOT setup            import the program, report readiness
    python worker.py ROOT pass COMMANDS    ... then run the commands (a JSON list)
    python worker.py ROOT trace COMMANDS   ... the same with layer tracing

The parent pins BLAS to one thread in the environment before this process
starts, so the pin holds when numpy is first imported.  Commands go through
``xxring.cli.run`` in this process, one after the other, with their output
captured; the correctness gate runs after the timed pass, and the
calibration kernel (``calibrate``) last of all.  The last line on stdout is
one JSON object with the results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback

from tracing import Tracer, now


def import_program(root: str):
    """Import ``xxring.cli`` from ROOT/src and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    from xxring import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"xxring was imported from {cli.__file__}, not from {src}")
    return cli


def run_commands(cli, commands: list[list[str]]) -> list[tuple[int | None, str]]:
    """Exit status (None if it raised) and captured stdout of each command."""
    outputs = []
    for argv in commands:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.run(argv)
        except Exception:  # a crashing command is a failed command, not a crashed benchmark
            traceback.print_exc()
            code = None
        outputs.append((code, buffer.getvalue()))
    return outputs


def payload_bytes(text: str) -> int:
    """Bytes of a payload apart from its timing fields, which vary run to run."""
    return sum(len(line.encode()) for line in text.splitlines(keepends=True)
               if '"runtime_ms"' not in line and '"seconds"' not in line)


def _blas(module) -> dict:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_thread_pin": {key: os.environ.get(key) for key in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "xxring_threads": os.environ.get("XXRING_THREADS"),
    }


CALIBRATION_SIZES = (48, 96, 160, 240)
CALIBRATION_REPEATS = 6


def calibrate() -> float:
    """Seconds this process takes for a fixed piece of work shaped like the program's.

    LAPACK Hermitian solves on complex blocks of the program's sizes, and an
    interpreted loop over bitmask configurations and their rotations.  It
    uses no code of the program, so no change to the program moves it.  It
    runs after the timed part, so what it imports or warms up is never
    taken off the program's time.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    matrices = []
    for dim in CALIBRATION_SIZES:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        matrices.append(a + a.conj().T)
    n, mask = 14, (1 << 14) - 1
    start = now()
    for _ in range(CALIBRATION_REPEATS):
        for matrix in matrices:
            np.linalg.eigh(matrix)
        reps = {c: min(((c << t) | (c >> (n - t))) & mask for t in range(n))
                for c in range(1 << n) if c.bit_count() == n // 2}
    if len(reps) != 3432:
        raise RuntimeError("calibration loop miscounted")
    return now() - start


def main() -> None:
    root, mode = sys.argv[1], sys.argv[2]
    cli = import_program(root)
    result: dict = {"ready": now()}
    if mode != "setup":
        commands = json.loads(sys.argv[3])
        tracer = Tracer() if mode == "trace" else None
        if tracer:
            tracer.install()
        start = now()
        outputs = run_commands(cli, commands)
        result.update(start=start, end=now())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        from gate import check, load_reference
        reference = load_reference()
        failures = []
        for argv, (code, text) in zip(commands, outputs):
            messages = check(argv, code, text, reference)
            if messages:
                failures.append({"command": argv, "messages": messages[:5]})
        result.update(attempted=len(commands), failures=failures, environment=environment())
        if tracer:
            layers = tracer.metrics()
            layers["cli.payload_bytes"] = sum(payload_bytes(text) for _, text in outputs)
            result.update(layers=layers, spans=tracer.spans)
    result["calibration_s"] = calibrate()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
