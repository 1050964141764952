"""Benchmark of the xxring command line, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --all [--seconds S] [--trace 0|1]

``--all`` runs the workloads of BENCHMARK.json one after the other.

One run measures one workload for about S seconds from the root of a checkout
of the repository.  It first starts a few fresh interpreters that only import
the program, to time set-up.  Then it runs passes: each pass is a fresh
interpreter (``worker.py``) that runs every command of the workload once, in
an order shuffled by the seed, so nothing the program caches in memory
carries over from one pass to the next.  Passes start while the previous
pass's duration still fits in the time left, and at least one runs.  Every
command's payload goes through the correctness gate (``gate.py``).

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
  setup_s      interpreter start until ``xxring.cli`` is imported, median
  pass_s       wall time of one pass of the workload, median
  peak_rss_mb  peak resident memory of a pass process, median
The two times are scaled to a reference machine speed: every worker also
times a fixed calibration kernel (``worker.calibrate``) after its timed part,
and the run's wall times are multiplied by CALIBRATION_REFERENCE_S over the
median calibration time.  The machine this was built on changed speed by up
to 60 % over minutes because of other tenants; the scaling keeps runs made
in its fast and its slow state comparable (see NOTES.md).
With ``--trace 1`` passes alternate between traced and untraced, starting
traced, and the run reports the per-layer metrics (medians over the traced
passes) and ``trace.overhead_s``, traced minus untraced median pass time.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  Lines before it give each metric's quartiles and sample
count and the error rate.  Samples, failures, spans and the environment record
are written under benchmarks/results/.  The exit status is 0 when every
command passed the gate, 1 when one failed, and 2 when the benchmark could not
run (for example, no program to measure in this checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from tracing import now
from workloads import WORKLOADS, passes

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_PROBES = 3
CALIBRATION_REFERENCE_S = 0.2  # worker.calibrate() at the reference machine speed
WORKER_TIMEOUT_S = 150
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "xxring", "cli.py")):
        raise BenchmarkError(f"no xxring sources under {os.path.join(ROOT, 'src')}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    for key in ("XXRING_THREADS", "PYTHONPATH"):
        env.pop(key, None)
    return env


def spawn(mode: str, commands: list[list[str]] | None = None) -> dict:
    """Run one worker to completion; its result plus its start time and wall time."""
    args = [sys.executable, WORKER, ROOT, mode]
    if commands is not None:
        args.append(json.dumps(commands))
    started = now()
    try:
        proc = subprocess.run(args, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker ({mode}) ran over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker ({mode}) exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(started=started, wall_s=now() - started)
    return result


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All samples of one run of one workload."""
    deadline = now() + seconds
    setups = [spawn("setup") for _ in range(SETUP_PROBES)]
    plans = passes(workload, seed)
    traced, untraced = [], []
    while True:
        mode = "trace" if trace and len(traced) <= len(untraced) else "pass"
        result = spawn(mode, next(plans))
        (traced if mode == "trace" else untraced).append(result)
        done = bool(untraced) and (bool(traced) or not trace)
        if done and now() + result["wall_s"] > deadline:
            break
    every = traced + untraced
    setups += every
    calibration = [r["calibration_s"] for r in setups]
    speed = CALIBRATION_REFERENCE_S / statistics.median(calibration)
    attempted = sum(r["attempted"] for r in every)
    failed = sum(len(r["failures"]) for r in every)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": attempted, "failed": failed,
        "failures": [f for r in every for f in r["failures"]],
        "speed": speed, "calibration_s": calibration,
        "setup_wall_s": [r["ready"] - r["started"] for r in setups],
        "pass_wall_s": [r["end"] - r["start"] for r in untraced],
        "setup_s": [(r["ready"] - r["started"]) * speed for r in setups],
        "pass_s": [(r["end"] - r["start"]) * speed for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "traced_pass_s": [(r["end"] - r["start"]) * speed for r in traced],
        "layers": [r["layers"] for r in traced],
        "spans": [r["spans"] for r in traced],
        "environment": every[0]["environment"],
    }


def metrics(run: dict, spec: dict) -> dict:
    """Metric name -> (summary, unit) for the run's trace mode."""
    out = {}
    if run["trace"]:
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_s":
                values = [statistics.median(run["traced_pass_s"])
                          - statistics.median(run["pass_s"])]
            else:
                values = [layers[name] for layers in run["layers"]]
            out[name] = (summary(values), metric["unit"])
    else:
        for metric in spec["end_to_end"]:
            out[metric["name"]] = (summary(run[metric["name"]]), metric["unit"])
    return out


def write_results(run: dict, table: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{run['workload']}-seed{run['seed']}-trace{run['trace']}")
    spans = run.pop("spans")
    record = dict(run, metrics={name: dict(s, unit=u) for name, (s, u) in table.items()})
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if spans:
        with open(stem + ".spans.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "parent", "command", "name", "start", "end"],
                       "passes": spans}, handle)
    with open(os.path.join(RESULTS_DIR, "environment.json"), "w", encoding="utf-8") as handle:
        json.dump(run["environment"], handle, indent=1)


def print_run(run: dict, table: dict) -> None:
    print(f"workload {run['workload']} seed {run['seed']} trace {run['trace']}: "
          f"{len(run['pass_s']) + len(run['traced_pass_s'])} passes, "
          f"{run['attempted']} commands")
    for name, (s, unit) in table.items():
        print(f"  {name:48s} median {s['median']:.6g} {unit}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    print(f"  {'machine speed':48s} {run['speed']:.4f} of the reference "
          f"(wall medians: setup {statistics.median(run['setup_wall_s']):.4f} s, "
          f"pass {statistics.median(run['pass_wall_s']):.4f} s)")
    print(f"  {'error_rate':48s} {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']}/{run['attempted']} commands)")
    for failure in run["failures"][:10]:
        print(f"  FAILED {' '.join(failure['command'])}: {'; '.join(failure['messages'])}")


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    run = measure(workload, seed, seconds, trace)
    table = metrics(run, spec)
    write_results(run, table)
    print_run(run, table)
    return run, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        if args.workload:
            run, table = run_one(args.workload, args.seed, seconds, bool(args.trace), spec)
            print(json.dumps({
                "correct": run["failed"] == 0, "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {name: {"value": s["median"], "unit": unit}
                            for name, (s, unit) in table.items()},
            }))
            return 0 if run["failed"] == 0 else 1
        failed = 0
        for workload in [w["name"] for w in spec["workloads"]]:
            run, _ = run_one(workload, args.seed, seconds, bool(args.trace), spec)
            failed += run["failed"]
        return 0 if failed == 0 else 1
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
