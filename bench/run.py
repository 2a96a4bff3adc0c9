"""qclab benchmark: one workload, one run.

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh
single-threaded interpreter (``worker.py``) that calls ``qclab.cli.main``
until ``--seconds`` have passed; with ``--trace 0`` a few more fresh
interpreters measure the import cost.  Times are rescaled to a reference
host speed (see ``hostspeed.py``).  Every output is checked against
``golden.json``.  The last line of standard output is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Exits non-zero without a result when the checkout holds
no ``src/qclab`` or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
DEADLINE_S = 170.0
_PROBE = ("import qclab.cli, time; "
          "print(repr(time.monotonic())); print(qclab.cli.__file__)")


def _environment() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **workloads.THREAD_CAPS)
    env.pop("PYTHONHOME", None)
    return env


def _setup_seconds(env: dict, deadline: float) -> float:
    """Launch-to-import seconds of one fresh interpreter.

    Both clocks are CLOCK_MONOTONIC, which is shared between processes.
    """
    launched = time.monotonic()
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=deadline - time.monotonic())
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed:\n{done.stderr}")
    imported, path = done.stdout.split("\n")[:2]
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"qclab was imported from {path}, not from the checkout")
    return float(imported) - launched


def _tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples
    above it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def _end_to_end(result: dict, setup: list[float], setup_ref: list[float]) -> dict:
    run_s, run_ref = result["run_s"], result["run_ref_s"]
    metrics = {
        "run_s": {"value": statistics.median(run_ref), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    print("  times at reference host speed (hostspeed.py); wall seconds in brackets")
    print(f"  run_s        {metrics['run_s']['value']:.4f} s median of n={len(run_s)} "
          f"[{statistics.median(run_s):.4f}; samples {' '.join(f'{x:.4f}' for x in run_s)}]")
    tail, tail_wall = _tail(run_ref), _tail(run_s)
    if tail:
        print(f"  run_s_tail   {tail[1]:.4f} s at p{tail[0]:.1f} of n={len(run_s)} "
              f"[{tail_wall[1]:.4f}]")
    else:
        print(f"  run_s_tail   n/a: n={len(run_s)} invocations, a tail needs at least 11")
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s median of "
          f"n={len(setup)} fresh interpreters [{statistics.median(setup):.4f}]")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  failed_frac  {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} invocations)")
    return metrics


def _per_layer(result: dict) -> dict:
    values = result["per_layer"]
    units = spans.metric_units()
    traced = statistics.median(result["traced_s"])
    print(f"  traced run_s {traced:.4f} s (n={len(result['traced_s'])}), untraced "
          f"{statistics.median(result['run_s']):.4f} s (n={len(result['run_s'])}), "
          f"overhead {values['trace.overhead_s']:.4f} s")
    print(f"  not covered by a top-level span: {values['trace.uncovered_s']:.4f} s "
          f"({100 * values['trace.uncovered_frac']:.1f}%)")
    print("  span                                    calls    total_s     self_s  self share")
    for span in sorted(spans.SPANS, key=lambda s: -values[f"{s}.self_s"]):
        if values[f"{span}.calls"]:
            print(f"  {span:38s} {values[f'{span}.calls']:6.0f} "
                  f"{values[f'{span}.total_s']:10.4f} {values[f'{span}.self_s']:10.4f} "
                  f"{100 * values[f'{span}.self_s'] / traced:9.1f}%")
    for name in spans.COUNTS + tuple(f"{s}.MBps" for s in spans.THROUGHPUTS):
        print(f"  {name:38s} {values[name]:.6g} {units[name]}")
    for name in result["absent"]:
        print(f"  absent: {name} no longer exists; not traced")
    for name in result["missing_counts"]:
        print(f"  missing counts: {name} (its arguments or result changed)")
    if result["wrappers_left"]:
        raise RuntimeError(f"wrappers left installed: {result['wrappers_left']}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "qclab" / "cli.py").is_file():
        print(f"no qclab sources under {SRC}", file=sys.stderr)
        return 2

    env = _environment()
    setup, setup_ref = [], []
    if not args.trace:
        warm = _setup_seconds(env, deadline)  # warm-up: byte-code cache and page cache
        calibration = hostspeed.calibrate(warm)
        for _ in range(SETUP_PROBES):
            setup.append(_setup_seconds(env, deadline))
            before, calibration = calibration, hostspeed.calibrate(setup[-1])
            setup_ref.append(hostspeed.to_reference(setup[-1], before, calibration))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", str(OUT / args.workload)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=deadline - time.monotonic())
    if done.returncode != 0:
        print(f"worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} invocations, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    metrics = (_per_layer(result) if args.trace
               else _end_to_end(result, setup, setup_ref))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
