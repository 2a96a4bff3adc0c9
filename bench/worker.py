"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with PYTHONPATH set to the checkout's ``src``.  Calls
``qclab.cli.main`` for the workload's commands until the time is up, checks
every output against ``golden.json`` and prints one JSON line with the raw
samples, raw and rescaled to the reference host speed (``hostspeed.py``).
With ``--trace 1`` it alternates untraced and traced invocations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _invoke(main, argv) -> object:
    """Exit code of one CLI call, or a short description of how it crashed."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a crash is a failed invocation, not a failed run
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import qclab.cli

    if not Path(qclab.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qclab was imported from {qclab.cli.__file__}, not from the checkout",
              file=sys.stderr)
        return 3
    golden = workloads.load_golden()[args.workload]
    rng = random.Random(args.seed)
    recorder = spans.Recorder()
    untraced: list[float] = []
    untraced_ref: list[float] = []
    traced: dict[int, float] = {}
    problems: list[str] = []
    attempted = failed = 0
    pending: list[bool] = []

    minimum = 2 if args.trace else 1  # trace mode needs one of each kind
    started = time.perf_counter()
    calibration = hostspeed.calibrate(1.0)
    while attempted < minimum or time.perf_counter() - started < args.seconds:
        if not pending:  # trace mode: one untraced and one traced, seeded order
            pending = [False, True] if args.trace else [False]
            rng.shuffle(pending)
        with_trace = pending.pop()
        calls = workloads.ordered_calls(args.workload, rng)
        workloads.clear_outputs(args.out)
        attempted += 1
        if with_trace:
            recorder.invocation = attempted
            recorder.install()
        codes = []
        try:
            t0 = time.perf_counter()
            for call in calls:
                codes.append(_invoke(qclab.cli.main, workloads.argv_for(call, args.out)))
            elapsed = time.perf_counter() - t0
        finally:
            recorder.restore()
        before, calibration = calibration, hostspeed.calibrate(elapsed)
        if with_trace:
            traced[attempted] = elapsed
        else:
            untraced.append(elapsed)
            untraced_ref.append(hostspeed.to_reference(elapsed, before, calibration))
        mismatches = [p for call, rc in zip(calls, codes)
                      for p in workloads.check_call(call, rc, args.out, golden)]
        if mismatches:
            failed += 1
            problems.extend(f"invocation {attempted}: {m}" for m in mismatches)

    workloads.clear_outputs(args.out)
    result = {
        "run_s": untraced,
        "run_ref_s": untraced_ref,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if args.trace:
        with open(args.out / "spans.jsonl", "w") as handle:
            for name, start, end, parent, invocation in recorder.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "invocation": invocation}) + "\n")
        result["traced_s"] = list(traced.values())
        result["per_layer"] = spans.summarize(recorder, traced, untraced)
        result["absent"] = recorder.absent
        result["missing_counts"] = sorted(recorder.missing_counts)
        result["wrappers_left"] = spans.installed_wrappers()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
