"""Self-checks of the benchmark's own machinery, on tiny inputs.

    python3 bench/selfcheck.py

Checks that a traced invocation writes the same outputs as an untraced one,
that the wrappers are gone after a traced run, that per-layer self times
add up to the top-level span durations, that a vanished name is reported
as absent instead of crashing, that the report digest drops only the timing
entries, and that BENCHMARK.json names exactly the metrics the run prints.
Exits 1 and names each failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import workloads

os.environ.update(workloads.THREAD_CAPS)

import run  # noqa: E402  (imports numpy, so after the thread caps)
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))

import qclab  # noqa: E402  (after the thread caps and the path)
import qclab.cli  # noqa: E402

TINY = (
    workloads.Call("run", ("run", "--mesh", "graded", "--N", "1024", "--K", "11", "--r", "0",
                           "--method", "energy-cluster", "--force", "gauss:1e4,1e4"), 0),
    workloads.Call("run", ("run", "--mesh", "smooth", "--N", "512", "--K", "8", "--r", "2",
                           "--method", "force-cluster", "--force", "sinpi"), 0),
    workloads.Call("fig2", ("reproduce", "fig2"), 0),
    workloads.Call("example1", ("reproduce", "example1"), 2),
)

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def _bindings() -> dict:
    return {(m.__name__, a): v for m in spans.qclab_namespaces() for a, v in vars(m).items()
            if callable(v)}


def _call(call: workloads.Call, out: Path, recorder: spans.Recorder | None) -> dict:
    workloads.clear_outputs(out)
    if recorder is not None:
        recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = qclab.cli.main(workloads.argv_for(call, out))
    finally:
        if recorder is not None:
            recorder.restore()
    check(rc == call.expect_rc, f"{' '.join(call.argv)}: exit code {rc}")
    return workloads.digest_outputs(out / call.label)


def traced_equals_untraced(out: Path) -> None:
    before = _bindings()
    recorder = spans.Recorder()
    for index, call in enumerate(TINY):
        plain = _call(call, out, None)
        recorder.invocation = index
        traced = _call(call, out, recorder)
        check(plain == traced and plain["files"],
              f"{' '.join(call.argv)}: traced outputs equal untraced outputs")
        layers, top = spans.layer_times(recorder.spans, index)
        own = sum(entry[2] for entry in layers.values())
        check(layers and math.isclose(own, top, rel_tol=1e-9, abs_tol=1e-12),
              f"{' '.join(call.argv)}: self times sum to top-level spans "
              f"({own:.6f} s vs {top:.6f} s)")
    check(spans.installed_wrappers() == [], "no wrapper left after the traced run")
    after = _bindings()
    check(all(after[key] is value for key, value in before.items()) and
          before.keys() == after.keys(), "every qclab name is bound to its original again")
    check(not recorder.absent and not recorder.missing_counts,
          "every target name is present and every count was taken")


def absent_name_is_reported(out: Path) -> None:
    """Remove one target from its home module (the CLI keeps its own
    binding, so the program still runs) and trace an invocation."""
    original = qclab.analysis.gradient_alternation
    del qclab.analysis.gradient_alternation
    try:
        recorder = spans.Recorder()
        _call(TINY[0], out, recorder)
    finally:
        qclab.analysis.gradient_alternation = original
    check(recorder.absent == ["analysis.gradient_alternation"] and recorder.spans,
          "a vanished name is reported as absent and the traced run goes on")


def report_digest_drops_only_timings() -> None:
    text = ('{\n  "a": [1, 2.50, "nan"],\n  "checks": {"runtime_s": {"value": 0.1, '
            '"band": [0.0, 5.0], "pass": true}},\n  "verdict": "PASS",\n'
            '  "wall_time_s": 0.123,\n  "timings": {"x": 1}\n}\n')
    content, verdict = workloads.report_content(text)
    check(content == '{"a":[1,2.50,"nan"],"checks":{"runtime_s":{"band":[0.0,5.0],'
                     '"pass":true}},"verdict":"PASS"}' and verdict == "PASS",
          "report digest keeps every number token and drops only timing entries")


def benchmark_json_matches_output() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(per_layer == spans.metric_units(), "BENCHMARK.json per_layer = traced metrics")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(end_to_end == {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"},
          "BENCHMARK.json end_to_end = untraced metrics")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads = defined workloads")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="selfcheck-") as tmp:
        traced_equals_untraced(Path(tmp))
        absent_name_is_reported(Path(tmp))
    report_digest_drops_only_timings()
    benchmark_json_matches_output()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
