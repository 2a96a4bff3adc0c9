"""The per-stage benchmark tool still finds and times what it wraps."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_bench_worker_times_every_stage(tmp_path):
    # a wrapped function that the run no longer calls would read as 0 s
    tool = load_tool("stage_bench")
    argv = tool.argv_for("uniform", 1024, str(tmp_path))  # K = 64, energy-cluster
    assert argv[argv.index("--method") + 1] == "energy-cluster"
    seconds = tool.spawn(str(ROOT), "run", argv)
    timings = [stage for stage in tool.STAGES if stage.endswith("_s")]
    assert timings
    assert {stage: seconds.get(stage, 0.0) > 0.0 for stage in timings} == dict.fromkeys(
        timings, True), seconds
    assert (tmp_path / "profile.csv").exists() and (tmp_path / "report.json").exists()
