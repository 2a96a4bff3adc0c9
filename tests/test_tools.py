"""The per-stage benchmark tool reads the stages a run reports and changes
nothing in the program it measures."""

import importlib.util
import json
import sys
from pathlib import Path

from qclab import cli

ROOT = Path(__file__).resolve().parents[1]
PROCESS = {"wall_time_s", "main_s", "peak_rss_mb", "minor_faults", "run_minor_faults"}


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def qclab_bindings():
    importlib.import_module("qclab.cli")  # loads every qclab module
    return {(name, key): value for name, module in sys.modules.items()
            if name.split(".")[0] == "qclab" for key, value in vars(module).items()}


def test_stage_bench_worker_times_every_stage(tmp_path):
    tool = load_tool("stage_bench")
    argv = tool.argv_for("uniform", 1024, str(tmp_path))  # K = 64, energy-cluster
    assert argv[argv.index("--method") + 1] == "energy-cluster"
    before = qclab_bindings()
    sample = tool.worker(argv)
    after = qclab_bindings()  # no module attribute was replaced or added
    assert after.keys() == before.keys() and all(after[key] is before[key] for key in before)
    timings = json.loads((tmp_path / "report.json").read_text())["timings"]
    assert len(timings) == 9 and "cli.write_csv" in timings
    assert {stage: sample[stage] for stage in timings} == timings
    assert set(sample) == set(timings) | PROCESS
    assert sample["peak_rss_mb"] > 0 and sample["run_minor_faults"] >= 0
    assert sample["main_s"] >= sample["wall_time_s"] > 0


def test_stage_bench_worker_runs_in_a_fresh_interpreter(tmp_path):
    tool = load_tool("stage_bench")
    sample = tool.spawn(str(ROOT), tool.argv_for("uniform-fine", 1024, str(tmp_path)))
    timings = json.loads((tmp_path / "report.json").read_text())["timings"]
    assert list(timings) == ["model.sample_force", "solve.solve_atomistic", "mesh",
                             "solve.solve_constrained", "cli.write_csv"]
    assert set(sample) == set(timings) | PROCESS
    assert (tmp_path / "profile.csv").exists()


def test_stage_bench_worker_times_a_preset(tmp_path):
    # example1 is the documented FAIL verdict: exit code 2, and still a sample
    tool = load_tool("stage_bench")
    sample = tool.worker(tool.preset_argv("example1", str(tmp_path)))
    timings = json.loads((tmp_path / "example1" / "report.json").read_text())["timings"]
    assert list(timings) == ["example1", "cli.write_csv"]
    assert {stage: sample[stage] for stage in timings} == timings
    assert set(sample) == set(timings) | PROCESS
    assert tool.PRESETS == tuple(cli._PRESETS)
