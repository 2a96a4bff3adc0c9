"""The per-stage benchmark tool reads the stages a run reports and changes
nothing in the program it measures; the output-tree tool's calls cover every
method, mesh family, weight mode and sweep metric, and each method under zero
force; the token-diff tool finds every moved number, and every added key,
between two output trees."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qclab import cli, mesh
from qclab.analysis import STUDY_METRICS
from qclab.cluster import WEIGHT_MODES

ROOT = Path(__file__).resolve().parents[1]
PROCESS = {"wall_time_s", "main_s", "peak_rss_mb", "minor_faults", "run_minor_faults"}


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
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
    assert len(timings) == 10 and "cli.write_csv" in timings
    assert {stage: sample[stage] for stage in timings} == timings
    assert set(sample) == set(timings) | PROCESS
    assert sample["peak_rss_mb"] > 0 and sample["run_minor_faults"] >= 0
    assert sample["main_s"] >= sample["wall_time_s"] > 0


def test_stage_bench_worker_runs_in_a_fresh_interpreter(tmp_path):
    tool = load_tool("stage_bench")
    sample = tool.spawn(str(ROOT), tool.argv_for("uniform-fine", 1024, str(tmp_path)))
    timings = json.loads((tmp_path / "report.json").read_text())["timings"]
    assert list(timings) == ["model.sample_force", "mesh", "solve.solve_atomistic",
                             "solve.solve_constrained", "model.path_sum", "cli.write_csv"]
    assert set(sample) == set(timings) | PROCESS
    assert (tmp_path / "profile.csv").exists()


def test_stage_bench_caps_threads_as_the_benchmark_does(monkeypatch):
    # every variable of bench/workloads.THREAD_CAPS reaches the spawned worker
    tool = load_tool("stage_bench")
    seen = {}

    def run(argv, env, **kwargs):
        seen.update(env)
        return subprocess.CompletedProcess(argv, 0, stdout="{}\n")

    monkeypatch.setattr(tool.subprocess, "run", run)
    assert tool.spawn(str(ROOT), []) == {}
    caps = sys.modules["workloads"].THREAD_CAPS
    assert {name: seen[name] for name in caps} == caps and len(caps) == 6


def test_stage_bench_has_the_lattice_workloads_force_on_graded():
    # graded also runs under the lattice benchmark's localized load, whose
    # profile repeats the row above where a sinpi profile never does; at
    # N = 2^19, the last row, that is the lattice workload's call
    tool = load_tool("stage_bench")
    sys.path.insert(0, tool.BENCH)
    try:
        lattice, = importlib.import_module("workloads").WORKLOADS["lattice"]
    finally:
        sys.path.remove(tool.BENCH)
    force = lattice.argv[lattice.argv.index("--force") + 1]
    assert ("graded", force) in tool.CONFIGS and ("graded", "sinpi") in tool.CONFIGS
    assert tool.argv_for("graded", 2**19, "out", force) == [*lattice.argv, "--out", "out"]
    assert tool.ROWS[-1] == ("graded", force, 2**19)


def test_stage_bench_worker_times_a_preset(tmp_path):
    # example1 is the documented FAIL verdict: exit code 2, and still a sample
    tool = load_tool("stage_bench")
    sample = tool.worker(tool.preset_argv("example1", str(tmp_path)))
    timings = json.loads((tmp_path / "example1" / "report.json").read_text())["timings"]
    assert list(timings) == ["example1", "cli.write_csv"]
    assert {stage: sample[stage] for stage in timings} == timings
    assert set(sample) == set(timings) | PROCESS
    assert tool.PRESETS == tuple(cli._PRESETS)


def test_stage_bench_summary_keeps_each_trees_spread():
    # the median of each value per tree, and next to it the smallest and
    # largest run; a stage only the change runs reads 0 in the parent
    tool = load_tool("stage_bench")
    samples = {"parent": [{"mesh": 0.5, "main_s": 2.0}, {"mesh": 0.25, "main_s": 1.0},
                          {"mesh": 0.75, "main_s": 3.0}],
               "change": [{"mesh": 0.5, "weights": 0.125, "main_s": 1.5},
                          {"mesh": 0.5, "weights": 0.375, "main_s": 1.0}]}
    summary = tool.summarize(samples)
    assert list(summary) == ["parent", "change", "spread", "change_won"]
    assert list(summary["parent"]) == ["mesh", "weights", "main_s"]
    assert summary["parent"] == {"mesh": 0.5, "weights": 0.0, "main_s": 2.0}
    assert summary["change"] == {"mesh": 0.5, "weights": 0.25, "main_s": 1.25}
    assert summary["spread"] == {
        "parent": {"mesh": [0.25, 0.75], "weights": [0.0, 0.0], "main_s": [1.0, 3.0]},
        "change": {"mesh": [0.5, 0.5], "weights": [0.125, 0.375], "main_s": [1.0, 1.5]}}
    # of the pairs of first and second runs, mesh ties one and loses one,
    # weights loses both, main_s wins one and ties one
    assert summary["change_won"] == {"mesh": 0, "weights": 0, "main_s": 1}
    assert json.loads(json.dumps(summary)) == summary


RUN = ["run", "--mesh", "smooth", "--N", "64", "--K", "4", "--r", "1",
       "--method", "energy-cluster", "--force", "sinpi"]


def test_output_tree_covers_every_method_family_weight_mode_and_metric(tmp_path, monkeypatch):
    tool = load_tool("output_tree")

    def values(flag, command="run"):
        return [argv[argv.index(flag) + 1] if flag in argv else None
                for _, argv in tool.CALLS if argv[0] == command]

    families = [descriptor and descriptor.split(":")[0] for descriptor in values("--mesh")]
    runs = set(zip(families, values("--method")))
    assert {(None, "atomistic"), ("graded", "atomistic")} | {
        (family, method) for family in mesh._BUILDERS
        for method in set(cli._METHODS) - {"atomistic"}} == runs
    # an atomistic run on a mesh, and one naming a mesh but no K, which ignores it
    assert {K is None for family, method, K in zip(families, values("--method"), values("--K"))
            if method == "atomistic" and family} == {False, True}
    assert set(WEIGHT_MODES) == set(values("--weights")) - {None}
    assert max(int(r or 0) for r in values("--r")) > 0
    # each method under zero force, whose values must be written as 0, not -0
    zero_force = {method for method, force in zip(values("--method"), values("--force"))
                  if force == "const:0"}
    assert zero_force == set(cli._METHODS) - {"atomistic"}
    assert set(STUDY_METRICS) == set(values("--metric", "sweep"))
    inspected = values("--mesh", "mesh-inspect")
    assert set(mesh._BUILDERS) == {descriptor.split(":")[0] for descriptor in inspected}
    # every call exits 0, each into a directory of its own
    monkeypatch.chdir(tmp_path)
    tool.write_calls()
    labels = [label for label, _ in tool.CALLS]
    assert sorted(path.name for path in (tmp_path / "calls").iterdir()) == sorted(set(labels))
    assert len(set(labels)) == len(labels)


@pytest.fixture
def trees(tmp_path, capsys):
    # two runs of one configuration: the same tokens, other timings
    for side in "ab":
        assert cli.main(RUN + ["--out", str(tmp_path / side / "run")]) == 0
    capsys.readouterr()
    return tmp_path / "a", tmp_path / "b"


def test_token_diff_of_identical_trees_reports_nothing(trees, capsys):
    tool = load_tool("token_diff")
    paired, only_a, only_b = tool.compare_trees(*trees)
    assert set(paired) == {"run/report.json", "run/profile.csv"} and not only_a + only_b
    for diff in paired.values():
        assert not diff.added + diff.removed + diff.changed
        assert all(t.tokens and not t.moved for t in diff.tallies.values())
    assert tool.main([str(tree) for tree in trees]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("tokens compared, 0 moved")


def test_token_diff_names_the_moved_path_and_its_size(trees):
    tool = load_tool("token_diff")
    a, b = trees
    report = b / "run" / "report.json"
    text = report.read_text()
    old = re.search(r'"energy_norm_rel": (\S+),', text).group(1)
    new = "%.17g" % (float(old) + 1e-9)
    report.write_text(text.replace(f'"energy_norm_rel": {old},', f'"energy_norm_rel": {new},'))
    profile = b / "run" / "profile.csv"
    lines = profile.read_text().splitlines()
    column = lines[0].split(",").index("u_qc")
    cells = lines[5].split(",")
    cells[column] = "%.17g" % (float(cells[column]) - 0.25)
    lines[5] = ",".join(cells)
    profile.write_text("\n".join(lines) + "\n")
    paired, _, _ = tool.compare_trees(a, b)
    moved = {(name, path): t for name, diff in paired.items()
             for path, t in diff.tallies.items() if t.moved}
    assert set(moved) == {("run/report.json", "errors.energy_norm_rel"),
                          ("run/profile.csv", "u_qc")}
    in_report = moved["run/report.json", "errors.energy_norm_rel"]
    in_profile = moved["run/profile.csv", "u_qc"]
    assert (in_report.moved, in_report.tokens) == (1, 1)
    assert in_report.max_abs == pytest.approx(1e-9, rel=1e-6)
    assert (in_profile.moved, in_profile.tokens) == (1, len(lines) - 1)
    assert in_profile.max_abs == pytest.approx(0.25)
    assert tool.report(a, b)[1] is False  # moved numbers are no structural difference


def test_token_diff_reports_an_added_key_as_added(trees, capsys):
    tool = load_tool("token_diff")
    a, b = trees
    report = b / "run" / "report.json"
    text = report.read_text()  # the key goes in as text: every other token stays verbatim
    report.write_text(text.replace('"errors": {\n', '"errors": {\n    "margin": 0.5,\n'))
    diff = tool.compare_trees(a, b)[0]["run/report.json"]
    assert diff.added == ["errors.margin"]
    assert not diff.removed + diff.changed
    assert not any(t.moved for t in diff.tallies.values())
    assert tool.main([str(a), str(b)]) == 1
    assert "  added: errors.margin" in capsys.readouterr().out.splitlines()
    assert tool.main([str(a), str(b), "--added", "errors.margin"]) == 0
    profile = b / "run" / "profile.csv"  # a column put first moves no other column
    lines = profile.read_text().splitlines()
    profile.write_text("".join(f"{cell},{line}\n" for cell, line in
                               zip(["extra"] + ["0"] * (len(lines) - 1), lines)))
    diff = tool.compare_trees(a, b)[0]["run/profile.csv"]
    assert diff.added == ["extra"] and not diff.removed + diff.changed
    assert not any(t.moved for t in diff.tallies.values())
    assert tool.main([str(a), str(b), "--added", "errors.margin"]) == 1
    assert tool.main([str(a), str(b), "--added", "errors.margin", "--added", "extra"]) == 0
