"""Command-line surface: artifacts, determinism, exit codes, presets."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qclab.analysis
import qclab.cli
import qclab.mesh
import qclab.model
import qclab.solve
from qclab.analysis import STUDY_METRICS, predicted_relative_band
from qclab.cli import _build_parser, main
from qclab.cluster import WEIGHT_MODES
from qclab.errors import QCLabError
from qclab.model import BLOCK_VALUES, MAX_N


def read_lines(path):
    return path.read_text().splitlines()


def report_of(out):
    return json.loads((out / "report.json").read_text())


def test_run_constrained_artifacts(tmp_path, capsys):
    rc = main([
        "run", "--mesh", "uniform", "--N", "8", "--K", "4",
        "--method", "constrained", "--force", "sinpi", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert "profile.csv" in capsys.readouterr().out
    lines = read_lines(tmp_path / "profile.csv")
    assert lines[0] == "x,u_atomistic,u_constrained"
    assert len(lines) == 1 + 16  # header plus one row per lattice site
    report = report_of(tmp_path)
    assert list(report) == ["config", "mesh", "smoothness", "solves", "wall_time_s", "timings"]
    assert "errors" not in report and "weights" not in report
    assert report["config"]["method"] == "constrained"
    assert set(report["solves"]) == {"atomistic", "constrained"}


@pytest.mark.parametrize("K, header, solves", [
    (["--K", "7"], "x,u_atomistic,u_constrained", ["atomistic", "constrained"]),
    ([], "x,u_atomistic", ["atomistic"]),
])
def test_an_atomistic_run_on_a_mesh_needs_k(tmp_path, capsys, K, header, solves):
    # with K the mesh is built and the constrained solve runs; without it the mesh is ignored
    argv = ["run", "--method", "atomistic", "--mesh", "graded", "--N", "64", *K,
            "--force", "gauss:1e4,1e4", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert read_lines(tmp_path / "profile.csv")[0] == header
    report = report_of(tmp_path)
    assert ("mesh" in report) == bool(K)
    assert list(report["solves"]) == solves


NEGATIVE_ZERO = re.compile(r"(?<![\w.])-0(?![\w.])")  # "-0" as a whole number token


@pytest.mark.parametrize("method", qclab.cli._METHODS)
def test_a_zero_force_run_writes_no_negative_zero(tmp_path, capsys, method):
    # zero loads leave every value, stress and reaction at zero, and each is
    # written as 0: a -0.0 at the pinned stress would reach every value
    argv = ["run", "--N", "4096", "--method", method, "--force", "const:0", "--out", str(tmp_path)]
    if method != "atomistic":
        argv += ["--mesh", "uniform", "--K", "16", "--r", "1"]
    assert main(argv) == 0
    profile = read_lines(tmp_path / "profile.csv")
    assert len(profile) == 1 + 2 * 4096
    assert {cell for line in profile[1:] for cell in line.split(",")[1:]} == {"0"}
    report = (tmp_path / "report.json").read_text()
    assert not NEGATIVE_ZERO.search(report)
    assert {solve["reaction"] for solve in json.loads(report)["solves"].values()} == {0.0}


MESH_ARGV = ["--mesh", "graded", "--N", "1024", "--K", "11"]


@pytest.mark.parametrize("argv, loads", [
    ([*MESH_ARGV, "--method", "energy-cluster"], 1), ([*MESH_ARGV, "--method", "constrained"], 1),
    ([*MESH_ARGV, "--method", "force-cluster"], 1), (["--N", "1024", "--method", "atomistic"], 0),
], ids=["energy-cluster", "constrained", "force-cluster", "atomistic"])
def test_a_run_forms_its_exact_hat_loads_at_most_once(tmp_path, monkeypatch, argv, loads):
    # the constrained solve and the energy rule read the same hat loads
    calls = []

    def counted(*args):
        calls.append(args)
        return exact_load(*args)

    exact_load = qclab.mesh.exact_load
    for module in (qclab.cli, qclab.solve, qclab.analysis):
        monkeypatch.setattr(module, "exact_load", counted)
    assert main(["run", *argv, "--force", "gauss:1e2,1e2", "--out", str(tmp_path)]) == 0
    assert len(calls) == loads


def test_run_cluster_report_shape(tmp_path):
    rc = main([
        "run", "--mesh", "graded", "--N", "16", "--K", "5", "--r", "0",
        "--method", "energy-cluster", "--force", "sinpi", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = report_of(tmp_path)
    assert list(report) == [
        "config", "mesh", "smoothness", "weights", "solves", "errors", "wall_time_s", "timings",
    ]
    assert list(report["config"]) == ["mesh", "N", "K", "r", "weights", "method", "force"]
    assert set(report["solves"]) == {"atomistic", "constrained", "energy-cluster"}
    errors = report["errors"]
    assert list(errors) == [
        "energy_norm_rel", "energy_rel", "mean", "consistency", "sandwich_lower",
        "sandwich_upper", "kappa", "predicted_band", "reference_norm",
    ]
    assert 0.0 < errors["energy_norm_rel"] < 1.0
    assert errors["predicted_band"][0] < errors["predicted_band"][1]
    header = read_lines(tmp_path / "profile.csv")[0]
    assert header == "x,u_atomistic,u_constrained,u_qc"


@pytest.mark.parametrize("method, r, derived", [
    ("energy-cluster", 0, True), ("energy-cluster", 1, False), ("force-cluster", 0, False)])
def test_predicted_band_only_where_derived(tmp_path, method, r, derived):
    # the closed forms (1/sqrt(8) on this mesh) are derived for the energy rule at r = 0
    rc = main(["run", "--mesh", "oscillatory", "--N", "64", "--K", "4", "--r", str(r),
               "--method", method, "--force", "sinpi", "--out", str(tmp_path)])
    assert rc == 0
    assert (report_of(tmp_path)["errors"]["predicted_band"] is not None) == derived


def error_of(capsys):
    """The error object printed on stdout, which must be exactly one line."""
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    return json.loads(out)["error"]


def test_overlapping_clusters_exit_code(tmp_path, capsys):
    rc = main([
        "run", "--mesh", "graded", "--N", "16", "--K", "5", "--r", "3",
        "--method", "energy-cluster", "--force", "sinpi", "--out", str(tmp_path),
    ])
    assert rc == 1
    error = error_of(capsys)
    assert error["code"] == "ClusterOverlap"
    assert "radius" in error["message"]


def test_reports_are_deterministic(tmp_path):
    argv = [
        "run", "--mesh", "oscillatory", "--N", "96", "--K", "4", "--r", "1",
        "--method", "force-cluster", "--force", "gauss:2,25",
    ]
    for sub in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / sub)]) == 0
    assert (tmp_path / "a/profile.csv").read_bytes() == (
        tmp_path / "b/profile.csv"
    ).read_bytes()
    reports = [report_of(tmp_path / sub) for sub in ("a", "b")]
    for report in reports:
        del report["wall_time_s"], report["timings"]
    assert reports[0] == reports[1]


def test_a_call_inherits_no_setting_of_the_previous_one(tmp_path):
    argv = ["run", "--mesh", "uniform", "--N", "64", "--K", "4", "--force", "sinpi"]
    assert main(argv + ["--method", "energy-cluster", "--r", "2", "--out", str(tmp_path / "a")]) == 0
    assert report_of(tmp_path / "a")["config"]["r"] == 2
    assert main(argv + ["--method", "energy-cluster", "--out", str(tmp_path / "b")]) == 0
    report = report_of(tmp_path / "b")
    assert report["config"]["r"] == 0 and report["weights"]["r"] == 0
    # every call parses with the one parser the first call built
    assert _build_parser.cache_info().currsize == 1


def test_a_usage_error_leaves_the_next_call_unharmed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["run", "--method", "force-cluster", "--r", "3", "--N", "many"])
    assert exited.value.code == 2
    capsys.readouterr()
    assert main(["run", "--mesh", "uniform", "--N", "64", "--K", "4", "--force", "sinpi",
                 "--out", str(tmp_path)]) == 0
    config = report_of(tmp_path)["config"]
    assert config["method"] == "constrained" and config["r"] == 0


def this_process(argv, capsys):
    """Standard output of main(ARGV) in the test's own interpreter."""
    assert main(argv) == 0
    return capsys.readouterr().out


def fresh_process(argv):
    """Standard output of `python -m qclab.cli ARGV` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "qclab.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def until_wall_clock(report):
    """A report's bytes up to its wall-clock entries, which end it."""
    text = report.read_bytes()
    return text[:text.index(b'"wall_time_s"')]


def test_calls_in_one_process_write_what_fresh_processes_write(tmp_path, capsys):
    mine, fresh = tmp_path / "mine", tmp_path / "fresh"
    reproduce = ["reproduce", "force-scaling", "--out"]
    sweep = ["sweep", "--axis", "K", "--values", "4,8,16", "--metric", "load-defect",
             "--mesh", "smooth:0.2", "--N", "256", "--force", "sinpi", "--out"]
    inspect = ["mesh-inspect", "--mesh", "oscillatory", "--N", "96", "--K", "4"]
    for out, run in ((mine, lambda argv: this_process(argv, capsys)), (fresh, fresh_process)):
        run(reproduce + [str(out)])
        run(sweep + [str(out / "sweep")])
        (out / "inspect.json").write_text(run(inspect))
    for name in ("force-scaling/sweep.csv", "sweep/sweep.csv", "inspect.json"):
        assert (mine / name).read_bytes() == (fresh / name).read_bytes()
    assert until_wall_clock(mine / "force-scaling/report.json") == until_wall_clock(
        fresh / "force-scaling/report.json")


EXECUTE_STAGES = ["model.sample_force", "mesh", "weights", "solve.solve_atomistic",
                  "solve.solve_constrained", "cluster.verify_exactness",
                  "solve.solve_energy_cluster", "error_report", "model.path_sum"]


def test_run_times_the_stages_that_ran(tmp_path):
    argv = ["run", "--mesh", "graded", "--N", "1024", "--K", "11", "--force", "sinpi"]
    assert main(argv + ["--method", "energy-cluster", "--out", str(tmp_path / "qc")]) == 0
    report = report_of(tmp_path / "qc")
    timings = report["timings"]
    assert list(timings) == EXECUTE_STAGES + ["cli.write_csv"]
    assert all(np.isfinite(seconds) and seconds >= 0.0 for seconds in timings.values())
    # the stages cover the solves, whose total is wall_time_s
    assert sum(timings[stage] for stage in EXECUTE_STAGES) >= 0.95 * report["wall_time_s"]
    assert main(argv + ["--method", "constrained", "--out", str(tmp_path / "constrained")]) == 0
    assert list(report_of(tmp_path / "constrained")["timings"]) == [
        "model.sample_force", "mesh", "solve.solve_atomistic", "solve.solve_constrained",
        "model.path_sum", "cli.write_csv"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# laboratory run\nmesh = uniform\nN = 64\nK = 4\nr = 1\n"
        "method = energy-cluster\nforce = sinpi\n"
    )
    rc = main(["run", "--config", str(cfg), "--r", "0", "--out", str(tmp_path)])
    assert rc == 0
    config = report_of(tmp_path)["config"]
    assert config["method"] == "energy-cluster"
    assert config["r"] == 0
    assert config["N"] == 64


def test_config_file_rejects_malformed_lines(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mesh uniform\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert error_of(capsys)["code"] == "Error"


def test_mesh_inspect_output(capsys):
    rc = main(["mesh-inspect", "--mesh", "graded", "--N", "16", "--K", "5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "graded"
    assert payload["kappa"] == 2.0
    assert payload["max_admissible_r"] == 0
    assert len(payload["repatoms"]) == 10
    assert sum(payload["steps"]) == 32


def test_sweep_zero_force_column(tmp_path):
    # zero-force loads its chain with const:0 itself: no --force
    rc = main([
        "sweep", "--axis", "r", "--values", "0,1,3", "--metric", "zero-force",
        "--mesh", "uniform", "--N", "240", "--K", "4", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = read_lines(tmp_path / "sweep.csv")
    assert lines[0] == "r,epsilon,zero-force"
    assert len(lines) == 4  # no rate footer for an identically zero metric
    for line in lines[1:]:
        assert float(line.split(",")[2]) == 0.0


def test_sweep_load_defect_rates(tmp_path):
    rc = main([
        "sweep", "--axis", "K", "--values", "8,16,32", "--metric", "load-defect",
        "--force", "sinpi", "--mesh", "uniform", "--N", "1024", "--r", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = read_lines(tmp_path / "sweep.csv")
    assert lines[0] == "K,h_max,load-defect"
    rates = [float(line.split(",")[1]) for line in lines if line.startswith("rate,")]
    assert len(rates) == 2
    assert all(rate >= 1.8 for rate in rates)


def test_sweep_writes_no_rate_when_the_parameter_does_not_move(tmp_path):
    # weight-gap is resolved by epsilon, which the r axis leaves fixed
    rc = main([
        "sweep", "--axis", "r", "--values", "1,2", "--metric", "weight-gap",
        "--force", "sinpi", "--mesh", "smooth", "--N", "4096", "--K", "8", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = read_lines(tmp_path / "sweep.csv")
    assert lines[0] == "r,epsilon,weight-gap"
    assert len(lines) == 3
    assert not any(line.startswith("rate,") for line in lines)


def test_only_a_sampled_force_needs_a_force_descriptor(tmp_path, capsys):
    # weight-gap builds weights alone and zero-force loads its chain with
    # const:0, so each takes the same bytes without a force
    argv = ["sweep", "--axis", "K", "--values", "4,8", "--metric", "weight-gap",
            "--mesh", "smooth", "--N", "256"]
    for metric in ("weight-gap", "zero-force"):
        argv[6] = metric
        assert main(argv + ["--out", str(tmp_path / metric / "bare")]) == 0
        assert main(argv + ["--force", "sinpi", "--out", str(tmp_path / metric / "forced")]) == 0
        capsys.readouterr()
        assert ((tmp_path / metric / "bare" / "sweep.csv").read_bytes()
                == (tmp_path / metric / "forced" / "sweep.csv").read_bytes())
    for metric in ("consistency", "load-defect"):
        argv[6] = metric
        assert main(argv + ["--out", str(tmp_path / metric)]) == 1
        assert "force" in error_of(capsys)["message"]
        assert not (tmp_path / metric).exists()
    assert main(["run", "--mesh", "uniform", "--N", "8", "--K", "4",
                 "--out", str(tmp_path / "run")]) == 1
    assert "force" in error_of(capsys)["message"]


@pytest.mark.parametrize("metric", list(STUDY_METRICS))
def test_a_malformed_force_fails_every_metric(tmp_path, capsys, metric):
    # also a metric that never reads the force, as a bad --weights fails a constrained run
    argv = ["sweep", "--mesh", "smooth", "--N", "64", "--K", "8", "--axis", "K",
            "--values", "4,8", "--metric", metric, "--force", "bogus:1"]
    assert main(argv + ["--out", str(tmp_path / "D")]) == 1
    assert error_of(capsys)["code"] == "UnknownFamily"
    assert not (tmp_path / "D").exists()


def test_help_names_every_row_of_the_setting_tables(capsys, monkeypatch):
    # a family, weight mode or metric added to its table must reach the help
    # of every subcommand that takes its flag
    monkeypatch.setenv("COLUMNS", "200")  # no name is wrapped at a hyphen
    common = [*qclab.model._FORCES, *qclab.mesh._BUILDERS, *WEIGHT_MODES]
    for command, names in (("run", common), ("sweep", common + list(STUDY_METRICS))):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        text = capsys.readouterr().out
        assert [name for name in names
                if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text)] == []


@pytest.mark.parametrize("flag, value", [("method", "bogus"), ("weights", "bogus")])
def test_a_bad_setting_fails_alike_from_a_flag_or_the_config_file(tmp_path, capsys, flag,
                                                                  value):
    argv = ["run", "--mesh", "uniform", "--N", "8", "--K", "4", "--force", "sinpi",
            "--out", str(tmp_path / "out")]
    assert main(argv + [f"--{flag}", value]) == 1
    from_flag = error_of(capsys)
    (tmp_path / "run.cfg").write_text(f"{flag} = {value}\n")
    assert main(argv + ["--config", str(tmp_path / "run.cfg")]) == 1
    assert error_of(capsys) == from_flag
    assert from_flag["code"] == "UnknownFamily" and value in from_flag["message"]


@pytest.mark.parametrize("argv, message", [
    (["run", "--mesh", "uniform", "--N", "64", "--K", "4", "--r", "-1", "--force", "sinpi"],
     "nonnegative"),
    (["sweep", "--axis", "r", "--values", "99999999999999999999,-5,3", "--metric",
      "consistency", "--mesh", "uniform", "--N", "64", "--K", "4", "--force", "sinpi"],
     "never reads r"),
    (["sweep", "--axis", "r", "--values", "1,-5", "--metric", "load-defect",
      "--mesh", "uniform", "--N", "64", "--K", "4", "--force", "sinpi"], "nonnegative"),
    (["sweep", "--axis", "K", "--values", "4,8", "--metric", "consistency", "--r", "-2",
      "--mesh", "uniform", "--N", "64", "--force", "sinpi"], "nonnegative"),
], ids=["run", "sweep-consistency", "sweep-r", "sweep-K"])
def test_a_negative_or_unread_radius_is_rejected(tmp_path, capsys, argv, message):
    out = tmp_path / "D"
    assert main(argv + ["--out", str(out)]) == 1
    assert message in error_of(capsys)["message"]
    assert not out.exists()


def test_a_negative_radius_fails_alike_from_a_flag_or_the_config_file(tmp_path, capsys):
    argv = ["run", "--mesh", "uniform", "--N", "64", "--K", "4", "--force", "sinpi",
            "--out", str(tmp_path / "out")]
    assert main(argv + ["--r", "-1"]) == 1
    from_flag = error_of(capsys)
    (tmp_path / "run.cfg").write_text("r = -1\n")
    assert main(argv + ["--config", str(tmp_path / "run.cfg")]) == 1
    assert error_of(capsys) == from_flag
    assert from_flag["code"] == "ShapeMismatch"
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_an_unknown_metric(tmp_path, capsys):
    rc = main(["sweep", "--axis", "K", "--values", "4,8", "--metric", "energy",
               "--mesh", "uniform", "--N", "64", "--force", "sinpi", "--out", str(tmp_path)])
    assert rc == 1
    assert error_of(capsys)["code"] == "UnknownFamily"


def test_sweep_requires_mesh(capsys):
    rc = main(["sweep", "--axis", "K", "--values", "4,8", "--metric",
               "consistency", "--N", "64", "--force", "sinpi"])
    assert rc == 1
    assert "mesh" in error_of(capsys)["message"]


def test_sweep_rejects_non_integer_values(tmp_path, capsys):
    rc = main(["sweep", "--axis", "K", "--values", "8,x", "--metric", "consistency",
               "--mesh", "uniform", "--N", "64", "--force", "sinpi", "--out", str(tmp_path)])
    assert rc == 1
    error = error_of(capsys)
    assert error["code"] == "Error"
    assert "8,x" in error["message"]


def test_missing_custom_mesh_file(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    rc = main(["run", "--mesh", f"custom:{missing}", "--N", "16", "--K", "4",
               "--method", "constrained", "--force", "sinpi", "--out", str(tmp_path)])
    assert rc == 1
    error = error_of(capsys)
    assert error["code"] == "MeshBuild"
    assert str(missing) in error["message"]


def test_vanishing_force_weight_is_ill_posed(tmp_path, capsys):
    # tight clusters (2r+1 = 3 = the smallest step) on this mesh give two
    # exact weights of a few 1e-18; the force-cluster equations divide by them
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("-19\n-3\n0\n3\n29\n32\n")
    argv = ["run", "--mesh", f"custom:{nodes}", "--N", "27", "--K", "3", "--r", "1",
            "--force", "sinpi", "--out", str(tmp_path / "out")]
    assert main(argv + ["--method", "force-cluster"]) == 1
    error = error_of(capsys)
    assert error["code"] == "IllPosed"
    assert "force weight of node slot" in error["message"]
    assert main(argv + ["--method", "energy-cluster"]) == 0


@pytest.mark.parametrize("method", ["energy-cluster", "force-cluster"])
def test_run_evaluates_the_closed_form_twice(tmp_path, monkeypatch, method):
    # once streamed into the atomistic solve and once as the samples that
    # the residual, the exact loads and the cluster loads read
    closed_form, sites = qclab.model._force_closed_form, []

    def counted(spec):
        fbar = closed_form(spec)
        return lambda x: (sites.append(x.size), fbar(x))[1]

    monkeypatch.setattr(qclab.model, "_force_closed_form", counted)
    N = 3 * BLOCK_VALUES // 2 + 3
    assert main(["run", "--mesh", "smooth", "--N", str(N), "--K", "64", "--r", "1",
                 "--method", method, "--force", "gauss:1,20", "--out", str(tmp_path)]) == 0
    assert sum(sites) == 2 * (2 * N)


def test_overflowing_force_is_rejected_without_a_warning(tmp_path, capsys):
    # exp(1000 x^2) overflows to inf (and 0 * inf is nan): the samples are
    # rejected as non-finite, and the overflow itself warns nothing
    rc = main(["run", "--N", "8", "--method", "atomistic", "--force=gauss:1,-1000",
               "--out", str(tmp_path)])
    assert rc == 1
    assert error_of(capsys)["code"] == "UnknownFamily"


node_lists = st.one_of(
    st.lists(st.integers(), max_size=9),  # huge, negative, repeated, any length
    st.lists(st.integers(-127, 127), unique=True, max_size=8).map(lambda xs: sorted({0, *xs})),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(indices=node_lists, K=st.integers(2, 4), command=st.sampled_from(["run", "mesh-inspect"]))
def test_custom_node_lists_end_in_a_report_or_one_error_line(tmp_path, capsys, indices, K,
                                                             command):
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("".join(f"{i}\n" for i in indices))
    argv = [command, "--mesh", f"custom:{nodes}", "--N", "64", "--K", str(K)]
    if command == "run":
        argv += ["--method", "constrained", "--force", "sinpi", "--out", str(tmp_path / "out")]
    rc = main(argv)
    assert rc in (0, 1)
    if rc == 1:
        assert error_of(capsys)["code"] in ("MeshBuild", "ShapeMismatch")
    else:
        capsys.readouterr()  # so the next example's error line stands alone


def test_reproduce_fig1(tmp_path, capsys):
    rc = main(["reproduce", "fig1", "--out", str(tmp_path)])
    assert rc == 0
    assert "fig1: PASS" in capsys.readouterr().out
    report = report_of(tmp_path / "fig1")
    assert report["verdict"] == "PASS"
    assert list(report)[-2:] == ["wall_time_s", "timings"]
    assert list(report["timings"]) == EXECUTE_STAGES + ["cli.write_csv"]
    assert report["checks"]["runtime_s"]["value"] == report["wall_time_s"]
    checks = report["checks"]
    assert checks["energy_norm_rel"]["pass"] and checks["energy_rel"]["pass"]
    lo, hi = checks["energy_norm_rel"]["band"]
    assert lo <= checks["energy_norm_rel"]["value"] <= hi
    kappa = report["mesh"]["kappa"]
    assert report["errors"]["predicted_band"] == list(predicted_relative_band("graded", kappa))


def test_reproduce_fig2(tmp_path, capsys):
    rc = main(["reproduce", "fig2", "--out", str(tmp_path)])
    assert rc == 0
    assert "fig2: PASS" in capsys.readouterr().out
    report = report_of(tmp_path / "fig2")
    assert report["verdict"] == "PASS"
    assert report["checks"]["gradient_alternation"]["pass"]


def test_reproduce_example1_fails_honestly(tmp_path, capsys):
    rc = main(["reproduce", "example1", "--out", str(tmp_path)])
    assert rc == 2
    assert "example1: FAIL" in capsys.readouterr().out
    report = report_of(tmp_path / "example1")
    assert report["verdict"] == "FAIL"
    assert (tmp_path / "example1" / "sweep.csv").exists()


def test_reproduce_force_scaling(tmp_path, capsys):
    rc = main(["reproduce", "force-scaling", "--out", str(tmp_path)])
    assert rc == 0
    assert "force-scaling: PASS" in capsys.readouterr().out


def test_reproduce_weights_audit(tmp_path, capsys):
    rc = main(["reproduce", "weights-audit", "--out", str(tmp_path)])
    assert rc == 0
    assert "weights-audit: PASS" in capsys.readouterr().out
    report = report_of(tmp_path / "weights-audit")
    # a preset that writes no profile times its body as one stage
    assert list(report)[-2:] == ["wall_time_s", "timings"]
    assert report["timings"] == {"weights-audit": report["wall_time_s"]}
    assert len(report["rows"]) == 13
    assert all(row["pass"] for row in report["rows"])


def test_unknown_preset_is_rejected():
    with pytest.raises(SystemExit):
        main(["reproduce", "fig3"])


def test_run_requires_particle_count(capsys):
    rc = main(["run", "--mesh", "uniform", "--K", "4"])
    assert rc == 1
    assert error_of(capsys)["code"] == "Error"


def test_lattice_too_large_to_allocate(tmp_path, capsys):
    # 2N sites of 8 bytes each is 16 PiB: numpy refuses before allocating
    rc = main(["run", "--N", "1125899906842624", "--method", "atomistic", "--force", "sinpi",
               "--out", str(tmp_path)])
    assert rc == 1
    error = error_of(capsys)
    assert error["code"] == "Error"
    assert "allocate" in error["message"]


@pytest.mark.parametrize("argv, code", [
    (["mesh-inspect", "--mesh", "graded", "--N", str(2**63), "--K", "64"], "LatticeTooLarge"),
    (["mesh-inspect", "--mesh", "smooth", "--N", str(2**62), "--K", "4"], "LatticeTooLarge"),
    (["mesh-inspect", "--mesh", "oscillatory", "--N", "99999999999999999999", "--K", "4"],
     "LatticeTooLarge"),
    (["run", "--N", "99999999999999999999", "--method", "atomistic", "--force", "sinpi"],
     "LatticeTooLarge"),
    (["sweep", "--axis", "N", "--values", "99999999999999999999", "--metric", "consistency",
      "--mesh", "uniform", "--K", "4", "--force", "sinpi"], "LatticeTooLarge"),
    (["run", "--N", str(2**62 - 1), "--method", "atomistic", "--force", "sinpi"],
     "LatticeTooLarge"),
    (["run", "--N", str(MAX_N + 1), "--method", "atomistic", "--force", "sinpi"],
     "LatticeTooLarge"),
    # the largest lattice passes the bound and fails to allocate
    (["run", "--N", str(MAX_N), "--method", "atomistic", "--force", "sinpi"], "Error"),
], ids=["inspect-graded", "inspect-smooth", "inspect-oscillatory", "run", "sweep-N",
        "run-atomistic", "run-above-bound", "run-at-bound"])
def test_lattice_beyond_numpy_arrays(tmp_path, capsys, argv, code):
    out = [] if argv[0] == "mesh-inspect" else ["--out", str(tmp_path)]
    rc = main(argv + out)
    assert rc == 1
    assert error_of(capsys)["code"] == code


@pytest.mark.parametrize("family", ["uniform", "graded", "oscillatory", "smooth", "custom"])
def test_more_node_pairs_than_atoms(tmp_path, capsys, family):
    # 2K distinct nodes on 2N sites need K <= N; the graded family must not
    # evaluate 2 ** (K - 1) for such a K
    if family == "custom":
        (tmp_path / "nodes.txt").write_text("-3\n0\n2\n4\n")
        family = f"custom:{tmp_path / 'nodes.txt'}"
    rc = main(["mesh-inspect", "--mesh", family, "--N", "8", "--K", "99999999999999999999"])
    assert rc == 1
    error = error_of(capsys)
    assert error["code"] == "MeshBuild"
    assert "K <= N" in error["message"]


def test_graded_checks_k_from_the_bits_of_n(capsys):
    # K <= N here, so only the graded test itself stands between this K and
    # a 2**39-bit integer
    rc = main(["mesh-inspect", "--mesh", "graded", "--N", str(2**40), "--K", str(2**39)])
    assert rc == 1
    assert "N = 2^(K-1)" in error_of(capsys)["message"]


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_file(tmp_path, capsys, kind):
    path = tmp_path / "missing.cfg" if kind == "missing" else tmp_path
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    error = error_of(capsys)
    assert error["code"] == "Error"
    assert str(path) in error["message"]


@pytest.mark.parametrize("argv", [
    ["run", "--mesh", "uniform", "--N", "8", "--K", "4", "--method", "constrained",
     "--force", "sinpi"],
    ["reproduce", "weights-audit"],
    ["sweep", "--axis", "K", "--values", "4", "--metric", "consistency",
     "--mesh", "uniform", "--N", "8", "--force", "sinpi"],
], ids=["run", "reproduce", "sweep"])
def test_out_naming_a_file(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = main(argv + ["--out", str(taken)])
    assert rc == 1
    error = error_of(capsys)
    assert error["code"] == "Error"
    assert str(taken) in error["message"]


@pytest.mark.parametrize("argv, code", [
    (["sweep", "--axis", "N", "--values", "8,16", "--metric", "consistency",
      "--mesh", "graded", "--K", "4", "--force", "sinpi"], "MeshBuild"),
    (["sweep", "--axis", "K", "--values", "8,x", "--metric", "consistency",
      "--mesh", "uniform", "--N", "64", "--force", "sinpi"], "Error"),
    (["run", "--mesh", "uniform", "--N", "64", "--K", "4", "--method", "constrained",
      "--force", "gauss:1,nan"], "UnknownFamily"),
    (["run", "--mesh", "smooth:1e400", "--N", "64", "--K", "4", "--method", "constrained",
      "--force", "sinpi"], "MeshBuild"),
    (["run", "--force", "sinpi", "--method", "atomistic"], "Error"),
    (["run", "--N", "64", "--force", "sinpi", "--method", "constrained"], "Error"),
    (["run", "--N", "64", "--method", "atomistic", "--force", "gauss:a,b"], "UnknownFamily"),
    (["sweep", "--mesh", "smooth", "--N", "64", "--axis", "N", "--values", "64,128",
      "--metric", "consistency", "--force", "sinpi"], "Error"),
    (["sweep", "--mesh", "smooth", "--K", "8", "--axis", "K", "--values", "4,8",
      "--metric", "consistency", "--force", "sinpi"], "Error"),
], ids=["sweep-mesh", "sweep-values", "run-force", "run-mesh", "run-without-N",
        "run-without-mesh", "run-force-parameters", "sweep-without-K", "sweep-without-N"])
def test_failing_call_leaves_no_output_directory(tmp_path, capsys, argv, code):
    out = tmp_path / "D"
    assert main(argv + ["--out", str(out)]) == 1
    assert error_of(capsys)["code"] == code
    assert not out.exists()


@pytest.mark.parametrize("argv, where", [
    (["run", "--N", "8", "--method", "atomistic", "--force", "const:1e308"],
     "solve.solve_atomistic"),
    (["run", "--mesh", "uniform", "--N", "8", "--K", "4", "--method", "energy-cluster",
      "--force", "lin:1e200,1e200"], "error_report"),
    (["sweep", "--mesh", "smooth", "--N", "64", "--K", "8", "--axis", "N", "--values", "64,128",
      "--metric", "consistency", "--force", "lin:1e300,1e300"], "metric consistency"),
], ids=["atomistic-solve", "energy-norm", "sweep"])
def test_numbers_beyond_float64_end_in_one_error_line(tmp_path, capsys, argv, where):
    # an overflow or a nan on the way fails the call: no warning, no inf or
    # nan in a report, no output directory; the message names the stage (the
    # sweep's metric) and the force descriptor
    out = tmp_path / "D"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["code"] == "Error"
    assert error["message"].startswith(f"{where}, force {argv[-1]!r}: overflow encountered")
    assert not out.exists()


@pytest.mark.parametrize("K, read", [("8192", 10), ("1", 0)], ids=["report", "error-line"])
def test_a_closed_stdout_ends_without_a_traceback(K, read):
    # the reader stops after 10 bytes of a large mesh-inspect output, or
    # before the error line of a call that fails
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    argv = ["mesh-inspect", "--mesh", "uniform", "--N", "65536", "--K", K]
    with subprocess.Popen([sys.executable, "-m", "qclab.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as done:
        assert len(done.stdout.read(read)) == read
        done.stdout.close()
        err = done.stderr.read()
    assert done.returncode == 1
    assert err == b""


def test_the_module_entry_point_prints_mesh_diagnostics():
    payload = json.loads(fresh_process(["mesh-inspect", "--mesh", "uniform", "--N", "8",
                                        "--K", "2"]))
    assert payload["family"] == "uniform" and payload["repatoms"] == [-4, 0, 4, 8]


@pytest.mark.parametrize("nodes, N, K, message", [
    ("-4\n0\n3\n2\n", "8", "2", "strictly increasing"),
    ("-4\n-1\n3\n5\n", "8", "2", "must contain lattice site 0"),
    (None, "8", "1", "K = 2"),
], ids=["custom-not-increasing", "custom-without-site-0", "one-node-pair"])
def test_a_mesh_that_cannot_be_built(tmp_path, capsys, nodes, N, K, message):
    mesh = "uniform"
    if nodes is not None:
        mesh = f"custom:{tmp_path / 'nodes.txt'}"
        (tmp_path / "nodes.txt").write_text(nodes)
    assert main(["mesh-inspect", "--mesh", mesh, "--N", N, "--K", K]) == 1
    error = error_of(capsys)
    assert error["code"] == "MeshBuild" and message in error["message"]


@pytest.mark.parametrize("argv, code", [
    (["--mesh", "uniform", "--N", "64", "--K", "3", "--method", "constrained"], "MeshBuild"),
    (["--mesh", "graded", "--N", "64", "--K", "7", "--r", "1", "--method", "energy-cluster"],
     "ClusterOverlap"),
], ids=["mesh", "cluster-rule"])
def test_an_invalid_mesh_or_cluster_rule_fails_before_any_lattice_solve(tmp_path, capsys,
                                                                        monkeypatch, argv, code):
    # the mesh and the cluster rule are O(K) to build, so a run rejects them
    # before its first O(N) pass, at any N
    def lattice_solve(model):
        raise AssertionError("the atomistic solve ran before the input was checked")

    monkeypatch.setattr(qclab.cli, "solve_atomistic", lattice_solve)
    out = tmp_path / "D"
    assert main(["run", *argv, "--force", "sinpi", "--out", str(out)]) == 1
    assert error_of(capsys)["code"] == code
    assert not out.exists()


def lattice_pass(*args, **kwargs):
    raise AssertionError("a lattice pass ran before every point was built")


@pytest.mark.parametrize("argv, code, message", [
    (["--axis", "K", "--values", "8,3", "--metric", "consistency", "--mesh", "uniform"],
     "MeshBuild", "K | N"),
    (["--axis", "r", "--values", "0,1", "--metric", "load-defect", "--mesh", "graded",
      "--K", "21"], "ClusterOverlap", "overlap"),
    (["--axis", "r", "--values", "1,-5", "--metric", "load-defect", "--mesh", "uniform",
      "--K", "64"], "ShapeMismatch", "cluster radius must be nonnegative, got -5"),
], ids=["mesh", "cluster-rule", "negative-radius"])
def test_a_sweep_builds_every_point_before_its_first_lattice_pass(tmp_path, capsys, monkeypatch,
                                                                  argv, code, message):
    # every point's mesh and cluster rule is O(K) to build, so a later invalid
    # point fails before the first point's O(N) solve, at any N
    monkeypatch.setattr(qclab.analysis, "solve_constrained", lattice_pass)
    monkeypatch.setattr(qclab.analysis, "exact_load", lattice_pass)
    out = tmp_path / "D"
    argv = ["sweep", *argv, "--N", "1048576", "--force", "sinpi", "--out", str(out)]
    assert main(argv) == 1
    error = error_of(capsys)
    assert error["code"] == code and message in error["message"]
    assert not out.exists()


SWEEP_ALONG_N = ["sweep", "--mesh", "uniform", "--K", "2", "--axis", "N", "--metric"]


@pytest.mark.parametrize("N", ["1", "0", "-3"])
@pytest.mark.parametrize("argv", [
    ["run", "--method", "atomistic", "--force", "sinpi"],
    ["run", "--mesh", "uniform", "--K", "2", "--method", "constrained", "--force", "sinpi"],
    ["mesh-inspect", "--mesh", "uniform", "--K", "2"],
    *([*SWEEP_ALONG_N, metric, *force] for metric in STUDY_METRICS
      for force in (["--force", "sinpi"], [])),
], ids=["run-atomistic", "run-constrained", "mesh-inspect",
        *(f"sweep-{metric}{suffix}" for metric in STUDY_METRICS
          for suffix in ("-force", ""))])
def test_fewer_than_two_atoms_fail_alike_from_every_command(tmp_path, capsys, argv, N):
    # one rule, model.check_lattice_size, whether a force, a mesh or a sweep
    # point meets the lattice size first
    out = tmp_path / "D"
    size = ["--values" if argv[0] == "sweep" else "--N", N]
    assert main(argv + size + ([] if argv[0] == "mesh-inspect" else ["--out", str(out)])) == 1
    error = error_of(capsys)
    assert error["code"] == "ShapeMismatch" and "N >= 2" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, target", [
    (["run", "--mesh", "uniform", "--N", "8", "--K", "4", "--method", "constrained",
      "--force", "sinpi"], "profile.csv"),
    (["run", "--method", "atomistic", "--N", "8", "--force", "sinpi"], "report.json"),
    (["reproduce", "weights-audit"], "weights-audit/report.json"),
    (["sweep", "--axis", "K", "--values", "4", "--metric", "consistency",
      "--mesh", "uniform", "--N", "8", "--force", "sinpi"], "sweep.csv"),
], ids=["run-csv", "run-json", "reproduce", "sweep"])
def test_output_file_that_cannot_be_written(tmp_path, capsys, argv, target):
    # an existing directory where an output file goes
    (tmp_path / target).mkdir(parents=True)
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 1
    error = error_of(capsys)
    assert error["code"] == "Error"
    assert str(tmp_path / target) in error["message"]


def test_reproduce_example1_is_the_consistency_sweep(tmp_path, capsys):
    assert main(["reproduce", "example1", "--out", str(tmp_path / "preset")]) == 2
    assert main(["sweep", "--axis", "K", "--values", "8,16,32,64", "--metric", "consistency",
                 "--mesh", "smooth:0.2", "--N", "16384", "--force", "sinpi",
                 "--out", str(tmp_path / "sweep")]) == 0
    preset = (tmp_path / "preset" / "example1" / "sweep.csv").read_bytes()
    assert preset == (tmp_path / "sweep" / "sweep.csv").read_bytes()
    assert preset.count(b"\nrate,") == 3


# ---------------------------------------------------------------- fuzzed command lines
#
# Each draw starts from a valid instance and replaces some of its fields by
# wild values.  Every size either keeps what it builds small (N <= 2^10 for
# a lattice, K <= 2^12 for a mesh; mesh-inspect builds no lattice) or lies
# past the bound that rejects it before anything is allocated.  Junk text
# has no digits, so it never parses as a size.

ERROR_CODES = {cls.code for cls in (QCLabError, *QCLabError.__subclasses__())}
beyond = st.integers(MAX_N + 1, 2**70)
junk = st.text(alphabet=" ,:+-.eabxyz_#=", max_size=8)
numbers = st.one_of(st.floats().map(repr), st.integers(-3, 3).map(str), junk)
WILD = {
    "mesh": st.one_of(
        st.sampled_from(["uniform", "graded", "oscillatory", "smooth", "custom", "custom:",
                         "uniform:2", "custom:run.cfg", "custom:missing", "custom:."]),
        st.builds("smooth:{}".format, numbers), junk),
    "N": st.one_of(st.integers(-3, 2**10), beyond),
    "K": st.one_of(st.integers(-3, 2**12), beyond),
    "r": st.one_of(st.integers(-3, 8), beyond, st.integers(-(2**70), -MAX_N)),
    "force": st.one_of(
        st.sampled_from(["sinpi:1", "gauss", "const:", "lin:1"]),
        st.builds("gauss:{},{}".format, numbers, numbers), st.builds("const:{}".format, numbers),
        st.builds("lin:{},{}".format, numbers, numbers), junk),
    # junk never spells a method, weight mode or metric
    "method": junk,
    "weights": junk,
    "metric": junk,
}
wild_nodes = node_lists | st.lists(junk, min_size=1, max_size=2)


@st.composite
def instances(draw):
    """Valid run fields (a mesh descriptor with an N and K it builds for, a
    radius, force, method and weight mode) and the node list that
    custom:nodes.txt holds."""
    K = draw(st.integers(2, 5))
    family = draw(st.sampled_from(["uniform", "graded", "oscillatory", "smooth", "custom"]))
    steps = draw(st.lists(st.integers(1, 30), min_size=2 * K, max_size=2 * K))
    steps[0] += sum(steps) % 2
    cums = np.cumsum(steps)
    N = {"uniform": K * draw(st.integers(1, 12)), "graded": 2 ** (K - 1),
         "oscillatory": draw(st.integers(2 * K, 200)), "smooth": draw(st.integers(16 * K, 400)),
         "custom": int(cums[-1]) // 2}[family]
    nodes = (cums - cums[draw(st.integers(0, 2 * K - 1))]).tolist()
    fields = {"mesh": "custom:nodes.txt" if family == "custom" else family, "N": N, "K": K,
              "r": draw(st.integers(0, 2)),
              "force": draw(st.sampled_from(["sinpi", "gauss:2,25", "const:1", "lin:0.5,-1"])),
              "method": draw(st.sampled_from(["atomistic", "constrained", "energy-cluster",
                                              "force-cluster"])),
              "weights": draw(st.sampled_from(["exact", "lumped"]))}
    return fields, nodes


@st.composite
def command_lines(draw):
    """(argv, config file lines, node list) of a run, sweep, mesh-inspect or
    run --config call; flags as --flag=value, so a value may start with a
    dash."""
    command = draw(st.sampled_from(["run", "sweep", "mesh-inspect", "run --config"]))
    valid, nodes = draw(instances())
    fields = dict(valid)
    for key in draw(st.lists(st.sampled_from([*WILD, "nodes"]), max_size=2), label="wild"):
        if key == "nodes":
            nodes = draw(wild_nodes, label="wild nodes")
        else:
            fields[key] = draw(WILD[key], label=f"wild {key}")
    metric = fields.pop("metric", None)  # a sweep setting
    if command == "mesh-inspect":
        N = fields["N"] if draw(st.booleans()) else draw(st.integers(2**10, MAX_N))
        return ["mesh-inspect", f"--mesh={fields['mesh']}", f"--N={N}",
                f"--K={fields['K']}"], [], nodes
    argv, config = [command.split()[0], "--out=out"], []
    if command == "sweep":
        axis = draw(st.sampled_from(["K", "N", "r"]), label="axis")
        points = st.one_of(st.just(valid[axis]), st.integers(0, 16), WILD[axis]).map(str)
        values = st.lists(points, min_size=1, max_size=4).map(",".join)
        values = values if draw(st.booleans(), label="integer values") else junk
        if metric is None:
            metric = draw(st.sampled_from(["consistency", "weight-gap", "load-defect",
                                           "zero-force"]))
        del fields["method"]  # a sweep has no solver to choose
        argv += [f"--axis={axis}", f"--values={draw(values, label='values')}",
                 f"--metric={metric}"]
    if command == "run --config":
        argv.append("--config=run.cfg")
        # a file may hold any text, where the argument parser passes only
        # integers
        junk_key = draw(st.sampled_from([None, *fields]), label="junk value")
        config = [f"{key} = {draw(junk) if key == junk_key else value}"
                  for key, value in fields.items()]
        config += draw(st.lists(junk | junk.map("bogus = {}".format), max_size=1))
        # flags override the file with valid values
        fields = {key: valid[key]
                  for key in draw(st.lists(st.sampled_from(list(valid)), max_size=2))}
    missing = draw(st.sampled_from([None, *fields]), label="missing flag")
    argv += [f"--{key}={value}" for key, value in fields.items() if key != missing]
    return argv, draw(st.permutations(config)), nodes


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=command_lines())
def test_fuzzed_command_lines_end_in_exit_0_or_one_error_line(tmp_path, monkeypatch, capsys,
                                                             call):
    argv, config, nodes = call
    monkeypatch.chdir(tmp_path)  # custom:nodes.txt, run.cfg and --out=out live here
    shutil.rmtree(tmp_path / "out", ignore_errors=True)
    (tmp_path / "run.cfg").write_text("".join(f"{line}\n" for line in config))
    (tmp_path / "nodes.txt").write_text("".join(f"{entry}\n" for entry in nodes))
    rc = main(argv)
    assert rc in (0, 1)
    if rc == 1:
        assert error_of(capsys)["code"] in ERROR_CODES
    else:
        capsys.readouterr()
    # a call writes its output directory when, and only when, it succeeds
    assert (tmp_path / "out").exists() == (rc == 0 and argv[0] != "mesh-inspect")
