"""Command-line surface: artifacts, determinism, exit codes, presets."""

import json

import pytest

from qclab.cli import main


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
    assert list(report) == ["config", "mesh", "smoothness", "solves", "wall_time_s"]
    assert "errors" not in report and "weights" not in report
    assert report["config"]["method"] == "constrained"
    assert set(report["solves"]) == {"atomistic", "constrained"}


def test_run_cluster_report_shape(tmp_path):
    rc = main([
        "run", "--mesh", "graded", "--N", "16", "--K", "5", "--r", "0",
        "--method", "energy-cluster", "--force", "sinpi", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = report_of(tmp_path)
    assert list(report) == [
        "config", "mesh", "smoothness", "weights", "solves", "errors", "wall_time_s",
    ]
    assert set(report["solves"]) == {"atomistic", "constrained", "energy-cluster"}
    errors = report["errors"]
    assert 0.0 < errors["energy_norm_rel"] < 1.0
    assert errors["predicted_band"][0] < errors["predicted_band"][1]
    header = read_lines(tmp_path / "profile.csv")[0]
    assert header == "x,u_atomistic,u_constrained,u_qc"


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
    strip = lambda path: [
        line for line in read_lines(path) if "wall_time_s" not in line
    ]
    assert strip(tmp_path / "a/report.json") == strip(tmp_path / "b/report.json")


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
    rc = main([
        "sweep", "--axis", "r", "--values", "0,1,3", "--metric", "zero-force",
        "--force", "sinpi", "--mesh", "uniform", "--N", "240", "--K", "4", "--out", str(tmp_path),
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
    assert error["code"] == "UnknownFamily"
    assert "8,x" in error["message"]


def test_missing_custom_mesh_file(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    rc = main(["run", "--mesh", f"custom:{missing}", "--N", "16", "--K", "4",
               "--method", "constrained", "--force", "sinpi", "--out", str(tmp_path)])
    assert rc == 1
    error = error_of(capsys)
    assert error["code"] == "MeshBuild"
    assert str(missing) in error["message"]


def test_reproduce_fig1(tmp_path, capsys):
    rc = main(["reproduce", "fig1", "--out", str(tmp_path)])
    assert rc == 0
    assert "fig1: PASS" in capsys.readouterr().out
    report = report_of(tmp_path / "fig1")
    assert report["verdict"] == "PASS"
    checks = report["checks"]
    assert checks["energy_norm_rel"]["pass"] and checks["energy_rel"]["pass"]
    lo, hi = checks["energy_norm_rel"]["band"]
    assert lo <= checks["energy_norm_rel"]["value"] <= hi


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
    assert len(report["rows"]) == 13
    assert all(row["pass"] for row in report["rows"])


def test_unknown_preset_is_rejected():
    with pytest.raises(SystemExit):
        main(["reproduce", "fig3"])


def test_run_requires_particle_count(capsys):
    rc = main(["run", "--mesh", "uniform", "--K", "4"])
    assert rc == 1
    assert error_of(capsys)["code"] == "Error"


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
