"""Command-line surface: artifacts, determinism, exit codes, presets."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qclab.cli import main
from qclab.errors import QCLabError
from qclab.model import MAX_N


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


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "N", "--values", "8,16", "--metric", "consistency",
     "--mesh", "graded", "--K", "4", "--force", "sinpi"],
    ["sweep", "--axis", "K", "--values", "8,x", "--metric", "consistency",
     "--mesh", "uniform", "--N", "64", "--force", "sinpi"],
    ["run", "--mesh", "uniform", "--N", "64", "--K", "4", "--method", "constrained",
     "--force", "gauss:1,nan"],
    ["run", "--mesh", "smooth:1e400", "--N", "64", "--K", "4", "--method", "constrained",
     "--force", "sinpi"],
], ids=["sweep-mesh", "sweep-values", "run-force", "run-mesh"])
def test_failing_call_leaves_no_output_directory(tmp_path, capsys, argv):
    out = tmp_path / "D"
    assert main(argv + ["--out", str(out)]) == 1
    error_of(capsys)
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
        metric = draw(st.sampled_from(["consistency", "weight-gap", "load-defect", "zero-force"]))
        argv += [f"--axis={axis}", f"--values={draw(values, label='values')}",
                 f"--metric={metric}"]
    if command == "run --config":
        argv.append("--config=run.cfg")
        # a file may hold any text, where the argument parser passes only
        # integers and choices
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
