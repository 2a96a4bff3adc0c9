"""Memory budget of `qclab run` and of sweeps, counted in lattice arrays.

One lattice array is the 2N float64 values of one field, 16·N bytes.  The
run's lattice work needs two of them at once: the force samples and the
atomistic gradients, and then the gradients and the atomistic values, which
are formed once the samples are freed; each stage adds little beyond them.
The profile's other columns are computed 4096 rows at a time.  These tests
take tracemalloc's peak over one call, at N = 2^16, where one array is
1 MiB and the CSV kernel's fixed chunk temporaries are about one more.  A
sweep builds every point's mesh and weights before its first solve and
frees each point's once it is solved; its budgets are in lattice arrays of
its largest N, 2^16.
"""

import tracemalloc

import pytest

import qclab.model
from qclab import ChainModel, MeshSpec, build_mesh, cli, exact_load, harmonic_potential
from qclab import convergence_study, sample_force
from qclab.model import path_sum
from qclab.cli import RunConfig, _execute, main

N = 2**16
BUDGET = 3.5  # lattice arrays
STAGE_BUDGET = 0.5  # lattice arrays a stage may hold beyond its entry or its result
VALUES_BUDGET = 2.75  # lattice arrays held while the atomistic values are summed
FINEST_LOAD_BUDGET = 3.5  # lattice arrays of one exact_load call on the finest uniform mesh
SWEEP_N_BUDGET = 1.6  # lattice arrays of a sweep along N at K = 16
SWEEP_K_BUDGET = 7.6  # lattice arrays of a consistency sweep along increasing K

CONFIGS = {
    "graded-energy-cluster": RunConfig(mesh="graded", N=N, K=17, r=0, weights="exact",
                                       method="energy-cluster", force="sinpi", out="."),
    "uniform-constrained": RunConfig(mesh="uniform", N=N, K=4096, r=0, weights="exact",
                                     method="constrained", force="sinpi", out="."),
}


def peak_arrays(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (16 * N)
    finally:
        tracemalloc.stop()


def run_argv(config: RunConfig, out) -> list[str]:
    return ["run", "--mesh", config.mesh, "--N", str(config.N), "--K", str(config.K),
            "--r", str(config.r), "--method", config.method, "--force", config.force,
            "--out", str(out)]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_execute_peak_in_lattice_arrays(name):
    assert peak_arrays(lambda: _execute(CONFIGS[name])) <= BUDGET


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_peak_in_lattice_arrays(tmp_path, capsys, name):
    # the whole command: the solves, then profile.csv and report.json
    main(["run", "--N", "16", "--method", "atomistic", "--force", "sinpi",
          "--out", str(tmp_path / "warm")])  # builds the CSV kernel's lazy tables
    argv = run_argv(CONFIGS[name], tmp_path)
    assert peak_arrays(lambda: main(argv)) <= BUDGET


@pytest.mark.parametrize("name", list(CONFIGS))
def test_atomistic_values_are_formed_after_the_force_samples_are_freed(monkeypatch, name):
    # the gradients and the values being summed are then the only lattice arrays
    held = []

    def traced(v):
        held.append(tracemalloc.get_traced_memory()[0] / (16 * N))
        return path_sum(v)

    monkeypatch.setattr(qclab.model, "path_sum", traced)  # as Displacement.values looks it up
    tracemalloc.start()
    try:
        _execute(CONFIGS[name])
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] <= VALUES_BUDGET, held


# the lattice stages of _execute, each in the namespace its caller looks it up in
STAGES = {"solve_atomistic": cli, "exact_load": cli, "verify_exactness": cli,
          "error_report": cli}


def test_graded_stages_stay_near_their_resident_set(monkeypatch):
    # every call of a lattice stage peaks at most STAGE_BUDGET above the larger
    # of what was allocated when it started and when it returned (its result)
    rises = {}

    def traced(name, function):
        def wrapper(*args, **kwargs):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = function(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            rises.setdefault(name, []).append((peak - max(entry, current)) / (16 * N))
            return result
        return wrapper

    for name, module in STAGES.items():
        monkeypatch.setattr(module, name, traced(name, getattr(module, name)))
    tracemalloc.start()
    try:
        _execute(CONFIGS["graded-energy-cluster"])
    finally:
        tracemalloc.stop()
    assert set(rises) == set(STAGES)
    assert max(max(calls) for calls in rises.values()) <= STAGE_BUDGET, rises


def test_exact_load_peak_on_the_finest_uniform_mesh():
    # K = N/2: elements of two sites, so every mesh-length array is half a
    # lattice array and exact_load's per-element arrays, not the lattice, set
    # its peak
    mesh = build_mesh(MeshSpec(family="uniform", N=N, K=N // 2))
    model = ChainModel(potential=harmonic_potential(), force=sample_force("sinpi", N))
    model.force.samples  # evaluated before tracing, as solve_atomistic leaves them
    assert peak_arrays(lambda: exact_load(mesh, model)) <= FINEST_LOAD_BUDGET


def sweep_peak(metric: str, points) -> float:
    convergence_study(metric, "uniform", "sinpi", [(2**10, 16, 0)])  # first-call allocations
    return peak_arrays(lambda: convergence_study(metric, "uniform", "sinpi", points))


@pytest.mark.parametrize("metric", ["consistency", "load-defect"])
def test_sweep_along_N_peak_in_lattice_arrays(metric):
    # one point is solved at a time, so the largest N alone sets the peak
    points = [(2**k, 16, 0) for k in range(13, 17)]
    assert sweep_peak(metric, points) <= SWEEP_N_BUDGET


def test_sweep_along_increasing_K_peak_in_lattice_arrays():
    # the smaller points' meshes are freed before the largest one is solved
    points = [(N, K, 0) for K in (4096, 8192, 16384, 32768)]
    assert sweep_peak("consistency", points) <= SWEEP_K_BUDGET
