"""Single-pass kernels against their reference versions in conftest.py.

The kernels restrict work to where it is nonzero (hat supports, the
clusters next to a node, one bond energy per element) or batch it (whole
lattice arrays, chunks of CSV rows, whole JSON arrays), but perform the same
IEEE operations on the same values, summed in the same order.  So every
comparison here is exact, never a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qclab import (
    ChainModel,
    ClusterRule,
    ExternalForce,
    NodalField,
    ShapeMismatch,
    assemble_weight_system,
    energy_cluster_functional,
    exact_load,
    harmonic_potential,
    prolong,
    quartic_potential,
    solve_weights,
    verify_exactness,
)
from qclab.cli import _CSV_CHUNK_ROWS, _to_json, _write_csv
from conftest import (
    random_custom_mesh,
    reference_energy_cluster_functional,
    reference_exact_load,
    reference_prolong,
    reference_to_json,
    reference_verify_exactness,
    reference_write_csv,
)

KERNELS = settings(max_examples=60, deadline=None)

seeds = st.integers(0, 2**32 - 1)
# K = 2 is the smallest mesh (four elements); None lets random_custom_mesh
# draw K from 3..6.  Random steps put the lattice's wrap point inside an
# element or on a node, so the wrap element and the slot rotation are covered.
mesh_K = st.sampled_from([2, None])
radius_draw = st.integers(0, 7)
potentials = st.sampled_from(["harmonic", "quartic"])


def nodal_field(rng, mesh):
    values = rng.normal(size=2 * mesh.K)
    values[mesh.K - 1] = 0.0
    return NodalField(mesh=mesh, values=values)


def random_model(rng, N, potential="harmonic"):
    pot = harmonic_potential() if potential == "harmonic" else quartic_potential(0.25)
    force = ExternalForce(N=N, samples=rng.normal(size=2 * N), descriptor="random")
    return ChainModel(N=N, potential=pot, force=force)


def admissible(mesh, r):
    """Clamp a drawn radius to the largest admissible one."""
    return min(r, int((np.min(mesh.steps) - 1) // 2))


@KERNELS
@given(seed=seeds, K=mesh_K)
def test_prolong_matches_reference(seed, K):
    rng = np.random.default_rng(seed)
    mesh, _ = random_custom_mesh(rng, K)
    V = nodal_field(rng, mesh)
    got, want = prolong(V), reference_prolong(mesh, V)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.gradients, want.gradients)


@KERNELS
@given(seed=seeds, K=mesh_K)
def test_exact_load_matches_reference(seed, K):
    rng = np.random.default_rng(seed)
    mesh, N = random_custom_mesh(rng, K)
    model = random_model(rng, N)
    assert np.array_equal(exact_load(mesh, model), reference_exact_load(mesh, model))


@KERNELS
@given(seed=seeds, K=mesh_K, r=radius_draw, mode=st.sampled_from(["exact", "lumped"]))
def test_verify_exactness_matches_reference(seed, K, r, mode):
    rng = np.random.default_rng(seed)
    mesh, _ = random_custom_mesh(rng, K)
    rule = ClusterRule(mesh=mesh, r=admissible(mesh, r))
    weights = solve_weights(assemble_weight_system(rule)).with_mode(mode)
    assert verify_exactness(weights) == reference_verify_exactness(
        mesh, rule, weights
    )


@KERNELS
@given(seed=seeds, K=mesh_K, r=radius_draw, potential=potentials)
def test_energy_cluster_functional_matches_reference(seed, K, r, potential):
    rng = np.random.default_rng(seed)
    mesh, N = random_custom_mesh(rng, K)
    model = random_model(rng, N, potential)
    rule = ClusterRule(mesh=mesh, r=admissible(mesh, r))
    weights = solve_weights(assemble_weight_system(rule))
    V = nodal_field(rng, mesh)
    assert energy_cluster_functional(model, weights, V) == (
        reference_energy_cluster_functional(model, mesh, rule, weights, V)
    )


def test_energy_cluster_functional_rejects_foreign_field():
    rng = np.random.default_rng(3)
    mesh, N = random_custom_mesh(rng)
    other, _ = random_custom_mesh(np.random.default_rng(4))
    model = random_model(rng, N)
    rule = ClusterRule(mesh=mesh, r=0)
    weights = solve_weights(assemble_weight_system(rule))
    with pytest.raises(ShapeMismatch):
        energy_cluster_functional(model, weights, nodal_field(rng, other))


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 3.0, -1e22]


@pytest.mark.parametrize("rows", [0, 1, _CSV_CHUNK_ROWS, 2 * _CSV_CHUNK_ROWS + 3])
@pytest.mark.parametrize("footer", [None, ["rate,2.0000000000000004", "rate,nan"]])
def test_write_csv_matches_reference(tmp_path, rows, footer):
    rng = np.random.default_rng(rows)
    columns = [rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
               for _ in range(3)]
    columns.append(np.arange(rows, dtype=float))
    if rows:
        specials = np.resize(SPECIAL, rows)
        columns[1][: len(specials)] = specials
    header = ["x", "u_a", "u_b", "i"]
    _write_csv(tmp_path / "got.csv", header, columns, footer=footer)
    reference_write_csv(tmp_path / "want.csv", header, columns, footer=footer)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


float_arrays = hnp.arrays(np.float64, st.integers(0, 12),
                          elements=st.floats(allow_nan=True, allow_infinity=True))
int_arrays = hnp.arrays(st.sampled_from([np.int64, np.int32, np.uint64, np.uint8]),
                        st.integers(0, 12))


@settings(max_examples=100, deadline=None)
@given(floats=float_arrays, ints=int_arrays, scalar=st.floats())
def test_to_json_matches_reference(floats, ints, scalar):
    payload = {
        "floats": floats,
        "ints": ints,
        "empty_float": np.array([]),
        "empty_int": np.array([], dtype=int),
        "nested": {"values": floats[::-1], "mixed": [ints, scalar, None], "none": {}},
        "flags": floats > 0,
        "matrix": np.stack([floats, floats[::-1]]),
        "single": np.array(scalar),
        "text": 'say "q" \\ done',
    }
    assert _to_json(payload) == reference_to_json(payload)
