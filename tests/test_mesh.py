"""Mesh families, hat basis, prolongation, exact loads, smoothness tables."""

import numpy as np
import pytest

from qclab import (
    CoarseMesh,
    ConstraintViolation,
    MeshBuildError,
    MeshSpec,
    NodalField,
    ShapeMismatch,
    UnknownFamily,
    basis_value,
    build_mesh,
    exact_load,
    lattice_coordinates,
    load_custom_indices,
    parse_mesh_descriptor,
    prolong,
    slot_of_site,
    smoothness_profile,
    stored_energy,
)
from conftest import make_model, random_custom_mesh

_FAMILY_CASES = [
    ("uniform", 8, 4),
    ("graded", 8, 4),
    ("oscillatory", 9, 3),
    ("oscillatory", 100, 4),
    ("smooth", 64, 8),
]


def test_uniform_nodes():
    mesh = build_mesh(MeshSpec(family="uniform", N=8, K=4))
    np.testing.assert_array_equal(mesh.repatoms, [-6, -4, -2, 0, 2, 4, 6, 8])
    np.testing.assert_array_equal(mesh.steps, 2)
    np.testing.assert_allclose(mesh.h, 0.25)
    assert mesh.kappa == 1.0
    with pytest.raises(MeshBuildError):
        build_mesh(MeshSpec(family="uniform", N=9, K=4))


def test_graded_nodes():
    mesh = build_mesh(MeshSpec(family="graded", N=8, K=4))
    np.testing.assert_array_equal(mesh.repatoms, [-4, -2, -1, 0, 1, 2, 4, 8])
    np.testing.assert_array_equal(mesh.steps, [4, 2, 1, 1, 1, 1, 2, 4])
    assert mesh.kappa == 2.0
    with pytest.raises(MeshBuildError):
        build_mesh(MeshSpec(family="graded", N=16, K=4))


def test_graded_kappa_always_two():
    for K in (4, 6, 10, 15):
        mesh = build_mesh(MeshSpec(family="graded", N=2 ** (K - 1), K=K))
        assert mesh.kappa == 2.0
        assert mesh.repatoms[-1] == 2 ** (K - 1)


def test_oscillatory_nodes_small():
    mesh = build_mesh(MeshSpec(family="oscillatory", N=9, K=3))
    np.testing.assert_array_equal(mesh.repatoms, [-6, -4, 0, 2, 6, 8])
    np.testing.assert_array_equal(mesh.steps, [4, 2, 4, 2, 4, 2])
    assert mesh.kappa == 2.0


def test_oscillatory_remainder_widens_wrap_elements():
    mesh = build_mesh(MeshSpec(family="oscillatory", N=100, K=4))
    np.testing.assert_array_equal(mesh.steps, [20, 32, 16, 32, 16, 32, 16, 36])
    assert mesh.steps.sum() == 200
    assert mesh.repatoms[3] == 0
    with pytest.raises(MeshBuildError):
        build_mesh(MeshSpec(family="oscillatory", N=8, K=6))  # 2N < 3K


def test_element_sizes_cover_the_period():
    for family, N, K in _FAMILY_CASES:
        mesh = build_mesh(MeshSpec(family=family, N=N, K=K))
        assert mesh.steps.sum() == 2 * N
        assert mesh.h.sum() == pytest.approx(2.0, abs=1e-12)
        assert mesh.repatoms[K - 1] == 0


def test_smooth_family():
    uniform = build_mesh(MeshSpec(family="smooth", N=64, K=8, amplitude=0.0))
    np.testing.assert_array_equal(uniform.repatoms,
                                  build_mesh(MeshSpec(family="uniform", N=64, K=8)).repatoms)
    warped = build_mesh(MeshSpec(family="smooth", N=64, K=8, amplitude=0.2))
    assert warped.kappa > 1.0
    with pytest.raises(MeshBuildError):
        build_mesh(MeshSpec(family="smooth", N=8, K=4, amplitude=0.3))  # rounding collision
    for amplitude in (0.4, float("nan")):  # not monotone, not a number
        with pytest.raises(MeshBuildError, match="amplitude"):
            build_mesh(MeshSpec(family="smooth", N=1024, K=8, amplitude=amplitude))


def test_custom_rotation_relabels_site_zero():
    mesh = build_mesh(MeshSpec(family="custom", N=4, K=2, indices=(0, 2, 4, 6)))
    np.testing.assert_array_equal(mesh.repatoms, [-2, 0, 2, 4])  # -2 == 6 (mod 8)
    assert mesh.repatoms[1] == 0  # node 0 at slot K-1 = 1
    assert mesh.steps.sum() == 8


def test_custom_validation():
    with pytest.raises(MeshBuildError):
        build_mesh(MeshSpec(family="custom", N=4, K=2, indices=(-3, 2, 5)))  # odd count
    with pytest.raises(MeshBuildError):
        build_mesh(MeshSpec(family="custom", N=4, K=2, indices=(-3, 1, 2, 5)))  # no site 0
    with pytest.raises(MeshBuildError):
        build_mesh(MeshSpec(family="custom", N=4, K=2, indices=(0, 2, 5, 9)))  # > one period
    with pytest.raises(MeshBuildError):
        build_mesh(MeshSpec(family="custom", N=4, K=2, indices=None))
    with pytest.raises(UnknownFamily):
        MeshSpec(family="chebyshev", N=8, K=4)


def test_mesh_validation():
    with pytest.raises(MeshBuildError):
        CoarseMesh(N=8, K=4, repatoms=np.array([-6, -4, -2, 1, 2, 4, 6, 8]))  # no site 0
    with pytest.raises(MeshBuildError):
        CoarseMesh(N=8, K=4, repatoms=np.array([-6, -4, -4, 0, 2, 4, 6, 8]))
    with pytest.raises(ShapeMismatch):
        CoarseMesh(N=8, K=4, repatoms=np.array([-2, 0, 2]))
    with pytest.raises(MeshBuildError):
        # increasing list whose values cover more than one full period
        CoarseMesh(N=8, K=4, repatoms=np.array([-6, -4, -2, 0, 2, 4, 6, 10]))
    # the degenerate full-lattice mesh K = N is legal
    assert build_mesh(MeshSpec(family="uniform", N=2, K=2)).steps.sum() == 4


def test_parse_mesh_descriptor(tmp_path):
    assert parse_mesh_descriptor("smooth:0.25", 64, 8).amplitude == 0.25
    assert parse_mesh_descriptor("graded", 8, 4).family == "graded"
    listing = tmp_path / "nodes.txt"
    listing.write_text("# one index per line\n-3\n0\n2\n\n5\n")
    spec = parse_mesh_descriptor(f"custom:{listing}", 4, 2)
    assert spec.indices == (-3, 0, 2, 5)
    with pytest.raises(UnknownFamily):
        parse_mesh_descriptor("uniform:3", 8, 4)
    with pytest.raises(UnknownFamily):
        parse_mesh_descriptor("custom", 8, 4)
    with pytest.raises(UnknownFamily):
        parse_mesh_descriptor("smooth:wide", 8, 4)
    bad = tmp_path / "bad.txt"
    bad.write_text("12\nthree\n")
    with pytest.raises(MeshBuildError):
        load_custom_indices(bad)


def test_node_lookup_periodic_extension():
    mesh = build_mesh(MeshSpec(family="graded", N=8, K=4))
    assert mesh.node(0) == 0
    assert mesh.node(4) == 8
    assert mesh.node(5) == mesh.node(-3) + 16
    assert mesh.node_slot(0) == 3
    np.testing.assert_array_equal(mesh.node(np.array([-3, 0, 4])), [-4, 0, 8])


def test_element_of_slot_brute():
    rng = np.random.default_rng(8)
    for _ in range(3):
        mesh, N = random_custom_mesh(rng)
        owners = mesh.element_of_slot()
        for ell in range(-N + 1, N + 1):
            # element t owns (node_{t-K}, node_{t-K+1}] shifted periodically
            t = int(owners[int(slot_of_site(ell, N))])
            k = t - (mesh.K - 1)
            lo, hi = mesh.node(k - 1), mesh.node(k)
            shifted = lo + (ell - lo) % (2 * N)
            assert lo < shifted <= hi


def test_basis_partition_of_unity():
    rng = np.random.default_rng(9)
    for _ in range(3):
        mesh, N = random_custom_mesh(rng)
        sites = np.arange(-N + 1, N + 1)
        total = sum(basis_value(mesh, k, sites) for k in range(-mesh.K + 1, mesh.K + 1))
        np.testing.assert_allclose(total, 1.0, atol=1e-14)


def test_basis_values_pointwise():
    mesh = build_mesh(MeshSpec(family="uniform", N=8, K=4))
    assert basis_value(mesh, 1, 2) == 1.0  # node 1 sits at site 2
    assert basis_value(mesh, 1, 1) == 0.5
    assert basis_value(mesh, 1, 4) == 0.0
    for j in range(-3, 5):
        for i in range(-3, 5):
            expected = 1.0 if i == j else 0.0
            assert basis_value(mesh, j, int(mesh.node(i))) == expected


def test_prolong_matches_affine_interpolation():
    rng = np.random.default_rng(10)
    mesh, N = random_custom_mesh(rng)
    x = lattice_coordinates(N)
    g = x * x - np.abs(x)  # vanishes at x = 0 and x = 1, 2-periodic
    V = NodalField(mesh=mesh, values=g[slot_of_site(mesh.repatoms, N)])
    vh = prolong(V)
    # brute interpolation per site through the owning element
    owners = mesh.element_of_slot()
    for ell in range(-N + 1, N + 1):
        t = int(owners[int(slot_of_site(ell, N))])
        k = t - (mesh.K - 1)
        lo, hi = int(mesh.node(k - 1)), int(mesh.node(k))
        d = (ell - lo) % (2 * N)
        lam = d / (hi - lo)
        expected = (1 - lam) * float(V.at(k - 1)) + lam * float(V.at(k))
        assert vh.at(ell) == pytest.approx(expected, abs=1e-14)
    # node slots carry the nodal values bitwise
    np.testing.assert_array_equal(vh.at(mesh.repatoms), V.values)


def test_prolong_energy_identity():
    rng = np.random.default_rng(13)
    mesh, N = random_custom_mesh(rng)
    model = make_model(N)
    vals = rng.normal(size=2 * mesh.K)
    vals[mesh.K - 1] = 0.0
    V = NodalField(mesh=mesh, values=vals)
    lattice_side = stored_energy(model, prolong(V))
    nodal_side = float(np.sum(mesh.h * model.potential.value(V.gradients())))
    assert lattice_side == pytest.approx(nodal_side, rel=1e-12)


def test_exact_load_constant_force():
    rng = np.random.default_rng(14)
    mesh, N = random_custom_mesh(rng)
    model = make_model(N, force="const:1")
    g = 0.5 * (mesh.h + np.roll(mesh.h, -1))
    np.testing.assert_allclose(exact_load(mesh, model), g, atol=1e-14)


def test_exact_load_brute():
    rng = np.random.default_rng(15)
    mesh, N = random_custom_mesh(rng)
    model = make_model(N, force="gauss:3,40")
    sites = np.arange(-N + 1, N + 1)
    brute = np.array([
        model.epsilon * np.dot(model.force.samples[slot_of_site(sites, N)],
                               basis_value(mesh, k, sites))
        for k in range(-mesh.K + 1, mesh.K + 1)
    ])
    np.testing.assert_allclose(exact_load(mesh, model), brute, atol=1e-14)


def test_nodal_field_validation():
    mesh = build_mesh(MeshSpec(family="uniform", N=8, K=4))
    with pytest.raises(ShapeMismatch):
        NodalField(mesh=mesh, values=np.zeros(5))
    bad = np.zeros(8)
    bad[3] = 1.0
    with pytest.raises(ConstraintViolation):
        NodalField(mesh=mesh, values=bad)


def test_smoothness_uniform_is_zero():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=8))
    np.testing.assert_array_equal(smoothness_profile(mesh).coefficients, 0.0)


def test_smoothness_graded_table():
    mesh = build_mesh(MeshSpec(family="graded", N=8, K=4))
    expected = [-0.125, 0.125, 0.25, 0.0, 0.0, 0.25, 0.125, -0.125]
    np.testing.assert_array_equal(smoothness_profile(mesh).coefficients, expected)


def test_smoothness_oscillatory_table():
    # h = m/N is never dyadic here (N has a factor 3), so the coefficients
    # carry one ulp of rounding; the placement itself is exact
    mesh = build_mesh(MeshSpec(family="oscillatory", N=96, K=4))
    k = np.arange(-3, 5)
    expected = np.where(k % 2 == 0, -0.25, 0.5)
    np.testing.assert_allclose(smoothness_profile(mesh).coefficients, expected,
                               rtol=0, atol=1e-15)
