"""Cluster rules and summation weights: assembly, exact solve, lumping."""

from dataclasses import replace

import numpy as np
import pytest

from qclab import (
    ClusterOverlap,
    ClusterRule,
    IllPosed,
    MeshSpec,
    ShapeMismatch,
    UnknownFamily,
    assemble_weight_system,
    build_mesh,
    slot_of_site,
    solve_weights,
    verify_exactness,
)
from conftest import dense_weight_matrix, random_custom_mesh


def graded_like_mesh(m):
    """Geometrically graded 8-element mesh, scalable by powers of two."""
    steps = np.array([4, 8, 16, 32, 32, 16, 8, 4]) * 2 ** m
    cums = np.cumsum(steps)
    reps = tuple(int(v) for v in (cums - cums[3]))
    return build_mesh(MeshSpec(family="custom", N=int(steps.sum() // 2), K=4, indices=reps))


def test_cluster_membership():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))  # step 16
    rule = ClusterRule(mesh=mesh, r=7)
    members = rule.member_matrix()
    assert members.shape == (8, 15)
    np.testing.assert_array_equal(members[slot_of_site(0, mesh.K)], np.arange(-7, 8))
    np.testing.assert_array_equal(members[slot_of_site(4, mesh.K)], 64 + np.arange(-7, 8))
    assert rule.size == 15
    with pytest.raises(ClusterOverlap):
        ClusterRule(mesh=mesh, r=8)  # 2r+1 = 17 > 16
    with pytest.raises(ShapeMismatch):
        ClusterRule(mesh=mesh, r=-1)


def test_cluster_overlap_on_refined_elements():
    mesh = build_mesh(MeshSpec(family="graded", N=8, K=4))  # smallest step 1
    assert ClusterRule(mesh=mesh, r=0).size == 1
    with pytest.raises(ClusterOverlap):
        ClusterRule(mesh=mesh, r=1)


def test_weight_system_matches_brute_assembly():
    rng = np.random.default_rng(16)
    for _ in range(4):
        mesh, _ = random_custom_mesh(rng)
        r = int(rng.integers(0, (np.min(mesh.steps) - 1) // 2 + 1))
        rule = ClusterRule(mesh=mesh, r=r)
        system = assemble_weight_system(rule)
        dense = dense_weight_matrix(mesh, rule)
        n = 2 * mesh.K
        structured = np.zeros((n, n))
        for j in range(n):
            structured[j, j] = system.diag[j]
            structured[j, j - 1] += system.sub[j]
            structured[j, (j + 1) % n] += system.sup[j]
        np.testing.assert_allclose(structured, dense, atol=1e-13)
        g = 0.5 * (mesh.h + np.roll(mesh.h, -1))
        np.testing.assert_allclose(system.g, g, atol=1e-15)


def test_exact_weights_match_dense_solve():
    for m in (0, 1):
        mesh = graded_like_mesh(m)
        rule = ClusterRule(mesh=mesh, r=1)
        system = assemble_weight_system(rule)
        weights = solve_weights(system)
        dense = np.linalg.solve(dense_weight_matrix(mesh, rule), np.asarray(system.g))
        np.testing.assert_allclose(weights.energy_exact, dense, rtol=1e-12)


def test_uniform_weights_collapse_to_lumping():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))
    for r in (0, 1, 3, 7):
        weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=r)))
        np.testing.assert_array_equal(weights.energy_exact, weights.energy_lumped)
        np.testing.assert_array_equal(weights.residual, 0.0)
        np.testing.assert_allclose(weights.energy_exact, 0.25 / (2 * r + 1), rtol=1e-15)
        assert weights.gap_max == 0.0


def test_radius_zero_weights_are_hat_masses():
    rng = np.random.default_rng(17)
    mesh, _ = random_custom_mesh(rng)
    weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=0)))
    g = 0.5 * (mesh.h + np.roll(mesh.h, -1))
    np.testing.assert_array_equal(weights.energy_exact, weights.energy_lumped)
    np.testing.assert_allclose(weights.energy_exact, g, rtol=1e-15)
    np.testing.assert_array_equal(weights.residual, 0.0)


def test_dominance_margin_exceeds_radius():
    cases = [
        (build_mesh(MeshSpec(family="uniform", N=64, K=4)), (0, 1, 3, 7)),
        (build_mesh(MeshSpec(family="graded", N=32, K=6)), (0,)),
        (build_mesh(MeshSpec(family="oscillatory", N=96, K=4)), (0, 1, 3, 7)),
        (graded_like_mesh(0), (0, 1)),
        (graded_like_mesh(2), (0, 1, 3, 7)),
    ]
    for mesh, radii in cases:
        for r in radii:
            system = assemble_weight_system(ClusterRule(mesh=mesh, r=r))
            assert float(np.min(system.dominance_margin())) > r


def test_a_near_singular_weight_system_is_rejected():
    # rows that nearly sum to zero: the refined solve cannot reach the rounding floor
    system = assemble_weight_system(ClusterRule(mesh=graded_like_mesh(0), r=1))
    near = replace(system, diag=-(system.sub + system.sup) * (1.0 + 1e-9))
    with pytest.raises(IllPosed, match="^weight system solve stalled at relative residual"):
        solve_weights(near)


def test_weights_that_change_sign_are_rejected():
    # a right side whose exact solution alternates in sign, on a well-posed system
    system = assemble_weight_system(ClusterRule(mesh=graded_like_mesh(0), r=1))
    signed = system.apply(np.where(np.arange(8) % 2 == 0, 1.0, -0.5))
    with pytest.raises(IllPosed, match="^computed cluster weights are not all positive"):
        solve_weights(replace(system, g=signed))


def test_exactness_defect_of_exact_weights():
    rng = np.random.default_rng(18)
    meshes = [random_custom_mesh(rng)[0] for _ in range(3)]
    meshes.append(graded_like_mesh(0))
    meshes.append(build_mesh(MeshSpec(family="oscillatory", N=96, K=4)))
    for mesh in meshes:
        max_r = int((np.min(mesh.steps) - 1) // 2)
        for r in {0, 1, max_r}:
            rule = ClusterRule(mesh=mesh, r=r)
            weights = solve_weights(assemble_weight_system(rule))
            assert verify_exactness(weights) <= 1e-10


def test_lumped_weights_exact_on_uniform():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))
    rule = ClusterRule(mesh=mesh, r=3)
    weights = solve_weights(assemble_weight_system(rule), "lumped")
    assert weights.mode == "lumped"
    assert verify_exactness(weights) <= 1e-12


def test_lumping_gap_bounded_by_residual():
    # the weight equations are diagonally dominant with margin > r, so the
    # lumping error is controlled by its own residual
    for m in (0, 1, 2):
        mesh = graded_like_mesh(m)
        rule = ClusterRule(mesh=mesh, r=1)
        weights = solve_weights(assemble_weight_system(rule))
        assert weights.gap_max <= np.max(np.abs(weights.residual)) / max(1, rule.r)
        assert weights.gap_max > 0.0


def test_lumping_gap_refinement_rate():
    gaps = []
    for m in range(4):
        mesh = graded_like_mesh(m)
        rule = ClusterRule(mesh=mesh, r=1)
        gaps.append(solve_weights(assemble_weight_system(rule)).gap_max)
    gaps = np.array(gaps)
    rates = np.log2(gaps[:-1] / gaps[1:])
    assert np.all(np.diff(gaps) < 0)
    assert np.all(rates >= 0.9)


def test_force_weights_are_scaled_energy_weights():
    mesh = graded_like_mesh(0)
    system = assemble_weight_system(ClusterRule(mesh=mesh, r=1))
    weights = solve_weights(system)
    np.testing.assert_array_equal(weights.force, weights.energy_exact * mesh.N)
    np.testing.assert_array_equal(solve_weights(system, "lumped").force,
                                  weights.energy_lumped * mesh.N)
    with pytest.raises(UnknownFamily):  # the code of every unknown name
        solve_weights(system, "averaged")


def test_mode_selection():
    mesh = graded_like_mesh(0)
    system = assemble_weight_system(ClusterRule(mesh=mesh, r=1))
    weights = solve_weights(system)
    assert weights.mode == "exact"
    np.testing.assert_array_equal(weights.energy, weights.energy_exact)
    lumped = solve_weights(system, "lumped")
    np.testing.assert_array_equal(lumped.energy, lumped.energy_lumped)
    assert lumped.gap_max == weights.gap_max
