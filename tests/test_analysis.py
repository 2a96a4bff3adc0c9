"""Error estimators, convergence tables, and the reproduced experiments."""

import numpy as np
import pytest

from qclab import (
    ChainModel,
    ClusterRule,
    ConvergenceTable,
    MeshSpec,
    NodalField,
    ShapeMismatch,
    UnknownFamily,
    assemble_weight_system,
    build_mesh,
    consistency_estimate,
    convergence_study,
    energy_norm,
    error_report,
    force_scaling_study,
    gradient_alternation,
    harmonic_potential,
    load_defect,
    predicted_relative_band,
    sample_force,
    smooth_mesh_consistency,
    smoothness_profile,
    solve_atomistic,
    solve_constrained,
    solve_energy_cluster,
    solve_weights,
    stored_energy,
    energy_cluster_functional,
)
from conftest import galerkin_defect, make_model, random_custom_mesh


def qc_solve(mesh, force="sinpi", r=0):
    model = make_model(mesh.N, force=force)
    weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=r)))
    constrained = solve_constrained(model, mesh).solution
    qc = solve_energy_cluster(model, weights).solution
    return model, weights, constrained, qc


def test_consistency_vanishes_on_uniform_meshes():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=8))
    rng = np.random.default_rng(31)
    values = rng.normal(size=2 * mesh.K)
    values[mesh.K - 1] = 0.0
    est = consistency_estimate(NodalField(mesh=mesh, values=values))
    assert est["consistency"] == 0.0
    assert est["mean"] == 0.0


def test_consistency_centred_and_raw_forms_agree():
    # sum h (w - mean)^2 = sum h w^2 - 2 mean^2 because the sizes sum to 2
    rng = np.random.default_rng(32)
    for _ in range(5):
        mesh, _ = random_custom_mesh(rng)
        values = rng.normal(size=2 * mesh.K)
        values[mesh.K - 1] = 0.0
        field = NodalField(mesh=mesh, values=values)
        est = consistency_estimate(field)
        weighted = smoothness_profile(mesh) * field.gradients()
        raw = float(np.dot(mesh.h, weighted ** 2))
        np.testing.assert_allclose(
            est["consistency"] ** 2 + 2.0 * est["mean"] ** 2, raw, rtol=1e-10
        )


def test_consistency_sandwich_brackets_the_cluster_error():
    rng = np.random.default_rng(33)
    cases = [
        build_mesh(MeshSpec(family="graded", N=2 ** 10, K=11)),
        build_mesh(MeshSpec(family="oscillatory", N=1200, K=8)),
    ]
    cases.extend(random_custom_mesh(rng)[0] for _ in range(3))
    for mesh in cases:
        _, _, constrained, qc = qc_solve(mesh, force="sinpi", r=0)
        est = consistency_estimate(constrained)
        err = energy_norm(NodalField(mesh=mesh, values=qc.values - constrained.values))
        slack = 1e-10 * max(est["consistency"], err)
        assert 0.5 * (1.0 + 1.0 / mesh.kappa) * err <= est["consistency"] + slack
        assert est["consistency"] <= 0.5 * (1.0 + mesh.kappa) * err + slack
        assert est["sandwich_lower"] <= err + slack
        assert err <= est["sandwich_upper"] + slack


def test_predicted_band_closed_forms():
    lower, upper = predicted_relative_band("graded", 2.0)
    np.testing.assert_allclose((lower, upper), (1.0 / 12.0, 1.0 / 6.0), rtol=1e-15)
    assert predicted_relative_band("uniform", 1.0) is None
    assert predicted_relative_band("smooth", 1.2) is None


def test_galerkin_orthogonality_of_constrained_solve():
    N = 2 ** 14
    model = ChainModel(
        N=N, potential=harmonic_potential(), force=sample_force("gauss:1e4,1e4", N)
    )
    mesh = build_mesh(MeshSpec(family="graded", N=N, K=15))
    atom = solve_atomistic(model).solution
    constrained = solve_constrained(model, mesh).solution
    assert galerkin_defect(model, atom, constrained) <= 1e-10


def test_galerkin_defect_vanishes_on_full_lattice():
    N = 24
    model = make_model(N, force="gauss:2,25")
    mesh = build_mesh(MeshSpec(family="uniform", N=N, K=N))
    atom = solve_atomistic(model).solution
    constrained = solve_constrained(model, mesh).solution
    assert galerkin_defect(model, atom, constrained) <= 1e-12


def test_estimators_reject_a_model_of_another_size():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))
    _, _, constrained, qc = qc_solve(mesh)
    small = make_model(32)
    atom = solve_atomistic(small).solution
    with pytest.raises(ShapeMismatch):
        error_report(small, atom, constrained, qc, 0.0)
    with pytest.raises(ShapeMismatch):
        galerkin_defect(small, atom, constrained)
    # the model matches the mesh, the atomistic solution does not
    with pytest.raises(ShapeMismatch):
        galerkin_defect(make_model(64), atom, constrained)


def test_error_report_of_the_constrained_solution_itself():
    mesh = build_mesh(MeshSpec(family="graded", N=256, K=9))
    model, weights, constrained, qc = qc_solve(mesh)
    atom = solve_atomistic(model).solution
    qc_energy = energy_cluster_functional(model, weights, qc)
    report = error_report(model, atom, constrained, constrained, qc_energy, family="graded")
    assert report["energy_norm_rel"] == 0.0
    exact = stored_energy(model, atom)
    np.testing.assert_allclose(
        report["energy_rel"], (qc_energy - exact) / abs(exact), rtol=1e-15
    )
    assert report["predicted_band"] is not None
    assert report["reference_norm"] == energy_norm(constrained)
    est = consistency_estimate(constrained)
    assert list(est) == ["mean", "consistency", "sandwich_lower", "sandwich_upper"]
    assert {key: report[key] for key in est} == est


def test_error_report_skips_energy_ratio_without_stored_energy():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))
    model, _, constrained, qc = qc_solve(mesh, force="const:0")
    atom = solve_atomistic(model).solution
    report = error_report(model, atom, constrained, qc, 0.0)
    assert report["energy_rel"] is None
    assert report["predicted_band"] is None


def test_error_report_rejects_a_solution_on_another_mesh():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))
    model, _, constrained, qc = qc_solve(mesh)
    other = build_mesh(MeshSpec(family="oscillatory", N=64, K=4))
    foreign = NodalField(mesh=other, values=qc.values)
    atom = solve_atomistic(model).solution
    with pytest.raises(ShapeMismatch):
        error_report(model, atom, constrained, foreign, 0.0)


def test_convergence_table_recovers_power_law():
    h = np.array([1.0, 0.5, 0.25, 0.125])
    table = ConvergenceTable(
        parameter="h", metric="synthetic", parameters=h, values=3.0 * h ** 1.7
    )
    np.testing.assert_allclose(table.rates(), 1.7, rtol=1e-12)
    np.testing.assert_allclose(table.fit_rate(), 1.7, rtol=1e-12)
    short = ConvergenceTable(
        parameter="h", metric="synthetic", parameters=h[:1], values=h[:1]
    )
    assert short.rates().size == 0 and np.isnan(short.fit_rate())
    # no rate is defined for a zero value or for a parameter that does not move
    zeros = ConvergenceTable(parameter="h", metric="synthetic", parameters=h,
                             values=np.zeros(4))
    assert zeros.rates().size == 0 and np.isnan(zeros.fit_rate())
    fixed = ConvergenceTable(parameter="h", metric="synthetic", parameters=np.full(4, 0.5),
                             values=3.0 * h ** 1.7)
    assert fixed.rates().size == 0 and np.isnan(fixed.fit_rate())


def test_convergence_study_samples_each_force_once(monkeypatch):
    import qclab.analysis

    sampled = []

    def counting(spec, N):
        sampled.append((spec, N))
        return sample_force(spec, N)

    monkeypatch.setattr(qclab.analysis, "sample_force", counting)
    table = convergence_study("consistency", "smooth", "sinpi",
                              [(256, 8, 0), (256, 16, 0), (512, 8, 0), (512, 4, 0)])
    assert sampled == [("sinpi", 256), ("sinpi", 512)]
    assert table.parameter == "h_max" and table.metric == "consistency"
    assert table.values.shape == (4,)


def test_weight_gap_study_samples_no_lattice(monkeypatch):
    import qclab.analysis

    def refuse(spec, N):
        raise AssertionError(f"sampled {spec!r} on N = {N}")

    monkeypatch.setattr(qclab.analysis, "sample_force", refuse)
    table = convergence_study("weight-gap", "uniform", "sinpi", [(2 ** 40, 64, 1)])
    assert table.parameter == "epsilon"
    assert table.parameters.tolist() == [2.0 ** -40]
    assert table.values.shape == (1,)


def test_convergence_study_rejects_an_unknown_metric():
    with pytest.raises(UnknownFamily):
        convergence_study("energy", "uniform", "sinpi", [(64, 4, 0)])


def test_smooth_mesh_consistency_reference_values():
    table = smooth_mesh_consistency(2 ** 14, (8, 16, 32))
    np.testing.assert_allclose(
        table.values, (6.6579e-3, 1.7049e-3, 5.0022e-4), rtol=1e-3
    )


def test_smooth_mesh_consistency_is_second_order_above_noise_floor():
    # integer node rounding floors the estimator near eps*K; at this lattice
    # size all four meshes stay above it and the quadratic decay is clean
    table = smooth_mesh_consistency(2 ** 18, (8, 16, 32, 64))
    assert table.fit_rate() >= 1.9
    assert np.all(table.rates() >= 1.9)


def test_smooth_mesh_amplitude_zero_is_uniform():
    table = smooth_mesh_consistency(256, (4, 8), amplitude=0.0)
    np.testing.assert_array_equal(table.values, 0.0)
    # no rate is defined for a vanishing error: nan, without a RuntimeWarning
    assert table.rates().size == 0 and np.isnan(table.fit_rate())


def test_smooth_profile_quadratic_bound():
    # |coefficients| <= ~ C h_max^2 with C = pi^3 a / (4 (1 - pi a)) for the
    # sinusoidal node map of amplitude a
    amplitude = 0.2
    C = 0.25 * amplitude * np.pi ** 3 / (1.0 - amplitude * np.pi)
    for K in (8, 16, 32):
        mesh = build_mesh(
            MeshSpec(family="smooth", N=2 ** 14, K=K, amplitude=amplitude)
        )
        profile = smoothness_profile(mesh)
        assert np.max(np.abs(profile)) <= 1.2 * C * float(np.max(mesh.h)) ** 2


def test_load_defect_refinement_rate():
    table = convergence_study("load-defect", "uniform", "sinpi",
                              [(1024, K, 1) for K in (8, 16, 32, 64)])
    np.testing.assert_allclose(table.values[0], 1.5489e-3, rtol=1e-3)
    assert np.all(np.diff(table.values) < 0)
    assert table.fit_rate() >= 2.5
    assert np.all(table.rates() >= 1.8)


def test_load_defect_of_affine_force_under_product_sampling():
    # sampling force times hat over clusters is quadratically, not exactly,
    # accurate for an affine force profile: the product is piecewise quadratic
    model = make_model(1024, force="lin:0.3,0.7")
    mesh = build_mesh(MeshSpec(family="uniform", N=1024, K=4))
    weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=1)))
    assert load_defect(model, weights) > 1e-3


def test_gradient_alternation_on_the_oscillatory_mesh():
    mesh = build_mesh(MeshSpec(family="oscillatory", N=10 ** 4, K=20))
    _, _, constrained, qc = qc_solve(mesh)
    alternating, pairs = gradient_alternation(constrained, qc)
    assert alternating
    assert pairs == 33


def test_gradient_alternation_synthetic_patterns():
    mesh = build_mesh(MeshSpec(family="uniform", N=16, K=4))
    n = 2 * mesh.K
    zigzag = np.cumsum(mesh.h * (-1.0) ** np.arange(n))
    zigzag -= zigzag[mesh.K - 1]
    base = NodalField(mesh=mesh, values=zigzag)

    def shifted(pattern):
        gap = np.cumsum(mesh.h * 0.01 * pattern)
        gap -= gap[mesh.K - 1]
        return NodalField(mesh=mesh, values=zigzag + gap)

    good = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    assert gradient_alternation(base, shifted(good)) == (True, 5)
    bad = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
    assert gradient_alternation(base, shifted(bad)) == (False, 5)


def test_force_scaling_study_reference_values():
    study = force_scaling_study(2 ** 12, (8, 16, 32, 64), r=1)
    np.testing.assert_allclose(study["ratio_predicted"], 3.0 * study["K"] / 2 ** 12)
    assert abs(study["ratio_measured"][1] / study["ratio_predicted"][1] - 1.0) <= 0.02
    scaled = ConvergenceTable(parameter="h", metric="scaled deviation",
                              parameters=study["h"], values=study["deviation_scaled"])
    np.testing.assert_allclose(scaled.rates(), (2.013, 2.023, 2.047), atol=0.02)
    assert scaled.fit_rate() >= 1.8
    # without rescaling the 1/h growth eats one order
    absolute = ConvergenceTable(parameter="h", metric="absolute deviation",
                                parameters=study["h"], values=study["deviation_absolute"])
    np.testing.assert_allclose(absolute.fit_rate(), 1.027, atol=0.05)
