"""Equilibrium solvers checked against dense linear algebra, closed forms,
and direct minimization."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import event, given, settings, strategies as st

from qclab import (
    ChainModel,
    ClusterRule,
    ConvexityLoss,
    Displacement,
    IllPosed,
    MeshSpec,
    NodalField,
    PairPotential,
    ShapeMismatch,
    WeightSet,
    assemble_weight_system,
    build_mesh,
    cluster_load,
    consistency_estimate,
    effective_stiffness,
    energy_cluster_functional,
    energy_norm,
    exact_load,
    harmonic_potential,
    prolong,
    quartic_potential,
    sample_force,
    solve_atomistic,
    solve_constrained,
    solve_energy_cluster,
    solve_force_cluster,
    solve_weights,
    stored_energy,
)
from conftest import (
    assemble_cluster_forces,
    dense_atomistic,
    dense_chain,
    brute_hat_scatter,
    galerkin_defect,
    make_model,
    random_custom_mesh,
    site_forces,
    total_energy,
)
from test_cluster import graded_like_mesh


def cluster_setup(mesh, r, force="sinpi", potential=None):
    model = make_model(mesh.N, force=force, potential=potential)
    weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=r)))
    return model, weights


def test_atomistic_matches_dense_solve():
    for force in ("sinpi", "gauss:3,40", "lin:0.3,0.7"):
        model = make_model(24, force=force)
        report = solve_atomistic(model)
        np.testing.assert_allclose(
            report.solution.values, dense_atomistic(model), atol=1e-10
        )
        assert report.residual <= 1e-9
        assert report.iterations == 1
        assert report.method == "atomistic"


@pytest.mark.parametrize("N", [49, 98, 103, 161])
def test_atomistic_at_spacings_without_exact_inverse(N):
    assert (1.0 / N) * N != 1.0  # a valid lattice all the same
    model = make_model(N)
    report = solve_atomistic(model)
    np.testing.assert_allclose(report.solution.values, dense_atomistic(model), atol=1e-10)


def test_atomistic_sine_closed_form():
    # single-harmonic load has an explicit lattice equilibrium
    N = 32
    model = make_model(N)
    report = solve_atomistic(model)
    eps = model.epsilon
    sites = np.arange(-N + 1, N + 1)
    amplitude = eps ** 2 / (2.0 - 2.0 * math.cos(math.pi * eps))
    exact = amplitude * np.sin(math.pi * eps * sites)
    np.testing.assert_allclose(report.solution.values, exact, atol=1e-13)


def test_reaction_balances_stress_kink():
    # the pinned site carries the jump of the stress across it
    model = make_model(40, force="gauss:3,40")
    report = solve_atomistic(model)
    t = report.solution.strains()  # harmonic stress equals strain
    kink = t[model.N - 1] - t[model.N]
    np.testing.assert_allclose(
        kink, report.reaction + model.epsilon * float(model.force.at(0)), atol=1e-12
    )


def test_reaction_equals_negative_total_load():
    mesh = graded_like_mesh(0)
    model, weights = cluster_setup(mesh, 1, force="gauss:1,30")
    load = exact_load(mesh, model)
    scale = 1.0 + float(np.max(np.abs(load)))
    atom = solve_atomistic(model)
    np.testing.assert_allclose(
        atom.reaction, -model.epsilon * np.sum(model.force.samples),
        atol=1e-10 * scale,
    )
    for report in (
        solve_constrained(model, mesh),
        solve_energy_cluster(model, weights),
    ):
        np.testing.assert_allclose(report.reaction, -np.sum(load), atol=1e-10 * scale)


def test_constrained_matches_dense_solve():
    rng = np.random.default_rng(21)
    for _ in range(3):
        mesh, _ = random_custom_mesh(rng)
        model = make_model(mesh.N, force="gauss:2,25")
        report = solve_constrained(model, mesh)
        n = 2 * mesh.K
        dense = dense_chain(
            np.ones(n), np.ones(n), mesh.h, exact_load(mesh, model), mesh.K - 1
        )
        np.testing.assert_allclose(report.solution.values, dense, atol=1e-10)
        assert report.iterations == 1


def test_constrained_on_full_lattice_is_atomistic():
    N = 24
    mesh = build_mesh(MeshSpec(family="uniform", N=N, K=N))
    model = make_model(N, force="gauss:2,25")
    fine = solve_atomistic(model)
    coarse = solve_constrained(model, mesh)
    np.testing.assert_allclose(
        prolong(coarse.solution).values, fine.solution.values, atol=1e-12
    )


def test_energy_cluster_matches_dense_solve():
    mesh = graded_like_mesh(0)
    model, weights = cluster_setup(mesh, 1)
    report = solve_energy_cluster(model, weights)
    a = effective_stiffness(weights)
    dense = dense_chain(
        a, np.ones(2 * mesh.K), mesh.h, exact_load(mesh, model), mesh.K - 1
    )
    np.testing.assert_allclose(report.solution.values, dense, atol=1e-10)
    assert report.residual <= 1e-9


def test_force_cluster_matches_dense_solve():
    mesh = graded_like_mesh(0)
    model, weights = cluster_setup(mesh, 1)
    report = solve_force_cluster(model, weights)
    nu = weights.force
    ftilde = cluster_load(model, weights)
    dense = dense_chain(np.ones(2 * mesh.K), nu, mesh.h, ftilde, mesh.K - 1)
    np.testing.assert_allclose(report.solution.values, dense, atol=1e-10)
    assert report.residual <= 1e-9


def test_cluster_load_exact_for_constant_force():
    mesh = graded_like_mesh(0)
    model, weights = cluster_setup(mesh, 1, force="const:1")
    exact = exact_load(mesh, model)
    approx = cluster_load(model, weights)
    np.testing.assert_allclose(approx, exact, atol=1e-14)
    # lumped force weights lose that exactness on a nonuniform mesh
    lumped = cluster_load(model, weights.with_mode("lumped"))
    assert float(np.max(np.abs(lumped - exact))) > 1e-6


def test_cluster_load_matches_brute_scatter():
    rng = np.random.default_rng(22)
    mesh, _ = random_custom_mesh(rng)
    model, weights = cluster_setup(mesh, 0, force="gauss:2,25")
    brute = brute_hat_scatter(
        mesh, weights.rule, weights.force, model.epsilon * model.force.samples
    )
    np.testing.assert_allclose(cluster_load(model, weights), brute, atol=1e-13)


def test_assembled_forces_match_brute_scatter():
    rng = np.random.default_rng(23)
    mesh = graded_like_mesh(0)
    model, weights = cluster_setup(mesh, 1, force="gauss:2,25")
    values = rng.normal(size=2 * mesh.K)
    values[mesh.K - 1] = 0.0
    V = NodalField(mesh=mesh, values=values)
    assembled = assemble_cluster_forces(model, weights, V)
    brute = brute_hat_scatter(
        mesh, weights.rule, weights.force, site_forces(model, prolong(V))
    )
    np.testing.assert_allclose(assembled, brute, atol=1e-13)


def test_assembled_forces_at_rest_equal_negative_load():
    mesh = graded_like_mesh(0)
    model, weights = cluster_setup(mesh, 1, force="gauss:2,25")
    V = NodalField(mesh=mesh, values=np.zeros(2 * mesh.K))
    forces = assemble_cluster_forces(model, weights, V)
    np.testing.assert_allclose(
        forces, -cluster_load(model, weights), rtol=1e-14, atol=0.0
    )


def test_unloaded_chain_stays_at_rest():
    mesh = build_mesh(MeshSpec(family="uniform", N=240, K=4))
    for r in (0, 1, 3):
        model, weights = cluster_setup(mesh, r, force="const:0")
        for solver in (solve_energy_cluster, solve_force_cluster):
            report = solver(model, weights)
            assert float(np.max(np.abs(report.solution.values))) <= 1e-12
    model, weights = cluster_setup(
        mesh, 1, force="const:0", potential=quartic_potential(0.25)
    )
    report = solve_energy_cluster(model, weights)
    assert float(np.max(np.abs(report.solution.values))) <= 1e-12


def test_cluster_energy_identity_at_radius_zero():
    # with single-site clusters the summed energy is the exact energy of the
    # interpolant plus the smoothness-weighted potential per element
    from qclab import smoothness_profile

    rng = np.random.default_rng(24)
    mesh, _ = random_custom_mesh(rng)
    model, weights = cluster_setup(mesh, 0)
    values = rng.normal(size=2 * mesh.K)
    values[mesh.K - 1] = 0.0
    V = NodalField(mesh=mesh, values=values)
    summed = energy_cluster_functional(model, weights, V)
    exact = stored_energy(model, prolong(V))
    correction = float(
        np.dot(
            mesh.h * smoothness_profile(mesh),
            model.potential.value(V.gradients()),
        )
    )
    np.testing.assert_allclose(summed, exact + correction, rtol=1e-12)


def test_cluster_energy_exact_on_uniform_mesh():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))
    rng = np.random.default_rng(25)
    model, weights = cluster_setup(mesh, 3)
    values = rng.normal(size=2 * mesh.K)
    values[mesh.K - 1] = 0.0
    V = NodalField(mesh=mesh, values=values)
    summed = energy_cluster_functional(model, weights, V)
    exact = stored_energy(model, prolong(V))
    np.testing.assert_allclose(summed, exact, rtol=1e-14)


def test_energy_cluster_solution_minimizes_its_functional():
    mesh = graded_like_mesh(0)
    model, weights = cluster_setup(mesh, 1)
    load = exact_load(mesh, model)

    def functional(V):
        return energy_cluster_functional(model, weights, V) - float(
            np.dot(load, V.values)
        )

    U = solve_energy_cluster(model, weights).solution
    Ubar = solve_constrained(model, mesh).solution
    assert functional(U) <= functional(Ubar) + 1e-12


def test_force_cluster_gradient_deflation():
    # uniform lumped-or-exact force sampling scales the solution by
    # eps*(2r+1)/h, the cluster's covered fraction of each element
    N, K, r = 1024, 16, 1
    mesh = build_mesh(MeshSpec(family="uniform", N=N, K=K))
    model, weights = cluster_setup(mesh, r)
    U = solve_force_cluster(model, weights).solution
    Ubar = solve_constrained(model, mesh).solution
    ratio = energy_norm(U) / energy_norm(Ubar)
    predicted = model.epsilon * weights.rule.size / float(mesh.h[0])
    assert abs(ratio / predicted - 1.0) <= 0.02


def test_atomistic_quartic_matches_direct_minimization():
    N = 6
    model = make_model(N, potential=quartic_potential(0.25))
    report = solve_atomistic(model)
    assert report.iterations > 1
    pinned = N - 1
    free = [s for s in range(2 * N) if s != pinned]

    def pack(x):
        vals = np.zeros(2 * N)
        vals[free] = x
        return Displacement(N=N, values=vals)

    res = scipy.optimize.minimize(
        lambda x: total_energy(model, pack(x)),
        np.zeros(2 * N - 1),
        jac=lambda x: site_forces(model, pack(x))[free],
        method="BFGS",
        options={"gtol": 1e-10},
    )
    assert float(np.max(np.abs(site_forces(model, pack(res.x))[free]))) <= 1e-8
    np.testing.assert_allclose(report.solution.values[free], res.x, atol=1e-8)


def test_energy_cluster_quartic_is_a_critical_point():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))
    model, weights = cluster_setup(mesh, 1, potential=quartic_potential(0.25))
    report = solve_energy_cluster(model, weights)
    assert report.iterations > 1
    load = exact_load(mesh, model)

    def functional(vals):
        V = NodalField(mesh=mesh, values=vals)
        return energy_cluster_functional(model, weights, V) - float(
            np.dot(load, vals)
        )

    # central differences of the discrete functional must vanish at the
    # reported solution, pinned node excepted
    step = 1e-5
    base = np.array(report.solution.values)
    for j in range(2 * mesh.K):
        if j == mesh.K - 1:
            continue
        up, down = base.copy(), base.copy()
        up[j] += step
        down[j] -= step
        derivative = (functional(up) - functional(down)) / (2.0 * step)
        assert abs(derivative) <= 5e-9


def test_convexity_loss_is_reported():
    destabilized = PairPotential(
        value=lambda r: 0.5 * r ** 2 - r ** 4,
        deriv=lambda r: r - 4.0 * r ** 3,
        second=lambda r: 1.0 - 12.0 * r ** 2,
        is_quadratic=False,
        name="destabilized",
    )
    model = ChainModel(N=8, potential=destabilized, force=sample_force("const:5", 8))
    with pytest.raises(ConvexityLoss):
        solve_atomistic(model)


def test_nonpositive_stiffness_is_rejected():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))
    model, weights = cluster_setup(mesh, 1)
    bad_energy = np.array(weights.energy_exact)
    bad_energy[2] = -bad_energy[2]
    bad = WeightSet(
        rule=weights.rule,
        mode="exact",
        energy_exact=bad_energy,
        energy_lumped=weights.energy_lumped,
        residual=weights.residual,
    )
    with pytest.raises(IllPosed):
        solve_energy_cluster(model, bad)
    with pytest.raises(IllPosed):
        solve_force_cluster(model, bad)


def test_cluster_argument_validation():
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))
    _, weights = cluster_setup(mesh, 1)
    for solver in (solve_energy_cluster, solve_force_cluster):
        with pytest.raises(ShapeMismatch):
            solver(make_model(32), weights)


def test_constrained_best_approximation_rate():
    # quadratic energy: the constrained solution is the energy-norm
    # projection, so its error decays linearly in the element size
    N = 1024
    model = make_model(N)
    fine = solve_atomistic(model).solution
    errors = []
    for K in (8, 16, 32, 64):
        mesh = build_mesh(MeshSpec(family="uniform", N=N, K=K))
        coarse = prolong(solve_constrained(model, mesh).solution)
        gap = Displacement(N=N, values=coarse.values - fine.values)
        errors.append(energy_norm(gap))
    errors = np.array(errors)
    rates = np.log2(errors[:-1] / errors[1:])
    assert np.all(rates >= 0.95)


@st.composite
def custom_meshes(draw):
    """A custom mesh of K = 2..6 node pairs and steps of 3..30 sites, with
    lattice site 0 at any of its nodes."""
    K = draw(st.integers(2, 6), label="K")
    steps = draw(st.lists(st.integers(3, 30), min_size=2 * K, max_size=2 * K), label="steps")
    if sum(steps) % 2:  # 2N sites in all
        steps[-1] += 1 if steps[-1] < 30 else -1
    cums = np.cumsum(steps)
    zero = draw(st.integers(0, 2 * K - 1), label="node at site 0")
    indices = tuple(int(c) for c in cums - cums[zero])
    return build_mesh(MeshSpec(family="custom", N=sum(steps) // 2, K=K, indices=indices))


quarters = st.integers(-12, 12).map(lambda i: i / 4)
force_descriptors = st.one_of(
    st.just("sinpi"),
    st.builds("gauss:{},{}".format, quarters, st.integers(0, 60)),
    st.builds("const:{}".format, quarters),
    st.builds("lin:{},{}".format, quarters, quarters),
)


@settings(max_examples=150, deadline=None)
@given(mesh=custom_meshes(), force=force_descriptors, data=st.data(),
       mode=st.sampled_from(["exact", "lumped"]), beta=st.none() | st.floats(0.0, 2.0))
def test_solvers_agree_with_the_oracles_on_random_instances(mesh, force, data, mode, beta):
    """Harmonic draws (beta None): all four solvers match the dense solves,
    the constrained solve is Galerkin orthogonal to the atomistic one, and at
    r = 0 the estimator sandwich brackets the energy-cluster error.  Quartic
    draws: the atomistic solution's site forces vanish off the pinned site.

    A tight cluster (2r+1 equal to the smallest step) can make an exact
    weight vanish or turn negative.  solve_weights rejects a negative one;
    a vanishing force weight makes the force-cluster equations singular,
    and solve_force_cluster rejects it."""
    r = data.draw(st.integers(0, (int(np.min(mesh.steps)) - 1) // 2), label="r")
    potential = harmonic_potential() if beta is None else quartic_potential(beta)
    model = make_model(mesh.N, force=force, potential=potential)
    atomistic = solve_atomistic(model).solution
    constrained = solve_constrained(model, mesh).solution
    try:
        weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=r)))
    except IllPosed:
        event("exact weights not all positive")
        weights = None
    else:
        weights = weights.with_mode(mode)
        energy = solve_energy_cluster(model, weights).solution
        if np.min(weights.force) <= 1e-12 * np.max(weights.force):
            event("a force weight vanishes")
            with pytest.raises(IllPosed):
                solve_force_cluster(model, weights)
            forced = None
        else:
            forced = solve_force_cluster(model, weights).solution
    if beta is not None:
        # differenced values, not the solver's gradients, so a closure constant
        # that misses periodicity shows up at the wrap bond.  The closure
        # Newton stops at a gap of 1e-13 (1 + sum eps |g|); the wrap bond's
        # strain carries it times N, its force that times phi''.
        forces = site_forces(model, Displacement(N=model.N, values=atomistic.values))
        forces[model.N - 1] = 0.0
        assert float(np.max(np.abs(forces))) <= 1e-11 * model.N
        return
    n, load = 2 * mesh.K, exact_load(mesh, model)
    ones = np.ones(n)
    gaps = [atomistic.values - dense_atomistic(model),
            constrained.values - dense_chain(ones, ones, mesh.h, load, mesh.K - 1)]
    if energy_norm(atomistic) > 0.0:  # an unloaded chain has nothing to be orthogonal to
        assert galerkin_defect(model, atomistic, constrained) <= 1e-12
    if weights is not None:
        a = effective_stiffness(weights)
        gaps.append(energy.values - dense_chain(a, ones, mesh.h, load, mesh.K - 1))
        if forced is not None:
            ftilde = cluster_load(model, weights)
            gaps.append(forced.values
                        - dense_chain(ones, weights.force, mesh.h, ftilde, mesh.K - 1))
        if r == 0:
            est = consistency_estimate(constrained)
            err = energy_norm(NodalField(mesh=mesh, values=energy.values - constrained.values))
            slack = 1e-10 * max(est["consistency"], err)
            assert est["sandwich_lower"] <= err + slack and err <= est["sandwich_upper"] + slack
    assert max(float(np.max(np.abs(gap))) for gap in gaps) <= 1e-10
