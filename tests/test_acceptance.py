"""Acceptance gate: the quantitative claims the package must reproduce.

Each test prints one CRITERION line (PASS or FAIL) outside the capture so the
verdicts are visible in any pytest run, then asserts.  Criterion 8 states a
second-order decay requirement at a lattice size where integer rounding of
the node positions floors the estimator; it is kept as stated and fails
honestly.  The supplementary evidence that the implementation itself is
second order (the same study at a finer lattice) passes in test_analysis.
"""

import time

import numpy as np

from qclab import (
    ChainModel,
    ClusterRule,
    ConvergenceTable,
    Displacement,
    MeshSpec,
    NodalField,
    assemble_weight_system,
    build_mesh,
    consistency_estimate,
    convergence_study,
    energy_cluster_functional,
    energy_norm,
    error_report,
    force_scaling_study,
    gradient_alternation,
    harmonic_potential,
    lattice_coordinates,
    load_defect,
    quartic_potential,
    sample_force,
    slot_of_site,
    smooth_mesh_consistency,
    smoothness_profile,
    solve_atomistic,
    solve_constrained,
    solve_energy_cluster,
    solve_force_cluster,
    solve_weights,
    verify_exactness,
)
from conftest import (
    assemble_cluster_forces,
    dense_atomistic,
    dense_chain,
    fd_site_force,
    make_model,
    random_custom_mesh,
    site_forces,
)
from qclab.cli import _audit_meshes
from qclab.mesh import exact_load
from qclab.solve import cluster_load, effective_stiffness


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _rates_reach(table, bound):
    """Every pairwise rate of the table is defined and at least bound."""
    rates = table.rates()
    return rates.size == table.values.size - 1 and bool(np.all(rates >= bound))


def test_rate_criterion_fails_without_rates():
    h = np.array([1.0, 0.5, 0.25, 0.125])
    decaying = ConvergenceTable(parameter="h", metric="synthetic", parameters=h, values=h ** 2)
    assert _rates_reach(decaying, 1.8)
    # rates() is empty for these tables; the criterion must not pass vacuously
    zeros = ConvergenceTable(parameter="h", metric="synthetic", parameters=h,
                             values=np.array([1e-3, 0.0, 0.0, 0.0]))
    assert not _rates_reach(zeros, 1.8)
    fixed = ConvergenceTable(parameter="h", metric="synthetic", parameters=np.full(4, 0.5),
                             values=h ** 2)
    assert not _rates_reach(fixed, 1.8)


def _figure_pipeline(family, N, K, force_spec):
    model = ChainModel(N=N, potential=harmonic_potential(),
                       force=sample_force(force_spec, N))
    mesh = build_mesh(MeshSpec(family=family, N=N, K=K))
    weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=0)))
    atomistic = solve_atomistic(model).solution
    constrained = solve_constrained(model, mesh).solution
    qc = solve_energy_cluster(model, weights).solution
    report = error_report(
        model, atomistic, constrained, qc,
        energy_cluster_functional(model, weights, qc), family=family,
    )
    return model, mesh, constrained, qc, report


def test_c01_graded_mesh_profile(capsys):
    started = time.perf_counter()
    _, _, _, _, report = _figure_pipeline("graded", 2 ** 14, 15, "gauss:1e4,1e4")
    elapsed = time.perf_counter() - started
    ok = (
        0.10 <= report["energy_norm_rel"] <= 0.13
        and -0.16 <= report["energy_rel"] <= -0.10
        and elapsed < 5.0
    )
    _verdict(
        capsys, 1, ok,
        f"energy_norm_rel={report['energy_norm_rel']:.4f} in [0.10,0.13], "
        f"energy_rel={report['energy_rel']:.4f} in [-0.16,-0.10], "
        f"runtime {elapsed:.2f}s < 5s",
    )


def test_c02_oscillatory_mesh_profile(capsys):
    _, _, constrained, qc, report = _figure_pipeline("oscillatory", 10 ** 4, 20, "sinpi")
    alternating, pairs = gradient_alternation(constrained, qc)
    ok = (
        0.30 <= report["energy_norm_rel"] <= 0.36
        and 0.08 <= report["energy_rel"] <= 0.12
        and alternating
        and pairs > 0
    )
    _verdict(
        capsys, 2, ok,
        f"energy_norm_rel={report['energy_norm_rel']:.4f} in [0.30,0.36], "
        f"energy_rel={report['energy_rel']:.4f} in [0.08,0.12], "
        f"gradient error alternates over {pairs} bulk element pairs",
    )


def test_c03_estimator_sandwich(capsys):
    cases = [
        _figure_pipeline("graded", 2 ** 14, 15, "gauss:1e4,1e4"),
        _figure_pipeline("oscillatory", 10 ** 4, 20, "sinpi"),
    ]
    rng = np.random.default_rng(20260816)
    forces = ["sinpi", "gauss:3,40"]
    for i in range(5):
        mesh, _ = random_custom_mesh(rng)
        model = make_model(mesh.N, force=forces[i % 2])
        weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=0)))
        constrained = solve_constrained(model, mesh).solution
        qc = solve_energy_cluster(model, weights).solution
        cases.append((model, mesh, constrained, qc, None))
    worst = 0.0
    ok = True
    for model, mesh, constrained, qc, _ in cases:
        value = consistency_estimate(constrained)["consistency"]
        err = energy_norm(NodalField(mesh=mesh, values=qc.values - constrained.values))
        slack = 1e-10 * max(value, err)
        lower = 0.5 * (1.0 + 1.0 / mesh.kappa) * err
        upper = 0.5 * (1.0 + mesh.kappa) * err
        ok = ok and (lower <= value + slack) and (value <= upper + slack)
        worst = max(worst, lower - value, value - upper)
    _verdict(
        capsys, 3, ok,
        f"estimator within the equivalence sandwich on 2 figure meshes and 5 "
        f"random meshes (worst overshoot {worst:.2e} <= 1e-10 relative slack)",
    )


def test_c04_force_rule_scaling(capsys):
    study = force_scaling_study(2 ** 12, (8, 16, 32, 64), r=1)
    ratio_gap = abs(study["ratio_measured"][1] / study["ratio_predicted"][1] - 1.0)
    scaled = ConvergenceTable(parameter="h", metric="scaled deviation",
                              parameters=study["h"], values=study["deviation_scaled"])
    scaled_rates = scaled.rates()
    absolute_rate = ConvergenceTable(parameter="h", metric="absolute deviation",
                                     parameters=study["h"],
                                     values=study["deviation_absolute"]).fit_rate()
    ok = ratio_gap <= 0.02 and _rates_reach(scaled, 1.8)
    _verdict(
        capsys, 4, ok,
        f"gradient-norm ratio off prediction by {ratio_gap:.2e} <= 2% at K=16; "
        f"rescaled deviation decays at rates "
        f"{'/'.join(f'{r:.2f}' for r in scaled_rates)} >= 1.8 "
        f"(unscaled form loses one order: fit {absolute_rate:.2f})",
    )


def test_c05_rest_force_identity(capsys):
    mesh = build_mesh(MeshSpec(family="uniform", N=64, K=4))
    rng = np.random.default_rng(5)
    worst = 0.0
    for potential, radii in ((harmonic_potential(), (0, 1, 3)),
                             (quartic_potential(0.25), (1,))):
        model = ChainModel(N=64, potential=potential, force=sample_force("const:0", 64))
        for r in radii:
            weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=r)))
            for _ in range(10):
                values = rng.normal(size=2 * mesh.K)
                values[mesh.K - 1] = 0.0
                V = NodalField(mesh=mesh, values=values)
                assembled = assemble_cluster_forces(model, weights, V)
                stress = potential.deriv(V.gradients())
                predicted = weights.force * (stress - np.roll(stress, -1))
                worst = max(worst, float(np.max(np.abs(assembled - predicted))))
    ok = worst <= 1e-12
    _verdict(
        capsys, 5, ok,
        f"assembled cluster forces of unloaded nodal fields collapse to the "
        f"nodal stress jumps (max gap {worst:.2e} <= 1e-12, 40 random fields)",
    )


def test_c06_weight_system(capsys):
    worst_defect = 0.0
    worst_margin = np.inf
    bitwise_ok = True
    for label, mesh, radii in _audit_meshes():
        for r in radii:
            system = assemble_weight_system(ClusterRule(mesh=mesh, r=r))
            weights = solve_weights(system)
            worst_defect = max(worst_defect, verify_exactness(weights))
            worst_margin = min(worst_margin, float(np.min(system.dominance_margin())) - r)
            if r == 0 or mesh.kappa == 1.0:
                bitwise_ok = bitwise_ok and np.array_equal(
                    weights.energy_exact, weights.energy_lumped
                ) and np.all(weights.residual == 0.0)
    gaps = []
    for m in range(4):
        steps = np.array([4, 8, 16, 32, 32, 16, 8, 4]) * 2 ** m
        cums = np.cumsum(steps)
        spec = MeshSpec(family="custom", N=int(steps.sum() // 2), K=4,
                        indices=tuple(int(v) for v in cums - cums[3]))
        mesh = build_mesh(spec)
        gaps.append(solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=1))).gap_max)
    gaps = np.array(gaps)
    rates = np.log2(gaps[:-1] / gaps[1:])
    ok = (
        worst_defect <= 1e-10
        and worst_margin > 0.0
        and bool(np.all(rates >= 0.9))
        and bitwise_ok
    )
    _verdict(
        capsys, 6, ok,
        f"exactness defect <= {worst_defect:.2e}, dominance margin beats the "
        f"radius by {worst_margin:.2f}, lumping gap decays at rates "
        f"{'/'.join(f'{r:.2f}' for r in rates)} >= 0.9, "
        f"uniform/r=0 lumping is bitwise exact",
    )


def _graded_expected(K):
    out = np.empty(2 * K)
    for k in range(-K + 1, K + 1):
        if k in (0, 1):
            value = 0.0
        elif k in (-1, 2):
            value = 0.25
        elif k in (-K + 1, K):
            value = -0.125
        else:
            value = 0.125
        out[k + K - 1] = value
    return out


def test_c07_smoothness_tables(capsys):
    graded_ok = True
    for K in (4, 15):
        mesh = build_mesh(MeshSpec(family="graded", N=2 ** (K - 1), K=K))
        graded_ok = graded_ok and np.array_equal(
            smoothness_profile(mesh), _graded_expected(K)
        )
    mesh = build_mesh(MeshSpec(family="oscillatory", N=96, K=4))
    k_values = np.arange(-3, 5)
    expected = np.where(k_values % 2 == 0, -0.25, 0.5)
    # element sizes carry a factor 1/3, so the coefficients sit 1 ulp off
    # their dyadic limits; bitwise equality is impossible on this family
    osc = smoothness_profile(mesh)
    osc_ok = bool(np.max(np.abs(osc - expected)) <= 1e-15)
    uniform = smoothness_profile(build_mesh(MeshSpec(family="uniform", N=64, K=4)))
    uniform_ok = bool(np.all(uniform == 0.0))
    ok = graded_ok and osc_ok and uniform_ok
    _verdict(
        capsys, 7, ok,
        "graded coefficients match {0, 1/4, 1/8, -1/8} placement bitwise for "
        "K=4 and K=15; alternating mesh matches {-1/4 even, 1/2 odd} to 1e-15; "
        "uniform coefficients are identically zero",
    )


def test_c08_smooth_mesh_consistency_rate(capsys):
    table = smooth_mesh_consistency(2 ** 14, (8, 16, 32, 64))
    fit = table.fit_rate()
    rates = table.rates()
    ok = fit >= 1.9
    _verdict(
        capsys, 8, ok,
        f"consistency decay fit {fit:.3f} (pairwise "
        f"{'/'.join(f'{r:.2f}' for r in rates)}), requirement >= 1.9: the "
        f"K=64 mesh sits at the integer-rounding noise floor of the node "
        f"positions; the identical study at N=2**18 is cleanly second order",
    )


def test_c09_load_approximation(capsys):
    table = convergence_study("load-defect", "uniform", "sinpi",
                              [(1024, K, 1) for K in (8, 16, 32, 64)])
    rate_ok = _rates_reach(table, 1.8)

    steps = np.array([4, 8, 16, 32, 32, 16, 8, 4])
    cums = np.cumsum(steps)
    mesh = build_mesh(MeshSpec(family="custom", N=int(steps.sum() // 2), K=4,
                               indices=tuple(int(v) for v in cums - cums[3])))
    weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=1)))
    const_model = make_model(mesh.N, force="const:2")
    const_defect = load_defect(const_model, weights)

    # piecewise-affine integrands are summed exactly by the exact weights;
    # checked as a direct cluster quadrature of a triangle-wave profile
    worst_affine = 0.0
    for mesh2, radii in ((mesh, (1,)),
                         (build_mesh(MeshSpec(family="oscillatory", N=96, K=4)), (0, 1))):
        x = lattice_coordinates(mesh2.N)
        profile = 1.0 - np.abs(x)
        eps = 1.0 / mesh2.N
        exact_total = eps * float(np.sum(profile))
        for r in radii:
            rule2 = ClusterRule(mesh=mesh2, r=r)
            nu2 = solve_weights(assemble_weight_system(rule2)).force
            members = rule2.member_matrix()
            slots = (members + mesh2.N - 1) % (2 * mesh2.N)
            cluster_total = float(np.dot(nu2, np.sum(eps * profile[slots], axis=1)))
            worst_affine = max(worst_affine, abs(cluster_total - exact_total))

    ok = rate_ok and const_defect <= 1e-12 and worst_affine <= 1e-12
    _verdict(
        capsys, 9, ok,
        f"load defect decays at rates "
        f"{'/'.join(f'{r:.2f}' for r in table.rates())} >= 1.8; constant force "
        f"defect {const_defect:.2e} <= 1e-12; triangle-wave cluster quadrature "
        f"off by {worst_affine:.2e} <= 1e-12",
    )


def test_c10_small_lattice_oracles(capsys):
    worst_solver = 0.0
    model = make_model(32, force="gauss:2,25")
    report = solve_atomistic(model)
    worst_solver = max(worst_solver, float(np.max(np.abs(
        report.solution.values - dense_atomistic(model)))))

    rng = np.random.default_rng(10)
    mesh, _ = random_custom_mesh(rng)
    model = make_model(mesh.N, force="sinpi")
    load = exact_load(mesh, model)
    n = 2 * mesh.K
    constrained = solve_constrained(model, mesh)
    worst_solver = max(worst_solver, float(np.max(np.abs(
        constrained.solution.values
        - dense_chain(np.ones(n), np.ones(n), mesh.h, load, mesh.K - 1)))))

    weights = solve_weights(assemble_weight_system(ClusterRule(mesh=mesh, r=0)))
    energy = solve_energy_cluster(model, weights)
    a = effective_stiffness(weights)
    worst_solver = max(worst_solver, float(np.max(np.abs(
        energy.solution.values
        - dense_chain(a, np.ones(n), mesh.h, load, mesh.K - 1)))))

    force = solve_force_cluster(model, weights)
    ftilde = cluster_load(model, weights)
    worst_solver = max(worst_solver, float(np.max(np.abs(
        force.solution.values
        - dense_chain(np.ones(n), weights.force, mesh.h, ftilde, mesh.K - 1)))))

    worst_force = 0.0
    for potential in (harmonic_potential(), quartic_potential(0.25)):
        fd_model = ChainModel(N=16, potential=potential,
                              force=sample_force("gauss:2,25", 16))
        values = 0.3 * rng.normal(size=32)
        values[15] = 0.0
        v = Displacement(N=16, values=values)
        forces = site_forces(fd_model, v)
        for ell in (-7, 3, 11):
            gap = abs(forces[slot_of_site(ell, 16)] - fd_site_force(fd_model, v, ell))
            worst_force = max(worst_force, gap)
    ok = worst_solver <= 1e-10 and worst_force <= 1e-6
    _verdict(
        capsys, 10, ok,
        f"all four solvers match dense linear algebra to {worst_solver:.2e} "
        f"<= 1e-10; site forces match finite differences to {worst_force:.2e} "
        f"<= 1e-6",
    )
