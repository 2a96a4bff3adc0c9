"""A-posteriori estimators and convergence studies.

The central object is the mesh-consistency estimator: weight each element
gradient of the constrained solution by the element's smoothness coefficient,
subtract the mean forced by periodicity, and take the energy norm.  For
quadratic potentials with r = 0 clusters this quantity brackets the relative
energy-norm error of the cluster solution within factors set only by the
local mesh-size ratio kappa.  It costs O(K) once the constrained solution is
known, but that solve reads all 2N force samples (exact_load; ROADMAP item 14).
"""

from __future__ import annotations

import numpy as np

from .cluster import ClusterRule, WeightSet, assemble_weight_system, solve_weights
from .errors import QCLabError, UnknownFamily
from .mesh import MeshSpec, NodalField, build_mesh, check_field, check_lattice, exact_load
from .mesh import parse_mesh_descriptor, smoothness_profile
from .model import ChainModel, Displacement, energy_norm, harmonic_potential
from .model import sample_force, stored_energy
from .solve import cluster_load, solve_constrained, solve_energy_cluster, solve_force_cluster


def consistency_estimate(field: NodalField) -> dict[str, float]:
    """Smoothness-weighted fluctuation of a nodal gradient field.

    Returns ``mean``, the periodicity-forced average (half of sum_k h_k w_k,
    with w_k the element gradient times the element's smoothness coefficient);
    ``consistency``, sqrt(sum_k h_k (w_k - mean)^2); and ``sandwich_lower`` and
    ``sandwich_upper``, the consistency divided by the two-sided equivalence
    factors (1 + kappa^{+-1})/2: for a quadratic potential they bracket the
    energy-norm distance between the r = 0 cluster solution and the
    constrained solution (all four absolute, in the units of the energy norm).
    """
    mesh = field.mesh
    weighted = smoothness_profile(mesh) * field.gradients()
    mean = 0.5 * np.dot(mesh.h, weighted)  # h sums to 2 over the period
    value = float(np.sqrt(np.dot(mesh.h, (weighted - mean) ** 2)))
    return {
        "mean": float(mean),
        "consistency": value,
        "sandwich_lower": value / (0.5 * (1.0 + mesh.kappa)),
        "sandwich_upper": value / (0.5 * (1.0 + 1.0 / mesh.kappa)),
    }


def predicted_relative_band(family: str, kappa: float) -> tuple[float, float] | None:
    """Closed-form estimator values exist for two mesh families: the dyadic
    graded mesh (1/8) and the exactly alternating mesh (1/sqrt(8)).  The band
    divides them by the realized equivalence factors."""
    closed_form = {"graded": 0.125, "oscillatory": 1.0 / np.sqrt(8.0)}.get(family)
    if closed_form is None:
        return None
    return (closed_form / (0.5 * (1.0 + kappa)), closed_form / (0.5 * (1.0 + 1.0 / kappa)))


def error_report(model: ChainModel, atomistic: Displacement, constrained: NodalField,
                 qc: NodalField, qc_energy: float, family: str | None = None) -> dict:
    """Errors of a cluster solution against the constrained solution, plus
    the consistency certificate that predicts them: the ``errors`` block of a
    report, in its order.  ``energy_norm_rel``, ``energy_rel`` (None where the
    exact stored energy vanishes) and ``predicted_band`` (None unless family
    is graded or oscillatory) are relative; the four entries of
    ``consistency_estimate(constrained)`` are absolute, and ``reference_norm``,
    the energy norm of the constrained solution, converts between the two
    scales.  ``kappa`` is the mesh's size-ratio bound.
    """
    mesh = constrained.mesh
    check_lattice(model, mesh)
    check_field(mesh, qc)
    diff = NodalField(mesh=mesh, values=qc.values - constrained.values)
    reference = energy_norm(constrained)
    gap = energy_norm(diff)
    # an unloaded chain has a zero reference solution; report the gap itself
    energy_norm_rel = float(gap / reference) if reference > 0.0 else float(gap)
    exact_energy = stored_energy(model, atomistic)
    energy_rel = None
    if abs(exact_energy) >= 1e-14:
        # Oriented so that a cluster functional value above the exact stored
        # energy is positive.  At criticality of a quadratic model this equals
        # the relative gap of the total energies (stored minus load potential),
        # which is the quantity the reproduced experiments report.
        energy_rel = float((qc_energy - exact_energy) / abs(exact_energy))
    return {
        "energy_norm_rel": energy_norm_rel,
        "energy_rel": energy_rel,
        **consistency_estimate(constrained),
        "kappa": mesh.kappa,
        "predicted_band": predicted_relative_band(family, mesh.kappa) if family else None,
        "reference_norm": float(reference),
    }


def _has_rates(parameters: np.ndarray, values: np.ndarray) -> bool:
    """A rate is defined: two points or more, every value is positive and
    every parameter step moves."""
    return len(values) > 1 and bool((values > 0.0).all()
                                    and (parameters[1:] - parameters[:-1] != 0.0).all())


def rates(parameters: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Observed orders of values against a resolution parameter: the
    log-ratio of consecutive values over that of consecutive parameters;
    empty where no rate is defined."""
    if not _has_rates(parameters, values):
        return np.empty(0)
    p, v = parameters, values
    return np.log(v[:-1] / v[1:]) / np.log(p[:-1] / p[1:])


def fit_rate(parameters: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(value) against log(parameter); nan where
    no rate is defined."""
    if not _has_rates(parameters, values):
        return float("nan")
    slope, _ = np.polyfit(np.log(parameters), np.log(values), 1)
    return float(slope)


# metric -> (parameter column, reads r, reads the force)
STUDY_METRICS = {"consistency": ("h_max", False, True), "weight-gap": ("epsilon", True, False),
                 "load-defect": ("h_max", True, True), "zero-force": ("epsilon", True, False)}


def convergence_study(metric: str, mesh: str, force: str | None, points,
                      weights: str = "exact") -> dict[str, np.ndarray]:
    """One metric, against h_max or epsilon, on the chain and mesh (both given
    by descriptors) of each (N, K, r) point.  Metrics (STUDY_METRICS):
    "consistency" of the constrained solution, "weight-gap", "load-defect",
    and "zero-force": the largest nodal value of the unloaded (const:0)
    cluster solution, which must vanish.  Returns two columns, one entry per
    point: the parameter, then the metric under its own name.  Every mesh, and
    every point's weights if the metric reads r, is built before any solve.  A
    given force is parsed; only a metric that reads it needs and samples it."""
    if metric not in STUDY_METRICS:
        raise UnknownFamily(f"unknown metric {metric!r}; choose from {tuple(STUDY_METRICS)}")
    parameter, reads_r, reads_force = STUDY_METRICS[metric]
    meshes = [build_mesh(parse_mesh_descriptor(mesh, N, K)) for N, K, _ in points]
    weight_sets = [solve_weights(assemble_weight_system(ClusterRule(grid, point[2])), weights)
                   if reads_r else None for grid, point in zip(meshes, points)]
    if force is None and reads_force:
        raise QCLabError(f"metric {metric!r} needs a force descriptor")
    params = [float(grid.h.max()) if parameter == "h_max" else 1.0 / grid.N for grid in meshes]
    model, values = None, []
    for N, _, _ in points:
        grid, weight_set = meshes.pop(0), weight_sets.pop(0)  # each freed once solved
        # a given force is parsed once per run of equal N
        if force is not None and (model is None or model.N != N):
            model = ChainModel(potential=harmonic_potential(), force=sample_force(force, N))
        if metric == "consistency":
            constrained = solve_constrained(model, grid).solution
            values.append(consistency_estimate(constrained)["consistency"])
        elif metric == "weight-gap":
            values.append(weight_set.gap_max)
        elif metric == "load-defect":
            values.append(load_defect(model, weight_set))
        else:
            unloaded = ChainModel(harmonic_potential(), sample_force("const:0", N))
            qc = solve_energy_cluster(unloaded, weight_set).solution
            values.append(float(np.abs(qc.values).max()))
    return {parameter: np.array(params), metric: np.array(values)}


def smooth_mesh_consistency(N: int, K_values, amplitude: float = 0.2) -> dict[str, np.ndarray]:
    """Consistency estimator of the constrained solution under the sinpi
    load on smoothly graded meshes of increasing resolution; decays
    quadratically in the mesh size until integer rounding of the node
    positions takes over.  Returns the columns "h_max" and "consistency"."""
    # float(): the repr of a numpy scalar is not a float literal under numpy 2
    return convergence_study("consistency", f"smooth:{float(amplitude)!r}", "sinpi",
                             [(N, int(K), 0) for K in K_values])


def load_defect(model: ChainModel, weights: WeightSet) -> float:
    """Max-norm gap between cluster-sampled and exact hat loads."""
    exact = exact_load(weights.rule.mesh, model)
    return float(np.abs(cluster_load(model, weights) - exact).max())


def gradient_alternation(constrained: NodalField, qc: NodalField) -> tuple[bool, int]:
    """Check the element-wise error sign pattern of a cluster solution.

    On alternating meshes the gradient error of the cluster solution flips
    sign between neighbouring elements wherever the underlying gradient is
    not small.  Compares signs over consecutive element pairs whose
    constrained gradient exceeds a tenth of its maximum,
    skipping the two wrap elements (they absorb the integer remainder of the
    mesh construction).  Returns (strictly_alternating, pairs_checked).
    """
    reference = constrained.gradients()
    gap = qc.gradients() - reference
    eligible = np.abs(reference) >= 0.1 * np.abs(reference).max()
    eligible[0] = eligible[-1] = False
    both = eligible[:-1] & eligible[1:]
    return bool((gap[:-1][both] * gap[1:][both] < 0.0).all()), int(np.count_nonzero(both))


def force_scaling_study(N: int, K_values, r: int) -> dict[str, np.ndarray]:
    """How force-cluster solutions on uniform meshes scale with the mesh.

    With uniform spacing h and radius r the cluster equations reproduce the
    constrained solution scaled by eps (2r+1) / h, so the solution collapses
    toward zero under refinement at fixed r.  Returns one entry per K in six
    columns: ``K`` (int), ``h``, ``ratio_measured`` (cluster over constrained
    energy norm), ``ratio_predicted`` (the scale), ``deviation_scaled`` and
    ``deviation_absolute``.  ``deviation_scaled`` measures the energy-norm
    distance between the rescaled cluster solution and the constrained one;
    it decays at second order, while ``deviation_absolute`` (no rescaling)
    loses one order to the 1/h growth of the mismatch.
    """
    model = ChainModel(potential=harmonic_potential(), force=sample_force("sinpi", N))
    columns = {"K": np.asarray(K_values, dtype=int)}
    meshes = [build_mesh(MeshSpec(family="uniform", N=N, K=K)) for K in columns["K"].tolist()]
    weight_sets = [solve_weights(assemble_weight_system(ClusterRule(mesh, r))) for mesh in meshes]
    rows = []
    for mesh, weights in zip(meshes, weight_sets):
        constrained = solve_constrained(model, mesh).solution
        clustered = solve_force_cluster(model, weights).solution
        h = float(mesh.h[0])
        scale = model.epsilon * weights.rule.size / h
        rows.append((
            h,
            energy_norm(clustered) / energy_norm(constrained),
            scale,
            energy_norm(NodalField(mesh=mesh, values=clustered.values / scale - constrained.values)),
            energy_norm(NodalField(mesh=mesh, values=clustered.values - scale * constrained.values)),
        ))
    names = ("h", "ratio_measured", "ratio_predicted", "deviation_scaled", "deviation_absolute")
    columns.update(zip(names, np.array(rows).T))
    return columns
