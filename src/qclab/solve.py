"""Equilibrium solvers for the chain and its coarse-grained variants.

All four problems share one structure: at every unpinned degree of freedom,
the difference of two neighbouring element stresses balances a nodal load,

    c_j * phi'(g_j) - c_{j+1} * phi'(g_{j+1}) = L_j,

with per-element coefficients c and gradients g.  Because the pinned node
cuts the periodic cycle into a path, the scaled stresses follow from one
cumulative pass over the loads, up to a single additive constant that is
fixed by the closure condition sum_j h_j g_j = 0 (periodicity of the
values).  Values are then recovered by a cumulative sum from the pinned
node.  For quadratic potentials every step is a closed form; otherwise the
stress inversion and the closure constant each run a guarded Newton
iteration.

The solvers hand their gradients to the returned fields, so residuals are
reported from the quantities actually solved for instead of re-differenced
values, which keeps them at the rounding floor even at large N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvexityLoss, IllPosed, NewtonFailure
from .cluster import ClusterRule, WeightSet
from .mesh import CoarseMesh, NodalField, check_field, check_lattice, exact_load, prolong
from .model import (
    ChainModel,
    Displacement,
    PairPotential,
    site_forces,
    slot_of_site,
)

_NEWTON_STEPS = 50


@dataclass(frozen=True, eq=False)
class SolveReport:
    """A solution plus the evidence that it solves its equations.

    ``residual`` is the max-norm of the defining equations re-evaluated at
    the solution (pinned node excluded); ``reaction`` is the value of the
    dropped equation at the pinned node, the force the constraint exerts.
    """

    solution: object
    residual: float
    reaction: float
    iterations: int
    method: str


def _invert_stress(pot: PairPotential, s: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve phi'(g) = s elementwise; returns (g, iterations)."""
    if pot.is_quadratic:
        return np.array(s, dtype=float), 1
    g = np.array(s, dtype=float)
    tol = 1e-12 * (1.0 + np.abs(s))
    for it in range(1, _NEWTON_STEPS + 1):
        curvature = pot.second(g)
        if not np.all(curvature > 0.0):
            raise ConvexityLoss(f"potential {pot.name} lost convexity during stress inversion")
        defect = pot.deriv(g) - s
        if np.all(np.abs(defect) <= tol):
            return g, it
        g = g - defect / curvature
    raise NewtonFailure(f"stress inversion stalled after {_NEWTON_STEPS} steps")


def _closure_constant(pot: PairPotential, coeff, h, tbar) -> tuple[float, int]:
    """Find c such that sum_j h_j * (phi')^{-1}((tbar_j + c)/c_j) = 0."""
    weight = h / coeff
    c = -np.dot(weight, tbar) / np.sum(weight)
    if pot.is_quadratic:
        return float(c), 1
    for it in range(1, _NEWTON_STEPS + 1):
        g, _ = _invert_stress(pot, (tbar + c) / coeff)
        gap = np.dot(h, g)
        if abs(gap) <= 1e-13 * (1.0 + np.dot(h, np.abs(g))):
            return float(c), it
        slope = np.dot(weight, 1.0 / pot.second(g))
        c = c - gap / slope
    raise NewtonFailure(f"closure constant stalled after {_NEWTON_STEPS} steps")


def _solve_chain(pot: PairPotential, coeff, h, load, pinned: int):
    """Shared path-elimination core; see the module docstring.

    Returns (gradients, values, residual, reaction, iterations) where the
    residual and reaction re-evaluate c_j phi'(g_j) - c_{j+1} phi'(g_{j+1}) - L_j.
    """
    n = len(h)
    order = (pinned + 1 + np.arange(n)) % n
    tbar = np.zeros(n)
    tbar[order[1:]] = -np.cumsum(load[order[:-1]])
    c0, closure_iters = _closure_constant(pot, coeff, h, tbar)
    g, invert_iters = _invert_stress(pot, (tbar + c0) / coeff)
    values = np.zeros(n)
    values[order[:-1]] = np.cumsum((h * g)[order[:-1]])
    values[pinned] = 0.0
    t = coeff * pot.deriv(g)
    equations = t - np.roll(t, -1) - load
    reaction = float(equations[pinned])
    equations[pinned] = 0.0
    residual = float(np.max(np.abs(equations)))
    return g, values, residual, reaction, max(closure_iters, invert_iters)


def _report(method: str, solution, load, residual: float, reaction: float,
            iterations: int) -> SolveReport:
    """Package a solve, rejecting a residual above the tolerance its load sets."""
    tol = 1e-10 * (1.0 + float(np.max(np.abs(load))))
    if not residual <= tol:
        raise NewtonFailure(f"{method} solve left residual {residual:.3e} above {tol:.3e}")
    return SolveReport(solution=solution, residual=residual, reaction=reaction,
                       iterations=iterations, method=method)


def solve_atomistic(model: ChainModel) -> SolveReport:
    """Equilibrium of the full chain: every site force vanishes except at the
    pinned site 0, whose equation is reported as the reaction."""
    n = 2 * model.N
    load = model.epsilon * model.force.samples
    g, values, residual, reaction, iters = _solve_chain(
        model.potential, np.ones(n), np.full(n, model.epsilon), load, model.N - 1
    )
    return _report("atomistic", Displacement(N=model.N, values=values, gradients=g),
                   load, residual, reaction, iters)


def solve_constrained(model: ChainModel, mesh: CoarseMesh) -> SolveReport:
    """Minimize the exact energy over piecewise-affine fields on the mesh.

    The nodal equations balance element stresses against exact hat loads; on
    quadratic potentials the solution is the energy-norm best approximation
    of the atomistic equilibrium (Galerkin orthogonality).
    """
    load = exact_load(mesh, model)
    g, values, residual, reaction, iters = _solve_chain(
        model.potential, np.ones(2 * mesh.K), mesh.h, load, mesh.K - 1
    )
    return _report("constrained", NodalField(mesh=mesh, values=values),
                   load, residual, reaction, iters)


def cluster_load(model: ChainModel, weights: WeightSet) -> np.ndarray:
    """Cluster approximation of the exact hat loads:
    sum_k nu_k sum_{ell in C_k} eps f_ell hat_j(eps ell), per node j, with
    the force weights nu of the active mode."""
    rule = weights.rule
    check_lattice(model, rule.mesh)
    members = rule.member_matrix()
    weighted = model.epsilon * weights.force[:, None] * model.force.at(members)
    return _scatter_cluster_values(rule, weighted)


def _scatter_cluster_values(rule: ClusterRule, weighted: np.ndarray) -> np.ndarray:
    """Accumulate per-member values (already carrying their node weight)
    against the hat functions.

    The member at signed offset d from node t lies in element t (d < 0) or
    t+1 (d > 0), so it meets exactly two hats; offset 0 is the node itself.
    """
    s_own = rule.mesh.steps.astype(float)
    s_next = np.roll(rule.mesh.steps, -1).astype(float)
    out = np.array(weighted[:, rule.r])  # offset 0: hat of the own node is 1
    for i in range(rule.r):
        d = i - rule.r  # negative offsets, column i
        col = weighted[:, i]
        out += col * ((s_own + d) / s_own)
        out += np.roll(col * (-d / s_own), -1)
    for i in range(rule.r + 1, 2 * rule.r + 1):
        d = i - rule.r  # positive offsets
        col = weighted[:, i]
        out += col * (1.0 - d / s_next)
        out += np.roll(col * (d / s_next), 1)
    return out


def assemble_cluster_forces(model: ChainModel, weights: WeightSet,
                            V: NodalField) -> np.ndarray:
    """Cluster-sampled nodal forces of a piecewise-affine field.

    Site forces are evaluated generically from the prolonged displacement;
    for nearest-neighbour bonds and admissible clusters the result collapses
    to nu_j*(phi'(V_j') - phi'(V_{j+1}')) minus the cluster load.
    """
    rule = weights.rule
    check_lattice(model, rule.mesh)
    check_field(rule.mesh, V)
    forces = site_forces(model, prolong(V))
    members = rule.member_matrix()
    weighted = weights.force[:, None] * forces[slot_of_site(members, model.N)]
    return _scatter_cluster_values(rule, weighted)


def energy_cluster_functional(model: ChainModel, weights: WeightSet, V: NodalField) -> float:
    """Cluster-rule approximation of the stored energy of a nodal field:
    sum_k omega_k * (site energies over the cluster of node k).

    Site energies are half the energies of the two bonds at the site.  An
    admissible cluster sits inside the two elements at its node, so a bond
    left of the node carries phi of element k's gradient and a bond right
    of it phi of element k+1's; only those 2K bond energies are evaluated.
    """
    rule = weights.rule
    check_lattice(model, rule.mesh)
    check_field(rule.mesh, V)
    e = model.potential.value(V.gradients())
    e_next = np.roll(e, -1)
    r = rule.r
    energies = np.empty((2 * rule.mesh.K, rule.size))
    energies[:, :r] = (0.5 * (e + e))[:, None]
    energies[:, r] = 0.5 * (e + e_next)
    energies[:, r + 1 :] = (0.5 * (e_next + e_next))[:, None]
    per_cluster = np.sum(energies, axis=1)
    return float(np.dot(weights.energy, per_cluster))


def effective_stiffness(weights: WeightSet) -> np.ndarray:
    """Per-element multiplier the cluster energy puts on phi(V_k').

    Collapsing each cluster sum of site energies (admissible clusters sit
    strictly inside their two elements) gives
    E_h(V) = sum_k h_k * a_k * phi(V_k') with
    a_k = (2r+1) (w_k + w_{k-1}) / (2 h_k).  With r = 0 or lumped weights
    this is exactly 1 plus the element's smoothness coefficient.
    """
    w = weights.energy
    return weights.rule.size * (w + np.roll(w, 1)) / (2.0 * weights.rule.mesh.h)


def solve_energy_cluster(model: ChainModel, weights: WeightSet) -> SolveReport:
    """Criticality of the cluster energy under exact dead loads.

    The nodal equations are a_j phi'(U_j') - a_{j+1} phi'(U_{j+1}') = f[hat_j]
    with the effective per-element stiffness a; nonpositive a makes the
    functional indefinite and is rejected.
    """
    mesh = weights.rule.mesh
    a = effective_stiffness(weights)
    if not np.all(a > 0.0):
        raise IllPosed("cluster energy has a nonpositive effective element stiffness")
    load = exact_load(mesh, model)
    g, values, residual, reaction, iters = _solve_chain(
        model.potential, a, mesh.h, load, mesh.K - 1
    )
    return _report("energy-cluster", NodalField(mesh=mesh, values=values),
                   load, residual, reaction, iters)


def solve_force_cluster(model: ChainModel, weights: WeightSet) -> SolveReport:
    """Roots of the cluster-sampled nodal forces.

    For admissible clusters the equations collapse to
    nu_j (phi'(U_j') - phi'(U_{j+1}')) = cluster load at j, which is solved
    exactly; the reported residual re-evaluates that defining form.
    """
    mesh = weights.rule.mesh
    nu = weights.force
    if not np.all(nu > 0.0):
        raise IllPosed("force weights must be positive")
    ftilde = cluster_load(model, weights)
    g, values, _, _, iters = _solve_chain(
        model.potential, np.ones(2 * mesh.K), mesh.h, ftilde / nu, mesh.K - 1
    )
    t = model.potential.deriv(g)
    equations = nu * (t - np.roll(t, -1)) - ftilde
    reaction = float(equations[mesh.K - 1])
    equations[mesh.K - 1] = 0.0
    residual = float(np.max(np.abs(equations)))
    return _report("force-cluster", NodalField(mesh=mesh, values=values),
                   ftilde, residual, reaction, iters)
