"""Equilibrium solvers for the chain and its coarse-grained variants.

All four problems share one structure: at every unpinned degree of freedom,
the difference of two neighbouring element stresses balances a nodal load,

    c_j * phi'(g_j) - c_{j+1} * phi'(g_{j+1}) = L_j,

with per-element coefficients c and gradients g.  Because the pinned node
cuts the periodic cycle into a path, the scaled stresses follow from one
cumulative pass over the loads, up to a single additive constant that is
fixed by the closure condition sum_j h_j g_j = 0 (periodicity of the
values).  Values are then recovered by a cumulative sum from the pinned
node; both passes are model.path_sum.  For quadratic potentials every step
is a closed form; otherwise the stress inversion and the closure constant
each run a guarded Newton iteration.

Residuals come from the gradients solved for, which keeps them at the
rounding floor even at large N.  The atomistic Displacement keeps those
gradients; a nodal solve's NodalField keeps values and re-differences them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvexityLoss, IllPosed, NewtonFailure
from .cluster import ClusterRule, WeightSet
from .mesh import CoarseMesh, NodalField, check_field, check_lattice, exact_load
from .model import BLOCK_VALUES, ChainModel, Displacement, ExternalForce, PairPotential, path_sum

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
    """Solve phi'(g) = s elementwise; returns (g, iterations).  For a
    quadratic potential g is s itself."""
    if pot.is_quadratic:
        return s, 1
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
    """Find c such that sum_j h_j * (phi')^{-1}((tbar_j + c)/c_j) = 0.

    A scalar h or coeff stands for a constant array.  The dots need arrays:
    BLAS sums a dot in an order that no scalar form repeats bit for bit.
    """
    weight = np.divide(h, coeff, out=np.empty(len(tbar)))
    c = -np.dot(weight, tbar) / np.sum(weight)
    if pot.is_quadratic:
        return float(c), 1
    h = np.ascontiguousarray(np.broadcast_to(h, tbar.shape))
    for it in range(1, _NEWTON_STEPS + 1):
        g, _ = _invert_stress(pot, (tbar + c) / coeff)
        gap = np.dot(h, g)
        if abs(gap) <= 1e-13 * (1.0 + np.dot(h, np.abs(g))):
            return float(c), it
        slope = np.dot(weight, 1.0 / pot.second(g))
        c = c - gap / slope
    raise NewtonFailure(f"closure constant stalled after {_NEWTON_STEPS} steps")


def _solve_chain(method: str, pot: PairPotential, coeff, h, load: ExternalForce, scale=1.0,
                 factor=1.0):
    """Shared path-elimination core; see the module docstring.  Returns
    (read-only gradients, residual, reaction, iterations) for 2 load.N
    elements, pinned at slot load.N - 1 (site or node 0); residual and
    reaction re-evaluate scale_j (c_j phi'(g_j) - c_{j+1} phi'(g_{j+1})) - L_j,
    whose rows are solved as the unscaled ones with load L_j / scale_j.  A
    residual above 1e-10 (1 + max|L|) raises NewtonFailure naming the method.
    L = load * factor is never formed whole: load.rows streams it into the
    first buffer, and load.samples, read once the closure weights are freed,
    enters the equations BLOCK_VALUES rows at a time.  coeff, h and scale
    may be scalars.  A quadratic solve holds two arrays of its length: the
    buffer (then the gradients) and the closure weights or the samples."""
    n, first, pinned = 2 * load.N, load.N, load.N - 1
    # tbar_j = -(sum of L/scale along the path from node first to j-1): the
    # load at slot j goes to buf[j + 1], so the wrap's sum lands in buf[n]
    buf = np.empty(n + 1)
    weighted, scaled = np.ndim(coeff) or coeff != 1.0, np.ndim(scale) or scale != 1.0
    for at in range(0, n, BLOCK_VALUES):
        stop = min(at + BLOCK_VALUES, n)
        np.multiply(load.rows(at, stop), factor, out=buf[at + 1 : stop + 1])
    if scaled:  # a scalar 1.0 leaves every value as it is, here and below
        buf[1:] /= scale
    path_sum(buf[1:])  # the pinned slot, buf[first], holds +0.0
    buf[0] = buf[n]
    tbar = np.negative(buf[:n], out=buf[:n])
    tbar[first] = 0.0  # not the negation's -0.0, which a zero load would carry into every value
    c0, closure_iters = _closure_constant(pot, coeff, h, tbar)
    tbar += c0
    if weighted:
        tbar /= coeff
    g, invert_iters = _invert_stress(pot, tbar)
    g.setflags(write=False)
    coeff, scale = np.broadcast_to(coeff, (n,)), np.broadcast_to(scale, (n,))
    samples, maxima, stresses = load.samples, [], np.empty(BLOCK_VALUES + 1)
    for at in range(0, n, BLOCK_VALUES):
        stop = min(at + BLOCK_VALUES, n)
        # the stresses t_j = c_j phi'(g_j) of slots at..stop, the last wrapping to slot 0
        ring = (lambda v: v[at : stop + 1]) if stop < n else (lambda v: np.append(v[at:], v[0]))
        t = pot.deriv(ring(g))
        t = np.multiply(t, ring(coeff), out=stresses[: stop - at + 1]) if weighted else t
        equations = np.subtract(t[:-1], t[1:], out=stresses[: stop - at])
        if scaled:
            equations *= scale[at:stop]
        L = samples[at:stop] * factor
        equations -= L
        if at <= pinned < stop:
            reaction = float(equations[pinned - at]) + 0.0  # a zero one as +0.0, not -0.0
            equations[pinned - at] = 0.0
        maxima.append((np.max(np.abs(equations, out=equations)), np.max(np.abs(L, out=L))))
        del t, L  # before the next block forms its own
    residual, load_max = np.max(maxima, axis=0)
    tol = 1e-10 * (1.0 + load_max)
    if not residual <= tol:
        raise NewtonFailure(f"{method} solve left residual {residual:.3e} above {tol:.3e}")
    return g, float(residual), reaction, max(closure_iters, invert_iters)


def _solve_nodal(method: str, model: ChainModel, coeff, mesh: CoarseMesh, load=None,
                 scale=1.0) -> SolveReport:
    """The nodal solve pinned at node 0 under load (None: exact_load's); values by path_sum."""
    load = exact_load(mesh, model) if load is None else load
    g, residual, reaction, iterations = _solve_chain(
        method, model.potential, coeff, mesh.h, ExternalForce(N=mesh.K, samples=load), scale)
    field = NodalField(mesh=mesh, values=path_sum(np.multiply(mesh.h, g)))
    return SolveReport(field, residual, reaction, iterations, method)


def solve_atomistic(model: ChainModel) -> SolveReport:
    """Equilibrium of the full chain: every site force vanishes except at the
    pinned site 0, whose equation is reported as the reaction.  A closed-form
    force is evaluated twice: streamed into the solve, then as the samples
    that the residual and later readers use.  The solution keeps gradients."""
    g, residual, reaction, iterations = _solve_chain(
        "atomistic", model.potential, 1.0, model.epsilon, model.force, factor=model.epsilon)
    return SolveReport(Displacement(g), residual, reaction, iterations, "atomistic")


def solve_constrained(model: ChainModel, mesh: CoarseMesh, load=None) -> SolveReport:
    """Minimize the exact energy over piecewise-affine fields on the mesh.

    Exact hat loads (``load``, else exact_load's) balance the element
    stresses; on quadratic potentials the solution is the energy-norm best
    approximation of the atomistic equilibrium (Galerkin orthogonality).
    """
    return _solve_nodal("constrained", model, 1.0, mesh, load)


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


def solve_energy_cluster(model: ChainModel, weights: WeightSet, load=None) -> SolveReport:
    """Criticality of the cluster energy under exact dead loads.

    The nodal equations are a_j phi'(U_j') - a_{j+1} phi'(U_{j+1}') = f[hat_j]
    with the effective per-element stiffness a and the exact hat loads (as in
    solve_constrained); nonpositive a makes the functional indefinite and is rejected.
    """
    mesh = weights.rule.mesh
    a = effective_stiffness(weights)
    if not np.all(a > 0.0):
        raise IllPosed("cluster energy has a nonpositive effective element stiffness")
    return _solve_nodal("energy-cluster", model, a, mesh, load)


def solve_force_cluster(model: ChainModel, weights: WeightSet) -> SolveReport:
    """Roots of the cluster-sampled nodal forces.

    For admissible clusters the equations collapse to
    nu_j (phi'(U_j') - phi'(U_{j+1}')) = cluster load at j, which is solved
    exactly; the reported residual re-evaluates that defining form.
    """
    mesh = weights.rule.mesh
    nu = weights.force
    slot = int(np.argmin(nu))
    if not nu[slot] > 1e-12 * np.max(nu):  # a vanishing weight makes the equations singular
        raise IllPosed(f"force weight of node slot {slot} is {nu[slot]:.3e}, "
                       f"not above 1e-12 times the largest")
    return _solve_nodal("force-cluster", model, 1.0, mesh, cluster_load(model, weights),
                        scale=nu)
