"""Shared oracles for the test suite.

Everything here recomputes library quantities from first principles (dense
linear algebra, per-site loops over the hat basis, finite differences) so the
tests compare two independent code paths.  The per-site energies and forces,
the total energy, the lattice energy norm, the generic cluster force assembly
and the Galerkin defect are oracles only: no program path needs them, so they
live here.  The ``reference_*`` functions are the straightforward per-element
/ per-row / full-lattice versions of the library's single-pass kernels, and of
the weight solve the scipy banded solve it replaced; ``tests/test_kernels.py``
requires the kernels to reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from qclab import (
    ChainModel,
    MeshSpec,
    NodalField,
    ShapeMismatch,
    build_mesh,
    basis_value,
    harmonic_potential,
    sample_force,
    slot_of_site,
    stored_energy,
    Displacement,
)
from qclab.cli import _format_float
from qclab.mesh import check_field, check_lattice
from qclab.solve import _scatter_cluster_values


def make_model(N, force="sinpi", potential=None):
    return ChainModel(potential=potential or harmonic_potential(), force=sample_force(force, N))


def node(mesh, k):
    """Lattice index of logical node(s) k, extended by node[k+2K] = node[k]+2N."""
    cycle, rem = np.divmod(np.asarray(k) + mesh.K - 1, 2 * mesh.K)
    return mesh.repatoms[rem] + cycle * 2 * mesh.N


def element_of_slot(mesh):
    """Element slot owning each lattice slot (sites sorted by coordinate)."""
    owners = np.repeat(np.arange(2 * mesh.K), mesh.steps)
    sites = np.arange(mesh.repatoms[-1] - 2 * mesh.N + 1, mesh.repatoms[-1] + 1)
    out = np.empty(2 * mesh.N, dtype=int)
    out[slot_of_site(sites, mesh.N)] = owners
    return out


def displacement(values):
    """The Displacement whose gradients difference the lattice values v:
    (v_ell - v_{ell-1})/epsilon, slot order."""
    v = np.asarray(values, dtype=float)
    N = v.size // 2
    return Displacement((v - np.roll(v, 1)) * N)


def _gradients(model, v):
    if v.N != model.N:
        raise ShapeMismatch("displacement does not match the model's lattice size")
    return v.gradients


def site_forces(model, v):
    """Equilibrium residual d(total_energy)/d(v_ell) at every site, slot order."""
    t = model.potential.deriv(_gradients(model, v))
    return t - np.roll(t, -1) - model.epsilon * model.force.samples


def site_energies(model, v):
    """Energy of every site, half of its two adjacent bond energies, slot order."""
    e = model.potential.value(_gradients(model, v))
    return 0.5 * (e + np.roll(e, -1))


def lattice_energy_norm(v):
    """Discrete H1 seminorm of a lattice displacement, sqrt(sum eps*|v'_ell|^2);
    energy_norm of a nodal field is this norm of its prolongation."""
    return float(np.sqrt(np.sum(np.square(v.gradients)) / v.N))


def total_energy(model, v):
    """Stored energy minus the dead-load work sum over sites of eps*f_ell*v_ell."""
    return stored_energy(model, v) - float(model.epsilon * np.dot(model.force.samples, v.values))


def assemble_cluster_forces(model, weights, V):
    """Cluster-sampled nodal forces of a piecewise-affine field.

    Site forces are evaluated generically from the prolonged displacement;
    for nearest-neighbour bonds and admissible clusters the result collapses
    to nu_j*(phi'(V_j') - phi'(V_{j+1}')) minus the cluster load, the form
    solve_force_cluster solves.
    """
    rule = weights.rule
    check_lattice(model, rule.mesh)
    check_field(rule.mesh, V)
    forces = site_forces(model, prolonged(rule.mesh, V))
    weighted = weights.force[:, None] * forces[slot_of_site(rule.member_matrix(), model.N)]
    return _scatter_cluster_values(rule, weighted)


def galerkin_defect(model, atomistic, constrained):
    """Largest normalized residual of the best-approximation property.

    For each unpinned hat, <u' - u_h', hat'> collapses to a difference of the
    two adjacent per-element means of the gradient gap; the pinned node's hat
    is the constraint direction, not a test direction, so it is excluded.
    Normalized by the energy norm of the atomistic solution.
    """
    mesh = constrained.mesh
    check_lattice(model, mesh)
    gap = model.epsilon * (_gradients(model, atomistic) - reference_prolong(mesh, constrained)[1])
    sums = np.bincount(element_of_slot(mesh), weights=gap, minlength=2 * mesh.K)
    means = sums / mesh.h
    defect = means - np.roll(means, -1)
    defect[mesh.K - 1] = 0.0
    return float(np.max(np.abs(defect)) / lattice_energy_norm(atomistic))


def dense_atomistic(model):
    """Equilibrium values by dense linear solve (harmonic potential only)."""
    n = 2 * model.N
    scale = float(model.N)
    A = np.zeros((n, n))
    for i in range(n):
        # site force row: strain into the site minus strain out of it
        A[i, i] += 2.0 * scale
        A[i, i - 1] -= scale
        A[i, (i + 1) % n] -= scale
    b = model.epsilon * model.force.samples.copy()
    p = model.N - 1
    A[p] = 0.0
    A[p, p] = 1.0
    b[p] = 0.0
    return np.linalg.solve(A, b)


def dense_chain(flux_coeff, row_scale, h, load, pinned):
    """Dense solve of row_scale_j*(flux_j - flux_{j+1}) = load_j with
    flux_j = flux_coeff_j*(V_j - V_{j-1})/h_j and V_pinned = 0."""
    n = len(h)
    A = np.zeros((n, n))
    for j in range(n):
        cin = flux_coeff[j] / h[j]
        cout = flux_coeff[(j + 1) % n] / h[(j + 1) % n]
        A[j, j] += row_scale[j] * (cin + cout)
        A[j, j - 1] -= row_scale[j] * cin
        A[j, (j + 1) % n] -= row_scale[j] * cout
    b = np.asarray(load, dtype=float).copy()
    A[pinned] = 0.0
    A[pinned, pinned] = 1.0
    b[pinned] = 0.0
    return np.linalg.solve(A, b)


def brute_hat_scatter(mesh, rule, nu, site_values):
    """out[j] = sum_t nu_t sum_{ell in cluster t} site_values[ell]*hat_j(ell),
    straight from the definitions (independent of the library's scatter)."""
    out = np.zeros(2 * mesh.K)
    members = rule.member_matrix()
    for tj in range(2 * mesh.K):
        j = tj - (mesh.K - 1)
        acc = 0.0
        for tt in range(2 * mesh.K):
            for ell in members[tt]:
                val = site_values[int(slot_of_site(ell, mesh.N))]
                acc += nu[tt] * val * basis_value(mesh, j, int(ell))
        out[tj] = acc
    return out


def dense_weight_matrix(mesh, rule):
    """A[j, t] = hat_j summed over cluster t, via basis_value."""
    n = 2 * mesh.K
    A = np.zeros((n, n))
    members = rule.member_matrix()
    for tj in range(n):
        j = tj - (mesh.K - 1)
        for tt in range(n):
            for ell in members[tt]:
                A[tj, tt] += basis_value(mesh, j, int(ell))
    return A


def random_custom_mesh(rng, K=None, steps=(5, 15)):
    """Periodic mesh with random integer steps in the closed range ``steps``,
    node 0 at lattice site 0; K is drawn from 3..6 unless given."""
    K = int(rng.integers(3, 7)) if K is None else K
    steps = rng.integers(steps[0], steps[1] + 1, size=2 * K)
    if steps.sum() % 2:
        steps[-1] += 1
    N = int(steps.sum() // 2)
    cums = np.cumsum(steps)
    reps = tuple(int(v) for v in (cums - cums[K - 1]))
    return build_mesh(MeshSpec(family="custom", N=N, K=K, indices=reps)), N


def fd_site_force(model, v, ell, step=1e-6):
    """Central difference of the total energy in the direction of one site."""
    slot = int(slot_of_site(ell, model.N))
    plus = v.values.copy()
    plus[slot] += step
    minus = v.values.copy()
    minus[slot] -= step
    e_plus = total_energy(model, displacement(plus))
    e_minus = total_energy(model, displacement(minus))
    return (e_plus - e_minus) / (2.0 * step)


def random_displacement(rng, N, scale=1.0):
    vals = scale * rng.normal(size=2 * N)
    vals[N - 1] = 0.0
    return displacement(vals)


# ---------------------------------------------------------------- reference kernels

def reference_prolong(mesh, V):
    """Piecewise-affine extension, blended element by element: its lattice
    values and per-bond gradients, the element gradients."""
    vals = V.values
    lefts = np.roll(vals, 1)
    grads = V.gradients()
    pieces = []
    for t in range(2 * mesh.K):
        s = int(mesh.steps[t])
        frac = np.arange(1, s + 1) / s
        seg = lefts[t] + frac * (vals[t] - lefts[t])
        seg[-1] = vals[t]
        pieces.append(seg)
    sites = np.arange(mesh.repatoms[-1] - 2 * mesh.N + 1, mesh.repatoms[-1] + 1)
    slots = slot_of_site(sites, mesh.N)
    values = np.empty(2 * mesh.N)
    values[slots] = np.concatenate(pieces)
    gradients = np.empty(2 * mesh.N)
    gradients[slots] = np.repeat(grads, mesh.steps)
    return values, gradients


def prolonged(mesh, V):
    """The prolongation of V as a Displacement of its element gradients."""
    return Displacement(reference_prolong(mesh, V)[1])


def reference_exact_load(mesh, model):
    """Exact hat loads, gathered and dotted element by element."""
    n2k = 2 * mesh.K
    out = np.zeros(n2k)
    left_node = mesh.repatoms[-1] - 2 * mesh.N
    for t in range(n2k):
        s = int(mesh.steps[t])
        sites = np.arange(left_node + 1, left_node + s + 1)
        f = model.force.samples[slot_of_site(sites, mesh.N)]
        rising = np.arange(1, s + 1) / s
        out[t] += np.dot(f, rising)
        out[t - 1] += np.dot(f, 1.0 - rising)
        left_node += s
    return model.epsilon * out


def reference_verify_exactness(mesh, rule, weights):
    """Hat-summation defect with every hat written into a zeroed lattice
    buffer (basis_value over its two elements) and summed over all 2N
    slots, and evaluated on every cluster."""
    members = rule.member_matrix()
    active = weights.energy
    hats = np.zeros(2 * mesh.N)
    worst = 0.0
    for t in range(2 * mesh.K):
        j = t - (mesh.K - 1)
        sites = np.arange(int(node(mesh, j - 1)) + 1, int(node(mesh, j + 1)))
        slots = slot_of_site(sites, mesh.N)
        hats[slots] = basis_value(mesh, j, sites)
        full = 1.0 / mesh.N * np.sum(hats)
        hats[slots] = 0.0
        clustered = float(np.sum(active * np.sum(basis_value(mesh, j, members), axis=1)))
        worst = max(worst, abs(full - clustered))
    return worst


def reference_solve_cyclic_tridiagonal(sub, diag, sup, rhs):
    """The cyclic weight solve with the path system handed to scipy's banded
    solver (LAPACK dgtsv for one sub- and one superdiagonal)."""
    n = len(diag)
    gamma = -diag[0]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= sup[-1] * sub[0] / gamma
    ab = np.zeros((3, n))
    ab[0, 1:] = sup[:-1]
    ab[1] = d
    ab[2, :-1] = sub[1:]
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = sup[-1]
    y, q = scipy.linalg.solve_banded((1, 1), ab, np.column_stack([rhs, u])).T
    factor = (y[0] + sub[0] * y[-1] / gamma) / (1.0 + q[0] + sub[0] * q[-1] / gamma)
    return y - factor * q


def reference_energy_cluster_functional(model, mesh, rule, weights, V):
    """Cluster energy read off the site energies of the prolonged field."""
    energies = site_energies(model, prolonged(mesh, V))
    members = rule.member_matrix()
    per_cluster = np.sum(energies[slot_of_site(members, mesh.N)], axis=1)
    return float(np.dot(weights.energy, per_cluster))


def dense_energy_cluster(model, mesh, rule, weights):
    """Energy-rule nodal values by dense solve (harmonic potential only),
    without the library's effective stiffness: the Hessian of
    reference_energy_cluster_functional, by polarization on the unit
    directions of the nodes off node 0, against reference_exact_load, with
    node 0 pinned."""
    n, pinned = 2 * mesh.K, mesh.K - 1
    free = [j for j in range(n) if j != pinned]

    def energy(*slots):
        values = np.zeros(n)
        values[list(slots)] = 1.0
        return reference_energy_cluster_functional(model, mesh, rule, weights,
                                                   NodalField(mesh=mesh, values=values))

    single = [energy(j) for j in free]
    H = np.diag(2.0 * np.array(single))
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            H[a, b] = H[b, a] = energy(free[a], free[b]) - single[a] - single[b]
    values = np.zeros(n)
    values[free] = np.linalg.solve(H, reference_exact_load(mesh, model)[free])
    return values


def reference_write_csv(path, columns, rates=()):
    """The CSV file built as one list of lines, one row at a time."""
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        lines.append(",".join("%.17g" % v for v in row))
    lines.extend("rate,%.17g" % r for r in rates)
    path.write_text("\n".join(lines) + "\n")


def reference_to_json(value, indent=0):
    """The report serializer with every array element formatted on its own."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{key}": {reference_to_json(entry, indent + 1)}'
            for key, entry in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(reference_to_json(entry, indent + 1) for entry in value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if value is None:
        return "null"
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'
