"""Shared oracles for the test suite.

Everything here recomputes library quantities from first principles (dense
linear algebra, per-site loops over the hat basis, finite differences) so the
tests compare two independent code paths.  The ``reference_*`` functions are
the straightforward per-element / per-row / full-lattice versions of the
library's single-pass kernels; ``tests/test_kernels.py`` requires the
kernels to reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

from qclab import (
    ChainModel,
    MeshSpec,
    build_mesh,
    basis_value,
    harmonic_potential,
    sample_force,
    slot_of_site,
    site_energies,
    total_energy,
    Displacement,
)
from qclab.cli import _format_float


def make_model(N, force="sinpi", potential=None):
    return ChainModel(N=N, potential=potential or harmonic_potential(),
                      force=sample_force(force, N))


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
    for tj in range(2 * mesh.K):
        j = tj - (mesh.K - 1)
        acc = 0.0
        for tt in range(2 * mesh.K):
            k = tt - (mesh.K - 1)
            for ell in rule.members(k):
                val = site_values[int(slot_of_site(ell, mesh.N))]
                acc += nu[tt] * val * basis_value(mesh, j, int(ell))
        out[tj] = acc
    return out


def dense_weight_matrix(mesh, rule):
    """A[j, t] = hat_j summed over cluster t, via basis_value."""
    n = 2 * mesh.K
    A = np.zeros((n, n))
    for tj in range(n):
        j = tj - (mesh.K - 1)
        for tt in range(n):
            k = tt - (mesh.K - 1)
            for ell in rule.members(k):
                A[tj, tt] += basis_value(mesh, j, int(ell))
    return A


def random_custom_mesh(rng, K=None):
    """Periodic mesh with random integer steps, node 0 at lattice site 0;
    K is drawn from 3..6 unless given."""
    K = int(rng.integers(3, 7)) if K is None else K
    steps = rng.integers(5, 16, size=2 * K)
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
    e_plus = total_energy(model, Displacement(N=model.N, values=plus))
    e_minus = total_energy(model, Displacement(N=model.N, values=minus))
    return (e_plus - e_minus) / (2.0 * step)


def random_displacement(rng, N, scale=1.0):
    vals = scale * rng.normal(size=2 * N)
    vals[N - 1] = 0.0
    return Displacement(N=N, values=vals)


# ---------------------------------------------------------------- reference kernels

def reference_prolong(mesh, V):
    """Piecewise-affine extension, blended element by element."""
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
    return Displacement(N=mesh.N, values=values, gradients=gradients)


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
    """Hat-summation defect with every hat evaluated on the whole lattice
    and on every cluster."""
    members = rule.member_matrix()
    active = weights.energy
    sites = np.arange(-mesh.N + 1, mesh.N + 1)
    worst = 0.0
    for t in range(2 * mesh.K):
        j = t - (mesh.K - 1)
        full = mesh.epsilon * np.sum(basis_value(mesh, j, sites))
        clustered = float(np.sum(active * np.sum(basis_value(mesh, j, members), axis=1)))
        worst = max(worst, abs(full - clustered))
    return worst


def reference_energy_cluster_functional(model, mesh, rule, weights, V):
    """Cluster energy read off the site energies of the prolonged field."""
    energies = site_energies(model, reference_prolong(mesh, V))
    members = rule.member_matrix()
    per_cluster = np.sum(energies[slot_of_site(members, mesh.N)], axis=1)
    return float(np.dot(weights.energy, per_cluster))


def reference_write_csv(path, header, columns, footer=None):
    """The CSV file built as one list of lines, one row at a time."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join("%.17g" % v for v in row))
    if footer:
        lines.extend(footer)
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
