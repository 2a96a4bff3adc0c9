"""Node clusters and summation weights.

A cluster rule replaces full-lattice sums by weighted sums over balls of
radius r around each node.  The weights come in two flavours: the exact set
solves a periodic tridiagonal system so that every hat function is summed
exactly, and the lumped set is the closed-form mass-lumping approximation
that coincides with the exact set on uniform meshes and at r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import ClusterOverlap, IllPosed, ShapeMismatch
from .mesh import CoarseMesh, basis_value
from .model import slot_of_site


@dataclass(frozen=True, eq=False)
class ClusterRule:
    """Uniform-radius clusters {node_k - r, ..., node_k + r} on a mesh.

    Admissibility (checked at construction): 2r+1 may not exceed any element
    step, so clusters never overlap and each half-cluster sits strictly inside
    one element.  That strict containment is what collapses cluster sums of
    piecewise data to closed forms.
    """

    mesh: CoarseMesh
    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ShapeMismatch(f"cluster radius must be nonnegative, got {self.r}")
        smallest = int(np.min(self.mesh.steps))
        if 2 * self.r + 1 > smallest:
            raise ClusterOverlap(
                f"clusters of radius {self.r} overlap: 2r+1 = {2 * self.r + 1} "
                f"exceeds the smallest element step {smallest}"
            )

    @property
    def size(self) -> int:
        return 2 * self.r + 1

    def members(self, k) -> np.ndarray:
        """Lattice indices of the cluster around logical node k."""
        return int(self.mesh.node(k)) + np.arange(-self.r, self.r + 1)

    def member_matrix(self) -> np.ndarray:
        """All clusters at once: shape (2K, 2r+1), row t = cluster of node slot t."""
        return self.mesh.repatoms[:, None] + np.arange(-self.r, self.r + 1)[None, :]


@dataclass(frozen=True, eq=False)
class WeightSystem:
    """The periodic tridiagonal equations for one cluster rule's exact weights.

    Row j states that the hats are summed exactly at node j:
    sub_j*w_{j-1} + diag_j*w_j + sup_j*w_{j+1} = g_j, with g_j the exact
    full-lattice hat mass (h_j + h_{j+1})/2.  All arrays are node-slot order.
    """

    rule: ClusterRule
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    g: np.ndarray

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Matrix-vector product of the cyclic tridiagonal system."""
        return self.sub * np.roll(w, 1) + self.diag * w + self.sup * np.roll(w, -1)

    def dominance_margin(self) -> np.ndarray:
        """Row diagonal dominance margin diag - |sub| - |sup|; provably > r."""
        return self.diag - np.abs(self.sub) - np.abs(self.sup)


def assemble_weight_system(rule: ClusterRule) -> WeightSystem:
    """Closed-form assembly of the weight equations.

    The hat of node j, summed over the cluster of node j, gives the diagonal
    (2r+1) - r(r+1)/2 * (1/s_j + 1/s_{j+1}); summed over the neighbour
    clusters it gives the off-diagonal entries r(r+1)/2 * (1/s).
    """
    mesh = rule.mesh
    s = mesh.steps.astype(float)
    s_next = np.roll(s, -1)
    half_rr = 0.5 * rule.r * (rule.r + 1)
    sub = half_rr / s
    sup = half_rr / s_next
    diag = (2 * rule.r + 1) - half_rr * (1.0 / s + 1.0 / s_next)
    g = 0.5 * (mesh.h + np.roll(mesh.h, -1))
    for arr in (sub, sup, diag, g):
        arr.setflags(write=False)
    return WeightSystem(rule=rule, sub=sub, diag=diag, sup=sup, g=g)


def _solve_cyclic_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Direct solve of a cyclic tridiagonal system.

    Rank-one correction of a plain tridiagonal solve: the two corner entries
    are removed, the path system is solved twice with a banded solver, and the
    pair is recombined.
    """
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


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Exact and lumped cluster weights for one cluster rule.

    Energy weights multiply per-site energies; force weights are the same
    numbers divided by epsilon and multiply per-site forces.  ``mode`` selects
    which flavour downstream solvers consume; both are always carried so
    reports can show their gap without a second solve.  ``residual`` is the
    defect of the lumped weights in the exact weight equations.
    """

    rule: ClusterRule
    mode: str
    energy_exact: np.ndarray
    energy_lumped: np.ndarray
    residual: np.ndarray

    @property
    def energy(self) -> np.ndarray:
        return self.energy_exact if self.mode == "exact" else self.energy_lumped

    @property
    def force(self) -> np.ndarray:
        return self.energy * self.rule.mesh.N

    @property
    def gap_max(self) -> float:
        return float(np.max(np.abs(self.energy_exact - self.energy_lumped)))

    def with_mode(self, mode: str) -> "WeightSet":
        if mode not in ("exact", "lumped"):
            raise ShapeMismatch(f"weight mode must be 'exact' or 'lumped', got {mode!r}")
        return replace(self, mode=mode)


def _lumped_and_residual(system: WeightSystem) -> tuple[np.ndarray, np.ndarray]:
    lumped = system.g / system.rule.size
    # residual of the lumped weights row by row; the diagonal part cancels
    # exactly because (2r+1)*lumped_j = g_j, leaving only difference terms
    residual = system.sub * (np.roll(lumped, 1) - lumped) + system.sup * (
        np.roll(lumped, -1) - lumped
    )
    return lumped, residual


def solve_weights(system: WeightSystem) -> WeightSet:
    """Exact cluster weights: solve the weight equations directly.

    Uniform meshes and r = 0 short-circuit to the lumped closed form, which
    satisfies the equations exactly there.  One step of iterative refinement
    keeps the residual at the rounding floor on every other mesh.
    """
    lumped, residual = _lumped_and_residual(system)
    steps = system.rule.mesh.steps
    if system.rule.r == 0 or np.all(steps == steps[0]):
        exact = lumped
    else:
        exact = _solve_cyclic_tridiagonal(system.sub, system.diag, system.sup, system.g)
        exact += _solve_cyclic_tridiagonal(
            system.sub, system.diag, system.sup, system.g - system.apply(exact)
        )
    defect = np.max(np.abs(system.apply(exact) - system.g))
    scale = np.max(np.abs(system.g))
    if not defect <= 1e-12 * scale:
        raise IllPosed(f"weight system solve stalled at relative residual {defect / scale:.3e}")
    if np.any(exact <= 0.0):
        raise IllPosed("computed cluster weights are not all positive")
    for arr in (exact, lumped, residual):
        arr.setflags(write=False)
    return WeightSet(rule=system.rule, mode="exact",
                     energy_exact=exact, energy_lumped=lumped, residual=residual)


def verify_exactness(weights: WeightSet) -> float:
    """Largest hat-summation defect of the active weights, by brute force.

    For every node j the full-lattice sum eps*sum_ell hat_j(eps*ell) is
    compared against the weighted cluster sums; exact weights push this to
    the rounding floor by construction.  Hat j is evaluated only on its two
    elements and on the clusters of nodes j-1, j, j+1 (admissible clusters
    meet no other hat), but each sum still runs over the full lattice and
    all clusters, with zeros elsewhere, so it is summed in the same order.
    """
    mesh = weights.rule.mesh
    members = weights.rule.member_matrix()
    active = weights.energy
    n2k = 2 * mesh.K
    hats = np.zeros(2 * mesh.N)
    per_cluster = np.zeros(n2k)
    support = slice(0, 0)
    worst = 0.0
    for t in range(n2k):
        j = t - (mesh.K - 1)
        left = int(mesh.node(j - 1))
        span = int(mesh.steps[t] + mesh.steps[(t + 1) % n2k])
        sites = np.arange(left + 1, left + span)
        hats[support] = 0.0
        support = slot_of_site(sites, mesh.N)
        hats[support] = basis_value(mesh, j, sites)
        full = mesh.epsilon * np.sum(hats)
        near = np.arange(t - 1, t + 2) % n2k
        per_cluster[near] = np.sum(basis_value(mesh, j, members[near]), axis=1)
        clustered = float(np.sum(active * per_cluster))
        per_cluster[near] = 0.0
        worst = max(worst, abs(full - clustered))
    return worst
