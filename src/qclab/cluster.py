"""Node clusters and summation weights.

A cluster rule replaces full-lattice sums by weighted sums over balls of
radius r around each node.  The weights come in two flavours: the exact set
solves a periodic tridiagonal system so that every hat function is summed
exactly, and the lumped set is the closed-form mass-lumping approximation
that coincides with the exact set on uniform meshes and at r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ClusterOverlap, IllPosed, ShapeMismatch, UnknownFamily
from .mesh import CoarseMesh, hat_of_distance, hat_ramp
from .model import BLOCK_VALUES, pairwise_sum, ring

WEIGHT_MODES = ("exact", "lumped")


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
        smallest = int(self.mesh.steps.min())
        if 2 * self.r + 1 > smallest:
            raise ClusterOverlap(
                f"clusters of radius {self.r} overlap: 2r+1 = {2 * self.r + 1} "
                f"exceeds the smallest element step {smallest}"
            )

    @property
    def size(self) -> int:
        return 2 * self.r + 1

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
        return self.sub * ring(w, 1) + self.diag * w + self.sup * ring(w, -1)

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
    s_next = ring(s, -1)
    half_rr = 0.5 * rule.r * (rule.r + 1)
    sub = half_rr / s
    sup = half_rr / s_next
    diag = (2 * rule.r + 1) - half_rr * (1.0 / s + 1.0 / s_next)
    g = 0.5 * (mesh.h + ring(mesh.h, -1))
    for arr in (sub, sup, diag, g):
        arr.setflags(write=False)
    return WeightSystem(rule=rule, sub=sub, diag=diag, sup=sup, g=g)


def _solve_cyclic_tridiagonal(system: WeightSystem, rhs: np.ndarray) -> np.ndarray:
    """Direct solve of the cyclic tridiagonal weight equations.

    Rank-one correction of a plain tridiagonal solve: the two corner entries
    are removed, the path system is solved for rhs and u together, and the
    pair is recombined.  Elimination follows LAPACK dgtsv's operation order,
    so the result is scipy's banded solve bit for bit, and never pivots: the
    matrix is symmetric (sub_{j+1} = sup_j = r(r+1)/(2 s_{j+1})) and strictly
    diagonally dominant with margin > r, and the correction only enlarges
    d_0 and d_{n-1}, so dgtsv's test |d_j| >= |sub_{j+1}| never swaps rows.
    """
    sub, d, sup, y = system.sub.tolist(), system.diag.tolist(), system.sup.tolist(), rhs.tolist()
    n = len(d)
    gamma = -d[0]
    d[0] -= gamma
    d[-1] -= sup[-1] * sub[0] / gamma
    q = [gamma] + [0.0] * (n - 2) + [sup[-1]]
    for j in range(n - 1):
        f = sub[j + 1] / d[j]
        d[j + 1] -= f * sup[j]
        y[j + 1] -= f * y[j]
        q[j + 1] -= f * q[j]
    y[-1] /= d[-1]
    q[-1] /= d[-1]
    for j in range(n - 2, -1, -1):
        y[j] = (y[j] - sup[j] * y[j + 1]) / d[j]
        q[j] = (q[j] - sup[j] * q[j + 1]) / d[j]
    factor = (y[0] + sub[0] * y[-1] / gamma) / (1.0 + q[0] + sub[0] * q[-1] / gamma)
    return np.array(y) - factor * np.array(q)


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
        return float(np.abs(self.energy_exact - self.energy_lumped).max())


def solve_weights(system: WeightSystem, mode: str = "exact") -> WeightSet:
    """Cluster weights with ``mode``, one of WEIGHT_MODES, active (checked
    first): the exact set solves the weight equations directly.

    Uniform meshes and r = 0 short-circuit to the lumped closed form, which
    satisfies the equations exactly there.  One step of iterative refinement
    keeps the residual at the rounding floor on every other mesh.
    """
    if mode not in WEIGHT_MODES:
        raise UnknownFamily(f"unknown weight mode {mode!r}; choose from {WEIGHT_MODES}")
    lumped = system.g / system.rule.size
    # residual of the lumped weights row by row; the diagonal part cancels
    # exactly because (2r+1)*lumped_j = g_j, leaving only difference terms
    residual = system.sub * (ring(lumped, 1) - lumped) + system.sup * (ring(lumped, -1) - lumped)
    steps = system.rule.mesh.steps
    if system.rule.r == 0 or (steps == steps[0]).all():
        exact = lumped
    else:
        exact = _solve_cyclic_tridiagonal(system, system.g)
        exact += _solve_cyclic_tridiagonal(system, system.g - system.apply(exact))
    defect = np.abs(system.apply(exact) - system.g).max()
    scale = np.abs(system.g).max()
    if not defect <= 1e-12 * scale:
        raise IllPosed(f"weight system solve stalled at relative residual {defect / scale:.3e}")
    if (exact <= 0.0).any():
        raise IllPosed("computed cluster weights are not all positive")
    for arr in (exact, lumped, residual):
        arr.setflags(write=False)
    return WeightSet(rule=system.rule, mode=mode,
                     energy_exact=exact, energy_lumped=lumped, residual=residual)


def _support_sum(n: int, lo: int, length: int, fill: Callable[[np.ndarray, int], None],
                 scratch: np.ndarray) -> float:
    """np.sum of n values that vanish outside slots lo .. lo+length-1,
    continued at slot 0 past slot n-1, bit for bit (model.pairwise_sum);
    fill(out, p) writes the values at positions p .. p+out.size-1 of that
    support into out.  A node is built in scratch, of at least BLOCK_VALUES
    values."""
    spans = [(0, lo + length - n)] if lo + length > n else []
    spans.append((lo, min(lo + length, n)))

    def values(start: int, stop: int) -> np.ndarray:
        out = scratch[: stop - start]
        out.fill(0.0)
        for a, b in spans:
            a, b = max(a, start), min(b, stop)
            if a < b:
                fill(out[a - start : b - start], (a - lo) % n)
        return out

    return pairwise_sum(n, values, spans)


def verify_exactness(weights: WeightSet) -> float:
    """Largest hat-summation defect of the active weights, by brute force.

    For every node j the full-lattice sum eps*sum_ell hat_j(eps*ell) is
    compared against the weighted cluster sums; exact weights push this to
    the rounding floor by construction.  Each sum is np.sum over the whole
    zero-padded lattice (2N values) or over the 2K clusters, bit for bit,
    but built from where hat j is nonzero (`_support_sum`): its two
    elements, whose ramps are computed a slice at a time, and the clusters
    of nodes j-1, j and j+1.  Those three cluster sums of the hat come from
    hat_of_distance, basis_value's formula, for many hats at once.
    """
    rule = weights.rule
    mesh = rule.mesh
    n2k, n2 = 2 * mesh.K, 2 * mesh.N
    # weighted[t, i]: the active weight of cluster t-1+i times hat t summed over it
    weighted = np.empty((n2k, 3))
    per = max(1, BLOCK_VALUES // (3 * rule.size))
    for a in range(0, n2k, per):
        t = np.arange(a, min(a + per, n2k))[:, None, None]
        near = (t + np.arange(-1, 2)[:, None]) % n2k
        d = (mesh.repatoms[near] + np.arange(-rule.r, rule.r + 1) - mesh.repatoms[t - 1]) % n2
        sums = hat_of_distance(d, mesh.steps[t], mesh.steps[(t + 1) % n2k]).sum(axis=-1)
        weighted[a : a + t.size] = weights.energy[near[..., 0]] * sums
    steps, firsts = mesh.steps.tolist(), mesh.first_slots.tolist()
    scratch = np.empty(BLOCK_VALUES)
    worst = 0.0
    for t in range(n2k):
        rise, fall = steps[t], steps[(t + 1) % n2k]

        def hat(out: np.ndarray, p: int) -> None:
            # hat t rises over element t and falls over element t+1 up to node t+1
            up = max(0, min(out.size, rise - p))
            out[:up] = hat_ramp(rise, p, p + up)
            if up < out.size:
                np.subtract(1.0, hat_ramp(fall, p + up - rise, p + out.size - rise), out=out[up:])

        def clusters(out: np.ndarray, p: int) -> None:
            out[:] = weighted[t, p : p + out.size]

        full = 1.0 / mesh.N * _support_sum(n2, firsts[t], rise + fall - 1, hat, scratch)
        clustered = _support_sum(n2k, (t - 1) % n2k, 3, clusters, scratch)
        worst = max(worst, abs(full - clustered))
    return worst
