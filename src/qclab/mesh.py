"""Coarse space over the chain: node meshes, hat basis, prolongation, exact
dead loads, and per-element smoothness coefficients.

A mesh keeps 2K of the 2N lattice sites as nodes.  Logical node indices
k = -K+1 .. K map to storage slots 0 .. 2K-1 via slot = k + K - 1, mirroring
the lattice convention, and extend periodically by node[k + 2K] = node[k] + 2N.
Element k is the half-open span (node[k-1], node[k]] of lattice sites; it
shares the slot of its right node, so slot 0 holds the wrap element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConstraintViolation, MeshBuildError, ShapeMismatch, UnknownFamily
from .model import ChainModel, Displacement, slot_of_site

_FAMILIES = ("uniform", "graded", "oscillatory", "smooth", "custom")


@dataclass(frozen=True)
class MeshSpec:
    """Parameters from which a mesh is built.

    ``amplitude`` is the deformation amplitude of the smooth family's node
    map x -> x + amplitude*sin(pi*x); ``indices`` is the explicit node list
    of the custom family (one period, must contain 0).
    """

    family: str
    N: int
    K: int
    amplitude: float = 0.2
    indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise UnknownFamily(f"unknown mesh family {self.family!r}; know {_FAMILIES}")


@dataclass(frozen=True, eq=False)
class CoarseMesh:
    """Realized mesh: node indices, integer steps, element sizes, regularity.

    ``repatoms`` holds the node lattice indices for k = -K+1 .. K; node 0 is
    always the lattice site 0.  ``steps`` and ``h`` are per-element (slot
    order, wrap element first); ``kappa`` is the largest ratio of neighbouring
    element sizes, wrap pair included.
    """

    N: int
    K: int
    repatoms: np.ndarray
    steps: np.ndarray = field(init=False)
    h: np.ndarray = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        reps = np.array(self.repatoms, dtype=int)
        K, N = self.K, self.N
        if K < 2:
            raise MeshBuildError(f"need at least K = 2 node pairs, got K = {K}")
        if reps.shape != (2 * K,):
            raise ShapeMismatch(f"need 2K = {2 * K} node indices, got {reps.shape}")
        if np.any(np.diff(reps) <= 0):
            raise MeshBuildError("node indices must be strictly increasing")
        if reps[K - 1] != 0:
            raise MeshBuildError("lattice site 0 must be the node with index 0")
        steps = np.diff(reps, prepend=reps[-1] - 2 * N)
        if steps[0] <= 0:
            raise MeshBuildError("node indices span more than one period")
        reps.setflags(write=False)
        steps.setflags(write=False)
        h = steps / N
        h.setflags(write=False)
        ratio = steps / np.roll(steps, 1)
        kappa = float(np.max(np.maximum(ratio, 1.0 / ratio)))
        object.__setattr__(self, "repatoms", reps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "kappa", kappa)

    @property
    def epsilon(self) -> float:
        return 1.0 / self.N

    def node_slot(self, k) -> np.ndarray:
        return (np.asarray(k) + self.K - 1) % (2 * self.K)

    def node(self, k):
        """Lattice index of logical node(s) k, extended by node[k+2K] = node[k]+2N."""
        k = np.asarray(k)
        cycle, rem = np.divmod(k + self.K - 1, 2 * self.K)
        return self.repatoms[rem] + cycle * 2 * self.N

    def element_of_slot(self) -> np.ndarray:
        """Element slot owning each lattice slot (sites sorted by coordinate)."""
        owners = np.repeat(np.arange(2 * self.K), self.steps)
        sites = np.arange(self.repatoms[-1] - 2 * self.N + 1, self.repatoms[-1] + 1)
        out = np.empty(2 * self.N, dtype=int)
        out[slot_of_site(sites, self.N)] = owners
        return out


def _build_uniform(spec: MeshSpec) -> np.ndarray:
    if spec.N % spec.K:
        raise MeshBuildError(f"uniform family needs K | N, got N={spec.N}, K={spec.K}")
    step = spec.N // spec.K
    return np.arange(-spec.K + 1, spec.K + 1) * step


def _build_graded(spec: MeshSpec) -> np.ndarray:
    if spec.N != 2 ** (spec.K - 1):
        raise MeshBuildError(
            f"graded family needs N = 2^(K-1), got N={spec.N}, K={spec.K}"
        )
    k = np.arange(-spec.K + 1, spec.K + 1)
    return np.sign(k) * 2 ** np.maximum(np.abs(k) - 1, 0) * (k != 0)


def _build_oscillatory(spec: MeshSpec) -> np.ndarray:
    N, K = spec.N, spec.K
    m = (2 * N) // (3 * K)
    if m < 1:
        raise MeshBuildError(f"oscillatory family needs 2N >= 3K, got N={N}, K={K}")
    k = np.arange(-K + 1, K + 1)
    steps = np.where(k % 2 == 0, 2 * m, m)
    # remainder of the integerization widens the two elements touching x = -1/x = 1
    extra = 2 * N - 3 * K * m
    steps[0] += extra // 2
    steps[-1] += extra - extra // 2
    nodes = np.cumsum(steps) - np.sum(steps[: K - 1]) - steps[K - 1]
    return nodes


def _build_smooth(spec: MeshSpec) -> np.ndarray:
    alpha = spec.amplitude
    if not abs(alpha) * np.pi < 1.0:  # NaN fails this test too
        raise MeshBuildError(
            f"smooth node map needs |amplitude|*pi < 1 to stay monotone, got {alpha}"
        )
    k = np.arange(-spec.K + 1, spec.K + 1)
    x = k / spec.K
    nodes = np.rint(spec.N * (x + alpha * np.sin(np.pi * x))).astype(int)
    if np.any(np.diff(nodes) <= 0):
        raise MeshBuildError(
            "smooth node map rounded two nodes onto the same lattice site; "
            "increase N or decrease K"
        )
    return nodes


def _build_custom(spec: MeshSpec) -> np.ndarray:
    if spec.indices is None:
        raise MeshBuildError("custom family needs an explicit node index list")
    raw = np.array(spec.indices, dtype=int)
    if raw.size < 4 or raw.size % 2:
        raise MeshBuildError(f"custom node list must have even length >= 4, got {raw.size}")
    if np.any(np.diff(raw) <= 0):
        raise MeshBuildError("custom node list must be strictly increasing")
    if raw[-1] - raw[0] >= 2 * spec.N:
        raise MeshBuildError("custom node list spans more than one period")
    where = np.flatnonzero(raw == 0)
    if where.size == 0:
        raise MeshBuildError("custom node list must contain lattice site 0")
    # relabel periodically so site 0 becomes node 0 (pure rotation, same mesh)
    K = raw.size // 2
    ext = np.concatenate([raw - 2 * spec.N, raw, raw + 2 * spec.N])
    at = raw.size + int(where[0])
    return ext[at - (K - 1) : at + K + 1]


def build_mesh(spec: MeshSpec) -> CoarseMesh:
    """Construct the node mesh of the requested family."""
    if spec.K < 2:
        raise MeshBuildError(f"need at least K = 2 node pairs, got K = {spec.K}")
    if spec.N < 2:
        raise MeshBuildError(f"need N >= 2 atoms per half-period, got N = {spec.N}")
    builder = {
        "uniform": _build_uniform,
        "graded": _build_graded,
        "oscillatory": _build_oscillatory,
        "smooth": _build_smooth,
        "custom": _build_custom,
    }[spec.family]
    return CoarseMesh(N=spec.N, K=spec.K, repatoms=builder(spec))


def load_custom_indices(path) -> tuple[int, ...]:
    """Read a custom node list: one integer lattice index per line."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshBuildError(f"cannot read custom node list {path!r}: {exc}") from None
    indices = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            indices.append(int(stripped))
        except ValueError:
            raise MeshBuildError(f"{path}:{lineno}: not an integer: {stripped!r}") from None
    return tuple(indices)


def parse_mesh_descriptor(text: str, N: int, K: int) -> MeshSpec:
    """Parse the mesh mini-language: a family name, "smooth:AMPLITUDE",
    or "custom:PATH"."""
    name, _, body = text.partition(":")
    name = name.strip()
    if name == "smooth" and body:
        try:
            return MeshSpec(family="smooth", N=N, K=K, amplitude=float(body))
        except ValueError:
            raise UnknownFamily(f"bad smooth amplitude in {text!r}") from None
    if name == "custom":
        if not body:
            raise UnknownFamily("custom mesh descriptor needs a file path: custom:PATH")
        return MeshSpec(family="custom", N=N, K=K, indices=load_custom_indices(body))
    if body:
        raise UnknownFamily(f"mesh family {name!r} takes no parameters, got {text!r}")
    return MeshSpec(family=name, N=N, K=K)


@dataclass(frozen=True, eq=False)
class NodalField:
    """Per-node values V_k, pinned to 0 at node 0, slot order."""

    mesh: CoarseMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (2 * self.mesh.K,):
            raise ShapeMismatch(f"need {2 * self.mesh.K} nodal values, got {vals.shape}")
        if vals[self.mesh.K - 1] != 0.0:
            raise ConstraintViolation("nodal field must vanish at node 0")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def at(self, k):
        """Value(s) at logical node index(es), reduced 2K-periodically."""
        return self.values[self.mesh.node_slot(k)]

    def gradients(self) -> np.ndarray:
        """Per-element gradients V_k' = (V_k - V_{k-1})/h_k, slot order."""
        v = self.values
        return (v - np.roll(v, 1)) / self.mesh.h


def check_lattice(model: ChainModel, mesh: CoarseMesh) -> None:
    """Reject a mesh built for a lattice of another size than the model's."""
    if model.N != mesh.N:
        raise ShapeMismatch(f"mesh was built for N={mesh.N}, not N={model.N}")


def check_field(mesh: CoarseMesh, V: NodalField) -> None:
    """Reject a nodal field built on a different mesh."""
    if V.mesh is not mesh and (
        V.mesh.N != mesh.N or not np.array_equal(V.mesh.repatoms, mesh.repatoms)
    ):
        raise ShapeMismatch("nodal field belongs to a different mesh")


def basis_value(mesh: CoarseMesh, j: int, ell):
    """Hat function of node j evaluated at lattice site(s) ell.

    1 at node j, affine down to 0 at nodes j-1 and j+1, zero outside; indices
    reduce periodically.  Scalar ell gives a float, an array gives an array.
    """
    tj = int(mesh.node_slot(j))
    left = mesh.repatoms[tj - 1] if tj else mesh.repatoms[-1] - 2 * mesh.N
    s_in = mesh.steps[tj]
    s_out = mesh.steps[(tj + 1) % (2 * mesh.K)]
    d = (np.asarray(ell) - left) % (2 * mesh.N)
    rising = d / s_in
    falling = 1.0 - (d - s_in) / s_out
    out = np.where(d <= s_in, rising, np.where(d < s_in + s_out, falling, 0.0))
    out = np.where(d == 0, 0.0, out)
    return out if out.ndim else float(out)


def prolong(V: NodalField) -> Displacement:
    """Piecewise-affine extension of nodal values to every lattice site.

    The recorded gradients are exactly the element gradients, and node slots
    carry the nodal values bitwise.
    """
    mesh = V.mesh
    vals = V.values
    lefts = np.roll(vals, 1)
    steps = mesh.steps
    ends = np.cumsum(steps)
    # element order (wrap element first); per site: left + frac*(right - left)
    # with frac = i/s, the same IEEE operations as a per-element blend
    seq = np.arange(1, 2 * mesh.N + 1, dtype=float)
    seq -= np.repeat(ends - steps, steps)
    seq /= np.repeat(steps, steps)
    seq *= np.repeat(vals - lefts, steps)
    seq += np.repeat(lefts, steps)
    seq[ends - 1] = vals  # exact node values, immune to rounding in the blend
    # element order starts at the site after the wrap element's left node
    shift = int(slot_of_site(mesh.repatoms[-1] - 2 * mesh.N + 1, mesh.N))
    values = np.roll(seq, shift)
    gradients = np.roll(np.repeat(V.gradients(), steps), shift)
    return Displacement(N=mesh.N, values=values, gradients=gradients)


@dataclass(frozen=True, eq=False)
class SmoothnessProfile:
    """Per-element relative second difference of the element sizes.

    coefficient_k = (h_{k-1} - 2 h_k + h_{k+1}) / (4 h_k), computed from the
    realized sizes; identically zero exactly on uniform meshes.  These are the
    multiplicative energy perturbations introduced by node-cluster summation.
    """

    coefficients: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coefficients)))


def smoothness_profile(mesh: CoarseMesh) -> SmoothnessProfile:
    h = mesh.h
    second = (np.roll(h, 1) - 2.0 * h) + np.roll(h, -1)
    coeff = second / (4.0 * h)
    coeff.setflags(write=False)
    return SmoothnessProfile(coefficients=coeff)


def exact_load(mesh: CoarseMesh, model: ChainModel) -> np.ndarray:
    """Dead load paired with each hat: f[hat_j] = sum eps*f_ell*hat_j(eps*ell),
    accumulated over the full lattice, slot order."""
    check_lattice(model, mesh)
    # forces in element order, so each element's sites form one contiguous slice
    start = int(slot_of_site(mesh.repatoms[-1] - 2 * mesh.N + 1, mesh.N))
    f = np.roll(model.force.samples, -start)
    ramps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    rising = np.empty(2 * mesh.K)
    falling = np.empty(2 * mesh.K)
    at = 0
    for t, s in enumerate(mesh.steps.tolist()):
        if s not in ramps:
            up = np.arange(1, s + 1) / s
            ramps[s] = (up, 1.0 - up)
        up, down = ramps[s]
        seg = f[at : at + s]
        rising[t] = np.dot(seg, up)
        falling[t] = np.dot(seg, down)
        at += s
    # hat t collects the rising ramp of element t and the falling ramp of t+1
    out = np.zeros(2 * mesh.K)
    out += rising
    out += np.roll(falling, -1)
    return model.epsilon * out
