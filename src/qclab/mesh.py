"""Coarse space over the chain: node meshes, hat basis, prolongation, exact
dead loads, and per-element smoothness coefficients.

A mesh keeps 2K of the 2N lattice sites as nodes.  Logical node indices
k = -K+1 .. K map to storage slots 0 .. 2K-1 via slot = k + K - 1, mirroring
the lattice convention, and extend periodically by node[k + 2K] = node[k] + 2N.
Element k is the half-open span (node[k-1], node[k]] of lattice sites; it
shares the slot of its right node, so slot 0 holds the wrap element.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import ConstraintViolation, MeshBuildError, QCLabError, ShapeMismatch, UnknownFamily
from .model import BLOCK_VALUES, ChainModel, check_lattice_size, slot_of_site


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
        if self.family not in _BUILDERS:
            raise UnknownFamily(f"unknown mesh family {self.family!r}; know {tuple(_BUILDERS)}")


@dataclass(frozen=True, eq=False)
class CoarseMesh:
    """Realized mesh: node indices, integer steps, element sizes, regularity.

    ``repatoms`` holds the node lattice indices for k = -K+1 .. K; node 0 is
    always the lattice site 0.  ``steps``, ``h`` and ``first_slots`` are
    per-element (slot order, wrap element first); ``first_slots`` holds the
    lattice slot of each element's first site, the one after its left node.
    ``kappa`` is the largest ratio of neighbouring element sizes, wrap pair
    included.
    """

    N: int
    K: int
    repatoms: np.ndarray
    steps: np.ndarray = field(init=False)
    h: np.ndarray = field(init=False)
    first_slots: np.ndarray = field(init=False)
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
        first_slots = slot_of_site(reps - steps + 1, N)
        first_slots.setflags(write=False)
        ratio = steps / np.roll(steps, 1)
        kappa = float(np.max(np.maximum(ratio, 1.0 / ratio)))
        object.__setattr__(self, "repatoms", reps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "first_slots", first_slots)
        object.__setattr__(self, "kappa", kappa)


def _build_uniform(spec: MeshSpec) -> np.ndarray:
    if spec.N % spec.K:
        raise MeshBuildError(f"uniform family needs K | N, got N={spec.N}, K={spec.K}")
    step = spec.N // spec.K
    return np.arange(-spec.K + 1, spec.K + 1) * step


def _build_graded(spec: MeshSpec) -> np.ndarray:
    # N = 2^(K-1) read off N's bits: 2 ** (K - 1) of a huge K is a huge integer
    N = int(spec.N)
    if N & (N - 1) or N.bit_length() != spec.K:
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
    # a valid list holds 0 and spans less than 2N; checked before numpy sees
    # an index too large for int64
    n2 = 2 * spec.N
    outside = [i for i in spec.indices if not -n2 < i < n2]
    if outside:
        raise MeshBuildError(f"custom node index {outside[0]} lies outside (-2N, 2N) = "
                             f"({-n2}, {n2})")
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


_BUILDERS = {"uniform": _build_uniform, "graded": _build_graded,
             "oscillatory": _build_oscillatory, "smooth": _build_smooth, "custom": _build_custom}


def build_mesh(spec: MeshSpec) -> CoarseMesh:
    """Construct the node mesh of the requested family."""
    if spec.K < 2:
        raise MeshBuildError(f"need at least K = 2 node pairs, got K = {spec.K}")
    check_lattice_size(spec.N)
    if spec.K > spec.N:
        raise MeshBuildError(
            f"2K distinct nodes on 2N lattice sites need K <= N, got N={spec.N}, K={spec.K}"
        )
    return CoarseMesh(N=spec.N, K=spec.K, repatoms=_BUILDERS[spec.family](spec))


def read_entries(path, error: type[QCLabError], what: str) -> Iterator[tuple[int, str, str]]:
    """(line number, line, entry) of each line whose text before any "#", stripped, is not blank."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path!r}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        entry = line.split("#", 1)[0].strip()
        if entry:
            yield lineno, line, entry


def load_custom_indices(path) -> tuple[int, ...]:
    """Read a custom node list: one integer lattice index per read_entries entry."""
    indices = []
    for lineno, _, entry in read_entries(path, MeshBuildError, "custom node list"):
        try:
            indices.append(int(entry))
        except ValueError:
            raise MeshBuildError(f"{path}:{lineno}: not an integer: {entry!r}") from None
    return tuple(indices)


# family -> (the MeshSpec field that "family:BODY" sets, the reader of BODY,
# whether BODY is required); a family not listed takes no BODY
_PARAMETERS = {"smooth": ("amplitude", float, False),
               "custom": ("indices", load_custom_indices, True)}


def parse_mesh_descriptor(text: str, N: int, K: int) -> MeshSpec:
    """Parse the mesh mini-language: a family, then ":BODY" where its row of
    _PARAMETERS takes one; errors are UnknownFamily, or MeshBuild from a node list."""
    name, _, body = text.partition(":")
    field, read, required = _PARAMETERS.get(name := name.strip(), (None, None, False))
    if (body and field is None) or (required and not body):
        raise UnknownFamily(f"mesh family {name!r} takes {'a' if field else 'no'} parameter, "
                            f"got {text!r}")
    try:
        return MeshSpec(family=name, N=N, K=K, **({field: read(body)} if body else {}))
    except ValueError:
        raise UnknownFamily(f"bad {field} in mesh descriptor {text!r}") from None


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
    tj = int(slot_of_site(j, mesh.K))
    left = mesh.repatoms[tj - 1] if tj else mesh.repatoms[-1] - 2 * mesh.N
    d = (np.asarray(ell) - left) % (2 * mesh.N)
    out = hat_of_distance(d, mesh.steps[tj], mesh.steps[(tj + 1) % (2 * mesh.K)])
    return out if out.ndim else float(out)


def hat_of_distance(d, s_in, s_out) -> np.ndarray:
    """The hat over two elements of s_in and s_out sites at lattice distance
    d = 0 .. 2N-1 past the node before them: d/s_in on the first element,
    1 - (d - s_in)/s_out on the second, 0 elsewhere.  Arrays broadcast."""
    rising = d / s_in
    falling = 1.0 - (d - s_in) / s_out
    out = np.where(d <= s_in, rising, np.where(d < s_in + s_out, falling, 0.0))
    return np.where(d == 0, 0.0, out)


def hat_ramp(s: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """The rising hat values (start+1 .. stop)/s at distances start+1..stop
    into an element of s sites (all s of them by default), bit for bit
    hat_of_distance's d/s_in; 1.0 minus it is the falling ramp, its
    1 - (d - s_in)/s_out.  Every numerator is an exact integer, so a slice
    of the ramp is computed alone."""
    up = np.arange(start + 1.0, (s if stop is None else stop) + 1.0)
    up /= s
    return up


def prolong(*fields: NodalField) -> list[Callable[..., np.ndarray]]:
    """The piecewise-affine extensions of nodal fields of one mesh to every
    lattice site, one function of a row range per field (one field or more):
    rows(start, stop, out=None) writes its slots start..stop-1, 0 <= start <=
    stop <= 2N, into out (a new array if None) in O(stop - start) memory.  The
    fields share one search for a row range's elements and fractions i/s.

    Per site, in element order (from the site after the wrap element's left
    node): left + (i/s)*(right - left) at distance i = 1..s into an element
    of s sites, and the node value itself, bitwise, at i = s.
    """
    mesh = fields[0].mesh
    for V in fields[1:]:
        check_field(mesh, V)
    lefts = [np.roll(V.values, 1) for V in fields]
    rises = [V.values - left for V, left in zip(fields, lefts)]
    steps, n2, shift = mesh.steps, 2 * mesh.N, int(mesh.first_slots[0])
    ends = np.cumsum(steps)
    starts = ends - steps

    @functools.lru_cache(maxsize=1)  # the last row range, which each field reads in turn
    def search(start: int, stop: int) -> list[tuple]:
        pieces, at, done = [], (start - shift) % n2, 0  # at: element-order position of start
        while done < stop - start:  # twice if the range wraps past element order's end
            lo, hi = at, at + min(stop - start - done, n2 - at)
            # the elements meeting positions lo .. hi-1, and how many of them each holds
            t = slice(np.searchsorted(ends, lo, "right"),
                      np.searchsorted(ends, hi - 1, "right") + 1)
            counts = np.minimum(ends[t], hi) - np.maximum(starts[t], lo)
            i = np.arange(lo + 1, hi + 1) - np.repeat(starts[t], counts)  # distance into element
            nodes = ends[t][ends[t] <= hi] - (lo + 1)  # the nodes inside: t's first ones
            pieces.append((done, t, counts, i / np.repeat(steps[t], counts), nodes))
            at, done = 0, done + hi - lo
        return pieces

    def rows(j: int, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(stop - start) if out is None else out
        for done, t, counts, fractions, nodes in search(start, stop):
            piece = out[done : done + fractions.size]
            np.multiply(fractions, np.repeat(rises[j][t], counts), out=piece)
            piece += np.repeat(lefts[j][t], counts)
            piece[nodes] = fields[j].values[t][: nodes.size]  # exact node values
        return out

    return [functools.partial(rows, j) for j in range(len(fields))]


def smoothness_profile(mesh: CoarseMesh) -> np.ndarray:
    """Per-element relative second difference of the element sizes, slot
    order, read-only.

    coefficient_k = (h_{k-1} - 2 h_k + h_{k+1}) / (4 h_k), computed from the
    realized sizes; identically zero exactly on uniform meshes.  These are the
    multiplicative energy perturbations introduced by node-cluster summation.
    """
    h = mesh.h
    second = (np.roll(h, 1) - 2.0 * h) + np.roll(h, -1)
    coeff = second / (4.0 * h)
    coeff.setflags(write=False)
    return coeff


def exact_load(mesh: CoarseMesh, model: ChainModel) -> np.ndarray:
    """Dead load paired with each hat: f[hat_j] = sum eps*f_ell*hat_j(eps*ell),
    accumulated over the full lattice, slot order.

    The elements of one step length s are reduced together: np.vecdot dots
    their rows of s force samples with the rising ramp hat_ramp(s), then
    with the falling one, which overwrites it, so one ramp is alive at a
    time.  Per row it calls the BLAS ddot that np.dot calls on one
    element's slice, so every load is bit for bit the element-by-element dot
    (np.dot of a one-site element is the plain product, which can differ
    only in the sign of a zero, and the sum into zeros below drops that).
    Every length gathers its rows from one sliding-window view of the
    samples, at most BLOCK_VALUES samples or one row at a time, and a row
    longer than that stays a view.  The one element that can cross the last
    slot (when the lattice site N is no node) is copied out whole.  Both
    dots of every element land in one 2 x 2K array, in step-length order,
    which is scattered to slot order once.
    """
    check_lattice(model, mesh)
    f = model.force.samples
    n2, item = f.size, f.itemsize
    steps, firsts = mesh.steps, mesh.first_slots
    # element slots by step length, the element that crosses the last slot last
    wraps = firsts > n2 - steps
    order = np.argsort(np.where(wraps, n2, steps), kind="stable")
    inside = order.size - int(wraps[order[-1]])
    del wraps
    heads = np.flatnonzero(np.diff(steps[order[:inside]], prepend=0))  # where each length starts
    bounds = [*heads.tolist(), inside]
    sums = np.empty((2, order.size))  # rising and falling dots of the elements of order
    for a, b in zip(bounds, bounds[1:]):
        lo, s = firsts[order[a:b]], int(steps[order[a]])
        windows = np.ndarray((n2 - s + 1, s), f.dtype, f, 0, (item, item))  # row i: f[i : i + s]
        per = max(1, BLOCK_VALUES // s)
        ramp = hat_ramp(s)
        for side, dots in enumerate(sums[:, a:b]):
            if side:
                np.subtract(1.0, ramp, out=ramp)  # the falling ramp
            for at in range(0, b - a, per):
                block = lo[at : at + per]
                rows = windows[block] if block.size > 1 else windows[block[0], None]
                np.vecdot(rows, ramp, out=dots[at : at + block.size])
        del ramp, lo  # before the next length builds its own
    for t in order[inside:].tolist():
        row = np.concatenate((f[firsts[t]:], f[: firsts[t] + steps[t] - n2]))
        ramp = hat_ramp(int(steps[t]))
        sums[0, -1] = np.vecdot(row, ramp)
        sums[1, -1] = np.vecdot(row, np.subtract(1.0, ramp, out=ramp))
    # hat t collects the rising ramp of element t and the falling ramp of t+1
    out = np.zeros(order.size)
    out[order] += sums[0]
    order -= 1  # slot -1 is the last
    out[order] += sums[1]
    out *= model.epsilon
    return out
