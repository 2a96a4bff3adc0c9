"""Atomistic chain: lattice indexing, pair potentials, external forces, the
stored energy, and the discrete energy norm.

One period holds 2N atoms with spacing epsilon = 1/N on the torus (-1, 1].
Logical site indices ell = -N+1 .. N map to storage slots 0 .. 2N-1 via
slot = ell + N - 1; every array in this package is stored in slot order,
which is also ascending order of the coordinates x = epsilon*ell.  Bond ell
connects sites ell-1 and ell, so the bond array shares the site slot layout
and slot 0 holds the wrap bond.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LatticeTooLarge, QCLabError, ShapeMismatch, UnknownFamily

# The largest lattice: its 2N float64 values take 2**62 bytes, half of
# numpy's largest array (2**63 - 1 bytes), so the sizes numpy derives in
# floating point (np.arange) and every lattice or node index (a few
# multiples of N) stay inside int64.
MAX_N = 2**58


def lattice_coordinates(N: int, start: int = 0, stop: int | None = None, out=None) -> np.ndarray:
    """Site coordinates x = epsilon*ell in (-1, 1], slot order; slots
    start..stop-1 of them when a row range is given, written into out if given."""
    stop = 2 * N if stop is None else stop
    return np.divide(np.arange(start - N + 1, stop - N + 1), N, out=out)


def check_lattice_size(N: int) -> None:
    """Reject N < 2 and, before index arithmetic overflows, N > MAX_N."""
    if N < 2:
        raise ShapeMismatch(f"need N >= 2 atoms per half-period, got {N}")
    if N > MAX_N:
        raise LatticeTooLarge(f"N = {N} exceeds the largest lattice numpy can index, "
                              f"N = {MAX_N}")


def slot_of_site(ell, N: int):
    """Storage slot(s) of logical site index(es), reduced 2N-periodically."""
    return (np.asarray(ell) + N - 1) % (2 * N)


BLOCK_VALUES = 2**14  # lattice values a blockwise pass holds at a time, 128 KiB


def pairwise_sum(n: int, values: Callable[[int, int], np.ndarray],
                 spans: list[tuple[int, int]] | None = None) -> float:
    """np.sum of n float64 values, bit for bit, holding at most BLOCK_VALUES of
    them at a time; values(start, stop) returns values start..stop-1.

    np.sum of a contiguous array of n > 128 values is np.sum of its first
    m = n//2 - (n//2) % 8 values plus np.sum of the rest (numpy's pairwise
    tree), so a node is split until it holds at most BLOCK_VALUES values.  When
    the values vanish outside ``spans``, ascending disjoint slot ranges, a
    child holding none of them is skipped, also below BLOCK_VALUES: its sum
    +0.0 changes no sum but -0.0.
    """
    return _node_sum(0, n, [(0, n)] if spans is None else spans, values)


def _node_sum(start: int, size: int, spans: list[tuple[int, int]],
              values: Callable[[int, int], np.ndarray]) -> float:
    """pairwise_sum over the tree node of size slots from slot start."""
    lo, hi = spans[0][0], spans[-1][1]
    while size > 128:
        mid = start + size // 2 - (size // 2) % 8
        if hi <= mid:
            size = mid - start
        elif lo >= mid:
            start, size = mid, start + size - mid
        elif size <= BLOCK_VALUES:
            break
        else:
            left = [(a, min(b, mid)) for a, b in spans if a < mid]
            right = [(max(a, mid), b) for a, b in spans if b > mid]
            return (_node_sum(start, mid - start, left, values)
                    + _node_sum(mid, start + size - mid, right, values))
    return float(np.add.reduce(values(start, start + size)))  # np.sum, without its wrapper


def _frozen(values, length: int, what: str) -> np.ndarray:
    """values as a read-only contiguous float64 array of shape (length,); an
    array that already is one is kept as it is, not copied."""
    kept = (isinstance(values, np.ndarray) and values.dtype == np.float64
            and not values.flags.writeable and values.flags.c_contiguous)
    out = values if kept else np.array(values, dtype=float)
    if out.shape != (length,):
        raise ShapeMismatch(f"{what} must have length {length}, got shape {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PairPotential:
    """Nearest-neighbour interaction phi acting on bond strains.

    ``second`` must stay positive on every queried strain range; solvers check
    this at each iterate for non-quadratic potentials.
    """

    value: Callable
    deriv: Callable
    second: Callable
    is_quadratic: bool
    name: str = "custom"


def harmonic_potential() -> PairPotential:
    """phi(r) = r^2/2, so phi'(r) = r and phi''(r) = 1 exactly."""
    return PairPotential(
        value=lambda r: 0.5 * np.square(r),
        deriv=np.positive,
        second=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        is_quadratic=True,
        name="harmonic",
    )


def quartic_potential(beta: float = 0.25) -> PairPotential:
    """Convex anharmonic test case phi(r) = r^2/2 + beta*r^4/4 with beta >= 0."""
    b = float(beta)
    if b < 0:
        raise QCLabError("quartic potential requires beta >= 0 to stay convex")
    return PairPotential(
        value=lambda r: 0.5 * np.square(r) + 0.25 * b * np.square(np.square(r)),
        deriv=lambda r: r + b * r**3,
        second=lambda r: 1.0 + 3.0 * b * np.square(r),
        is_quadratic=False,
        name=f"quartic:{b:g}",
    )


class ExternalForce:
    """2N-periodic dead load, slot order: the closed form fbar(x) at
    x = epsilon*ell, named by ``spec``, or explicit samples.  ``rows(start,
    stop)`` and ``at(ell)`` evaluate fbar on those slots or sites alone
    (UnknownFamily if not finite) until ``samples`` is read: built
    BLOCK_VALUES sites at a time by rows, kept."""

    def __init__(self, N: int, samples=None, fbar: Callable | None = None, spec: str = ""):
        self.N, self.fbar, self.spec = N, fbar, spec
        if samples is not None:
            self.__dict__["samples"] = _frozen(samples, 2 * N, "force samples")

    @functools.cached_property
    def samples(self) -> np.ndarray:
        out = np.empty(2 * self.N)
        for at in range(0, out.size, BLOCK_VALUES):
            out[at : at + BLOCK_VALUES] = self.rows(at, min(at + BLOCK_VALUES, out.size))
        out.setflags(write=False)
        return out

    def rows(self, start: int, stop: int) -> np.ndarray:
        if "samples" in self.__dict__:
            return self.samples[start:stop]
        return self._closed_form(lattice_coordinates(self.N, start, stop))

    def at(self, ell):
        """Sample(s) at logical site index(es), reduced 2N-periodically."""
        slots = slot_of_site(ell, self.N)
        if "samples" in self.__dict__:
            return self.samples[slots]
        return self._closed_form((slots - (self.N - 1)) / self.N)

    def _closed_form(self, x) -> np.ndarray:
        """fbar(x), rejected (UnknownFamily) where it is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            out = self.fbar(x)
        if not np.isfinite(out).all():
            raise UnknownFamily(f"force descriptor {self.spec!r} produced non-finite samples")
        return out


# family -> (parameter count, closed form of the parameters): "gauss:A,B" is gauss(A, B)
_FORCES: dict[str, tuple[int, Callable[..., Callable]]] = {
    "sinpi": (0, lambda: lambda x: np.sin(np.pi * x)),
    "gauss": (2, lambda amp, width: lambda x: amp * np.exp(-width * np.square(x))),
    "const": (1, lambda level: lambda x: np.full_like(x, level)),
    "lin": (2, lambda offset, slope: lambda x: offset + slope * x),
}


def _force_closed_form(spec: str) -> Callable:
    name, _, body = spec.partition(":")
    if (name := name.strip()) not in _FORCES:
        raise UnknownFamily(f"unknown force family in descriptor {spec!r}")
    count, closed_form = _FORCES[name]
    parts = body.split(",") if body else []
    if len(parts) != count:
        raise UnknownFamily(f"force descriptor {spec!r} needs {count} parameter(s)")
    try:
        return closed_form(*map(float, parts))
    except ValueError as exc:
        raise UnknownFamily(f"bad parameter in force descriptor {spec!r}: {exc}") from None


def sample_force(spec: str, N: int) -> ExternalForce:
    """The force named by ``spec``, kept as its closed form: parsed now,
    evaluated at x = epsilon*ell only when read (ExternalForce.rows, .samples).

    Families, one row each of _FORCES: "sinpi" -> sin(pi x); "gauss:A,B" ->
    A exp(-B x^2); "const:C"; "lin:a,b" -> a + b x on (-1, 1], 2-periodic.
    """
    check_lattice_size(N)
    return ExternalForce(N=N, fbar=_force_closed_form(spec), spec=spec)


def ring(v: np.ndarray, k: int) -> np.ndarray:
    """The periodic shift np.roll(v, k) of a 1-D array, 0 < |k| < len(v) or
    k = +-1: the same bits, without np.roll's Python-level dispatch."""
    return np.concatenate((v[-k:], v[:-k]))


def path_sum(v: np.ndarray) -> np.ndarray:
    """Overwrite v, of even length n, with its sums along the path that
    pinning slot p = n//2 - 1 (site or node 0) cuts the ring into, and
    return it: slot j holds the sum of v from slot p+1 across the wrap to
    slot j, and slot p holds +0.0.  One np.cumsum runs over slots p+1..n-1,
    the carry is added into slot 0, and one more runs over slots 0..p-1, bit
    for bit np.cumsum of the gathered path."""
    pinned = len(v) // 2 - 1
    np.cumsum(v[pinned + 1 :], out=v[pinned + 1 :])
    v[0] += v[-1]
    np.cumsum(v[:pinned], out=v[:pinned])
    v[pinned] = 0.0
    return v


class Displacement:
    """Periodic displacement pinned at site 0 (slot N-1), given by its 2N
    per-bond gradients v'_ell = (v_ell - v_{ell-1})/epsilon, slot order;
    ``values`` forms its values, the path sum of epsilon*v'."""

    def __init__(self, gradients):
        self.N = len(gradients) // 2
        check_lattice_size(self.N)
        self.gradients = _frozen(gradients, 2 * self.N, "gradients")

    @property
    def values(self) -> np.ndarray:
        return path_sum(np.multiply(1.0 / self.N, self.gradients))


@dataclass(frozen=True, eq=False)
class ChainModel:
    """The atomistic problem instance: potential and dead load, of the force's N."""

    potential: PairPotential
    force: ExternalForce

    def __post_init__(self):
        check_lattice_size(self.N)  # of a force given by its samples; sample_force checks its own

    @property
    def N(self) -> int:
        return self.force.N

    @property
    def epsilon(self) -> float:
        return 1.0 / self.N


def stored_energy(model: ChainModel, v: Displacement) -> float:
    """Internal energy: sum over all bonds of epsilon*phi(strain)."""
    if v.N != model.N:
        raise ShapeMismatch("displacement does not match the model's lattice size")
    g = v.gradients
    return model.epsilon * pairwise_sum(g.size, lambda a, b: model.potential.value(g[a:b]))


def energy_norm(V) -> float:
    """Discrete H1 seminorm of a nodal field's gradient, sqrt(sum h_k*|V_k'|^2):
    the lattice norm sqrt(sum eps*|v'_ell|^2) of its prolongation."""
    return float(np.sqrt((V.mesh.h * np.square(V.gradients())).sum()))
