"""Atomistic chain: lattice indexing, pair potentials, external forces,
energies, site forces, and the discrete energy norm.

One period holds 2N atoms with spacing epsilon = 1/N on the torus (-1, 1].
Logical site indices ell = -N+1 .. N map to storage slots 0 .. 2N-1 via
slot = ell + N - 1; every array in this package is stored in slot order,
which is also ascending order of the coordinates x = epsilon*ell.  Bond ell
connects sites ell-1 and ell, so the bond array shares the site slot layout
and slot 0 holds the wrap bond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintViolation, QCLabError, ShapeMismatch, UnknownFamily


def lattice_sites(N: int) -> np.ndarray:
    """Logical site indices -N+1 .. N in slot order."""
    return np.arange(-N + 1, N + 1)


def lattice_coordinates(N: int) -> np.ndarray:
    """Site coordinates x = epsilon*ell in (-1, 1], slot order."""
    return lattice_sites(N) / N


def slot_of_site(ell, N: int):
    """Storage slot(s) of logical site index(es), reduced 2N-periodically."""
    return (np.asarray(ell) + N - 1) % (2 * N)


def _frozen(values, length: int, what: str) -> np.ndarray:
    out = np.array(values, dtype=float)
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


@dataclass(frozen=True, eq=False)
class ExternalForce:
    """2N-periodic dead load sampled at the lattice sites, slot order."""

    N: int
    samples: np.ndarray
    descriptor: str

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen(self.samples, 2 * self.N, "force samples"))

    def at(self, ell):
        """Sample(s) at logical site index(es), reduced 2N-periodically."""
        return self.samples[slot_of_site(ell, self.N)]


def _parse_floats(body: str, count: int, spec: str) -> list[float]:
    parts = body.split(",") if body else []
    if len(parts) != count:
        raise UnknownFamily(f"force descriptor {spec!r} needs {count} parameter(s)")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise UnknownFamily(f"bad parameter in force descriptor {spec!r}: {exc}") from None


def _force_closed_form(spec: str) -> Callable:
    name, _, body = spec.partition(":")
    name = name.strip()
    if name == "sinpi":
        if body:
            raise UnknownFamily(f"family 'sinpi' takes no parameters, got {spec!r}")
        return lambda x: np.sin(np.pi * x)
    if name == "gauss":
        amp, width = _parse_floats(body, 2, spec)
        return lambda x: amp * np.exp(-width * np.square(x))
    if name == "const":
        (level,) = _parse_floats(body, 1, spec)
        return lambda x: np.full_like(x, level)
    if name == "lin":
        offset, slope = _parse_floats(body, 2, spec)
        return lambda x: offset + slope * x
    raise UnknownFamily(f"unknown force family in descriptor {spec!r}")


def sample_force(spec: str, N: int) -> ExternalForce:
    """Sample the closed form named by ``spec`` at x = epsilon*ell.

    Families: "sinpi" -> sin(pi x); "gauss:A,B" -> A exp(-B x^2);
    "const:C"; "lin:a,b" -> a + b x on (-1, 1], extended 2-periodically.
    """
    if N < 2:
        raise ShapeMismatch(f"need N >= 2 atoms per half-period, got {N}")
    fbar = _force_closed_form(spec)
    samples = fbar(lattice_coordinates(N))
    if not np.all(np.isfinite(samples)):
        raise UnknownFamily(f"force descriptor {spec!r} produced non-finite samples")
    return ExternalForce(N=N, samples=samples, descriptor=spec)


@dataclass(frozen=True, eq=False)
class Displacement:
    """Periodic displacement pinned at site 0 (slot N-1).

    ``gradients`` optionally records the per-bond strains the producer worked
    with (solvers do); ``strains`` falls back to differencing the values.
    """

    N: int
    values: np.ndarray
    gradients: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, 2 * self.N, "displacement values"))
        if self.values[self.N - 1] != 0.0:
            raise ConstraintViolation("displacement must vanish at site 0")
        if self.gradients is not None:
            object.__setattr__(self, "gradients", _frozen(self.gradients, 2 * self.N, "gradients"))

    def at(self, ell):
        """Value(s) at logical site index(es), reduced 2N-periodically."""
        return self.values[slot_of_site(ell, self.N)]

    def strains(self) -> np.ndarray:
        """Per-bond strains v'_ell = (v_ell - v_{ell-1})/epsilon, slot order."""
        if self.gradients is not None:
            return self.gradients
        v = self.values
        return (v - np.roll(v, 1)) * self.N


@dataclass(frozen=True, eq=False)
class ChainModel:
    """The atomistic problem instance: lattice size, potential, dead load."""

    N: int
    potential: PairPotential
    force: ExternalForce

    def __post_init__(self):
        if self.N < 2:
            raise ShapeMismatch(f"need N >= 2 atoms per half-period, got {self.N}")
        if self.force.N != self.N:
            raise ShapeMismatch("force was sampled for a different lattice size")

    @property
    def epsilon(self) -> float:
        return 1.0 / self.N


def _checked_strains(model: ChainModel, v: Displacement) -> np.ndarray:
    if v.N != model.N:
        raise ShapeMismatch("displacement does not match the model's lattice size")
    return v.strains()


def stored_energy(model: ChainModel, v: Displacement) -> float:
    """Internal energy: sum over all bonds of epsilon*phi(strain)."""
    g = _checked_strains(model, v)
    return float(model.epsilon * np.sum(model.potential.value(g)))


def external_work(model: ChainModel, v: Displacement) -> float:
    """Dead-load pairing f[v] = sum over sites of epsilon*f_ell*v_ell."""
    if v.N != model.N:
        raise ShapeMismatch("displacement does not match the model's lattice size")
    return float(model.epsilon * np.dot(model.force.samples, v.values))


def total_energy(model: ChainModel, v: Displacement) -> float:
    """stored_energy minus the dead-load work."""
    return stored_energy(model, v) - external_work(model, v)


def _local_strains(model: ChainModel, v: Displacement, i: int, j: int) -> tuple[float, float]:
    if v.N != model.N:
        raise ShapeMismatch("displacement does not match the model's lattice size")
    if v.gradients is not None:
        return v.gradients[i], v.gradients[j]
    vals = v.values
    # vals[i-1] wraps correctly for i = 0 through numpy's -1 indexing
    return (vals[i] - vals[i - 1]) * model.N, (vals[j] - vals[j - 1]) * model.N


def site_energy(model: ChainModel, v: Displacement, ell: int) -> float:
    """Energy attributed to one atom: half of its two adjacent bond energies."""
    i = int(slot_of_site(ell, model.N))
    j = (i + 1) % (2 * model.N)
    gi, gj = _local_strains(model, v, i, j)
    phi = model.potential.value
    return float(0.5 * (phi(gi) + phi(gj)))


def site_force(model: ChainModel, v: Displacement, ell: int) -> float:
    """Equilibrium residual at one atom: d(total_energy)/d(v_ell)."""
    i = int(slot_of_site(ell, model.N))
    j = (i + 1) % (2 * model.N)
    gi, gj = _local_strains(model, v, i, j)
    dphi = model.potential.deriv
    return float(dphi(gi) - dphi(gj) - model.epsilon * model.force.samples[i])


def site_forces(model: ChainModel, v: Displacement) -> np.ndarray:
    """All site forces at once, slot order."""
    g = _checked_strains(model, v)
    t = model.potential.deriv(g)
    return t - np.roll(t, -1) - model.epsilon * model.force.samples


def site_energies(model: ChainModel, v: Displacement) -> np.ndarray:
    """All site energies at once, slot order."""
    g = _checked_strains(model, v)
    e = model.potential.value(g)
    return 0.5 * (e + np.roll(e, -1))


def energy_norm(w) -> float:
    """Discrete H1 seminorm of the displacement gradient.

    Lattice data: sqrt(sum eps*|v'_ell|^2).  Nodal data (anything carrying a
    ``mesh``): sqrt(sum h_k*|V_k'|^2).  The two agree when the lattice data
    is the prolongation of the nodal data.
    """
    if hasattr(w, "mesh"):
        g = w.gradients()
        return float(np.sqrt(np.sum(w.mesh.h * np.square(g))))
    g = w.strains()
    return float(np.sqrt(np.sum(np.square(g)) / w.N))
