"""Lattice, potentials, forces, energies, and the discrete energy norm."""

import math

import numpy as np
import pytest

from qclab import (
    ChainModel,
    ConstraintViolation,
    Displacement,
    QCLabError,
    ShapeMismatch,
    UnknownFamily,
    energy_norm,
    external_work,
    harmonic_potential,
    lattice_coordinates,
    lattice_sites,
    quartic_potential,
    sample_force,
    site_energies,
    site_energy,
    site_force,
    site_forces,
    slot_of_site,
    stored_energy,
    total_energy,
)
from conftest import fd_site_force, make_model, random_displacement


def test_lattice_indexing():
    np.testing.assert_array_equal(lattice_sites(4), [-3, -2, -1, 0, 1, 2, 3, 4])
    np.testing.assert_allclose(lattice_coordinates(4),
                               np.arange(-3, 5) / 4.0, rtol=0, atol=0)
    assert slot_of_site(0, 4) == 3
    assert slot_of_site(4, 4) == 7
    assert slot_of_site(5, 4) == 0  # periodic wrap: site 5 == site -3
    np.testing.assert_array_equal(slot_of_site([-3, 4, 12], 4), [0, 7, 7])


def test_sample_force_sinpi():
    force = sample_force("sinpi", 4)
    expected = [math.sin(math.pi * ell / 4.0) for ell in range(-3, 5)]
    np.testing.assert_allclose(force.samples, expected, rtol=0, atol=1e-15)
    # x = 1 lands on the zero of sin up to rounding of pi itself
    assert abs(force.samples[-1]) < 1e-15
    assert force.at(0) == force.samples[3]
    assert force.at(9) == force.samples[4]  # 9 == 1 (mod 8)


def test_sample_force_gauss_endpoints():
    N = 2 ** 14
    force = sample_force("gauss:1e4,1e4", N)
    assert force.samples[N - 1] == 1e4  # x = 0
    assert force.samples[-1] == 0.0  # exp(-1e4) underflows


def test_sample_force_families():
    np.testing.assert_allclose(sample_force("const:2.5", 4).samples, 2.5)
    lin = sample_force("lin:1,2", 4)
    np.testing.assert_allclose(lin.samples, 1.0 + 2.0 * lattice_coordinates(4))
    with pytest.raises(UnknownFamily):
        sample_force("polynomial:1,2", 8)
    with pytest.raises(UnknownFamily):
        sample_force("gauss:1", 8)
    with pytest.raises(UnknownFamily):
        sample_force("sinpi:3", 8)


def test_stored_energy_sawtooth_by_hand():
    # v = x on (-1, 1]: unit strain on three bonds, the wrap bond carries -3
    N = 2
    model = make_model(N, force="const:0")
    v = Displacement(N=N, values=lattice_coordinates(N))
    np.testing.assert_allclose(v.strains(), [-3.0, 1.0, 1.0, 1.0])
    assert stored_energy(model, v) == pytest.approx(3.0, abs=1e-15)


def test_energy_norm_alternating_strain():
    # strains +-1 exactly, for any N
    for N in (2, 5, 16):
        sites = lattice_sites(N)
        values = np.where(sites % 2 == 0, 0.0, 1.0 / N)
        w = Displacement(N=N, values=values)
        np.testing.assert_allclose(np.abs(w.strains()), 1.0, rtol=0, atol=1e-12)
        assert energy_norm(w) == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_energy_norm_brute():
    rng = np.random.default_rng(3)
    model = make_model(8)
    v = random_displacement(rng, 8)
    g = v.strains()
    expected = math.sqrt(sum(gi * gi for gi in g) / 8.0)
    assert energy_norm(v) == pytest.approx(expected, rel=1e-14)
    # harmonic case: the squared norm is twice the stored energy
    assert energy_norm(v) ** 2 == pytest.approx(2.0 * stored_energy(model, v), rel=1e-13)


def test_site_energy_partition():
    rng = np.random.default_rng(4)
    for N in (4, 9):
        model = make_model(N, force="gauss:2,5")
        v = random_displacement(rng, N)
        per_site = site_energies(model, v)
        scalar = [site_energy(model, v, int(ell)) for ell in lattice_sites(N)]
        np.testing.assert_allclose(per_site, scalar, rtol=1e-14)
        # half-bond bookkeeping: site energies repartition the stored energy
        assert model.epsilon * per_site.sum() == pytest.approx(
            stored_energy(model, v), rel=1e-12)


def test_site_force_matches_finite_differences():
    rng = np.random.default_rng(11)
    for potential in (harmonic_potential(), quartic_potential(0.5)):
        for _ in range(10):
            N = int(rng.integers(3, 8))
            model = make_model(N, force="gauss:3,7", potential=potential)
            v = random_displacement(rng, N, scale=0.3)
            vec = site_forces(model, v)
            for ell in lattice_sites(N):
                if ell == 0:
                    continue  # perturbing the pinned site is not admissible
                scalar = site_force(model, v, int(ell))
                assert scalar == pytest.approx(
                    fd_site_force(model, v, int(ell)), abs=1e-6)
                assert vec[int(slot_of_site(ell, N))] == pytest.approx(scalar, rel=1e-13)


def test_total_energy_composition():
    rng = np.random.default_rng(5)
    model = make_model(6, force="sinpi")
    v = random_displacement(rng, 6)
    assert total_energy(model, v) == pytest.approx(
        stored_energy(model, v) - external_work(model, v), rel=1e-14)
    assert total_energy(model, Displacement(N=6, values=np.zeros(12))) == 0.0


def test_strains_telescope_to_zero():
    rng = np.random.default_rng(6)
    for _ in range(5):
        v = random_displacement(rng, 16)
        assert abs(np.sum(v.strains())) < 1e-10 * np.max(np.abs(v.strains())) * 32


def test_displacement_validation():
    with pytest.raises(ShapeMismatch):
        Displacement(N=4, values=np.zeros(7))
    bad = np.zeros(8)
    bad[3] = 0.5  # slot 3 is site 0 for N = 4
    with pytest.raises(ConstraintViolation):
        Displacement(N=4, values=bad)
    with pytest.raises(ShapeMismatch):
        stored_energy(make_model(4), Displacement(N=5, values=np.zeros(10)))


def test_gradient_cache_consistency():
    rng = np.random.default_rng(7)
    v = random_displacement(rng, 8)
    cached = Displacement(N=8, values=v.values, gradients=v.strains())
    np.testing.assert_array_equal(cached.strains(), v.strains())


def test_quartic_potential():
    pot = quartic_potential(0.25)
    r = np.linspace(-2, 2, 41)
    step = 1e-6
    fd_first = (pot.value(r + step) - pot.value(r - step)) / (2 * step)
    np.testing.assert_allclose(pot.deriv(r), fd_first, atol=1e-7)
    fd_second = (pot.deriv(r + step) - pot.deriv(r - step)) / (2 * step)
    np.testing.assert_allclose(pot.second(r), fd_second, atol=1e-7)
    assert not pot.is_quadratic
    with pytest.raises(QCLabError):
        quartic_potential(-1.0)


def test_model_validation():
    with pytest.raises(ShapeMismatch):
        ChainModel(N=8, potential=harmonic_potential(), force=sample_force("sinpi", 4))
    with pytest.raises(ShapeMismatch):
        make_model(1)
