"""Lattice, potentials, forces, energies, and the discrete energy norm."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qclab import (
    ChainModel,
    ClusterRule,
    Displacement,
    ExternalForce,
    MeshSpec,
    NodalField,
    QCLabError,
    ShapeMismatch,
    UnknownFamily,
    build_mesh,
    energy_norm,
    harmonic_potential,
    lattice_coordinates,
    quartic_potential,
    sample_force,
    slot_of_site,
    stored_energy,
)
from qclab.model import BLOCK_VALUES, path_sum, ring
from conftest import (displacement, fd_site_force, lattice_energy_norm, make_model, prolonged,
                      random_custom_mesh, random_displacement, site_energies, site_forces)


def test_lattice_indexing():
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


# the closed forms, written over the whole lattice at once
WHOLE_FORMS = {
    "sinpi": lambda x: np.sin(np.pi * x),
    "gauss:1e4,1e4": lambda x: 1e4 * np.exp(-1e4 * np.square(x)),
    "const:2.5": lambda x: np.full_like(x, 2.5),
    "lin:1,0.5": lambda x: 1.0 + 0.5 * x,
}


# 2N = 2 * BLOCK_VALUES, and 2N = 3 * BLOCK_VALUES + 6, a multiple of neither
# BLOCK_VALUES nor 8, so the last block is partial and ends in a SIMD tail
@pytest.mark.parametrize("N", [2**14, 3 * BLOCK_VALUES // 2 + 3])
@pytest.mark.parametrize("spec", list(WHOLE_FORMS))
def test_blockwise_samples_are_the_whole_array_closed_form(spec, N):
    want = WHOLE_FORMS[spec](lattice_coordinates(N))
    assert sample_force(spec, N).samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("family, K, r", [
    ("smooth", 64, 2), ("oscillatory", 20, 3), ("graded", 15, 0), ("uniform", 256, 5)])
@pytest.mark.parametrize("spec", ["sinpi", "gauss:1e4,1e4", "gauss:2,25", "const:1", "lin:0.5,-1"])
def test_closed_form_at_the_cluster_members_is_the_gathered_samples(spec, family, K, r):
    # fbar evaluated at the members alone, reduced into (-1, 1], which at()
    # reads before the samples exist, is what it gathers from them after, bit
    # for bit: a force read lazily at the clusters changes no cluster load
    N = 2**14
    members = ClusterRule(mesh=build_mesh(MeshSpec(family=family, N=N, K=K)), r=r).member_matrix()
    force = sample_force(spec, N)
    x = (slot_of_site(members, N) - N + 1) / N
    lazy = force.at(members)
    assert "samples" not in vars(force)
    assert force.fbar(x).tobytes() == lazy.tobytes()
    assert force.samples[slot_of_site(members, N)].tobytes() == lazy.tobytes()
    assert force.at(members).tobytes() == lazy.tobytes()


def test_non_finite_samples_in_a_later_block_are_rejected():
    # 1e308 * (1 + x) is finite on the first block (x near -1) and
    # overflows near x = 1, in the last; the closed form is evaluated when
    # the samples are read
    force = sample_force("lin:1e308,1e308", 3 * BLOCK_VALUES // 2 + 3)
    with pytest.raises(UnknownFamily, match="non-finite"):
        force.samples


# +0.0, -0.0, +inf, -inf, and nan of either sign, quiet or signalling, with payloads
SPECIAL_BITS = (0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                0x7FF8000000000000, 0xFFF8000000000001, 0x7FF80000DEADBEEF, 0x7FF0000000000001,
                0xFFF4000000000000)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), floats=st.booleans(), seed=st.integers(0, 2**32 - 1),
       sign=st.sampled_from((1, -1)), data=st.data())
def test_ring_is_np_roll_bit_for_bit(n, floats, seed, sign, data):
    # any float64 bit pattern, each value one of SPECIAL_BITS with probability
    # 1/2, or any int64 value; shifts k = +-1 and 0 < |k| < n
    k = sign * data.draw(st.just(1) | st.integers(1, max(n - 1, 1)), label="|k|")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    if floats:
        special = rng.random(n) < 0.5
        bits[special] = rng.choice(np.array(SPECIAL_BITS, np.uint64), special.sum())
    v = bits.view(float) if floats else bits.view(np.int64)
    got, want = ring(v, k), np.roll(v, k)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def gathered_path_sum(v):
    """np.cumsum of v gathered along the path from slot n//2 across the wrap
    to slot n//2 - 2, scattered back to slot order; the pinned slot n//2 - 1
    (site or node 0) holds +0.0."""
    n = len(v)
    path = np.r_[n // 2 : n, 0 : n // 2 - 1]
    out = np.zeros(n)
    out[path] = np.cumsum(v[path])
    return out


def path_values(N, g):
    """A displacement's values from its gradients g: the path sum of epsilon*g."""
    return gathered_path_sum((1.0 / N) * g)


@settings(max_examples=100, deadline=None)
@given(half=st.integers(1, 40) | st.integers(1, 3 * BLOCK_VALUES // 2 + 40)
       | st.integers(3 * BLOCK_VALUES // 2 - 40, 3 * BLOCK_VALUES // 2 + 40),
       kind=st.sampled_from(["normal", "zeros", "negative zeros", "integers", "spread"]),
       seed=st.integers(0, 2**32 - 1))
@example(half=1, kind="zeros", seed=0)
@example(half=3 * BLOCK_VALUES // 2 + 3, kind="zeros", seed=0)
def test_path_sum_is_the_cumulative_sum_of_the_gathered_path(half, kind, seed):
    # even lengths 2 .. 3 * BLOCK_VALUES + 80, values whose sums round in
    # the order they are added (normal, spread) or not at all (zeros, integers)
    rng = np.random.default_rng(seed)
    v = {"normal": lambda: rng.normal(size=2 * half),
         "zeros": lambda: np.zeros(2 * half),
         "negative zeros": lambda: np.full(2 * half, -0.0),
         "integers": lambda: rng.integers(-3, 4, size=2 * half).astype(float),
         "spread": lambda: rng.normal(size=2 * half) * 10.0 ** rng.integers(-20, 20, 2 * half),
         }[kind]()
    want = gathered_path_sum(v)
    got = path_sum(v)
    assert got is v and got.tobytes() == want.tobytes()
    if kind == "zeros":
        assert not np.signbit(got).any()  # +0.0 everywhere, the pinned slot included


def continued_path_sum(values, steps, a, b):
    """values[a:b] formed again from the value before each piece on the path
    plus the steps of its slots: slot 0 follows slot n-1 across the wrap, the
    pinned slot p = n//2 - 1 holds +0.0 and slot p+1 follows it."""
    p = len(values) // 2 - 1
    cuts = [a, *(c for c in (p, p + 1) if a < c < b), b]
    return np.concatenate([np.zeros(1) if s == p else np.cumsum(np.r_[values[s - 1], steps[s:t]])[1:]
                           for s, t in zip(cuts, cuts[1:])])


# 2N = 3 * BLOCK_VALUES + 6: the path's two segments span several blocks
@pytest.mark.parametrize("N, size, cut", [
    *[(3 * BLOCK_VALUES // 2 + 3, None, d) for d in (-2, -1, 0, 1)],  # two chunks, split at N+d
    (3 * BLOCK_VALUES // 2 + 3, 4096, None),  # the profile's chunks
    (2**11, 1, None),
])
def test_displacement_rows_stream_the_path_cumulative_sum(N, size, cut):
    g = np.random.default_rng(N).normal(size=2 * N)
    v = Displacement(g)
    want = path_values(N, g)
    values = v.values
    assert values.tobytes() == want.tobytes()
    # each chunk of the values continues the sum from the value before it on
    # the path, across the pinned slot N-1, the path's start N and the wrap
    bounds = [0, N + cut, 2 * N] if size is None else [*range(0, 2 * N, size), 2 * N]
    steps = (1.0 / N) * g
    got = [continued_path_sum(values, steps, a, b) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate(got).tobytes() == want.tobytes()
    assert v.values.tobytes() == want.tobytes()  # formed anew, the gradients untouched
    assert v.gradients.tobytes() == g.tobytes()


def test_stored_energy_sawtooth_by_hand():
    # v = x on (-1, 1]: unit strain on three bonds, the wrap bond carries -3
    N = 2
    model = make_model(N, force="const:0")
    v = displacement(lattice_coordinates(N))
    np.testing.assert_allclose(v.gradients, [-3.0, 1.0, 1.0, 1.0])
    assert stored_energy(model, v) == pytest.approx(3.0, abs=1e-15)


def test_energy_norm_alternating_strain():
    # strains +-1 exactly, for any N
    for N in (2, 5, 16):
        sites = np.arange(-N + 1, N + 1)
        values = np.where(sites % 2 == 0, 0.0, 1.0 / N)
        w = displacement(values)
        np.testing.assert_allclose(np.abs(w.gradients), 1.0, rtol=0, atol=1e-12)
        assert lattice_energy_norm(w) == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_energy_norm_brute():
    rng = np.random.default_rng(3)
    model = make_model(8)
    v = random_displacement(rng, 8)
    g = v.gradients
    expected = math.sqrt(sum(gi * gi for gi in g) / 8.0)
    assert lattice_energy_norm(v) == pytest.approx(expected, rel=1e-14)
    # harmonic case: the squared norm is twice the stored energy
    assert lattice_energy_norm(v) ** 2 == pytest.approx(2.0 * stored_energy(model, v), rel=1e-13)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_energy_norm_is_the_lattice_norm_of_the_prolongation(seed):
    # sqrt(sum h_k |V_k'|^2) = sqrt(sum eps |v'_ell|^2) for v the prolongation of V
    rng = np.random.default_rng(seed)
    mesh, _ = random_custom_mesh(rng)
    values = rng.normal(size=2 * mesh.K)
    values[mesh.K - 1] = 0.0  # node 0
    V = NodalField(mesh=mesh, values=values)
    assert energy_norm(V) == pytest.approx(lattice_energy_norm(prolonged(mesh, V)), rel=1e-13)


def test_site_energy_partition():
    rng = np.random.default_rng(4)
    for N in (4, 9):
        model = make_model(N, force="gauss:2,5")
        v = random_displacement(rng, N)
        per_site = site_energies(model, v)
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
            for ell in range(-N + 1, N + 1):
                if ell == 0:
                    continue  # perturbing the pinned site is not admissible
                assert vec[int(slot_of_site(ell, N))] == pytest.approx(
                    fd_site_force(model, v, ell), abs=1e-6)


def test_strains_telescope_to_zero():
    rng = np.random.default_rng(6)
    for _ in range(5):
        v = random_displacement(rng, 16)
        assert abs(np.sum(v.gradients)) < 1e-10 * np.max(np.abs(v.gradients)) * 32


def test_displacement_validation():
    with pytest.raises(ShapeMismatch):
        Displacement(np.zeros(7))
    for N in (0, 1):  # N < 2 is a ShapeMismatch, as everywhere else
        with pytest.raises(ShapeMismatch, match=f"^need N >= 2 atoms per half-period, got {N}$"):
            Displacement(np.zeros(2 * N))
    with pytest.raises(ShapeMismatch):
        stored_energy(make_model(4), Displacement(np.zeros(10)))


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
        make_model(1)
    with pytest.raises(ShapeMismatch, match="N >= 2"):  # a force given by its samples
        ChainModel(potential=harmonic_potential(), force=ExternalForce(N=1, samples=[0.0, 0.0]))
