"""Single-pass kernels against their reference versions in conftest.py.

The kernels restrict work to where it is nonzero (hat supports, the
clusters next to a node, one bond energy per element) or batch it (whole
lattice arrays, chunks of CSV rows, whole JSON arrays), but perform the same
IEEE operations on the same values, summed in the same order.  The weight
solve eliminates in the order of the LAPACK routine scipy's banded solver
calls.  So every comparison here is exact, never a tolerance.
"""

import contextlib
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qclab import (
    ChainModel,
    ClusterRule,
    ExternalForce,
    MeshSpec,
    NodalField,
    ShapeMismatch,
    assemble_weight_system,
    build_mesh,
    energy_cluster_functional,
    exact_load,
    harmonic_potential,
    lattice_coordinates,
    prolong,
    quartic_potential,
    sample_force,
    slot_of_site,
    solve_atomistic,
    solve_weights,
    verify_exactness,
)
from qclab.cluster import _solve_cyclic_tridiagonal
from qclab.mesh import hat_of_distance, hat_ramp
from qclab import cli
from qclab.model import BLOCK_VALUES, pairwise_sum
from qclab.cli import (
    _CSV_CHUNK_ROWS,
    _FIGURES,
    _KERNEL_MIN_VALUES,
    _SPAN,
    _TAIL_MIN_CELLS,
    RunConfig,
    _decimal_digits,
    _execute,
    _exponent_tables,
    _format_rows,
    _to_json,
    _write_csv,
)
from conftest import (
    random_custom_mesh,
    reference_energy_cluster_functional,
    reference_exact_load,
    reference_prolong,
    reference_solve_cyclic_tridiagonal,
    reference_to_json,
    reference_verify_exactness,
    reference_write_csv,
)

KERNELS = settings(max_examples=60, deadline=None)

seeds = st.integers(0, 2**32 - 1)
# K = 2 is the smallest mesh (four elements); None lets random_custom_mesh
# draw K from 3..6.  Random steps put the lattice's wrap point inside an
# element or on a node, so the wrap element and the slot rotation are covered.
mesh_K = st.sampled_from([2, None])
radius_draw = st.integers(0, 7)
potentials = st.sampled_from(["harmonic", "quartic"])


def nodal_field(rng, mesh):
    values = rng.normal(size=2 * mesh.K)
    values[mesh.K - 1] = 0.0
    return NodalField(mesh=mesh, values=values)


def random_model(rng, N, potential="harmonic"):
    pot = harmonic_potential() if potential == "harmonic" else quartic_potential(0.25)
    force = ExternalForce(N=N, samples=rng.normal(size=2 * N))
    return ChainModel(potential=pot, force=force)


def admissible(mesh, r):
    """Clamp a drawn radius to the largest admissible one."""
    return min(r, int((np.min(mesh.steps) - 1) // 2))


@KERNELS
@given(seed=seeds, K=mesh_K)
def test_prolong_matches_reference(seed, K):
    rng = np.random.default_rng(seed)
    mesh, _ = random_custom_mesh(rng, K)
    V = nodal_field(rng, mesh)
    got = prolong(V)[0](0, 2 * mesh.N)
    assert got.tobytes() == reference_prolong(mesh, V)[0].tobytes()


def family_mesh(rng, family, steps=(5, 15)):
    """A small mesh of the family; custom meshes, with random steps in the
    closed range ``steps``, put the lattice's wrap point anywhere, also
    inside an element."""
    K = int(rng.integers(2, 7))
    if family == "custom":
        return random_custom_mesh(rng, K, steps)[0]
    N = {"uniform": K * int(rng.integers(1, 6)), "graded": 2 ** (K - 1),
         "oscillatory": -(-3 * K // 2) + int(rng.integers(0, 20)),
         "smooth": 4 * K + int(rng.integers(0, 20))}[family]
    return build_mesh(MeshSpec(family=family, N=N, K=K))


FAMILIES = ["uniform", "graded", "oscillatory", "smooth", "custom"]


@KERNELS
@given(seed=seeds, family=st.sampled_from(FAMILIES), data=st.data())
def test_prolong_streams_slices_of_the_reference(seed, family, data):
    # one to three fields of the mesh, each written into its strided column
    # of one block (as _write_csv's chunk holds them), and into a new array
    rng = np.random.default_rng(seed)
    mesh = family_mesh(rng, family)
    fields = [nodal_field(rng, mesh) for _ in range(data.draw(st.integers(1, 3)))]
    wholes = [reference_prolong(mesh, V)[0] for V in fields]
    columns, n2 = prolong(*fields), 2 * mesh.N
    # element order starts at slot `shift`; element t holds its positions
    # ends[t] - steps[t] .. ends[t] - 1, its node last
    shift = int(slot_of_site(mesh.repatoms[-1] - n2 + 1, mesh.N))
    ends = np.cumsum(mesh.steps)
    a = data.draw(st.integers(0, n2 - 1))
    b = data.draw(st.integers(a, n2))
    ranges = [(a, a + 1), (a, b), (a, n2), (0, n2), (a, a)]
    if 0 < shift:  # across the end of element order
        ranges.append((shift - 1, shift + 1))
    for t in range(2 * mesh.K):
        first = (ends[t] - mesh.steps[t] + shift) % n2
        last = (ends[t] - 1 + shift) % n2
        if first <= last:  # the element's sites, and its sites but the node
            ranges += [(first, last + 1), (first, last)]
        else:  # the element the lattice's wrap point splits
            ranges += [(first, n2), (0, last + 1)]
    for start, stop in ranges:
        block = np.full((stop - start, len(fields) + 1), np.nan)
        for j in data.draw(st.permutations(range(len(fields)))):  # any field searches first
            assert columns[j](start, stop, block[:, j + 1]) is not None
        for j, whole in enumerate(wholes):
            assert block[:, j + 1].tobytes() == whole[start:stop].tobytes(), (start, stop, j)
            assert columns[j](start, stop).tobytes() == whole[start:stop].tobytes()
    assert np.isnan(block[:, 0]).all()  # the column no field writes


def test_prolong_takes_the_fields_of_one_mesh():
    rng = np.random.default_rng(3)
    (a, _), (b, _) = random_custom_mesh(rng, 3), random_custom_mesh(rng, 3)
    with pytest.raises(ShapeMismatch):
        prolong(nodal_field(rng, a), nodal_field(rng, b))


def assert_exact_load_matches_reference(mesh, rng):
    model = random_model(rng, mesh.N)
    assert exact_load(mesh, model).tobytes() == reference_exact_load(mesh, model).tobytes()


# custom steps up to 80 reach the BLAS ddot's unrolled kernel (16 or 32
# values per pass) and its scalar tail in one element
@KERNELS
@given(seed=seeds, family=st.sampled_from(FAMILIES),
       steps=st.sampled_from([(5, 15), (1, 80), (60, 300)]))
def test_exact_load_matches_reference(seed, family, steps):
    rng = np.random.default_rng(seed)
    assert_exact_load_matches_reference(family_mesh(rng, family, steps), rng)


@pytest.mark.parametrize("spec", [
    MeshSpec(family="uniform", N=40000, K=10000),  # 20,000 rows in gathered blocks of 4,096
    MeshSpec(family="graded", N=2**16, K=17),  # pairs of elements up to 2^15 sites
    MeshSpec(family="smooth", N=2**16, K=2**14),  # gathered blocks, the last one partial
    MeshSpec(family="oscillatory", N=2**14, K=2**10),
    # four unevenly spaced elements of 17,000 sites, each longer than a gathered block
    MeshSpec(family="custom", N=34012, K=4,
             indices=(-34005, -17005, -17000, 0, 17000, 17007, 34007, 34016)),
    # the element (130, 250] crosses the slot wrap: sites 131..200, then -199..-150
    MeshSpec(family="custom", N=200, K=3, indices=(-150, -100, 0, 50, 100, 130)),
], ids=lambda spec: spec.family)
def test_exact_load_matches_reference_on_large_groups(spec):
    assert_exact_load_matches_reference(build_mesh(spec), np.random.default_rng(spec.N))


def test_exact_load_of_strided_read_only_samples():
    # a read-only float64 view that is not contiguous is copied on the way
    # in, so exact_load's window views of the samples see contiguous values
    rng = np.random.default_rng(11)
    mesh = family_mesh(rng, "custom", (1, 80))
    wide = rng.normal(size=(2 * mesh.N, 2))
    wide.setflags(write=False)
    force = ExternalForce(N=mesh.N, samples=wide[:, 0])
    assert force.samples.flags.c_contiguous
    model = ChainModel(potential=harmonic_potential(), force=force)
    assert exact_load(mesh, model).tobytes() == reference_exact_load(mesh, model).tobytes()


@pytest.mark.parametrize("s", [*range(1, 41), 64, 257])
def test_vecdot_is_the_per_row_dot(s):
    # the numpy/BLAS contract exact_load rests on: np.vecdot of rows that are
    # a view of the samples (any start, any gap between rows) or a gathered
    # copy of them, or of one 1-D row, against a ramp gives per row
    # the bits of np.dot on that row's slice; a numpy or BLAS with another
    # reduction fails here.  Both add the BLAS ddot to +0.0, except np.dot
    # of one-value vectors, which is the plain product: the two then differ
    # at most in the sign of a zero, which exact_load's sums into zeros drop.
    rng = np.random.default_rng(s)
    f = rng.normal(size=20 * s + 9) * 10.0 ** rng.integers(-8, 9, 20 * s + 9)
    shifted = np.empty(s + 1)[1:]  # a ramp off the allocation's alignment
    shifted[:] = rng.random(s)
    for _ in range(12):
        gap = int(rng.integers(s, 3 * s + 2))
        rows = int(rng.integers(1, (f.size - s) // gap + 2))
        start = int(rng.integers(0, f.size - s - (rows - 1) * gap + 1))
        item = f.itemsize
        view = np.ndarray((rows, s), f.dtype, f, start * item, (gap * item, item))
        for ramp in (hat_ramp(s), 1.0 - hat_ramp(s), shifted):
            want = np.array([0.0 + np.dot(f[a : a + s], ramp)
                             for a in range(start, start + rows * gap, gap)])
            assert np.vecdot(view, ramp).tobytes() == want.tobytes()
            assert np.vecdot(view.copy(), ramp).tobytes() == want.tobytes()
            assert np.vecdot(f[start : start + s], ramp).tobytes() == want[0].tobytes()


# Small meshes keep both sums of verify_exactness at the root of numpy's
# pairwise tree.  Deep ones, 2K > 128 clusters and 2N of about 1,000 to
# 20,000 sites, put them several levels below it.  Some hat always covers
# the lattice's last and first slots, so every draw has a wrapping hat.
mesh_shapes = st.one_of(
    st.tuples(mesh_K, st.just((5, 15))),
    st.tuples(st.integers(65, 90), st.sampled_from([(5, 15), (40, 120)])),
)


@KERNELS
@given(seed=seeds, shape=mesh_shapes, r=radius_draw, mode=st.sampled_from(["exact", "lumped"]))
def test_verify_exactness_matches_reference(seed, shape, r, mode):
    rng = np.random.default_rng(seed)
    mesh, _ = random_custom_mesh(rng, *shape)
    rule = ClusterRule(mesh=mesh, r=admissible(mesh, r))
    weights = solve_weights(assemble_weight_system(rule), mode)
    assert verify_exactness(weights) == reference_verify_exactness(
        mesh, rule, weights
    )


def scratch_sized_mesh(data):
    """A custom mesh of a few long elements, no two more than a factor 2
    apart, on a lattice of about one or two BLOCK_VALUES blocks (2N just below or
    above one, or just below or above two), so hats fill nodes on either
    side of the scratch size; the lattice site N is a node or not."""
    K = data.draw(st.integers(2, 4), label="K")
    n2 = data.draw(st.sampled_from([1, 2]), label="blocks") * BLOCK_VALUES
    n2 += 2 * data.draw(st.integers(-40, 40), label="offset")
    halves = [n2 // 2] * 2 if data.draw(st.booleans(), label="node at N") else [n2]
    steps = []
    for total in halves:
        shares = np.cumsum(data.draw(st.lists(st.integers(2, 4), min_size=2 * K // len(halves),
                                              max_size=2 * K // len(halves)), label="shares"))
        steps += np.diff(np.rint(total * shares / shares[-1]), prepend=0).astype(int).tolist()
    reps = np.cumsum(steps) - np.cumsum(steps)[K - 1]
    return build_mesh(MeshSpec(family="custom", N=n2 // 2, K=K, indices=tuple(reps.tolist())))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(0, 10**9), mode=st.sampled_from(["exact", "lumped"]))
def test_verify_exactness_matches_reference_at_the_scratch_size(data, r, mode):
    mesh = scratch_sized_mesh(data)
    rule = ClusterRule(mesh=mesh, r=admissible(mesh, r))
    weights = solve_weights(assemble_weight_system(rule), mode)
    assert verify_exactness(weights) == reference_verify_exactness(mesh, rule, weights)


@pytest.mark.parametrize("K", range(2, 22))
def test_verify_exactness_matches_reference_on_graded_meshes(K):
    # the half-lattice elements of graded K = 21 (N = 2^20) span 32 scratch blocks each
    mesh = build_mesh(MeshSpec(family="graded", N=2 ** (K - 1), K=K))
    system = assemble_weight_system(ClusterRule(mesh=mesh, r=0))
    for mode in ("exact", "lumped"):
        weights = solve_weights(system, mode)
        assert verify_exactness(weights) == reference_verify_exactness(mesh, weights.rule, weights)


def pairwise_splits(n):
    """(start, split) of every node of numpy's pairwise tree over n values
    longer than its 128-value leaves."""
    nodes, splits = [(0, n)], []
    while nodes:
        start, size = nodes.pop()
        if size > 128:
            half = size // 2 - (size // 2) % 8
            splits.append((start, start + half))
            nodes += [(start, half), (start + half, size - half)]
    return splits


@pytest.mark.parametrize("n", [129, 136, 1000, BLOCK_VALUES - 8, BLOCK_VALUES + 8, 3 * BLOCK_VALUES + 5])
def test_sum_is_the_sum_of_its_pairwise_halves(n):
    # the numpy contract pairwise_sum rests on: np.sum of a contiguous array
    # of n > 128 values is np.sum of its first n//2 - (n//2) % 8 values plus
    # np.sum of the rest, bit for bit; a numpy with another reduction fails here
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = rng.random(n) * 10.0 ** rng.integers(-8, 9, n) * rng.choice([-1.0, 1.0], n)
        m = n // 2 - (n // 2) % 8
        assert np.sum(a) == np.sum(a[:m]) + np.sum(a[m:])


@pytest.mark.parametrize("s", [1, 2, 3, 7, 8, 100, 12345, BLOCK_VALUES + 3, 2**19])
def test_ramp_slices_are_slices_of_the_ramp(s):
    # the ramps verify_exactness builds a slice at a time are the whole
    # element's ramp (1..s)/s, sliced, bit for bit
    rng = np.random.default_rng(s)
    whole = np.arange(1, s + 1) / s
    assert hat_ramp(s).tobytes() == whole.tobytes()
    for _ in range(20):
        a = int(rng.integers(0, s + 1))
        b = int(rng.integers(a, s + 1))
        assert hat_ramp(s, a, b).tobytes() == whole[a:b].tobytes(), (a, b)


# every radius the tests and benchmarks use: up to 7 on small meshes, and up
# to the admissible maximum (below 4,106) on the scratch-sized ones
@pytest.mark.parametrize("r", [*range(0, 33), 64, 100, 1000, 2500, 4105])
def test_batched_cluster_sums_are_the_per_row_sums(r):
    # verify_exactness sums the hat over many clusters at once with
    # .sum(axis=-1) on a (hats, 3, 2r+1) array; per row that is np.sum of
    # the row, bit for bit
    rng = np.random.default_rng(r)
    hats = min(300, max(4, 2**18 // (2 * r + 1)))
    s_in, s_out = rng.integers(2 * r + 1, 4 * r + 40, size=(2, hats, 1, 1))
    d = rng.integers(0, 5 * r + 90, size=(hats, 3, 2 * r + 1))
    values = hat_of_distance(d, s_in, s_out)
    rows = np.array([[np.sum(row) for row in hat] for hat in values])
    assert values.sum(axis=-1).tobytes() == rows.tobytes()


@pytest.mark.parametrize("n", [7, 8, 127, 128, 129, 1000, 20000, 2**18 + 24])
def test_sum_ignores_zeros_outside_the_pairwise_node(n):
    # pairwise_sum of values that are zero outside some slots skips the
    # pairwise-tree nodes outside them and builds at most BLOCK_VALUES values
    # at a time, yet equals np.sum of all n values, bit for bit
    rng = np.random.default_rng(n)
    intervals = []
    for _ in range(40):
        length = int(rng.integers(1, min(n, 400) + 1))
        intervals.append((int(rng.integers(0, n - length + 1)), length))
    splits = pairwise_splits(n)
    for at in rng.permutation(len(splits))[:25]:
        start, split = splits[at]
        width = int(rng.integers(1, split - start + 1))
        # ending at the split, starting at it, and straddling it
        intervals += [(split - width, width), (split, width), (split - 1, 2)]
    intervals.append((0, n))
    buffer = np.zeros(n)
    for lo, length in intervals:
        buffer[lo : lo + length] = rng.random(length) * 10.0 ** rng.integers(-6, 7, length)
        built = []

        def values(start, stop):
            built.append(stop - start)
            return buffer[start:stop].copy()

        assert np.sum(buffer) == pairwise_sum(n, values, [(lo, lo + length)]), (lo, length)
        assert np.sum(buffer) == pairwise_sum(n, values)
        assert max(built) <= max(BLOCK_VALUES, 128)
        buffer[lo : lo + length] = 0.0


@KERNELS
@given(seed=seeds, K=mesh_K, r=radius_draw, potential=potentials)
def test_energy_cluster_functional_matches_reference(seed, K, r, potential):
    rng = np.random.default_rng(seed)
    mesh, N = random_custom_mesh(rng, K)
    model = random_model(rng, N, potential)
    rule = ClusterRule(mesh=mesh, r=admissible(mesh, r))
    weights = solve_weights(assemble_weight_system(rule))
    V = nodal_field(rng, mesh)
    assert energy_cluster_functional(model, weights, V) == (
        reference_energy_cluster_functional(model, mesh, rule, weights, V)
    )


def assert_weight_solves_match(system):
    """The weight solve against scipy's banded solve, bit for bit, for the
    right-hand side g and for the residual of the refinement step."""
    matrix = (system.sub, system.diag, system.sup)
    first = reference_solve_cyclic_tridiagonal(*matrix, system.g)
    assert np.array_equal(_solve_cyclic_tridiagonal(system, system.g).view(np.uint64),
                          first.view(np.uint64))
    residual = system.g - system.apply(first)
    assert np.array_equal(_solve_cyclic_tridiagonal(system, residual).view(np.uint64),
                          reference_solve_cyclic_tridiagonal(*matrix, residual).view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(seed=seeds, K=st.integers(2, 40), data=st.data())
def test_weight_solve_matches_reference(seed, K, data):
    mesh, _ = random_custom_mesh(np.random.default_rng(seed), K)
    r = data.draw(st.integers(1, admissible(mesh, 7)), label="r")
    assert_weight_solves_match(assemble_weight_system(ClusterRule(mesh=mesh, r=r)))


def test_weight_solve_matches_reference_on_the_cluster_benchmark():
    # the benchmark's cluster workload: smooth mesh, N = 2^17, K = 256, r = 2
    mesh = build_mesh(MeshSpec(family="smooth", N=2**17, K=256))
    assert_weight_solves_match(assemble_weight_system(ClusterRule(mesh=mesh, r=2)))


def test_energy_cluster_functional_rejects_foreign_field():
    rng = np.random.default_rng(3)
    mesh, N = random_custom_mesh(rng)
    other, _ = random_custom_mesh(np.random.default_rng(4))
    model = random_model(rng, N)
    rule = ClusterRule(mesh=mesh, r=0)
    weights = solve_weights(assemble_weight_system(rule))
    with pytest.raises(ShapeMismatch):
        energy_cluster_functional(model, weights, nodal_field(rng, other))


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 3.0, -1e22,
           # ties at the 17th digit, rounded up and down to even
           26215 / 2**18, 26217 / 2**18, -5243 / 2**19, 1049 / 2**20,
           # ties where 10**(16 - e10) is not a double
           3 / 2**24, 2.0**-25,
           # doubles below a power of ten: 1e-14 and 1e98 round up to it
           1e-14, 1e98, 1e-06, np.nextafter(1e-06, 0.0), np.nextafter(1e-06, 1.0),
           1e23, np.nextafter(1e23, 0.0), np.nextafter(1e23, np.inf), 1e-300, -1e300]


@pytest.mark.parametrize("rows", [0, 1, _CSV_CHUNK_ROWS, 2 * _CSV_CHUNK_ROWS + 3])
# footer: the rates written below the rows
@pytest.mark.parametrize("footer", [None, [2.0000000000000004, np.nan]])
def test_write_csv_matches_reference(tmp_path, rows, footer):
    rng = np.random.default_rng(rows)
    columns = {name: rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
               for name in ("x", "u_a", "u_b")}
    columns["i"] = np.arange(rows)  # int64, cast with the rest of its row block
    if rows:
        specials = np.resize(SPECIAL, rows)
        columns["u_a"][: len(specials)] = specials
    # a column may also be a function of a row range
    streamed = {name: (lambda a, b, out, col=col: np.copyto(out, col[a:b])) if i % 2 else col
                for i, (name, col) in enumerate(columns.items())}
    rates = footer or ()
    _write_csv(tmp_path / "got.csv", rows, columns, rates)
    _write_csv(tmp_path / "streamed.csv", rows, streamed, rates)
    reference_write_csv(tmp_path / "want.csv", columns, rates)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_streamed_profile_is_the_materialized_one(tmp_path):
    # fig2's 20,000 rows end in a partial chunk; its columns as whole arrays
    # are x, the atomistic values of a solve of their own and the full
    # prolongations.  u_atomistic is an array; the other columns stream
    config = _FIGURES["fig2"][0]
    _, columns, reports = _execute(config)
    assert list(reports) == ["constrained", config.method]  # not the atomistic one
    model = ChainModel(potential=harmonic_potential(), force=sample_force(config.force, config.N))
    whole = {"x": lattice_coordinates(config.N),
             "u_atomistic": solve_atomistic(model).solution.values,
             "u_constrained": prolong(reports["constrained"].solution)[0](0, 2 * config.N),
             "u_qc": prolong(reports[config.method].solution)[0](0, 2 * config.N)}
    assert list(columns) == list(whole)
    assert isinstance(columns["u_atomistic"], np.ndarray)
    assert all(callable(columns[name]) for name in ("x", "u_constrained", "u_qc"))
    _write_csv(tmp_path / "got.csv", 2 * config.N, columns)
    _write_csv(tmp_path / "want.csv", 2 * config.N, whole)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


float_arrays = hnp.arrays(np.float64, st.integers(0, 12),
                          elements=st.floats(allow_nan=True, allow_infinity=True))
int_arrays = hnp.arrays(st.sampled_from([np.int64, np.int32, np.uint64, np.uint8]),
                        st.integers(0, 12))
# finite and at least _KERNEL_MIN_VALUES long: formatted by the kernel
kernel_arrays = hnp.arrays(np.float64, st.integers(_KERNEL_MIN_VALUES, 2 * _KERNEL_MIN_VALUES),
                           elements=st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(floats=float_arrays, ints=int_arrays, scalar=st.floats(), long=kernel_arrays)
def test_to_json_matches_reference(floats, ints, scalar, long):
    payload = {
        "floats": floats,
        "long": long,
        "ints": ints,
        "empty_float": np.array([]),
        "empty_int": np.array([], dtype=int),
        "empty_ints": [np.array([], dtype=dtype) for dtype in (np.int32, np.uint64, np.uint8)],
        "negative": np.arange(-5, 3),
        "int64_limits": np.array([-2**63, -2**63 + 1, -1, 0, 2**63 - 2, 2**63 - 1]),
        "uint64_limits": np.array([0, 2**63, 2**64 - 1], dtype=np.uint64),
        "nested": {"values": floats[::-1], "mixed": [ints, scalar, None], "none": {}},
        "flags": floats > 0,
        "matrix": np.stack([floats, floats[::-1]]),
        "single": np.array(scalar),
        "text": 'say "q" \\ done',
    }
    assert _to_json(payload) == reference_to_json(payload)


def test_to_json_spells_non_finite_floats_as_strings():
    # the drawn examples above reach a nan scalar only by chance
    payload = {"scalars": [float("nan"), np.inf, np.float64(-np.inf)],
               "array": np.array([np.nan, np.inf, -np.inf, 0.5])}
    assert _to_json(payload) == ('{\n  "scalars": ["nan", "inf", "-inf"],\n'
                                 '  "array": ["nan", "inf", "-inf", 0.5]\n}')
    assert _to_json(payload) == reference_to_json(payload)


def test_to_json_matches_reference_across_blocks():
    # a report array is formatted BLOCK_VALUES values at a time: two whole
    # blocks and a tail, at magnitudes 1e-8 to 1e8; not one of the drawn
    # examples above, since the per-element oracle takes 0.2 s on it
    size = 2 * BLOCK_VALUES + 5
    values = np.random.default_rng(7).normal(size=size) * 10.0 ** (np.arange(size) % 17 - 8)
    payload = {"blocks": values, "nested": {"tail": values[-7:]}}
    assert _to_json(payload) == reference_to_json(payload)


def elementwise_json(array):
    """A 1-D array as _to_json writes it, one '%.17g' % value at a time."""
    def text(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        return '"%s"' % v if v != v or abs(v) == float("inf") else "%.17g" % v
    return "[" + ", ".join(map(text, array.tolist())) + "]"


@pytest.mark.parametrize("size", [2, 127, 128, 65536])
def test_to_json_writes_a_repeated_value_as_its_text_repeated(size):
    # 0.0 and -0.0 (texts 0 and -0) are equal as floats but not as bits
    floats = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 2.0**62]
    arrays = [np.full(size, v) for v in floats] + [
        np.full(size, v, dtype=np.int64) for v in (0, -1, 2**62)] + [
        np.full(size, True), np.full(size, False), np.full(size, 0.1, dtype=np.float32)]
    for a in arrays:
        assert _to_json(a) == elementwise_json(a)
        if size < 65536:  # a non-constant array keeps the path the tests above check
            almost = a.copy()
            almost[-1] = 1  # a constant array but for its last element
            assert _to_json(almost) == elementwise_json(almost)
    assert _to_json(np.array([0.0, -0.0])) == "[0, -0]"
    assert _to_json(np.full(3, -0.0)) == "[-0, -0, -0]"


def percent_17g(block):
    """The bytes of _format_rows, one '%.17g' % value at a time."""
    return "".join(",".join(map("%.17g".__mod__, row)) + "\n"
                   for row in block.tolist()).encode()


raw_floats = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
dyadic_floats = st.builds(lambda i, k: i / 2**k, st.integers(1, 2**20), st.integers(17, 20))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats() | raw_floats | dyadic_floats, min_size=1, max_size=48),
       columns=st.integers(1, 4))
def test_format_rows_is_percent_17g(values, columns):
    # the draw tiled past the cutoff, so that the kernel formats it
    block = np.resize(np.array(values), (-(-_KERNEL_MIN_VALUES // columns), columns))
    assert _format_rows(block)[0] == percent_17g(block)


def test_format_rows_on_both_sides_of_the_kernel_cutoff():
    # a block of fewer than _KERNEL_MIN_VALUES values is formatted one value
    # at a time, a larger one by the kernel: the same bytes in every shape
    rng = np.random.default_rng(11)
    draws = rng.normal(size=4 * _KERNEL_MIN_VALUES) * 10.0 ** rng.integers(-30, 30, 4 * _KERNEL_MIN_VALUES)
    values = np.concatenate([SPECIAL, draws])
    for n in range(1, 2 * _KERNEL_MIN_VALUES + 1):
        x = values[n - 1 : 2 * n - 1]  # the special values among the first blocks
        for shape in [(1, n), (n, 1), (n // 4, 4)] if n % 4 == 0 else [(1, n), (n, 1)]:
            text, one_at_a_time = _format_rows(x.reshape(shape))
            assert text == percent_17g(x.reshape(shape))
            assert (one_at_a_time == n) if n < _KERNEL_MIN_VALUES else (one_at_a_time < n)


def percent_17g_exponent(x):
    return int(("%.16e" % x).partition("e")[2])


def test_exponent_tables_are_exact():
    start, threshold, powers, _ = _exponent_tables()
    # each finite threshold is the smallest double %.17g writes with a larger
    # exponent than the double below it
    for bound in threshold[np.isfinite(threshold)].tolist():
        assert percent_17g_exponent(bound) == percent_17g_exponent(np.nextafter(bound, 0.0)) + 1
    # binade c >= 2 holds (2**(c - 1024), 2**(c - 1023)]: the slot of its lowest exponent
    for c in np.flatnonzero(start[2:2048]) + 2:
        assert start[c] == percent_17g_exponent(np.nextafter(2.0 ** (c - 1024), np.inf)) + _SPAN + 1
    # slot s holds 10**p, p = 16 - e10 = _SPAN + 17 - s, as hi + lo, each correctly rounded
    for slot in range(1, 2 * _SPAN + 2):
        exact = Fraction(10) ** (_SPAN + 17 - slot)
        hi, lo = powers[:2, slot].tolist()
        assert hi == float(exact) and lo == float(exact - Fraction(hi))


def edge_values():
    powers = np.array([float(f"1e{q}") for q in range(-300, 301)])
    subnormal = np.array([5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308])
    other = np.array([0.0, np.inf, np.nan, 1e16, 1e17, 1.5e-123, 6.02e123])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                            subnormal, other])
    # a quarter of the values i / 2**19 are ties at the 17th digit; odd i
    # keeps i / 2**k off the coarser grids
    dyadic = [np.arange(2**17) / 2**17] + [np.arange(1, 2**17, 2) / 2**k for k in (18, 19, 20)]
    return np.concatenate([edges, -edges, *dyadic])


def test_format_rows_on_edge_values():
    values = edge_values()
    assert _format_rows(values[:, None])[0] == percent_17g(values[:, None])


def test_format_rows_rarely_falls_back():
    # one value at a time is ~4x slower: a kernel that stops certifying
    # ties, zeros (all smoothness coefficients of a uniform mesh) or common
    # magnitudes fails here, without timing anything
    config = _FIGURES["fig1"][0]
    _, columns, _ = _execute(config)
    rows = 2 * config.N
    profile = [col(0, rows) if callable(col) else col for col in columns.values()]
    for values in [*profile, np.arange(2**18) / 2**18, np.zeros(4096)]:
        _, fallback = _format_rows(values[:, None])
        assert fallback < 1e-3 * len(values)


def decimal_cell(value):
    """(e10, position of the last nonzero digit) of '%.17g' % value."""
    digits, exponent = Decimal("%.17g" % value).normalize().as_tuple()[1:]
    return len(digits) - 1 + exponent, len(digits) - 1


def test_format_rows_every_point_and_trailing_zero():
    # the decimal exponent decides the layout ("0.000" prefix, point among
    # digits 1..16, exponent) and, with the last nonzero digit, whether the
    # point shows, which zeros are blanked and which are restored
    rng = np.random.default_rng(17)
    found = {}
    for e10 in range(-7, 19):
        for last in range(17):
            # every mantissa of up to four digits, else 400 random ones
            draws = np.arange(10**last, 10 ** (last + 1)) if last < 4 else rng.integers(
                10**last, 10 ** (last + 1), 400)
            for draw in draws[draws % 10 != 0].tolist():
                value = float(f"{draw}e{e10 - last}")
                if decimal_cell(value) == (e10, last):
                    found[e10, last] = value
                    break
    # no double is written with one significant digit at e10 = -7, -6, -5:
    # the doubles nearest d * 10**e10, d = 1..9, were all tried
    assert sorted({(e, n) for e in range(-7, 19) for n in range(17)} - set(found)) == [
        (-7, 0), (-6, 0), (-5, 0)]
    values = np.array(list(found.values()))
    block = np.stack([values, -values[::-1], values[::-1]], axis=1)
    assert _format_rows(block)[0] == percent_17g(block)


def seventeen_digit_values(rng, size):
    """Positive values below 10 whose '%.17g' has no trailing zero: no
    blanked quad, no sign, no point among the digits."""
    values = rng.uniform(1.0, 9.0, 2 * size)
    return values[[len("%.17g" % v) == 18 for v in values.tolist()]][:size]


def test_format_rows_on_whole_chunks_of_each_rare_layout():
    # a profile chunk (_CSV_CHUNK_ROWS rows of 4 columns) whose values reach
    # each path of _text_cells that runs on a few values only, or none: the
    # blanking of zero quads, the dropped point, the sign and the point
    # among the digits (1 <= e10 <= 16)
    rng = np.random.default_rng(23)
    shape = (_CSV_CHUNK_ROWS, 4)
    base = seventeen_digit_values(rng, shape[0] * shape[1])
    dyadic = [0.5, 0.125, 2.0**-10, 0.75, 1.5, 3.0 / 1024]
    chunks = {
        "none": base,
        "some-dyadic": np.where(rng.random(base.size) < 0.01, rng.choice(dyadic, base.size), base),
        "all-dyadic": np.resize(dyadic, base.size),
        "small-integers": np.resize([1.0, -3.0, 7.0, 0.0, -0.0, 2.0], base.size),
        "all-negative": -base,
        "some-negative": np.where(rng.random(base.size) < 0.01, -base, base),
        "points-only": base * 10.0 ** rng.integers(1, 17, base.size),
        "one-point": np.concatenate([base[:-1], [123.45678901234568]]),
        "exponents-only": base * 10.0 ** rng.integers(17, 300, base.size),
        "mixed": np.resize([0.5, -1.0, 123.25, -1e20, 2.0**-10, 1e-5, -7.0], base.size),
    }
    hits = {}  # per chunk: a zero quad, a negative value, e10 >= 1, 1 <= e10 <= 16
    for name, values in chunks.items():
        digits, slot, _ = _decimal_digits(values)
        e10 = slot - (_SPAN + 1)
        hits[name] = tuple(bool(hit.any()) for hit in (
            digits % 10**4 == 0, np.signbit(values), e10 >= 1, (e10 >= 1) & (e10 <= 16)))
        block = values.reshape(shape)
        assert _format_rows(block)[0] == percent_17g(block), name
    assert hits["none"] == (False, False, False, False)
    assert hits["exponents-only"][2:] == (True, False)
    assert hits["all-negative"] == hits["some-negative"] == (False, True, False, False)
    assert hits["points-only"][2:] == (True, True)
    assert hits["one-point"] == (False, False, True, True)
    assert all(hits[name][0] for name in ("some-dyadic", "all-dyadic", "small-integers"))
    assert all(hits["mixed"])


# 17 digits 5.2e-15 of a unit below a tie, where 10**(16 - e10) = 10**-20 is not
# a double: the kernel cannot certify its rounding, so it goes one at a time
NEAR_TIE = 1.3495220346773864e36
# bits of values whose floats or texts may be equal while their bits differ
RUN_BITS = [np.float64(v).view(np.uint64) for v in (0.0, -0.0, NEAR_TIE, -NEAR_TIE, 1.0)] + [
    np.uint64(0x7FF8000000000000), np.uint64(0x7FF8000000000001), np.uint64(0xFFF8000000000000)]


@st.composite
def run_blocks(draw):
    """Blocks of 1-4 columns, each a run of one value after another: runs
    starting on, next to or away from the probe rows (multiples of 64), of
    values with equal floats or texts but different bits (0.0 and -0.0, nan
    payloads), of the near-tie, of any bits; a column may be a ramp."""
    rows = draw(st.sampled_from([1, 64, 65, 4096]) | st.integers(2, 600))
    block = np.empty((rows, draw(st.integers(1, 4))))
    cut = st.integers(1, max(rows - 1, 1)) | st.integers(1, max(rows // 64, 1)).flatmap(
        lambda i: st.sampled_from([64 * i - 1, 64 * i, 64 * i + 1]))
    bits = st.sampled_from(RUN_BITS) | st.integers(0, 2**64 - 1).map(np.uint64)
    for column in block.T:
        if draw(st.integers(0, 5)) == 0:
            column[:] = np.arange(rows) / 2**14 - 1.0
            continue
        starts = sorted({c for c in draw(st.lists(cut, max_size=12)) if c < rows})
        values = np.array(draw(st.lists(bits, min_size=len(starts) + 1, max_size=len(starts) + 1)),
                          np.uint64)
        column[:] = values.repeat(np.diff([0, *starts, rows])).view(np.float64)
    return block


@settings(max_examples=200, deadline=None)
@given(block=run_blocks())
def test_format_rows_formats_each_run_once(block):
    # a value whose bits equal those of the value above it takes its text:
    # the same bytes, and a value the kernel cannot certify goes one at a time
    # at most once per run (the heads of the runs, or every value if the
    # block is too small, or has too few repeats, for runs to be looked for)
    text, one_at_a_time = _format_rows(block)
    assert text == percent_17g(block)
    if block.size >= _KERNEL_MIN_VALUES:
        bits = block.view(np.uint64)
        head = np.ones(block.shape, bool)
        head[1:] = bits[1:] != bits[:-1]
        uncertified = ~_decimal_digits(block.ravel())[2].reshape(block.shape)
        assert one_at_a_time in ((uncertified & head).sum(), uncertified.sum())


def test_format_rows_falls_back_once_per_run():
    runs = np.repeat([NEAR_TIE, 0.0, -NEAR_TIE, -0.0, np.nan], 100)[:, None]
    block = np.hstack([np.arange(len(runs))[:, None] / 2.0, runs, runs[::-1]])
    text, one_at_a_time = _format_rows(block)
    assert text == percent_17g(block)
    assert one_at_a_time == 6  # the three near-tie and nan runs of each column


def test_format_rows_formats_fig1_profile_runs_once(monkeypatch, tmp_path):
    # fig1's graded-mesh profile is flat far from its load: u_constrained and
    # u_qc repeat the row above in 92 % of its rows, so its chunks format
    # about 54 % of their values, and the whole-block kernel would fail here
    config = _FIGURES["fig1"][0]
    _, columns, _ = _execute(config)
    formatted = []

    def counted(x):
        formatted.append(x.size)
        return _decimal_digits(x)

    monkeypatch.setattr("qclab.cli._decimal_digits", counted)
    _write_csv(tmp_path / "profile.csv", 2 * config.N, columns)
    assert sum(formatted) < 0.6 * 2 * config.N * len(columns)


@contextlib.contextmanager
def compacted_cells():
    """Counts of the cells each compaction of a _format_rows call is handed."""
    counts, compact = [], cli._compact

    def counted(cells):
        counts.append(cells.size // 32)
        return compact(cells)

    cli._compact = counted
    try:
        yield counts
    finally:
        cli._compact = compact


def tail_stretch_cells(block):
    """The cells a block's stretches of tail repeats save when written as
    first values: rows r >= 1 whose columns after the first all have the bits
    of row r - 1, counted in maximal stretches that save _TAIL_MIN_CELLS
    cells or more, one row at a time."""
    rows = block.view(np.uint64)[:, 1:].tolist()
    saved, length = 0, 0
    for above, row in zip(rows, rows[1:] + [None]):
        if row is not None and row == above:
            length += 1
            continue
        if length * len(above) >= _TAIL_MIN_CELLS:
            saved += length * len(above)
        length = 0
    return saved


@st.composite
def tail_blocks(draw):
    """Blocks of 1-4 columns made of segments of rows that share their
    columns after the first (a segment of L rows is a stretch of L - 1 tail
    repeats): stretches shorter than, as long as and longer than the
    shortest one written as first values, ending on, next to or away from
    the probe rows (multiples of 64); tail values whose floats or texts are
    equal but bits differ (0.0 and -0.0, nan payloads), the near-tie, any
    bits; a first column that is a ramp, holds the near-tie, or repeats."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.sampled_from([_KERNEL_MIN_VALUES, _CSV_CHUNK_ROWS]) | st.integers(
        _KERNEL_MIN_VALUES, 1200))  # rows enough for the kernel in every shape
    shortest = -(-_TAIL_MIN_CELLS // max(cols - 1, 1))  # rows of the shortest stretch
    bits = st.sampled_from(RUN_BITS) | st.integers(0, 2**64 - 1).map(np.uint64)
    ends = []
    for _ in range(draw(st.integers(0, 12))):
        at = ends[-1] if ends else 0
        probe = -(-(at + 1) // 64) * 64  # the next probe row
        ends.append(at + draw(st.sampled_from([shortest, shortest + 1, shortest + 2, 1, 2])
                              | st.sampled_from([probe - 1, probe, probe + 1]).map(lambda e: e - at)
                              | st.integers(1, 3 * shortest)))
    ends = [end for end in ends if end < rows] + [rows]
    tails = np.array(draw(st.lists(st.lists(bits, min_size=cols - 1, max_size=cols - 1),
                                   min_size=len(ends), max_size=len(ends))), np.uint64)
    block = np.empty((rows, cols))
    block[:, 1:] = tails.reshape(len(ends), cols - 1).repeat(np.diff([0, *ends]), axis=0).view(
        np.float64)
    first = draw(st.sampled_from(["ramp", "near-tie", "constant", "runs"]))
    block[:, 0] = np.arange(rows) / 2**14 - 1.0
    if first == "near-tie":
        block[draw(st.lists(st.integers(0, rows - 1), max_size=8)), 0] = NEAR_TIE
    elif first == "constant":
        block[:, 0] = draw(st.sampled_from([0.25, -0.0, NEAR_TIE]))
    elif first == "runs":
        block[:, 0] = np.arange(rows) // draw(st.integers(2, 100))
    return block


@settings(max_examples=200, deadline=None)
@given(block=tail_blocks())
def test_format_rows_writes_tail_repeats_as_first_values(block):
    # a stretch of rows whose columns after the first repeat the row above,
    # long enough to pay, hands only its first column's cells to the
    # compaction; the same bytes either way (where the probe finds no
    # stretch, every cell is compacted)
    with compacted_cells() as counts:
        text, _ = _format_rows(block)
    assert text == percent_17g(block)
    assert sum(counts) in (block.size, block.size - tail_stretch_cells(block))


def test_format_rows_breaks_tail_stretches_where_bits_differ():
    # texts or floats that are equal while the bits differ end a stretch: a
    # tail column of 0.0 then -0.0, of two nan payloads, of the near-tie and
    # its negation (fallback cells, as is the first column's near-tie), in
    # runs of 64 rows from row 32 on: five rows are written cell by cell
    rows = 4 * 64
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001], np.uint64).view(np.float64)
    for pair, uncertified in [((0.0, -0.0), 0), (nans, 5), ((NEAR_TIE, -NEAR_TIE), 5)]:
        block = np.column_stack([np.arange(rows) / 2**14 - 1.0, np.full((rows, 3), 1.5)])
        block[::64, 0] = NEAR_TIE
        block[:, 2] = np.roll(np.resize(np.repeat(pair, 64), rows), 32)
        with compacted_cells() as counts:
            text, one_at_a_time = _format_rows(block)
        assert text == percent_17g(block)
        assert sum(counts) == block.size - tail_stretch_cells(block) == rows + 5 * 3
        assert one_at_a_time == 4 + uncertified


def test_format_rows_writes_the_lattice_profile_tail_repeats_as_first_values(tmp_path):
    # the lattice benchmark's profile (graded mesh, localized load, N = 2^19):
    # its flat far field repeats the row above in every column but x in 93.7 %
    # of the rows, with one or two BLAS threads (graded N = 2^16, K = 17 does
    # with two threads only), so about 0.937 + 4 * 0.063 = 1.19 cells per row
    # are compacted; fig1's u_atomistic never repeats, so all 4 of each row are
    lattice = RunConfig(mesh="graded", N=2**19, K=20, method="energy-cluster", force="gauss:1e4,1e4")
    compacted = {}
    for config in (lattice, _FIGURES["fig1"][0]):
        _, columns, _ = _execute(config)
        with compacted_cells() as counts:
            _write_csv(tmp_path / "profile.csv", 2 * config.N, columns)
        compacted[config.N] = sum(counts) / (2 * config.N)
        del columns
    assert compacted == {lattice.N: pytest.approx(1.19, abs=0.1), _FIGURES["fig1"][0].N: 4}


def test_format_rows_temporaries():
    # the kernel's temporaries per value stay a few times its ~20 bytes of
    # text: fig1-like coordinates, magnitudes of every layout, a repeat-heavy
    # profile (a ramp, then three columns of runs of 100 rows) and a
    # lattice-like one (a ramp, then three constant columns: one stretch of
    # tail repeats)
    rng = np.random.default_rng(5)
    ramp = np.arange(_CSV_CHUNK_ROWS) / 2**14 - 1.0
    runs = rng.normal(size=(_CSV_CHUNK_ROWS // 100 + 1, 3)).repeat(100, axis=0)[:_CSV_CHUNK_ROWS]
    blocks = [np.arange(4 * _CSV_CHUNK_ROWS).reshape(-1, 4) / 2**14 - 1.0,
              rng.normal(size=(_CSV_CHUNK_ROWS, 4)) * 10.0 ** rng.integers(-20, 20, (_CSV_CHUNK_ROWS, 4)),
              np.column_stack([ramp, runs]),
              np.column_stack([ramp, np.full((_CSV_CHUNK_ROWS, 3), 0.25)])]
    for block in blocks:
        _format_rows(block)  # builds the tables
        tracemalloc.start()
        try:
            _format_rows(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * block.size
