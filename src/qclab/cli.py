"""Experiment runner.

Subcommands:
  run           one instance: build, solve, write profile.csv + report.json
  reproduce     named presets with PASS/FAIL verdicts against frozen bands
  sweep         one metric against one axis, with observed-rate footer rows
  mesh-inspect  mesh diagnostics as JSON on stdout

Reports are deterministic: floats are serialized with 17 significant digits
(the bytes of '%.17g') in a fixed key order, so identical configs produce
byte-identical files except for their wall-clock entries: the trailing
wall_time_s (the seconds of the solves), the timings object after it (the
seconds of each stage that ran, the profile's CSV write included) and, in the
fig1 and fig2 reports, checks.runtime_s.value.  That holds
at a fixed BLAS thread count only: at N >= 2^14 some profiles and reports
differ in their last digits between one and two OpenBLAS threads.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import QCLabError, ShapeMismatch, UnknownFamily
from .model import BLOCK_VALUES, ChainModel, harmonic_potential, lattice_coordinates, sample_force
from .mesh import (
    CoarseMesh,
    MeshSpec,
    build_mesh,
    exact_load,
    parse_mesh_descriptor,
    prolong,
    read_entries,
    smoothness_profile,
)
from .cluster import WEIGHT_MODES, ClusterRule, assemble_weight_system, solve_weights
from .cluster import verify_exactness
from .solve import (
    SolveReport,
    energy_cluster_functional,
    solve_atomistic,
    solve_constrained,
    solve_energy_cluster,
    solve_force_cluster,
)
from .analysis import (
    STUDY_METRICS,
    convergence_study,
    error_report,
    fit_rate,
    force_scaling_study,
    gradient_alternation,
    rates,
    smooth_mesh_consistency,
)

_METHODS = ("atomistic", "constrained", "energy-cluster", "force-cluster")


@dataclass(frozen=True)
class RunConfig:
    mesh: str | None = None
    N: int | None = None
    K: int | None = None
    r: int = 0
    weights: str = "exact"
    method: str = "constrained"
    force: str | None = None
    out: str = "."


# ---------------------------------------------------------------- serialization
#
# Every float of profile.csv and of a report's float arrays is written with exactly the
# bytes of '%.17g' % value, mostly by one vectorized kernel: |x| scaled to [1e16, 1e17)
# in double-double arithmetic and rounded half to even, its text laid out in a 32-byte
# cell of four NUL-padded words whose NULs one bytes.translate drops, rare layouts set on
# their values alone: about 80 ns per value (one Xeon thread).  Down each column a run of
# values with equal bits is formatted once, and a stretch of rows whose columns after the
# first all repeat the row above is written as first values, each followed by the tail
# text of the row before the stretch: the flat far field of a localized load at large N
# repeats the row above in 94 % of the lattice workload's rows, whose profile takes about
# 38 ns per value; smooth forces never repeat, and a probe of every 64th row skips both
# searches.  Values it cannot certify, and blocks too small to repay its fixed cost, go
# one value at a time.

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
_SPAN = 280  # the kernel formats |e10| <= _SPAN; its tables hold slot e10 + _SPAN + 1
_TIE_MARGIN = 2.0 ** -40  # bounds the error of lo (a few 2**-50) where 10**p is not a double


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """head + tail == a, each half with at most 26 significant bits."""
    head = _SPLIT * a
    head -= head - a
    return head, a - head


def _double_double(num: int, den: int) -> tuple[float, float]:
    """num / den as hi + lo, each correctly rounded (as int / int and float(int) are)."""
    if den == 1:
        hi = float(num)
        return hi, float(num - int(hi))
    hi = num / den
    n, d = hi.as_integer_ratio()
    k = d.bit_length() - 1  # d = 2**k
    return hi, ((num << k) - n * den) / (den << k)


@functools.cache
def _exponent_tables() -> tuple[np.ndarray, ...]:
    """By binade of |x| (see _decimal_digits): the slot of the lower e10 that
    %.17g writes in it and the smallest double written with the next one; slot
    0 (subnormals, nan, inf, |e10| > _SPAN) is formatted one at a time.  By
    slot: 10**(16 - e10) as hi + lo, the Veltkamp halves of hi (all 0 in slot
    0), and the largest |lo - rint(lo)| whose rounding is certified."""
    tens = list(itertools.accumulate([1] + [10] * (_SPAN + 19), int.__mul__))  # 10**0..10**299
    # %.17g writes e10 >= n from (10**18 - 5) * 10**(n - 18) on (a tie rounds up): over
    # 10**(18 - n) for n = -_SPAN - 1..17, then times 10**(n - 18) for n = 18.._SPAN + 1
    hi, lo = map(np.array, zip(*map(_double_double, [10**18 - 5] * (_SPAN + 19) + [
        (10**18 - 5) * t for t in tens[:_SPAN - 16]], tens[:0:-1] + [1] * (_SPAN - 16))))
    bounds = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    lowest = np.nextafter(2.0 ** np.arange(-1022, 1024), np.inf)  # of binades 2..2047
    k = np.searchsorted(bounds, lowest, "right") - (_SPAN + 2)  # its e10
    good = (k >= -_SPAN) & (k < _SPAN)
    start, threshold = np.zeros(2049, np.intp), np.full(2049, np.inf)
    start[0] = _SPAN + 1  # zero, as e10 = 0
    start[2:2048][good] = k[good] + _SPAN + 1
    threshold[2:2048][good] = bounds[k[good] + _SPAN + 2]
    e10 = np.arange(-_SPAN - 1, _SPAN + 1)
    # 10**(16 - e10): 10**(_SPAN + 17)..10**0, then 1 over 10**1..10**(_SPAN - 16)
    hi, lo = map(np.array, zip(*map(_double_double, tens[_SPAN + 17::-1] + [1] * (_SPAN - 16),
                                    [1] * (_SPAN + 18) + tens[1:_SPAN - 15])))
    hi[0] = lo[0] = 0.0
    limit = np.where((e10 >= -6) & (e10 <= 16), 0.5, 0.5 - _TIE_MARGIN)  # 10**p a double
    limit[0] = -1.0
    return start, threshold, np.array([hi, lo, *_veltkamp(hi)]), limit


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """Word tables of a text cell: word 0 holds the sign, "0.000" (e10 = -4),
    the leading digit at byte 6 and a point after it; words 1-2 digits 1..16;
    word 3 a digit pushed out by a point among them, the exponent ("e-05") and
    ",".  By slot: word 0 without sign and digit, and word 3.  By quad q:
    its digits as bytes 0-3 and 4-7, blanked from the first trailing zero at
    q + 10000.  By leading digit (+10 if negative): sign and digit.  By the
    digit p the point follows: "0" in digits 1..p."""
    slots = b"".join([(b"\0" * 7 + b".\0e%+03d" % e).ljust(15, b"\0") + b"," if not -4 <= e < 17
                      else (b"\0" + (b"0." + b"0" * (-1 - e) if e < 0 else b"")).ljust(7, b"\0")
                      + (b"." if e == 0 else b"\0") + b"\0" * 7 + b","
                      for e in range(-_SPAN - 1, _SPAN + 1)])
    prefixes, suffixes = np.frombuffer(slots, "<u8").reshape(-1, 2).T.copy()
    chars = np.zeros((2, 10000, 8), np.uint8)
    for i in range(4):  # digit i of each quad; blanked where it and all later digits are 0
        chars.reshape(2, 10**i, 10, -1, 8)[..., i] = np.arange(ord("0"), ord("9") + 1)[:, None]
        chars[1, :: 10 ** (4 - i), i] = 0
    quad_lo = chars.reshape(20000, 8).view("<u8")[:, 0]
    leads = (np.arange(20) % 10 + ord("0") << 48 | np.arange(20) // 10 * ord("-")).astype(np.uint64)
    zeros = (np.arange(16) < np.arange(17)[:, None]).astype(np.uint8) * np.uint8(ord("0"))
    return prefixes, suffixes, quad_lo, quad_lo << np.uint64(32), leads, zeros


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|x| rounded half to even to 17 significant digits, as an integer in
    [1e16, 1e17) (0 for a zero), the slot of its decimal exponent e10, and
    where the rounding is certified: not in slot 0 and not a near-tie where
    10**(16 - e10) is not a double."""
    start, threshold, powers, limit = _exponent_tables()
    a = np.abs(x)
    # 0 for zero, 1 for subnormals, 2048 for nan; binade c >= 2 is (2**(c-1024), 2**(c-1023)]
    binade = ((a.view(np.uint64) + (2**52 - 1)) >> 52).view(np.int64)
    np.fmin(a, 1e300, out=a)  # nan and inf, in slot 0, times 0
    slot = start.take(binade)
    slot += a >= threshold.take(binade)
    del binade
    # a * 10**(16 - e10) = hi + lo exactly (Dekker's product); hi is an even
    # integer, as a double >= 1e16, so rint(lo) rounds hi + lo half to even
    head, tail = _veltkamp(a)
    hi10, lo10, head10, tail10 = powers.take(slot, axis=1)
    hi = a * hi10
    lo = head * head10 - hi + head * tail10 + tail * head10 + tail * tail10 + a * lo10
    rounded = np.rint(lo)
    lo -= rounded
    digits = hi.astype(np.int64)
    digits += rounded.astype(np.int64)
    return digits, slot, np.abs(lo) <= limit.take(slot)


def _divmod(n: np.ndarray, d: int) -> np.ndarray:
    """n // d, leaving n % d in n (numpy has a fast // by a scalar, not %)."""
    quotient = n // d
    n -= quotient * d
    return quotient


def _text_cells(x: np.ndarray, digits: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The 32-byte text cells of x (see _text_tables), given its digits (which
    this overwrites) and slots, each ending in a comma."""
    prefixes, suffixes, quad_lo, quad_hi, leads, zeros = _text_tables()
    upper = _divmod(digits, 10**8)
    lead = _divmod(upper, 10**8)
    q0, q1 = _divmod(upper, 10**4), upper
    q2, q3 = _divmod(digits, 10**4), digits
    blank = np.flatnonzero(q3 == 0)  # blank each quad no nonzero digit follows, on the values
    for q in (q2, q1, q0):  # that have one; blank ends as those with no digit after the lead
        q[blank] += 10000
        blank = blank[q[blank] == 10000]
    cells = np.empty((len(x), 4), np.uint64)
    np.bitwise_or(quad_lo.take(q0), quad_hi.take(q1), out=cells[:, 1])
    np.bitwise_or(quad_lo.take(q2), quad_hi[10000:].take(q3), out=cells[:, 2])
    word = prefixes.take(slot)
    word[blank] &= np.uint64(2**56 - 1)  # no point if no digit follows
    np.add(lead, 10, out=lead, where=np.signbit(x))
    np.bitwise_or(word, leads.take(lead), out=cells[:, 0])
    cells[:, 3] = suffixes.take(slot)
    if slot.max() > _SPAN + 1:  # a value has e10 >= 1; rows: those with 1 <= e10 <= 16
        rows = np.flatnonzero((slot > _SPAN + 1) & (slot < _SPAN + 18))
        point = slot[rows] - (_SPAN + 1)  # e10: the digit among 1..16 the point follows
        chars = cells[rows].view(np.uint8)
        chars[:, 8:24] |= zeros[point]
        dotted = chars[np.arange(len(rows)), 8 + point] != 0  # a nonzero digit follows
        for p in np.unique(point[dotted]).tolist():
            shift = dotted & (point == p)
            chars[shift, 9 + p : 25] = chars[shift, 8 + p : 24]
            chars[shift, 8 + p] = ord(".")
        cells[rows] = chars.view(np.uint64)
    return cells


def _compact(cells: np.ndarray) -> bytes:
    """The text of an array of cells, their NUL padding dropped."""
    return cells.tobytes().translate(None, b"\0")


def _lines(cells: np.ndarray) -> bytes:
    """The text of rows of cells, a newline ending the last cell of each."""
    cells[:, -1, -1] = ord("\n")
    return _compact(cells)


def _format_rows(block: np.ndarray) -> tuple[bytes, int]:
    """The rows of a 2-D array as CSV lines: each value as the bytes of
    '%.17g' % value, "," between values and a newline after each row.  Down
    each column, a value whose bits equal those of the value above it takes
    that value's text, so only the heads of those runs of equal values are
    formatted.  A stretch of rows whose columns after the first all repeat
    the row above (long enough to save _TAIL_MIN_CELLS cells) is written as
    each row's first value and the tail text of the row before the stretch,
    so only the first column's cells are gathered.  Also returns how many
    run heads were formatted one at a time: every value of a block of fewer
    than _KERNEL_MIN_VALUES, else the heads the kernel does not certify."""
    x = np.ascontiguousarray(block, dtype=np.float64)
    if x.size < _KERNEL_MIN_VALUES:
        return "".join(",".join(map("%.17g".__mod__, row)) + "\n"
                       for row in x.tolist()).encode(), x.size
    rows, cols = x.shape
    bits = x.view(np.uint64)  # 0.0 and -0.0 differ, as do nan payloads
    probe = bits[64::64] == bits[63:-1:64]  # every 64th row against the row above it
    stretches = []
    if probe.size and 4 * np.count_nonzero(probe) >= probe.size:  # a quarter repeat: find runs
        head = np.empty((cols, rows), bool)  # column by column
        head[:, 0] = True
        np.not_equal(bits[1:].T, bits[:-1].T, out=head[:, 1:])
        starts = np.flatnonzero(head)
        heads = x.T.take(starts)
        # each value's run, as its head's position in heads
        run = np.arange(starts.size).repeat(np.diff(starts, append=x.size)).reshape(cols, rows).T
        if cols > 1 and probe[:, 1:].all(axis=1).any():  # a probe row repeats all but column 0
            # a row is a head in a column after the first unless it repeats the row above; row
            # 0 always is, so the edges of the stretches of repeats alternate start and stop
            edges = np.flatnonzero(np.diff(head[1:].any(axis=0), append=True)) + 1
            stretches = [(start, stop) for start, stop in edges.reshape(-1, 2).tolist()
                         if (stop - start) * (cols - 1) >= _TAIL_MIN_CELLS]
    else:
        heads, run = x.ravel(), None
    digits, slot, certified = _decimal_digits(heads)
    text = _text_cells(heads, digits, slot).view(np.uint8)
    fallback = (~certified).nonzero()[0]
    for k in fallback:
        value = ("%.17g" % heads[k]).encode()
        text[k, :-1] = 0
        text[k, : len(value)] = np.frombuffer(value, np.uint8)
    pieces, at = [], 0
    for start, stop in stretches:
        above = _lines(text.take(run[at:start], axis=0))  # ends in the row before the stretch
        tail = above[above.index(b",", above.rfind(b"\n", 0, -1) + 1):]  # its ",tail\n"
        # each first-column cell ends in its one comma
        pieces += above, _compact(text.take(run[start:stop, 0], axis=0)).replace(b",", tail)
        at = stop
    cells = text.reshape(rows, cols, 32) if run is None else text.take(run[at:], axis=0)
    del text  # the heads' cells, freed before the compaction allocates
    pieces.append(_lines(cells))
    return b"".join(pieces), len(fallback)


def _format_float(x: float) -> str:
    if math.isfinite(x):
        return "%.17g" % x
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def _to_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{key}": {_to_json(entry, indent + 1)}' for key, entry in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.size > 1 and value.dtype.kind in "iuf" and value.itemsize <= 8:
            bits = value.view(f"u{value.itemsize}")  # 0.0 and -0.0 differ, as do nan payloads
            if (bits == bits[0]).all():  # one repeated value: its text, repeated
                one = _to_json(value[:1])[1:-1]
                return "[" + (one + ", ") * (value.size - 1) + one + "]"
        if value.ndim == 1 and value.dtype.kind in "iu":
            return repr(value.tolist())
        if value.ndim == 1 and value.dtype.kind == "f":
            if not np.isfinite(value).all():  # "nan" and "inf" are strings, one value at a time
                return "[" + ", ".join(map(_format_float, value.tolist())) + "]"
            text = b",".join(_format_rows(value[None, at : at + BLOCK_VALUES])[0][:-1]
                             for at in range(0, value.size, BLOCK_VALUES))
            return "[" + text.replace(b",", b", ").decode() + "]"
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(entry, indent + 1) for entry in value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if value is None:
        return "null"
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_json(path: Path, payload: dict) -> None:
    try:
        path.write_text(_to_json(payload) + "\n")
    except OSError as exc:
        raise QCLabError(f"cannot write {str(path)!r}: {exc}") from None


_CSV_CHUNK_ROWS = 4096
# Smaller blocks skip the kernel: its fixed cost (60-100 us for 4-64 values, one Xeon thread)
# exceeds '%.17g' one value at a time (3-45 us); from about 192 values on the kernel wins.
_KERNEL_MIN_VALUES = 128
# A stretch of rows that repeat the row above after their first column saves cols - 1
# cells per row against a fixed cost of about 2 us (one Xeon thread); it broke even at 16
# rows of 4 columns, 24 of 3 and 64 of 2, so it is written as first values from 64 saved
# cells on.
_TAIL_MIN_CELLS = 64

# A CSV column: an array, or a function of a row range (start, stop, out) that
# writes those rows into out, so a lattice column need not exist whole.
Column = np.ndarray | Callable[[int, int, np.ndarray], np.ndarray]


def _write_csv(path: Path, rows: int, columns: dict[str, Column], rates: Iterable[float] = ()):
    """Write a header of the column names, then ``rows`` rows of the columns,
    then one "rate,VALUE" footer line per observed rate; rows are formatted
    by _format_rows and written in bounded chunks, each filled column by
    column into one buffer, into which a function column writes its rows."""
    chunk = np.empty((min(rows, _CSV_CHUNK_ROWS), len(columns)))
    try:
        with path.open("wb") as handle:
            handle.write((",".join(columns) + "\n").encode())
            for at in range(0, rows, _CSV_CHUNK_ROWS):
                stop = min(at + _CSV_CHUNK_ROWS, rows)
                block = chunk[: stop - at]
                for col, out in zip(columns.values(), block.T):
                    col(at, stop, out) if callable(col) else np.copyto(out, col[at:stop])
                handle.write(_format_rows(block)[0])
            for rate in rates:
                handle.write(b"rate,%.17g\n" % rate)
    except OSError as exc:
        raise QCLabError(f"cannot write {str(path)!r}: {exc}") from None


# ---------------------------------------------------------------- configuration

def _load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw, line in read_entries(path, QCLabError, "config file"):
        if "=" not in line:
            raise QCLabError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


_INT_KEYS = ("N", "K", "r")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig's defaults, overridden by the config file, then by flags."""
    values = asdict(RunConfig())
    if args.config:
        for key, raw in _load_config_file(args.config).items():
            if key not in values:
                raise QCLabError(f"unknown config key {key!r}")
            try:
                values[key] = int(raw) if key in _INT_KEYS else raw
            except ValueError:
                raise QCLabError(f"config key {key!r} has a bad value {raw!r}") from None
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for key, names in {"method": _METHODS, "weights": WEIGHT_MODES}.items():
        if values[key] not in names:
            raise UnknownFamily(f"unknown {key} value {values[key]!r}; choose from {names}")
    if values["r"] < 0:
        raise ShapeMismatch(f"cluster radius must be nonnegative, got {values['r']}")
    return RunConfig(**values)


# ---------------------------------------------------------------- run pipeline

class _Clock:
    """Wall seconds per stage: ``with clock.stage(name)`` records the time since
    the last stage or the start as timings[name]; a float64 error in the block
    fails as a QCLabError that names the stage and the force descriptor."""

    def __init__(self, timings: dict[str, float] | None = None, force: str | None = None):
        self.timings, self.force = {} if timings is None else timings, force
        self.start = self.last = time.perf_counter()

    @contextlib.contextmanager
    def stage(self, name: str):
        try:
            yield
        except FloatingPointError as exc:
            raise QCLabError(f"{name}, force {self.force!r}: {exc}") from None
        now = time.perf_counter()
        self.timings[name], self.last = now - self.last, now


def _output_dir(path: Path) -> Path:
    """Create the output directory; a path that cannot be one is a user error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise QCLabError(f"cannot use {str(path)!r} as output directory: {exc}") from None
    return path


def _write_files(out: Path, payload: dict, csv: tuple | None) -> None:
    """Write csv (name, *_write_csv arguments), timed as cli.write_csv, then report.json."""
    if csv is not None:
        with _Clock(payload["timings"], payload["config"]["force"]).stage("cli.write_csv"):
            _write_csv(out / csv[0], *csv[1:])
    _write_json(out / "report.json", payload)


def _execute(config: RunConfig) -> tuple[dict, dict[str, Column], dict[str, SolveReport]]:
    """Build, then solve, per config; returns (report payload ending with
    wall_time_s and timings, profile columns in file order, coarse solve reports
    by method).  Every O(K) object that can reject the input (force, mesh,
    cluster rule) is built before any lattice-sized work.  The constrained and
    energy solves share one exact_load.  u_atomistic is formed whole once the
    force samples are freed; every other column writes a row range (_write_csv)."""
    clock = _Clock(force=config.force)
    with clock.stage("model.sample_force"):
        model = ChainModel(potential=harmonic_potential(),
                           force=sample_force(config.force, config.N))
    payload: dict = {"config": {key: value for key, value in asdict(config).items()
                                if key != "out"}}
    coarse = config.mesh is not None and config.K is not None
    if coarse:
        with clock.stage("mesh"):
            spec = parse_mesh_descriptor(config.mesh, config.N, config.K)
            mesh = build_mesh(spec)
            coefficients = smoothness_profile(mesh)
            payload["mesh"] = {"repatoms": mesh.repatoms, "steps": mesh.steps, "h": mesh.h,
                               "kappa": mesh.kappa}
            payload["smoothness"] = {"coefficients": coefficients,
                                     "max_abs": float(np.max(np.abs(coefficients)))}
    cluster = config.method in ("energy-cluster", "force-cluster")
    if cluster:
        with clock.stage("weights"):
            rule = ClusterRule(mesh=mesh, r=config.r)
            system = assemble_weight_system(rule)
            weights = solve_weights(system, config.weights)
            payload["weights"] = {
                "mode": weights.mode, "r": rule.r, "energy_exact": weights.energy_exact,
                "energy_lumped": weights.energy_lumped, "gap_max": weights.gap_max,
                "residual_max": float(np.max(np.abs(weights.residual))),
                "dominance_margin_min": float(np.min(system.dominance_margin()))}
    reports: dict[str, SolveReport] = {}
    with clock.stage("solve.solve_atomistic"):
        reports["atomistic"] = solve_atomistic(model)
    if coarse:
        with clock.stage("solve.solve_constrained"):
            load = exact_load(mesh, model)  # the energy rule's hat loads too
            reports["constrained"] = solve_constrained(model, mesh, load)
    if cluster:
        with clock.stage("cluster.verify_exactness"):
            payload["weights"]["exactness_defect"] = verify_exactness(weights)
        energy = config.method == "energy-cluster"
        with clock.stage("solve.solve_energy_cluster" if energy else "solve.solve_force_cluster"):
            reports[config.method] = (solve_energy_cluster(model, weights, load) if energy
                                      else solve_force_cluster(model, weights))
    load = None  # the hat loads go before the profile's arrays (peak RSS on fine meshes)
    if cluster:
        qc = reports[config.method].solution
        prolonged = prolong(reports["constrained"].solution, qc)
    else:
        prolonged = prolong(reports["constrained"].solution) if coarse else ()
    payload["solves"] = {method: {"residual": report.residual, "reaction": report.reaction,
                                  "iterations": report.iterations}
                         for method, report in reports.items()}
    if cluster:
        with clock.stage("error_report"):
            payload["errors"] = error_report(
                model, reports["atomistic"].solution, reports["constrained"].solution, qc,
                energy_cluster_functional(model, weights, qc),
                # the closed-form band is derived for the energy rule at r = 0 only
                family=spec.family if energy and rule.r == 0 else None)
    model = None  # the force samples go before the values are formed
    with clock.stage("model.path_sum"):
        values = reports.pop("atomistic").solution.values  # and the gradients after
    columns = dict(zip(("x", "u_atomistic", "u_constrained", "u_qc"),
                       (functools.partial(lattice_coordinates, config.N), values, *prolonged)))
    payload["wall_time_s"] = time.perf_counter() - clock.start
    payload["timings"] = clock.timings
    return payload, columns, reports


def _cmd_run(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    if config.force is None:
        raise QCLabError("force descriptor is required (flag --force or config file)")
    if config.N is None:
        raise QCLabError("N is required (flag --N or config file)")
    if config.method != "atomistic" and (config.mesh is None or config.K is None):
        raise QCLabError(f"method {config.method!r} needs --mesh and --K")
    payload, columns, _ = _execute(config)
    out = _output_dir(Path(config.out))
    _write_files(out, payload, ("profile.csv", 2 * config.N, columns))
    print(f"wrote {out / 'profile.csv'} and {out / 'report.json'}")
    return 0


# ---------------------------------------------------------------- presets
#
# A preset body returns (payload, checks, csv): its report entries, with
# "preset" where its report format puts it; its checks; and None or one CSV
# file as (file name, row count, columns in file order, rates for the
# footer).  The runner adds checks and verdict to the report, writes the
# files, prints the summary line and returns the exit code.

def _check(value, lo: float, hi: float) -> dict:
    return {"value": value, "band": [lo, hi], "pass": bool(lo <= value <= hi)}


_FIGURES = {
    "fig1": (RunConfig(mesh="graded", N=2 ** 14, K=15, method="energy-cluster",
                       force="gauss:1e4,1e4"),
             {"energy_norm_rel": (0.10, 0.13), "energy_rel": (-0.16, -0.10)}),
    "fig2": (RunConfig(mesh="oscillatory", N=10 ** 4, K=20, method="energy-cluster",
                       force="sinpi"),
             {"energy_norm_rel": (0.30, 0.36), "energy_rel": (0.08, 0.12)}),
}


def _figure(preset: str) -> tuple[dict, dict, tuple | None]:
    config, bands = _FIGURES[preset]
    payload, columns, reports = _execute(config)
    checks = {name: _check(payload["errors"][name], lo, hi) for name, (lo, hi) in bands.items()}
    checks["runtime_s"] = _check(payload["wall_time_s"], 0.0, 5.0)
    if config.mesh == "oscillatory":
        # the error sign pattern is a property of alternating meshes
        alternating, pairs = gradient_alternation(reports["constrained"].solution,
                                                  reports[config.method].solution)
        checks["gradient_alternation"] = {"value": pairs, "pass": bool(alternating and pairs > 0)}
    payload["preset"] = preset
    return payload, checks, ("profile.csv", 2 * config.N, columns, ())


def _example1(preset: str) -> tuple[dict, dict, tuple | None]:
    K_values = [8, 16, 32, 64]
    table = smooth_mesh_consistency(N=2 ** 14, K_values=K_values, amplitude=0.2)
    pairwise, fit = rates(*table.values()), fit_rate(*table.values())
    payload = {
        "preset": preset,
        "config": {"mesh": "smooth:0.2", "N": 2 ** 14, "K_values": K_values,
                   "force": "sinpi", "method": "constrained"},
        **table,
        "pairwise_rates": pairwise,
        "fit_rate": fit,
    }
    checks = {"consistency_rate": _check(fit, 1.9, float("inf"))}
    return payload, checks, ("sweep.csv", len(K_values), {"K": np.array(K_values), **table},
                             pairwise)


def _force_scaling(preset: str) -> tuple[dict, dict, tuple | None]:
    K_values = [8, 16, 32, 64]
    study = force_scaling_study(N=2 ** 12, K_values=K_values, r=1)
    at_k16 = K_values.index(16)
    ratio_gap = abs(study["ratio_measured"][at_k16] / study["ratio_predicted"][at_k16] - 1.0)
    h, scaled = study["h"], study["deviation_scaled"]
    scaled_rate = fit_rate(h, scaled)
    payload = {
        "preset": preset,
        "config": {"mesh": "uniform", "N": 2 ** 12, "K_values": K_values,
                   "r": 1, "force": "sinpi", "method": "force-cluster"},
        **study,
        "scaled_deviation_rate": scaled_rate,
        "absolute_deviation_rate": fit_rate(h, study["deviation_absolute"]),
    }
    checks = {"ratio_gap_at_K16": _check(ratio_gap, 0.0, 0.02),
              "scaled_deviation_rate": _check(scaled_rate, 1.8, float("inf"))}
    return payload, checks, ("sweep.csv", len(K_values), study, rates(h, scaled))


def _audit_meshes() -> list[tuple[str, CoarseMesh, list[int]]]:
    """(label, mesh, cluster radii to audit) triples."""
    instances = [
        ("uniform-64-4", build_mesh(MeshSpec(family="uniform", N=64, K=4)), [0, 1, 3, 7]),
        ("graded-4", build_mesh(MeshSpec(family="graded", N=8, K=4)), [0]),
        ("graded-6", build_mesh(MeshSpec(family="graded", N=32, K=6)), [0]),
        ("oscillatory-96-4", build_mesh(MeshSpec(family="oscillatory", N=96, K=4)), [0, 1, 3]),
    ]
    for m in range(4):
        cums = np.cumsum(np.array([4, 8, 16, 32, 32, 16, 8, 4]) * 2 ** m)
        N = int(cums[-1] // 2)
        reps = tuple(int(v) for v in (cums - cums[3]))
        instances.append((f"gradedlike-{N}",
                          build_mesh(MeshSpec(family="custom", N=N, K=4, indices=reps)), [1]))
    return instances


def _weights_audit(preset: str) -> tuple[dict, dict, tuple | None]:
    rows, gap_by_size = [], []
    for label, mesh, radii in _audit_meshes():
        for r in radii:
            system = assemble_weight_system(ClusterRule(mesh=mesh, r=r))
            weights = solve_weights(system)
            margin = float(np.min(system.dominance_margin()))
            defect = verify_exactness(weights)
            lumping_exact = bool(np.array_equal(weights.energy_exact, weights.energy_lumped))
            row_ok = (margin > r) and (defect <= 1e-10)
            if r == 0 or mesh.kappa == 1.0:
                row_ok = row_ok and lumping_exact
            rows.append({
                "mesh": label, "r": r, "dominance_margin_min": margin,
                "exactness_defect": defect, "gap_max": weights.gap_max,
                "residual_max": float(np.max(np.abs(weights.residual))),
                "lumped_equals_exact": lumping_exact, "pass": bool(row_ok),
            })
            if label.startswith("gradedlike"):
                gap_by_size.append((mesh.N, weights.gap_max))
    sizes, gaps = np.array(sorted(gap_by_size)).T
    gap_rates = rates(1.0 / sizes, gaps)
    payload = {"preset": preset, "rows": rows, "lumped_gap_rates": gap_rates}
    checks = {"gap_rate": _check(float(np.min(gap_rates)), 0.9, float("inf"))}
    return payload, checks, None


_PRESETS = {"fig1": _figure, "fig2": _figure, "example1": _example1,
            "force-scaling": _force_scaling, "weights-audit": _weights_audit}


def _cmd_reproduce(args: argparse.Namespace) -> int:
    clock = _Clock()
    with clock.stage(args.preset):
        payload, checks, csv = _PRESETS[args.preset](args.preset)
    if "timings" not in payload:  # a preset that bypasses _execute: its body is one stage
        payload.update(wall_time_s=clock.timings[args.preset], timings=clock.timings)
    # weights-audit rows carry pass flags of their own, outside the checks
    passed = all(check["pass"] for check in checks.values()) and all(
        row["pass"] for row in payload.get("rows", ()))
    payload["checks"] = checks
    payload["verdict"] = "PASS" if passed else "FAIL"
    for key in ("wall_time_s", "timings"):  # the last entries
        payload[key] = payload.pop(key)
    _write_files(_output_dir(Path(args.out) / args.preset), payload, csv)
    detail = ", ".join(f"{name}={check['value']:.6g}" for name, check in checks.items())
    print(f"{args.preset}: {payload['verdict']} ({detail})")
    return 0 if passed else 2


# ---------------------------------------------------------------- sweeps

def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    if config.N is None and args.axis != "N":
        raise QCLabError("N is required (flag --N or config file)")
    if config.mesh is None:
        raise QCLabError("sweep needs --mesh")
    if config.K is None and args.axis != "K":
        raise QCLabError("sweep needs --K unless K is the swept axis")
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError:
        raise QCLabError(
            f"sweep --values must be comma-separated integers, got {args.values!r}"
        ) from None
    if args.axis == "r" and args.metric in STUDY_METRICS and not STUDY_METRICS[args.metric][1]:
        raise QCLabError(f"metric {args.metric!r} never reads r; sweep it along K or N")
    points = [(value if args.axis == "N" else config.N,
               value if args.axis == "K" else config.K,
               value if args.axis == "r" else config.r) for value in values]
    with _Clock(force=config.force).stage(f"metric {args.metric}"):
        study = convergence_study(args.metric, config.mesh, config.force, points, config.weights)
        footer = rates(*study.values())
    out = _output_dir(Path(config.out))
    _write_csv(out / "sweep.csv", len(values), {args.axis: np.array(values), **study}, footer)
    print(f"wrote {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------- mesh-inspect

def _cmd_mesh_inspect(args: argparse.Namespace) -> int:
    spec = parse_mesh_descriptor(args.mesh, args.N, args.K)
    mesh = build_mesh(spec)
    coefficients = smoothness_profile(mesh)
    payload = {"family": spec.family, "N": mesh.N, "K": mesh.K, "repatoms": mesh.repatoms,
               "steps": mesh.steps, "h": mesh.h, "kappa": mesh.kappa,
               "smoothness_coefficients": coefficients,
               "smoothness_max_abs": float(np.max(np.abs(coefficients))),
               "max_admissible_r": int((np.min(mesh.steps) - 1) // 2)}
    print(_to_json(payload))
    return 0


# ---------------------------------------------------------------- entry point

@functools.cache  # built on the first main() call, then shared: parse_args does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclab",
        description="Cluster-summation coarse graining laboratory for a periodic chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mesh", help="mesh descriptor: uniform | graded | oscillatory "
                                      "| smooth[:AMP] | custom:PATH")
        p.add_argument("--N", type=int, help="atoms per half period")
        p.add_argument("--K", type=int, help="mesh nodes per half period")
        p.add_argument("--r", type=int, help="cluster radius (default 0)")
        p.add_argument("--weights", help=f"weight mode: {' | '.join(WEIGHT_MODES)} (default exact)")
        p.add_argument("--force", help="force descriptor: sinpi | gauss:A,B | const:C | lin:a,b")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--config", help="key = value config file; flags override")

    run_p = sub.add_parser("run", help="solve one configured instance")
    add_common(run_p)
    run_p.add_argument("--method", help="solver: " + " | ".join(_METHODS)
                                        + " (default constrained)")
    run_p.set_defaults(handler=_cmd_run)

    rep_p = sub.add_parser("reproduce", help="run a named preset with PASS/FAIL bands")
    rep_p.add_argument("preset", choices=list(_PRESETS))
    rep_p.add_argument("--out", default=".", help="output directory (default .)")
    rep_p.set_defaults(handler=_cmd_reproduce)

    sweep_p = sub.add_parser("sweep", help="one metric along one axis")
    add_common(sweep_p)
    sweep_p.add_argument("--axis", choices=["K", "N", "r"], required=True)
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sweep_p.add_argument("--metric", required=True, help=" | ".join(STUDY_METRICS))
    sweep_p.set_defaults(handler=_cmd_sweep)

    inspect_p = sub.add_parser("mesh-inspect", help="mesh diagnostics as JSON")
    inspect_p.add_argument("--mesh", required=True)
    inspect_p.add_argument("--N", type=int, required=True)
    inspect_p.add_argument("--K", type=int, required=True)
    inspect_p.set_defaults(handler=_cmd_mesh_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):  # underflow gives 0
                status = args.handler(args)
        except (QCLabError, MemoryError, FloatingPointError) as exc:  # lattice or number too large
            import json  # needed on this path only

            code = getattr(exc, "code", QCLabError.code)
            print(json.dumps({"error": {"code": code, "message": str(exc)}}))
            status = 1
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:  # the reader closed stdout: what is left goes to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
