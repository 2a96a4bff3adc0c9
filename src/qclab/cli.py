"""Experiment runner.

Subcommands:
  run           one instance: build, solve, write profile.csv + report.json
  reproduce     named presets with PASS/FAIL verdicts against frozen bands
  sweep         one metric against one axis, with observed-rate footer rows
  mesh-inspect  mesh diagnostics as JSON on stdout

Reports are deterministic: floats are serialized with 17 significant digits
(the bytes of '%.17g') in a fixed key order, so identical configs produce
byte-identical files except for their wall times: the trailing wall_time_s
entry and, in the fig1 and fig2 reports, checks.runtime_s.value.  That holds
at a fixed BLAS thread count only: at N >= 2^14 some profiles and reports
differ in their last digits between one and two OpenBLAS threads.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import QCLabError, UnknownFamily
from .model import ChainModel, harmonic_potential, lattice_coordinates, sample_force
from .mesh import (
    CoarseMesh,
    MeshSpec,
    build_mesh,
    parse_mesh_descriptor,
    prolong_rows,
    smoothness_profile,
)
from .cluster import ClusterRule, assemble_weight_system, solve_weights, verify_exactness
from .solve import (
    SolveReport,
    energy_cluster_functional,
    solve_atomistic,
    solve_constrained,
    solve_energy_cluster,
    solve_force_cluster,
)
from .analysis import (
    ConvergenceTable,
    convergence_study,
    error_report,
    force_scaling_study,
    gradient_alternation,
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
# Every float of profile.csv and of a report's float arrays is written with
# exactly the bytes of '%.17g' % value by one vectorized kernel: |x| scaled to
# [1e16, 1e17) in double-double arithmetic and rounded half to even, its text
# laid out in a 32-byte cell of four NUL-padded words whose NULs one
# bytes.translate drops.  Values it cannot certify are formatted one at a
# time.  About 100 ns per value on lattice profiles (one Xeon thread).

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
_SPAN = 280  # the kernel formats |e10| <= _SPAN; its tables hold slot e10 + _SPAN + 1
_TIE_MARGIN = 2.0 ** -40  # bounds the error of lo (a few 2**-50) where 10**p is not a double


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """head + tail == a, each half with at most 26 significant bits."""
    head = _SPLIT * a
    head -= head - a
    return head, a - head


def _double_double(num: int, den: int) -> tuple[float, float]:
    """num / den as hi + lo, each correctly rounded (int division is)."""
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


@functools.cache
def _exponent_tables() -> tuple[np.ndarray, ...]:
    """By binade of |x| (see _decimal_digits): the slot of the lower e10 that
    %.17g writes in it and the smallest double written with the next one; slot
    0 (subnormals, nan, inf, |e10| > _SPAN) is formatted one at a time.  By
    slot: 10**(16 - e10) as hi + lo, the Veltkamp halves of hi (all 0 in slot
    0), and the largest |lo - rint(lo)| whose rounding is certified."""
    # %.17g writes e10 >= n from 10**n - 5 * 10**(n - 18) on (a tie rounds up)
    bounds = np.array([hi if lo <= 0 else np.nextafter(hi, np.inf) for hi, lo in (
        _double_double((10**18 - 5) * 10 ** max(n - 18, 0), 10 ** max(18 - n, 0))
        for n in range(-_SPAN - 1, _SPAN + 2))])
    lowest = np.nextafter(2.0 ** np.arange(-1022, 1024), np.inf)  # of binades 2..2047
    k = np.searchsorted(bounds, lowest, "right") - (_SPAN + 2)  # its e10
    good = (k >= -_SPAN) & (k < _SPAN)
    start, threshold = np.zeros(2049, np.intp), np.full(2049, np.inf)
    start[0] = _SPAN + 1  # zero, as e10 = 0
    start[2:2048][good] = k[good] + _SPAN + 1
    threshold[2:2048][good] = bounds[k[good] + _SPAN + 2]
    e10 = np.arange(-_SPAN - 1, _SPAN + 1)
    hi, lo = np.array([_double_double(10 ** max(16 - e, 0), 10 ** max(e - 16, 0))
                       for e in e10.tolist()]).T
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
    slots = b"".join((b"\0" + (b"0." + b"0" * (-1 - e) if -4 <= e < 0 else b"")).ljust(7, b"\0")
                     + (b"." if e == 0 or not -4 <= e < 17 else b"\0")
                     + (b"\0e%+03d" % e if not -4 <= e < 17 else b"").ljust(7, b"\0") + b","
                     for e in range(-_SPAN - 1, _SPAN + 1))
    prefixes, suffixes = np.frombuffer(slots, "<u8").reshape(-1, 2).T.copy()
    quads = np.arange(10000)[:, None]
    chars = np.zeros((2, 10000, 8), np.uint8)
    chars[:, :, :4] = quads // [1000, 100, 10, 1] % 10 + ord("0")
    chars[1, :, :4][quads % [10000, 1000, 100, 10] == 0] = 0  # this and later digits are 0
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


def _text_cells(x: np.ndarray, digits: np.ndarray, slot: np.ndarray,
                shape: tuple[int, int]) -> np.ndarray:
    """The 32-byte text cells of x (see _text_tables), given its digits (which
    this overwrites) and slots, with a comma after each value or a newline
    after the last value of each row of shape."""
    prefixes, suffixes, quad_lo, quad_hi, leads, zeros = _text_tables()
    upper = _divmod(digits, 10**8)
    lead = _divmod(upper, 10**8)
    q0, q1 = _divmod(upper, 10**4), upper
    q2, q3 = _divmod(digits, 10**4), digits
    # the blanked form of a quad that no nonzero digit follows
    q2 += (q3 == 0) * 10000
    q1 += (q2 == 10000) * 10000
    q0 += (q1 == 10000) * 10000
    cells = np.empty((len(x), 4), np.uint64)
    np.bitwise_or(quad_lo.take(q0), quad_hi.take(q1), out=cells[:, 1])
    np.bitwise_or(quad_lo.take(q2), quad_hi[10000:].take(q3), out=cells[:, 2])
    word = prefixes.take(slot)
    word -= (q0 == 10000) * (word & np.uint64(0xFF << 56))  # no point if no digit follows
    lead += np.signbit(x) * 10
    np.bitwise_or(word, leads.take(lead), out=cells[:, 0])
    cells[:, 3] = suffixes.take(slot)
    cells.reshape(*shape, 4)[:, -1, 3] ^= np.uint64((ord(",") ^ ord("\n")) << 56)
    rows = ((slot > _SPAN + 1) & (slot < _SPAN + 18)).nonzero()[0]  # 1 <= e10 <= 16
    if len(rows):
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


def _format_rows(block: np.ndarray) -> tuple[bytes, int]:
    """The rows of a 2-D array as CSV lines: each value as the bytes of
    '%.17g' % value, "," between values and a newline after each row.  Also
    returns how many values were formatted one at a time (not certified)."""
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    digits, slot, certified = _decimal_digits(x)
    text = _text_cells(x, digits, slot, block.shape).view(np.uint8)
    fallback = (~certified).nonzero()[0]
    for k in fallback:
        value = ("%.17g" % x[k]).encode()
        text[k, :-1] = 0
        text[k, : len(value)] = np.frombuffer(value, np.uint8)
    return text.tobytes().translate(None, b"\0"), len(fallback)


def _format_float(x: float) -> str:
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


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
        if value.ndim == 1 and value.dtype.kind in "iu":
            return repr(value.tolist())
        if value.ndim == 1 and value.dtype.kind == "f" and np.isfinite(value).all():
            if not value.size:
                return "[]"
            text, _ = _format_rows(value[None, :])
            return "[" + text[:-1].replace(b",", b", ").decode() + "]"
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

# A CSV column: an array, or a function of a row range (start, stop) that
# returns those rows, so a lattice column need not exist whole.
Column = np.ndarray | Callable[[int, int], np.ndarray]


def _write_csv(path: Path, header: list[str], columns: list[Column],
               footer: list[str] | None = None) -> None:
    """Write header, one row per index of the columns, then footer lines;
    rows are formatted by _format_rows and written in bounded chunks.  The
    row count is the length of the array columns; at least one column must
    be an array unless there are no rows."""
    rows = next((len(col) for col in columns if not callable(col)), 0)
    try:
        with path.open("wb") as handle:
            handle.write((",".join(header) + "\n").encode())
            for at in range(0, rows, _CSV_CHUNK_ROWS):
                stop = min(at + _CSV_CHUNK_ROWS, rows)
                block = np.column_stack([col(at, stop) if callable(col) else col[at:stop]
                                         for col in columns])
                handle.write(_format_rows(block)[0])
            for extra in footer or ():
                handle.write((extra + "\n").encode())
    except OSError as exc:
        raise QCLabError(f"cannot write {str(path)!r}: {exc}") from None


# ---------------------------------------------------------------- configuration

def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise QCLabError(f"cannot read config file {path!r}: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
    if values["force"] is None:
        raise QCLabError("force descriptor is required (flag --force or config file)")
    if values["method"] not in _METHODS:
        raise UnknownFamily(f"unknown method {values['method']!r}; choose from {_METHODS}")
    if values["weights"] not in ("exact", "lumped"):
        raise UnknownFamily(f"unknown weight mode {values['weights']!r}")
    return RunConfig(**values)


# ---------------------------------------------------------------- run pipeline

def _output_dir(path: Path) -> Path:
    """Create the output directory; a path that cannot be one is a user error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise QCLabError(f"cannot use {str(path)!r} as output directory: {exc}") from None
    return path


def _execute(config: RunConfig) -> tuple[dict, dict[str, Column], dict[str, SolveReport]]:
    """Solve per config; returns (report payload, profile columns in file
    order, solve reports by method).  Of the columns only u_atomistic is a
    lattice array; x and the prolonged coarse solutions are row-range
    functions (see _write_csv)."""
    started = time.perf_counter()
    model = ChainModel(N=config.N, potential=harmonic_potential(),
                       force=sample_force(config.force, config.N))
    payload: dict = {"config": {key: value for key, value in asdict(config).items()
                                if key != "out"}}
    reports = {"atomistic": solve_atomistic(model)}
    columns = {"x": functools.partial(lattice_coordinates, config.N),
               "u_atomistic": reports["atomistic"].solution.values}

    if config.mesh is not None and config.K is not None:
        spec = parse_mesh_descriptor(config.mesh, config.N, config.K)
        mesh = build_mesh(spec)
        coefficients = smoothness_profile(mesh)
        payload["mesh"] = {
            "repatoms": mesh.repatoms,
            "steps": mesh.steps,
            "h": mesh.h,
            "kappa": mesh.kappa,
        }
        payload["smoothness"] = {"coefficients": coefficients,
                                 "max_abs": float(np.max(np.abs(coefficients)))}
        reports["constrained"] = solve_constrained(model, mesh)
        columns["u_constrained"] = prolong_rows(reports["constrained"].solution)

    errors = None
    if config.method in ("energy-cluster", "force-cluster"):
        rule = ClusterRule(mesh=mesh, r=config.r)
        system = assemble_weight_system(rule)
        weights = solve_weights(system).with_mode(config.weights)
        payload["weights"] = {
            "mode": weights.mode,
            "r": rule.r,
            "energy_exact": weights.energy_exact,
            "energy_lumped": weights.energy_lumped,
            "gap_max": weights.gap_max,
            "residual_max": float(np.max(np.abs(weights.residual))),
            "dominance_margin_min": float(np.min(system.dominance_margin())),
            "exactness_defect": verify_exactness(weights),
        }
        solver = solve_energy_cluster if config.method == "energy-cluster" else solve_force_cluster
        qc = reports[config.method] = solver(model, weights)
        columns["u_qc"] = prolong_rows(qc.solution)
        errors = error_report(
            model, reports["atomistic"].solution, reports["constrained"].solution,
            qc.solution, energy_cluster_functional(model, weights, qc.solution),
            family=spec.family)

    payload["solves"] = {
        method: {"residual": report.residual, "reaction": report.reaction,
                 "iterations": report.iterations}
        for method, report in reports.items()
    }
    if errors is not None:
        payload["errors"] = errors
    payload["wall_time_s"] = time.perf_counter() - started
    return payload, columns, reports


def _cmd_run(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    if config.N is None:
        raise QCLabError("N is required (flag --N or config file)")
    if config.method != "atomistic" and (config.mesh is None or config.K is None):
        raise QCLabError(f"method {config.method!r} needs --mesh and --K")
    payload, columns, _ = _execute(config)
    out = _output_dir(Path(config.out))
    _write_csv(out / "profile.csv", list(columns), list(columns.values()))
    _write_json(out / "report.json", payload)
    print(f"wrote {out / 'profile.csv'} and {out / 'report.json'}")
    return 0


# ---------------------------------------------------------------- presets
#
# A preset body returns (payload, checks, csv): its report entries, with
# "preset" where its report format puts it; its checks; and None or one CSV
# file as (file name, columns in file order, rates for the footer).  The
# runner adds checks and verdict to the report, writes the files, prints the
# summary line and returns the exit code.

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
    return payload, checks, ("profile.csv", columns, ())


def _example1(preset: str) -> tuple[dict, dict, tuple | None]:
    K_values = [8, 16, 32, 64]
    table = smooth_mesh_consistency(N=2 ** 14, K_values=K_values, amplitude=0.2)
    rates = table.rates()
    fit_rate = table.fit_rate()
    payload = {
        "preset": preset,
        "config": {"mesh": "smooth:0.2", "N": 2 ** 14, "K_values": K_values,
                   "force": "sinpi", "method": "constrained"},
        "h_max": table.parameters,
        "consistency": table.values,
        "pairwise_rates": rates,
        "fit_rate": fit_rate,
    }
    checks = {"consistency_rate": _check(fit_rate, 1.9, float("inf"))}
    columns = {"K": np.array(K_values, dtype=float), "h_max": table.parameters,
               "consistency": table.values}
    return payload, checks, ("sweep.csv", columns, rates)


def _force_scaling(preset: str) -> tuple[dict, dict, tuple | None]:
    K_values = [8, 16, 32, 64]
    study = force_scaling_study(N=2 ** 12, K_values=K_values, r=1)
    at_k16 = K_values.index(16)
    ratio_gap = abs(study["ratio_measured"][at_k16] / study["ratio_predicted"][at_k16] - 1.0)
    scaled, absolute = (ConvergenceTable(parameter="h", metric=f"{side} deviation",
                                         parameters=study["h"], values=study[f"deviation_{side}"])
                        for side in ("scaled", "absolute"))
    scaled_rate = scaled.fit_rate()
    payload = {
        "preset": preset,
        "config": {"mesh": "uniform", "N": 2 ** 12, "K_values": K_values,
                   "r": 1, "force": "sinpi", "method": "force-cluster"},
        **study,
        "scaled_deviation_rate": scaled_rate,
        "absolute_deviation_rate": absolute.fit_rate(),
    }
    checks = {"ratio_gap_at_K16": _check(ratio_gap, 0.0, 0.02),
              "scaled_deviation_rate": _check(scaled_rate, 1.8, float("inf"))}
    columns = {**study, "K": study["K"].astype(float)}
    return payload, checks, ("sweep.csv", columns, scaled.rates())


def _audit_meshes() -> list[tuple[str, CoarseMesh, list[int]]]:
    """(label, mesh, cluster radii to audit) triples."""
    instances: list[tuple[str, CoarseMesh, list[int]]] = []
    instances.append(("uniform-64-4", build_mesh(MeshSpec(family="uniform", N=64, K=4)),
                      [0, 1, 3, 7]))
    instances.append(("graded-4", build_mesh(MeshSpec(family="graded", N=8, K=4)), [0]))
    instances.append(("graded-6", build_mesh(MeshSpec(family="graded", N=32, K=6)), [0]))
    instances.append(("oscillatory-96-4",
                      build_mesh(MeshSpec(family="oscillatory", N=96, K=4)), [0, 1, 3]))
    base = np.array([4, 8, 16, 32, 32, 16, 8, 4])
    for m in range(4):
        steps = base * 2 ** m
        cums = np.cumsum(steps)
        reps = tuple(int(v) for v in (cums - cums[3]))
        N = int(steps.sum() // 2)
        mesh = build_mesh(MeshSpec(family="custom", N=N, K=4, indices=reps))
        instances.append((f"gradedlike-{N}", mesh, [1]))
    return instances


def _weights_audit(preset: str) -> tuple[dict, dict, tuple | None]:
    rows = []
    gap_by_size = []
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
    gaps = np.array([g for _, g in sorted(gap_by_size)])
    gap_rates = np.log(gaps[:-1] / gaps[1:]) / np.log(2.0)
    payload = {"preset": preset, "rows": rows, "lumped_gap_rates": gap_rates}
    checks = {"gap_rate": _check(float(np.min(gap_rates)), 0.9, float("inf"))}
    return payload, checks, None


_PRESETS = {"fig1": _figure, "fig2": _figure, "example1": _example1,
            "force-scaling": _force_scaling, "weights-audit": _weights_audit}


def _cmd_reproduce(args: argparse.Namespace) -> int:
    payload, checks, csv = _PRESETS[args.preset](args.preset)
    # weights-audit rows carry pass flags of their own, outside the checks
    passed = all(check["pass"] for check in checks.values()) and all(
        row["pass"] for row in payload.get("rows", ()))
    payload["checks"] = checks
    payload["verdict"] = "PASS" if passed else "FAIL"
    if "wall_time_s" in payload:
        payload["wall_time_s"] = payload.pop("wall_time_s")  # stays the last entry
    out = _output_dir(Path(args.out) / args.preset)
    if csv is not None:
        name, columns, rates = csv
        _write_csv(out / name, list(columns), list(columns.values()),
                   footer=["rate,%.17g" % r for r in rates])
    _write_json(out / "report.json", payload)
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
    points = [(value if args.axis == "N" else config.N,
               value if args.axis == "K" else config.K,
               value if args.axis == "r" else config.r) for value in values]
    table = convergence_study(args.metric, config.mesh, config.force, points, config.weights)
    out = _output_dir(Path(config.out))
    _write_csv(out / "sweep.csv", [args.axis, table.parameter, table.metric],
               [np.array(values, dtype=float), table.parameters, table.values],
               footer=["rate,%.17g" % r for r in table.rates()])
    print(f"wrote {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------- mesh-inspect

def _cmd_mesh_inspect(args: argparse.Namespace) -> int:
    spec = parse_mesh_descriptor(args.mesh, args.N, args.K)
    mesh = build_mesh(spec)
    coefficients = smoothness_profile(mesh)
    max_r = int((np.min(mesh.steps) - 1) // 2)
    payload = {
        "family": spec.family,
        "N": mesh.N,
        "K": mesh.K,
        "repatoms": mesh.repatoms,
        "steps": mesh.steps,
        "h": mesh.h,
        "kappa": mesh.kappa,
        "smoothness_coefficients": coefficients,
        "smoothness_max_abs": float(np.max(np.abs(coefficients))),
        "max_admissible_r": max_r,
    }
    print(_to_json(payload))
    return 0


# ---------------------------------------------------------------- entry point

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
        p.add_argument("--weights", choices=["exact", "lumped"], help="weight mode")
        p.add_argument("--method", choices=list(_METHODS), help="solver")
        p.add_argument("--force", help="force descriptor: sinpi | gauss:A,B | const:C | lin:a,b")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--config", help="key = value config file; flags override")

    run_p = sub.add_parser("run", help="solve one configured instance")
    add_common(run_p)
    run_p.set_defaults(handler=_cmd_run)

    rep_p = sub.add_parser("reproduce", help="run a named preset with PASS/FAIL bands")
    rep_p.add_argument("preset", choices=list(_PRESETS))
    rep_p.add_argument("--out", default=".", help="output directory (default .)")
    rep_p.set_defaults(handler=_cmd_reproduce)

    sweep_p = sub.add_parser("sweep", help="one metric along one axis")
    add_common(sweep_p)
    sweep_p.add_argument("--axis", choices=["K", "N", "r"], required=True)
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sweep_p.add_argument("--metric", required=True,
                         choices=["consistency", "weight-gap", "load-defect", "zero-force"])
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
        return args.handler(args)
    except (QCLabError, MemoryError) as exc:  # MemoryError: a lattice too large to allocate
        import json  # needed on this path only

        code = getattr(exc, "code", QCLabError.code)
        print(json.dumps({"error": {"code": code, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
