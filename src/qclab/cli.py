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

import numpy as np

from .errors import QCLabError, UnknownFamily
from .model import ChainModel, harmonic_potential, lattice_coordinates, sample_force
from .mesh import (
    CoarseMesh,
    MeshSpec,
    build_mesh,
    parse_mesh_descriptor,
    prolong,
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
    convergence_study,
    error_report,
    force_scaling_study,
    gradient_alternation,
    smooth_mesh_consistency,
)

_METHODS = ("atomistic", "constrained", "energy-cluster", "force-cluster")


@dataclass(frozen=True)
class RunConfig:
    mesh: str | None
    N: int
    K: int | None
    r: int
    weights: str
    method: str
    force: str
    out: str


# ---------------------------------------------------------------- serialization
#
# Every float of profile.csv and of a report's float arrays is written with
# exactly the bytes of '%.17g' % value, by one vectorized kernel.  It scales
# |x| to the integer range [1e16, 1e17) in double-double arithmetic and rounds
# half to even; where the rounding cannot be certified it formats that value
# on its own.

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
_POW10_SPAN = 300  # the power table holds 10**q for |q| <= 300
_TIE_MARGIN = 2.0 ** -40  # bounds the error of lo (a few 2**-50) where 10**p is not a double


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10**q for |q| <= _POW10_SPAN as a double-double hi + lo, and the
    Veltkamp halves of hi.  Built on first use, not at import."""
    hi, lo = [], []
    for q in range(-_POW10_SPAN, _POW10_SPAN + 1):
        if q >= 0:
            power = 10 ** q
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            power = 10 ** -q
            hi.append(1 / power)  # int division is correctly rounded
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * power) / (den * power))
    hi = np.array(hi)
    return hi, np.array(lo), *_veltkamp(hi)


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """head + tail == a, each half with at most 26 significant bits."""
    head = _SPLIT * a
    head -= head - a
    return head, a - head


def _words(texts: list[bytes]) -> np.ndarray:
    """Byte strings, NUL-padded to a multiple of 8 bytes, as rows of
    little-endian uint64 words."""
    width = -(-max(map(len, texts)) // 8) * 8
    packed = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(packed, "<u8").reshape(len(texts), -1)


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """Word tables of the output row: the four digits of each of 0..9999 with
    a point slot after each, then again with trailing zeros blanked; per
    position p of the point, "0" in digits 1..p of 1..16 (zeros before the
    point are shown); per exponent e10, the text before the leading digit
    ("0.000" for e10 = -4) and the exponent text ("e-05") as %.17g writes
    them."""
    quads = np.arange(10000)[:, None]
    chars = np.zeros((2, 10000, 8), np.uint8)
    chars[:, :, ::2] = quads // [1000, 100, 10, 1] % 10 + ord("0")
    chars[1, :, ::2][quads % [10000, 1000, 100, 10] == 0] = 0  # this and later digits are 0
    digits = chars.reshape(20000, 8).view("<u8")[:, 0]
    zeros = _words([b"0\0" * p for p in range(17)])
    exponents = range(-_POW10_SPAN, _POW10_SPAN + 1)
    prefixes = _words([b"\0" + (b"0." + b"0" * (-1 - e) if -4 <= e < 0 else b"")
                       for e in exponents])[:, 0]
    suffixes = _words([b"" if -4 <= e < 17 else b"e%+03d" % e for e in exponents])[:, 0]
    return digits, zeros, prefixes, suffixes


def _below_power_of_ten(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a < 10**q exactly, for a >= 0 and |q| <= _POW10_SPAN."""
    hi10, lo10, _, _ = _powers_of_ten()
    power, low = np.take(hi10, q + _POW10_SPAN), np.take(lo10, q + _POW10_SPAN)
    return (a < power) | ((a == power) & (low > 0.0))


def _two_product(a: np.ndarray, b: np.ndarray, b_head: np.ndarray,
                 b_tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, err with hi + err == a * b exactly (Dekker's product; b_head and
    b_tail are the Veltkamp halves of b)."""
    head, tail = _veltkamp(a)
    hi = a * b
    err = hi - head * b_head
    err -= tail * b_head
    err -= head * b_tail
    return hi, tail * b_tail - err


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|x| rounded half to even to 17 significant digits, as an integer in
    [1e16, 1e17) (0 for a zero) and a decimal exponent e10, with where the
    rounding is certified.  Not certified: nan, inf, magnitudes outside
    [1e-280, 1e280] and near-ties where 10**(16 - e10) is not a double."""
    a = np.abs(x)
    zero = a == 0.0
    certified = (a >= 1e-280) & (a <= 1e280)
    a[~certified] = 1.0
    # e10 = floor(log10(a)) exactly: log10 may be off by one next to a power
    e10 = np.floor(np.log10(a)).astype(np.int64)
    e10 -= _below_power_of_ten(a, e10)
    e10 += ~_below_power_of_ten(a, e10 + 1)

    # a * 10**(16 - e10) = hi + lo; whole + frac = lo with 0 <= frac < 1
    hi10, lo10, head10, tail10 = _powers_of_ten()
    at = 16 - e10 + _POW10_SPAN
    hi, lo = _two_product(a, np.take(hi10, at), np.take(head10, at), np.take(tail10, at))
    lo += a * np.take(lo10, at)
    whole = np.floor(lo)
    frac = lo
    frac -= whole
    digits = hi.astype(np.int64) + whole.astype(np.int64)
    # 10**p is a double for 0 <= p <= 22, so there lo and frac are exact and
    # ties (a quarter of the values of a grid i / 2**19) are decided exactly
    exact = (e10 >= -6) & (e10 <= 16)
    certified &= exact | (np.abs(frac - 0.5) > _TIE_MARGIN)
    digits += (frac > 0.5) | ((frac == 0.5) & (digits % 2 == 1))
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e10 += carry
    digits[zero] = 0  # with e10 = 0 this writes "0"
    return digits, e10, certified | zero


def _row_words(x: np.ndarray, digits: np.ndarray, e10: np.ndarray,
               shape: tuple[int, int]) -> np.ndarray:
    """Six NUL-padded words of text per value of x, given its digits and
    exponent: sign, "0.000", the leading digit and its point slot; digits
    1..16, each with a point slot; exponent and separator (a comma, or a
    newline after the last value of each row of shape)."""
    quad_digits, zeros, prefixes, suffixes = _text_tables()
    lead, rest = np.divmod(digits, 10 ** 16)
    point = np.where((e10 >= 0) & (e10 < 17), e10, 0)  # the digit the point follows
    at = e10 + _POW10_SPAN
    words = np.empty((len(x), 6), "<u8")
    words[:, 0] = np.take(prefixes, at) | (lead + ord("0")).astype(np.uint64) << np.uint64(48)
    words[:, 0] |= np.where(np.signbit(x), np.uint64(ord("-")), np.uint64(0))
    for j, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1)):
        # the blanked form of a quad that no nonzero digit follows
        quad = rest // scale % 10 ** 4 + 10000 * (rest % scale == 0)
        words[:, 1 + j] = np.take(quad_digits, quad) | np.take(zeros[:, j], point)
    words[:, 5] = np.take(suffixes, at)
    cells = words.reshape(*shape, 6)
    cells[:, :-1, 5] |= np.uint64(ord(",")) << np.uint64(56)
    cells[:, -1, 5] |= np.uint64(ord("\n")) << np.uint64(56)
    fraction = rest % 10 ** (16 - point)  # the digits after the point
    dotted = np.flatnonzero((fraction != 0) & ((e10 >= 0) | (e10 < -4)))
    words.view(np.uint8)[dotted, 7 + 2 * point[dotted]] = ord(".")
    return words


def _format_rows(block: np.ndarray) -> tuple[bytes, int]:
    """The rows of a 2-D array as CSV lines: each value as the bytes of
    '%.17g' % value, "," between values and a newline after each row.  Also
    returns how many values were formatted one at a time, those whose
    digits _decimal_digits does not certify."""
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    digits, e10, certified = _decimal_digits(x)
    text = _row_words(x, digits, e10, block.shape).view(np.uint8)
    fallback = np.flatnonzero(~certified)
    text[fallback, :-1] = 0
    for k in fallback:
        value = ("%.17g" % x[k]).encode()
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
            return "[" + ", ".join(map("%d".__mod__, value.tolist())) + "]"
        if value.ndim == 1 and value.dtype.kind == "f" and np.all(np.isfinite(value)):
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


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray],
               footer: list[str] | None = None) -> None:
    """Write header, one row per index of the columns, then footer lines;
    rows are formatted by _format_rows and written in bounded chunks."""
    rows = len(columns[0]) if columns else 0
    try:
        with path.open("wb") as handle:
            handle.write((",".join(header) + "\n").encode())
            for at in range(0, rows, _CSV_CHUNK_ROWS):
                block = np.column_stack([col[at : at + _CSV_CHUNK_ROWS] for col in columns])
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


_CONFIG_KEYS = {
    "mesh": str, "N": int, "K": int, "r": int,
    "weights": str, "method": str, "force": str, "out": str,
}


def _merge_config(args: argparse.Namespace, need_method: bool = True,
                  need_N: bool = True) -> RunConfig:
    values: dict = {"mesh": None, "N": None, "K": None, "r": 0,
                    "weights": "exact", "method": "constrained", "force": None, "out": "."}
    if args.config:
        for key, raw in _load_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise QCLabError(f"unknown config key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](raw)
            except ValueError:
                raise QCLabError(f"config key {key!r} has a bad value {raw!r}") from None
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if values["N"] is None:
        if need_N:
            raise QCLabError("N is required (flag --N or config file)")
        values["N"] = 0  # never consumed: the swept axis supplies N per point
    if values["force"] is None:
        raise QCLabError("force descriptor is required (flag --force or config file)")
    if values["method"] not in _METHODS:
        raise UnknownFamily(f"unknown method {values['method']!r}; choose from {_METHODS}")
    if values["weights"] not in ("exact", "lumped"):
        raise UnknownFamily(f"unknown weight mode {values['weights']!r}")
    if need_method and values["method"] != "atomistic" and (
        values["mesh"] is None or values["K"] is None
    ):
        raise QCLabError(f"method {values['method']!r} needs --mesh and --K")
    return RunConfig(**values)


# ---------------------------------------------------------------- run pipeline

def _output_dir(path: Path) -> Path:
    """Create the output directory; a path that cannot be one is a user error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise QCLabError(f"cannot use {str(path)!r} as output directory: {exc}") from None
    return path


def _execute(config: RunConfig) -> tuple[dict, dict[str, np.ndarray], dict[str, SolveReport]]:
    """Solve per config; returns (report payload, profile columns in file
    order, solve reports by method)."""
    started = time.perf_counter()
    model = ChainModel(N=config.N, potential=harmonic_potential(),
                       force=sample_force(config.force, config.N))
    payload: dict = {"config": {
        "mesh": config.mesh, "N": config.N, "K": config.K, "r": config.r,
        "weights": config.weights, "method": config.method, "force": config.force,
    }}
    reports = {"atomistic": solve_atomistic(model)}
    columns = {"x": lattice_coordinates(config.N),
               "u_atomistic": reports["atomistic"].solution.values}

    if config.mesh is not None and config.K is not None:
        mesh = build_mesh(parse_mesh_descriptor(config.mesh, config.N, config.K))
        profile = smoothness_profile(mesh)
        payload["mesh"] = {
            "repatoms": mesh.repatoms,
            "steps": mesh.steps,
            "h": mesh.h,
            "kappa": mesh.kappa,
        }
        payload["smoothness"] = {"coefficients": profile.coefficients,
                                 "max_abs": profile.max_abs}
        reports["constrained"] = solve_constrained(model, mesh)
        columns["u_constrained"] = prolong(reports["constrained"].solution).values

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
        columns["u_qc"] = prolong(qc.solution).values
        errors = asdict(error_report(
            model, reports["atomistic"].solution, reports["constrained"].solution,
            qc.solution, energy_cluster_functional(model, weights, qc.solution),
            family=config.mesh.split(":", 1)[0]))

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
    out = _output_dir(Path(config.out))
    payload, columns, _ = _execute(config)
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
    "fig1": (RunConfig(mesh="graded", N=2 ** 14, K=15, r=0, weights="exact",
                       method="energy-cluster", force="gauss:1e4,1e4", out="."),
             {"energy_norm_rel": (0.10, 0.13), "energy_rel": (-0.16, -0.10)}),
    "fig2": (RunConfig(mesh="oscillatory", N=10 ** 4, K=20, r=0, weights="exact",
                       method="energy-cluster", force="sinpi", out="."),
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
    study = force_scaling_study(N=2 ** 12, K_values=[8, 16, 32, 64], r=1)
    at_k16 = int(np.where(study.K_values == 16)[0][0])
    ratio_gap = abs(study.ratio_measured[at_k16] / study.ratio_predicted[at_k16] - 1.0)
    scaled = study.scaled_table()
    scaled_rate = scaled.fit_rate()
    payload = {
        "preset": preset,
        "config": {"mesh": "uniform", "N": 2 ** 12, "K_values": [8, 16, 32, 64],
                   "r": 1, "force": "sinpi", "method": "force-cluster"},
        "K": study.K_values,
        "h": study.h_values,
        "ratio_measured": study.ratio_measured,
        "ratio_predicted": study.ratio_predicted,
        "deviation_scaled": study.deviation_scaled,
        "deviation_absolute": study.deviation_absolute,
        "scaled_deviation_rate": scaled_rate,
        "absolute_deviation_rate": study.absolute_table().fit_rate(),
    }
    checks = {"ratio_gap_at_K16": _check(ratio_gap, 0.0, 0.02),
              "scaled_deviation_rate": _check(scaled_rate, 1.8, float("inf"))}
    columns = {"K": study.K_values.astype(float), "h": study.h_values,
               "ratio_measured": study.ratio_measured,
               "ratio_predicted": study.ratio_predicted,
               "deviation_scaled": study.deviation_scaled,
               "deviation_absolute": study.deviation_absolute}
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
    out = _output_dir(Path(args.out) / args.preset)
    payload, checks, csv = _PRESETS[args.preset](args.preset)
    # weights-audit rows carry pass flags of their own, outside the checks
    passed = all(check["pass"] for check in checks.values()) and all(
        row["pass"] for row in payload.get("rows", ()))
    payload["checks"] = checks
    payload["verdict"] = "PASS" if passed else "FAIL"
    if "wall_time_s" in payload:
        payload["wall_time_s"] = payload.pop("wall_time_s")  # stays the last entry
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
    config = _merge_config(args, need_method=False, need_N=(args.axis != "N"))
    if config.mesh is None:
        raise QCLabError("sweep needs --mesh")
    if config.K is None and args.axis != "K":
        raise QCLabError("sweep needs --K unless K is the swept axis")
    out = _output_dir(Path(config.out))
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError:
        raise UnknownFamily(
            f"sweep --values must be comma-separated integers, got {args.values!r}"
        ) from None
    points = [(value if args.axis == "N" else config.N,
               value if args.axis == "K" else config.K,
               value if args.axis == "r" else config.r) for value in values]
    table = convergence_study(args.metric, config.mesh, config.force, points, config.weights)
    _write_csv(out / "sweep.csv", [args.axis, table.parameter, table.metric],
               [np.array(values, dtype=float), table.parameters, table.values],
               footer=["rate,%.17g" % r for r in table.rates()])
    print(f"wrote {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------- mesh-inspect

def _cmd_mesh_inspect(args: argparse.Namespace) -> int:
    spec = parse_mesh_descriptor(args.mesh, args.N, args.K)
    mesh = build_mesh(spec)
    profile = smoothness_profile(mesh)
    max_r = int((np.min(mesh.steps) - 1) // 2)
    payload = {
        "family": spec.family,
        "N": mesh.N,
        "K": mesh.K,
        "repatoms": mesh.repatoms,
        "steps": mesh.steps,
        "h": mesh.h,
        "kappa": mesh.kappa,
        "smoothness_coefficients": profile.coefficients,
        "smoothness_max_abs": profile.max_abs,
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
