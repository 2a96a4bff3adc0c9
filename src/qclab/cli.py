"""Experiment runner.

Subcommands:
  run           one instance: build, solve, write profile.csv + report.json
  reproduce     named presets with PASS/FAIL verdicts against frozen bands
  sweep         one metric against one axis, with observed-rate footer rows
  mesh-inspect  mesh diagnostics as JSON on stdout

Reports are deterministic: floats are serialized with 17 significant digits
in a fixed key order, so identical configs produce byte-identical files
except for the trailing wall_time_s entry.  That holds at a fixed BLAS thread
count only: at N >= 2^14 some profiles and reports differ in their last
digits between one and two OpenBLAS threads.
"""

from __future__ import annotations

import argparse
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
    ConvergenceTable,
    consistency_estimate,
    error_report,
    force_scaling_study,
    gradient_alternation,
    load_defect,
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
            return "[" + ", ".join(map("%.17g".__mod__, value.tolist())) + "]"
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
    path.write_text(_to_json(payload) + "\n")


_CSV_CHUNK_ROWS = 4096


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray],
               footer: list[str] | None = None) -> None:
    """Write header, one %.17g row per index of the columns, then footer
    lines; rows are formatted and written in bounded chunks."""
    rows = len(columns[0]) if columns else 0
    with path.open("w") as handle:
        handle.write(",".join(header) + "\n")
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        for at in range(0, rows, _CSV_CHUNK_ROWS):
            block = np.column_stack([col[at : at + _CSV_CHUNK_ROWS] for col in columns])
            handle.write((line * len(block)) % tuple(block.ravel().tolist()))
        for extra in footer or ():
            handle.write(extra + "\n")


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

_SWEEP_PARAMS = {"consistency": "h_max", "weight-gap": "epsilon",
                 "load-defect": "h_max", "zero-force": "epsilon"}


def _sweep_point(metric: str, config: RunConfig, N: int, K: int, r: int) -> tuple[float, float]:
    """One (resolution parameter, metric value) sample."""
    model = ChainModel(N=N, potential=harmonic_potential(),
                       force=sample_force(config.force, N))
    mesh = build_mesh(parse_mesh_descriptor(config.mesh, N, K))
    if metric == "consistency":
        report = solve_constrained(model, mesh)
        return float(np.max(mesh.h)), consistency_estimate(report.solution).value
    rule = ClusterRule(mesh=mesh, r=r)
    weights = solve_weights(assemble_weight_system(rule)).with_mode(config.weights)
    if metric == "weight-gap":
        return model.epsilon, weights.gap_max
    if metric == "load-defect":
        return float(np.max(mesh.h)), load_defect(model, weights)
    # zero-force: cluster solve of an unloaded chain must return the zero field
    unloaded = ChainModel(N=N, potential=harmonic_potential(),
                          force=sample_force("const:0", N))
    qc = solve_energy_cluster(unloaded, weights)
    return model.epsilon, float(np.max(np.abs(qc.solution.values)))


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _merge_config(args, need_method=False, need_N=(args.axis != "N"))
    if config.mesh is None:
        raise QCLabError("sweep needs --mesh")
    if config.K is None and args.axis != "K":
        raise QCLabError("sweep needs --K unless K is the swept axis")
    out = _output_dir(Path(config.out))
    try:
        points = [int(v) for v in args.values.split(",")]
    except ValueError:
        raise UnknownFamily(
            f"sweep --values must be comma-separated integers, got {args.values!r}"
        ) from None
    params = []
    values = []
    for point in points:
        N = point if args.axis == "N" else config.N
        K = point if args.axis == "K" else config.K
        r = point if args.axis == "r" else config.r
        param, value = _sweep_point(args.metric, config, N, K, r)
        params.append(param)
        values.append(value)
    table = ConvergenceTable(parameter=_SWEEP_PARAMS[args.metric], metric=args.metric,
                             parameters=np.array(params), values=np.array(values))
    footer = []
    # a rate needs positive values and a resolution parameter that moves
    if np.all(table.values > 0.0) and np.all(np.diff(table.parameters) != 0.0):
        footer = ["rate,%.17g" % r for r in table.rates()]
    _write_csv(out / "sweep.csv", [args.axis, table.parameter, table.metric],
               [np.array(points, dtype=float), table.parameters, table.values], footer=footer)
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
    except QCLabError as exc:
        import json  # needed on this path only

        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
