"""Per-stage seconds and peak RSS of `qclab run`, two source trees side by side.

    python3 tools/stage_bench.py PARENT CHANGE [--runs 3] [--out BENCH.json]

PARENT and CHANGE are checkouts (directories holding src/qclab).  Every
configuration runs in a fresh interpreter with BLAS and OpenMP capped at one
thread; cli._execute, cli._write_csv and cli._write_json, and the
solve_atomistic, solve_constrained, verify_exactness and exact_load that
cli._execute calls, are wrapped with perf_counter timers from outside the
program, and peak_rss_mb is the process's ru_maxrss; minor_faults and
run_minor_faults are its ru_minflt, in total and over the cli.main call.
The two trees alternate, the first one per run alternating too, and each
value is the median over the runs.
Another fresh interpreter per tree and run times cli._to_json on a 4-value
float array.  Times are raw wall seconds on whatever host this runs on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

MESHES = ("uniform", "graded", "oscillatory", "smooth", "uniform-fine")
SIZES = (2**14, 2**17, 2**20)
STAGES = {
    "cli.execute_s": "cli._execute: force sampling, mesh, the atomistic, constrained and "
                     "energy-cluster solves, diagnostics",
    "cli.solve_atomistic_s": "cli.solve_atomistic: the atomistic reference solve, part of "
                             "cli.execute_s",
    "solve.solve_constrained_s": "solve_constrained: the constrained (Galerkin) solve, its "
                                 "exact loads included, part of cli.execute_s",
    "mesh.exact_load_s": "mesh.exact_load: the exact hat loads, over all calls (one per "
                         "constrained or energy-cluster solve), part of cli.execute_s",
    "cli.verify_exactness_s": "cli.verify_exactness: the hat-summation defect of the weights, "
                              "part of cli.execute_s",
    "cli.write_csv_s": "cli._write_csv: profile.csv, 2N rows of 4 columns",
    "cli.write_json_s": "cli._write_json: report.json",
    "peak_rss_mb": "peak resident set size of the whole `qclab run` process",
    "minor_faults": "minor page faults of the whole `qclab run` process (ru_minflt), imports "
                    "included",
    "run_minor_faults": "minor page faults of cli.main alone, the `qclab run` call itself",
}
THREAD_CAPS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
TO_JSON_CALLS = 2000


def argv_for(mesh: str, N: int, out: str) -> list[str]:
    # graded: K = log2(N) + 1; uniform-fine: elements of 8 sites and no cluster
    # rule, whose exactness check would loop over all 2K hats
    K = {"graded": N.bit_length(), "uniform-fine": N // 16}.get(mesh, 64)
    method = "constrained" if mesh == "uniform-fine" else "energy-cluster"
    return ["run", "--mesh", mesh.removesuffix("-fine"), "--N", str(N), "--K", str(K), "--r", "0",
            "--method", method, "--force", "sinpi", "--out", out]


def worker(mode: str, args: list[str]) -> dict:
    """Runs in the fresh interpreter, with the tree's src on sys.path."""
    import resource
    import time

    import numpy as np
    from qclab import analysis, cli, solve
    from qclab.mesh import exact_load

    if mode == "to_json":
        values = np.random.default_rng(4).random(4)
        cli._to_json(values)  # builds the kernel's tables
        start = time.perf_counter()
        for _ in range(TO_JSON_CALLS):
            cli._to_json(values)
        return {"to_json_4_us": (time.perf_counter() - start) / TO_JSON_CALLS * 1e6}
    seconds = {}

    def timed(name, function):
        def wrapper(*a, **k):
            start = time.perf_counter()
            try:
                return function(*a, **k)
            finally:
                seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
        return wrapper

    cli._execute = timed("cli.execute_s", cli._execute)
    cli.solve_atomistic = timed("cli.solve_atomistic_s", cli.solve_atomistic)
    cli.solve_constrained = timed("solve.solve_constrained_s", cli.solve_constrained)
    solve.exact_load = analysis.exact_load = timed("mesh.exact_load_s", exact_load)
    cli.verify_exactness = timed("cli.verify_exactness_s", cli.verify_exactness)
    cli._write_csv = timed("cli.write_csv_s", cli._write_csv)
    cli._write_json = timed("cli.write_json_s", cli._write_json)
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            code = cli.main(args)
        finally:
            sys.stdout = stdout
    if code != 0:
        raise SystemExit(f"qclab {' '.join(args)} exited with {code}")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    seconds["peak_rss_mb"] = usage.ru_maxrss / 1024
    seconds["minor_faults"] = usage.ru_minflt
    seconds["run_minor_faults"] = usage.ru_minflt - faults
    return seconds


def spawn(tree: str, mode: str, args: list[str]) -> dict:
    env = dict(os.environ, **THREAD_CAPS, PYTHONPATH=os.path.join(tree, "src"))
    result = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", mode, *args],
                            env=env, check=True, capture_output=True, text=True)
    return json.loads(result.stdout.splitlines()[-1])


def environment() -> dict:
    import numpy as np

    cpu = {}
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                key, _, value = line.partition(":")
                cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu.get("model name", platform.processor()),
        "cpus": os.cpu_count(),
        "cpu_family_model": f"{cpu.get('cpu family', '?')}/{cpu.get('model', '?')}",
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": 1,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=None, help="write the record here (default: stdout)")
    opts = parser.parse_args()
    trees = {"parent": opts.parent, "change": opts.change}
    rows, to_json = [], {name: [] for name in trees}
    with tempfile.TemporaryDirectory() as scratch:
        for N in SIZES:
            for mesh in MESHES:
                samples = {name: [] for name in trees}
                for run in range(opts.runs):
                    for name in sorted(trees, reverse=run % 2 == 1):
                        out = os.path.join(scratch, name)
                        samples[name].append(spawn(trees[name], "run", argv_for(mesh, N, out)))
                rows.append({"mesh": mesh, "N": N, "K": int(argv_for(mesh, N, "")[6]), **{
                    # a stage the configuration does not run took 0 s
                    name: {stage: round(statistics.median(s.get(stage, 0.0) for s in runs), 4)
                           for stage in STAGES} for name, runs in samples.items()}})
                print(json.dumps(rows[-1]), file=sys.stderr)
        for run in range(opts.runs):
            for name in sorted(trees, reverse=run % 2 == 1):
                to_json[name].append(spawn(trees[name], "to_json", [])["to_json_4_us"])
    record = {
        "command": "qclab run --mesh MESH --N N --K K --r 0 --method METHOD "
                   "--force sinpi --out DIR",
        "meshes": "uniform, smooth and oscillatory at K = 64 and graded at K = log2(N) + 1, "
                  "METHOD energy-cluster; uniform-fine: uniform at K = N/16, METHOD constrained",
        "method": " ".join(__doc__.split("\n\n")[2].split()),
        "stages": STAGES,
        "environment": environment(),
        "runs_per_tree": opts.runs,
        "to_json_4_values_us": {name: round(statistics.median(v), 1) for name, v in to_json.items()},
        "rows": rows,
    }
    text = json.dumps(record, indent=1) + "\n"
    if opts.out:
        with open(opts.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        print(json.dumps(worker(sys.argv[2], sys.argv[3:])))
    else:
        main()
