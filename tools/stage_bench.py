"""Per-stage seconds and peak RSS of `qclab run` and of each `qclab reproduce`
preset, two source trees side by side.

    python3 tools/stage_bench.py PARENT CHANGE [--runs 5] [--out BENCH.json]

PARENT and CHANGE are checkouts (directories holding src/qclab).  Every
configuration and every preset runs in a fresh interpreter with BLAS and
OpenMP capped at one thread (bench/workloads.THREAD_CAPS), so a preset's row
is what one `qclab reproduce` costs on its own.  The stage seconds are the
call's own: every entry of the timings object of its report.json, with the
report's wall_time_s; main_s is the whole cli.main call around them,
report.json included.  peak_rss_mb is the process's ru_maxrss; minor_faults
and run_minor_faults are its ru_minflt, in total and over the cli.main call.
The two trees alternate, the first one per run alternating too, and each
value is the median over the runs; under "spread", each tree's smallest and
largest run of every value tells a gap between the trees from the scatter of
its runs, and under "change_won", how many of the paired runs (the i-th of
each tree) the change's value was the lower in.  Times are raw wall seconds
on whatever host this runs on.
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
# every mesh under a smooth force, whose profile values never repeat the row
# above, and graded under the lattice workload's localized load, whose flat
# far field does in most rows
CONFIGS = tuple((mesh, "sinpi") for mesh in MESHES) + (("graded", "gauss:1e4,1e4"),)
SIZES = (2**14, 2**17, 2**20)
# every config at every size, then the lattice workload's own call: under one BLAS thread
# the far field of its u_atomistic repeats the row above at N = 2^19, and at none of SIZES
ROWS = tuple((mesh, force, N) for N in SIZES for mesh, force in CONFIGS) + (
    ("graded", "gauss:1e4,1e4", 2**19),)
PRESETS = ("fig1", "fig2", "example1", "force-scaling", "weights-audit")
MEASURES = {
    "timings": "every entry of report.json's timings: the seconds of each stage the run "
               "went through (see the qclab.cli docstring); a stage the configuration does "
               "not run reads 0",
    "wall_time_s": "report.json's wall_time_s: the solves of a run or the body of a preset, "
                   "which the stages before cli.write_csv cover",
    "main_s": "the whole cli.main call: argument parsing, the stages and report.json",
    "peak_rss_mb": "peak resident set size of the whole process",
    "minor_faults": "minor page faults of the whole process (ru_minflt), imports included",
    "run_minor_faults": "minor page faults of cli.main alone, the qclab call itself",
}
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def argv_for(mesh: str, N: int, out: str, force: str = "sinpi") -> list[str]:
    # graded: K = log2(N) + 1; uniform-fine: elements of 8 sites and no cluster
    # rule, whose exactness check would loop over all 2K hats
    K = {"graded": N.bit_length(), "uniform-fine": N // 16}.get(mesh, 64)
    method = "constrained" if mesh == "uniform-fine" else "energy-cluster"
    return ["run", "--mesh", mesh.removesuffix("-fine"), "--N", str(N), "--K", str(K), "--r", "0",
            "--method", method, "--force", force, "--out", out]


def preset_argv(preset: str, out: str) -> list[str]:
    return ["reproduce", preset, "--out", out]


def worker(args: list[str]) -> dict:
    """Runs `qclab` with args (a run or a preset, with --out); returns its
    report's timings and wall_time_s with the process's seconds, RSS and
    faults."""
    import resource
    import time

    from qclab import cli

    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            code = cli.main(args)
            main_s = time.perf_counter() - start
        finally:
            sys.stdout = stdout
    # a preset whose verdict is FAIL (example1's documented one) exits with 2
    if code != 0 and not (args[0] == "reproduce" and code == 2):
        raise SystemExit(f"qclab {' '.join(args)} exited with {code}")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = args[args.index("--out") + 1]
    with open(os.path.join(out, args[1] if args[0] == "reproduce" else "", "report.json")) as handle:
        report = json.load(handle)
    # a tree older than the report's timings object gives wall_time_s alone
    return {**report.get("timings", {}), "wall_time_s": report["wall_time_s"], "main_s": main_s,
            "peak_rss_mb": usage.ru_maxrss / 1024, "minor_faults": usage.ru_minflt,
            "run_minor_faults": usage.ru_minflt - faults}


def spawn(tree: str, args: list[str]) -> dict:
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import workloads  # the benchmark's thread caps, which every run here takes too

    env = dict(os.environ, **workloads.THREAD_CAPS, PYTHONPATH=os.path.join(tree, "src"))
    result = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", *args],
                            env=env, check=True, capture_output=True, text=True)
    return json.loads(result.stdout.splitlines()[-1])


def summarize(samples: dict[str, list[dict]]) -> dict:
    """Each tree's median of every value over its runs, under "spread" each
    tree's [smallest, largest] run of it, and under "change_won" in how many
    pairs of the parent's and the change's i-th runs the change's value was
    lower (every value is better lower); a value a run did not report reads 0."""
    # every stage either tree reported, in the order the change's runs list them
    stages = dict.fromkeys(key for runs in reversed(samples.values()) for s in runs for key in s)
    values = {name: {stage: [s.get(stage, 0.0) for s in runs] for stage in stages}
              for name, runs in samples.items()}
    return {**{name: {stage: round(statistics.median(v), 4) for stage, v in per.items()}
               for name, per in values.items()},
            "spread": {name: {stage: [round(min(v), 4), round(max(v), 4)]
                              for stage, v in per.items()} for name, per in values.items()},
            "change_won": {stage: sum(c < p for p, c in zip(values["parent"][stage],
                                                            values["change"][stage]))
                           for stage in stages}}


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
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default=None, help="write the record here (default: stdout)")
    opts = parser.parse_args()
    trees = {"parent": opts.parent, "change": opts.change}
    rows, presets = [], []
    with tempfile.TemporaryDirectory() as scratch:

        def medians(argv) -> dict:
            """summarize() of opts.runs fresh processes of argv(out) per tree."""
            samples = {name: [] for name in trees}
            for run in range(opts.runs):
                for name in sorted(trees, reverse=run % 2 == 1):
                    samples[name].append(spawn(trees[name], argv(os.path.join(scratch, name))))
            return summarize(samples)

        for mesh, force, N in ROWS:
            rows.append({"mesh": mesh, "force": force, "N": N, "K": int(argv_for(mesh, N, "")[6]),
                         **medians(lambda out: argv_for(mesh, N, out, force))})
            print(json.dumps(rows[-1]), file=sys.stderr)
        for preset in PRESETS:
            presets.append({"preset": preset, **medians(lambda out: preset_argv(preset, out))})
            print(json.dumps(presets[-1]), file=sys.stderr)
    record = {
        "command": "qclab run --mesh MESH --N N --K K --r 0 --method METHOD "
                   "--force FORCE --out DIR",
        "meshes": "uniform, smooth and oscillatory at K = 64 and graded at K = log2(N) + 1, "
                  "METHOD energy-cluster; uniform-fine: uniform at K = N/16, METHOD constrained",
        "forces": "sinpi on every mesh; gauss:1e4,1e4 (the lattice benchmark's localized "
                  "load) on graded too, and at N = 2^19 (the lattice benchmark's call)",
        "preset_command": "qclab reproduce PRESET --out DIR, one fresh process per call",
        "method": " ".join(__doc__.split("\n\n")[2].split()),
        "stages": MEASURES,
        "environment": environment(),
        "runs_per_tree": opts.runs,
        "rows": rows,
        "presets": presets,
    }
    text = json.dumps(record, indent=1) + "\n"
    if opts.out:
        with open(opts.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        print(json.dumps(worker(sys.argv[2:])))
    else:
        main()
