"""Write one fixed set of qclab outputs, so that two source trees can be
compared token by token.

    python3 tools/output_tree.py SRC OUT
    python3 tools/token_diff.py OUT_A OUT_B

SRC is a checkout (a directory holding src/qclab) and OUT a new or empty
directory.  One fresh interpreter, started in OUT with PYTHONPATH=SRC/src and
the thread caps of bench/workloads.THREAD_CAPS, runs every call through
qclab.cli.main:

- each call of bench/workloads.WORKLOADS, into workloads/WORKLOAD;
- each call of CALLS, into calls/LABEL: each method on each mesh family that
  admits it (the custom mesh reads the node file NODE_FILE, which the run
  writes into OUT), lumped weights, radii r > 0, each method under zero
  force, atomistic runs without a mesh, on a mesh, and naming a mesh but no
  K, one sweep per STUDY_METRICS row and mesh-inspect for each family, whose
  stdout becomes calls/LABEL/mesh.json.

Every path a call sees is relative to OUT, so the reports of two trees name
the same files.  A call that exits with another code than expected stops
the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
NODE_FILE = "nodes.txt"
NODES = (-57, -30, -14, 0, 11, 29, 44, 66)  # custom mesh of N = 64, K = 4: steps 5 to 27

# each mesh family: descriptor, N, K and a force
FAMILIES = {
    "uniform": ("uniform", 4096, 16, "sinpi"),
    "graded": ("graded", 4096, 13, "gauss:1e4,1e4"),
    "oscillatory": ("oscillatory", 4096, 16, "sinpi"),
    "smooth": ("smooth:0.1", 4096, 16, "lin:0.5,-1"),
    "custom": (f"custom:{NODE_FILE}", 64, 4, "const:1"),
}


def _run(mesh: str, N: int, K: int, force: str, method: str, *extra: str) -> tuple[str, ...]:
    return ("run", "--mesh", mesh, "--N", str(N), "--K", str(K), "--method", method,
            "--force", force, *extra)


# (label, argv without --out); graded admits r = 0 only (its smallest element has one bond)
CALLS: tuple[tuple[str, tuple[str, ...]], ...] = (
    *((f"{family}-{method}", _run(*FAMILIES[family], method))
      for family in FAMILIES for method in ("constrained", "energy-cluster", "force-cluster")),
    ("uniform-energy-r3-lumped", _run(*FAMILIES["uniform"], "energy-cluster",
                                      "--r", "3", "--weights", "lumped")),
    ("smooth-force-r2-lumped", _run(*FAMILIES["smooth"], "force-cluster",
                                    "--r", "2", "--weights", "lumped")),
    ("oscillatory-energy-r1", _run(*FAMILIES["oscillatory"], "energy-cluster",
                                   "--r", "1", "--weights", "exact")),
    ("oscillatory-force-r1", _run(*FAMILIES["oscillatory"], "force-cluster", "--r", "1")),
    ("smooth-force-r2", _run(*FAMILIES["smooth"], "force-cluster", "--r", "2")),
    ("custom-force-r2", _run(*FAMILIES["custom"], "force-cluster", "--r", "2")),
    # zero loads: every value, stress and reaction is zero, to be written as 0, not -0
    *((f"uniform-{method}-zero-force", _run(*FAMILIES["uniform"][:3], "const:0", method))
      for method in ("constrained", "energy-cluster", "force-cluster")),
    # 2N = 200,006 sites: several solve blocks and a short last one
    ("atomistic-odd-N", ("run", "--N", "100003", "--method", "atomistic", "--force", "sinpi")),
    ("atomistic-N2", ("run", "--N", "2", "--method", "atomistic", "--force", "const:-3")),
    # an atomistic run on a mesh: with --K the constrained solve runs too, without it
    # the mesh is ignored
    ("graded-atomistic", _run(*FAMILIES["graded"], "atomistic")),
    ("graded-atomistic-no-K", ("run", "--mesh", "graded", "--N", "4096", "--method", "atomistic",
                               "--force", "gauss:1e4,1e4")),
    ("sweep-consistency", ("sweep", "--mesh", "smooth", "--N", "8192", "--axis", "K",
                           "--values", "8,16,32", "--metric", "consistency", "--force", "sinpi")),
    ("sweep-weight-gap", ("sweep", "--mesh", "uniform", "--N", "1024", "--K", "8",
                          "--axis", "r", "--values", "0,1,2", "--metric", "weight-gap")),
    ("sweep-load-defect", ("sweep", "--mesh", "oscillatory", "--K", "8", "--r", "1",
                           "--axis", "N", "--values", "256,512,1024", "--metric", "load-defect",
                           "--force", "gauss:1e2,1e2")),
    ("sweep-zero-force", ("sweep", "--mesh", "uniform", "--N", "2048", "--r", "1",
                          "--axis", "K", "--values", "4,8,16", "--metric", "zero-force",
                          "--weights", "lumped")),
    *((f"inspect-{family}", ("mesh-inspect", "--mesh", mesh, "--N", str(N), "--K", str(K)))
      for family, (mesh, N, K, _) in FAMILIES.items()),
)


def _workloads():
    sys.path.insert(0, str(BENCH))
    import workloads

    return workloads


def call(argv: list[str], expected: int, directory: Path) -> None:
    """Run argv through qclab.cli.main; mesh-inspect's stdout is written
    to directory/mesh.json."""
    from qclab import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != expected:
        raise SystemExit(f"qclab {' '.join(argv)} exited with {code}, expected {expected}: "
                         f"{stdout.getvalue()}")
    if argv[0] == "mesh-inspect":
        directory.mkdir(parents=True)
        (directory / "mesh.json").write_text(stdout.getvalue())


def write_calls() -> None:
    """NODE_FILE and the outputs of CALLS, in the working directory."""
    Path(NODE_FILE).write_text("".join(f"{i}\n" for i in NODES))
    for label, argv in CALLS:
        out = Path("calls", label)
        call([*argv] if argv[0] == "mesh-inspect" else [*argv, "--out", str(out)], 0, out)


def worker() -> None:
    """Every bench/workloads.py call, then write_calls(), in the working directory."""
    workloads = _workloads()
    for name, calls in workloads.WORKLOADS.items():
        out = Path("workloads", name)
        for workload_call in calls:
            call(workloads.argv_for(workload_call, out), workload_call.expect_rc, out)
    write_calls()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="checkout holding src/qclab")
    parser.add_argument("out", type=Path, help="new or empty output directory")
    args = parser.parse_args(argv)
    if not (args.src / "src" / "qclab").is_dir():
        parser.error(f"{args.src} holds no src/qclab")
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    args.out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **_workloads().THREAD_CAPS,
               PYTHONPATH=str((args.src / "src").resolve()))
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"],
                          cwd=args.out, env=env).returncode


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
