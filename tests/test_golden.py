"""Golden diff: the benchmark's CLI calls still write the recorded outputs.

Every call of the presets, cluster and fine-mesh workloads in
``bench/workloads.py`` runs once, in one fresh interpreter started with the
benchmark's thread caps: reports are byte-identical only at a fixed BLAS
thread count, and pytest's own process may run with more threads.  The
digests are compared with ``bench/golden.json``; nothing is written under
``bench/``.  The lattice workload is left out: it writes an 84 MB profile and
runs the same graded energy-cluster path as fig1.  A second test checks that
every function the traced benchmark run wraps (``bench/spans.py``) still
exists.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("presets", "cluster", "fine-mesh")

# argv: bench directory, output directory, workload names.  The exit codes
# go to stdout as one JSON line; the calls' own output goes to stderr.
_RUN_CALLS = """
import contextlib, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from qclab.cli import main
out = Path(sys.argv[2])
codes = {}
with contextlib.redirect_stdout(sys.stderr):
    for name in sys.argv[3:]:
        for call in workloads.WORKLOADS[name]:
            codes[name + "/" + call.label] = main(workloads.argv_for(call, out / name))
print(json.dumps(codes))
"""


def _load_bench(name):
    """Import bench/<name>.py without writing its bytecode cache there."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_benchmark_outputs_match_golden(tmp_path):
    workloads = _load_bench("workloads")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **workloads.THREAD_CAPS)
    done = subprocess.run([sys.executable, "-c", _RUN_CALLS, str(BENCH), str(tmp_path),
                           *WORKLOADS], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout)
    golden = workloads.load_golden()
    problems = []
    for name in WORKLOADS:
        for call in workloads.WORKLOADS[name]:
            problems += workloads.check_call(call, codes[f"{name}/{call.label}"],
                                             tmp_path / name, golden[name])
    assert problems == []


def test_traced_names_resolve():
    # the traced benchmark run wraps these by name; a renamed or deleted one
    # drops out of its per-layer metrics, and only the traced run says so
    spans = _load_bench("spans")
    missing = [f"{module}.{function}" for module, function, _, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"qclab.{module}"), function, None))]
    assert missing == []
