"""Workload definitions and output digests for the qclab benchmark.

A workload is a list of CLI calls; one invocation runs every call once
through ``qclab.cli.main``.  Inputs are closed-form descriptors, so the
outputs are deterministic and are checked against ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Workloads run single-threaded: one thread for BLAS and OpenMP.  Set in the
# environment before numpy is first imported.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

# Report entries that carry wall-clock readings; they are left out of the
# report digest.  Top-level keys, plus the measured value of the presets'
# runtime check (its band and pass flag stay in the digest).
_TIMING_KEYS = ("wall_time_s", "timings")


@dataclass(frozen=True)
class Call:
    label: str          # output subdirectory, and the key in golden.json
    argv: tuple[str, ...]
    expect_rc: int


def _run(*args: str) -> Call:
    return Call("run", ("run",) + args, 0)


def _preset(name: str, rc: int) -> Call:
    return Call(name, ("reproduce", name), rc)


WORKLOADS: dict[str, tuple[Call, ...]] = {
    "lattice": (_run("--mesh", "graded", "--N", "524288", "--K", "20", "--r", "0",
                     "--method", "energy-cluster", "--force", "gauss:1e4,1e4"),),
    "fine-mesh": (_run("--mesh", "uniform", "--N", "262144", "--K", "32768",
                       "--method", "constrained", "--force", "sinpi"),),
    "cluster": (_run("--mesh", "smooth", "--N", "131072", "--K", "256", "--r", "2",
                     "--method", "force-cluster", "--force", "sinpi"),),
    # example1 is the documented expected FAIL (exit code 2).
    "presets": (_preset("fig1", 0), _preset("fig2", 0), _preset("example1", 2),
                _preset("force-scaling", 0), _preset("weights-audit", 0)),
}


def ordered_calls(workload: str, rng: random.Random) -> list[Call]:
    """The workload's calls in the order the seed picks for one invocation."""
    calls = list(WORKLOADS[workload])
    rng.shuffle(calls)
    return calls


def argv_for(call: Call, out: Path) -> list[str]:
    """Full argv; ``reproduce`` appends the preset name to --out itself."""
    target = out if call.argv[0] == "reproduce" else out / call.label
    return list(call.argv) + ["--out", str(target)]


def clear_outputs(out: Path) -> None:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)


# ---------------------------------------------------------------- digests

class _Number(str):
    """A JSON number token kept verbatim, so the digest sees every digit."""


class _Object(list):
    """A JSON object as its (key, value) pairs, in file order."""


def _canonical(value) -> str:
    if isinstance(value, _Object):
        return "{" + ",".join(json.dumps(k) + ":" + _canonical(v) for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, _Number):
        return str(value)
    return json.dumps(value)


def report_content(text: str) -> tuple[str, object]:
    """(canonical text without timing entries, verdict or None).

    Key order and number tokens are kept exactly; only whitespace is
    normalised, and the timing entries are dropped.
    """
    tree = json.loads(text, object_pairs_hook=_Object, parse_float=_Number,
                      parse_int=_Number, parse_constant=_Number)
    tree = _Object((k, v) for k, v in tree if k not in _TIMING_KEYS)
    verdict = None
    for key, value in tree:
        if key == "verdict":
            verdict = value
        if key == "checks":
            for name, check in value:
                if name == "runtime_s":
                    check[:] = [(k, v) for k, v in check if k != "value"]
    return _canonical(tree), verdict


def digest_outputs(directory: Path) -> dict:
    """Digest of every file a call wrote, plus the report's verdict."""
    files = {}
    verdict = None
    for path in sorted(directory.iterdir()) if directory.is_dir() else []:
        if path.name == "report.json":
            content, verdict = report_content(path.read_text())
            files[path.name] = hashlib.sha256(content.encode()).hexdigest()
        else:
            with open(path, "rb") as handle:
                files[path.name] = hashlib.file_digest(handle, "sha256").hexdigest()
    return {"files": files, "verdict": verdict}


def check_call(call: Call, rc, out: Path, golden: dict) -> list[str]:
    """Mismatches of one call against its golden record; empty when correct."""
    problems = []
    if rc != call.expect_rc:
        problems.append(f"{call.label}: exit code {rc}, expected {call.expect_rc}")
    got = digest_outputs(out / call.label)
    want = golden[call.label]
    if got["verdict"] != want["verdict"]:
        problems.append(f"{call.label}: verdict {got['verdict']}, expected {want['verdict']}")
    for name in sorted(set(got["files"]) | set(want["files"])):
        if got["files"].get(name) != want["files"].get(name):
            problems.append(f"{call.label}/{name}: digest differs from golden")
    return problems


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
