"""Rewrite golden.json from the program as it is now.

    python3 bench/record_golden.py

Run only on a commit whose outputs are known to be right (the golden
digests were recorded on the commit that added the benchmark); the benchmark
then counts every later difference as a failed invocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import workloads

os.environ.update(workloads.THREAD_CAPS)

import run  # noqa: E402  (imports numpy, so after the thread caps)

sys.path.insert(0, str(run.SRC))

import qclab.cli  # noqa: E402  (after the thread caps and the path)


def main() -> int:
    out = run.OUT / "golden"
    golden = {}
    for name, calls in workloads.WORKLOADS.items():
        golden[name] = {}
        for call in calls:
            workloads.clear_outputs(out)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = qclab.cli.main(workloads.argv_for(call, out))
            if rc != call.expect_rc:
                print(f"{name}/{call.label}: exit code {rc}, expected {call.expect_rc}",
                      file=sys.stderr)
                return 1
            golden[name][call.label] = workloads.digest_outputs(out / call.label)
            print(f"{name}/{call.label}: {golden[name][call.label]}")
    workloads.clear_outputs(out)
    out.rmdir()
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
