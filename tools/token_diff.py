"""Token by token comparison of two qclab output trees.

    python3 tools/token_diff.py A B [--added PATTERN ...]

A and B are directories of qclab outputs, for instance the --out trees of
the calls in bench/workloads.py (`bench/workloads.argv_for(call, tree /
workload)` for every call of `WORKLOADS`) written by two source trees or at
two BLAS thread counts.  Files are paired by their path relative to A and B.

- A `.json` report is parsed with every number token kept verbatim.  The
  entries a run's wall clock fills in are left out, as
  bench/workloads.report_content leaves them out of the golden digests: the
  top-level `wall_time_s` and `timings`, and the measured `value` of the
  presets' `checks.runtime_s`.  A number's key path joins its object keys
  with "."; the elements of an array share the array's path.
- A `.csv` file is compared column by column, paired by the header's names;
  its "rate,VALUE" footer lines form the column `rate`.
- Any other file is compared byte for byte.

For each key path or column where a token moved, the tool prints how many
of its tokens moved and the largest absolute and relative deviation (the
relative one against the larger magnitude of the pair).  It also prints the
keys and files that exist on one side only.  It exits 1 on a structural
difference: a file or key only in A, a key or file only in B that no
--added pattern (fnmatch, on the key path, column or relative file path)
names, another array length or row count, a changed string or literal, or
differing bytes of another file.  Moved numbers alone exit 0.
"""

from __future__ import annotations

import argparse
import fnmatch
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

TIMING_KEYS = ("wall_time_s", "timings")


class Token(str):
    """A JSON number token, kept verbatim."""


@dataclass
class Tally:
    """Tokens compared under one key path or column, and how far they moved."""

    tokens: int = 0
    moved: int = 0
    max_abs: float = 0.0
    max_rel: float = 0.0

    def add(self, a: str, b: str) -> None:
        self.tokens += 1
        if a == b:
            return
        self.moved += 1
        x, y = float(a), float(b)
        if not (math.isfinite(x) and math.isfinite(y)):
            self.max_abs = self.max_rel = math.inf
            return
        gap = abs(x - y)
        self.max_abs = max(self.max_abs, gap)
        if gap:
            self.max_rel = max(self.max_rel, gap / max(abs(x), abs(y)))


@dataclass
class FileDiff:
    """What differs between the two copies of one file."""

    tallies: dict[str, Tally] = field(default_factory=dict)
    added: list[str] = field(default_factory=list)  # key paths only in B
    removed: list[str] = field(default_factory=list)  # key paths only in A
    changed: list[str] = field(default_factory=list)  # other structural differences

    def tally(self, path: str) -> Tally:
        return self.tallies.setdefault(path, Tally())


def load_report(path: Path):
    tree = json.loads(path.read_text(), parse_float=Token, parse_int=Token,
                      parse_constant=Token)
    for key in TIMING_KEYS:
        tree.pop(key, None)
    runtime = tree.get("checks", {}).get("runtime_s")
    if isinstance(runtime, dict):
        runtime.pop("value", None)
    return tree


def _walk(a, b, path: str, diff: FileDiff) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            sub = f"{path}.{key}" if path else key
            if key not in b:
                diff.removed.append(sub)
            elif key not in a:
                diff.added.append(sub)
            else:
                _walk(a[key], b[key], sub, diff)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.changed.append(f"{path}: length {len(a)} != {len(b)}")
        for x, y in zip(a, b):
            _walk(x, y, path, diff)
    elif isinstance(a, Token) and isinstance(b, Token):
        diff.tally(path).add(a, b)
    elif type(a) is not type(b) or a != b:
        diff.changed.append(f"{path}: {json.dumps(a)} != {json.dumps(b)}")


def compare_reports(a: Path, b: Path) -> FileDiff:
    diff = FileDiff()
    _walk(load_report(a), load_report(b), "", diff)
    return diff


def compare_csv(a: Path, b: Path) -> FileDiff:
    """Streamed line by line, so a lattice profile is never held whole."""
    diff = FileDiff()
    with a.open() as fa, b.open() as fb:
        names_a = fa.readline().rstrip("\n").split(",")
        names_b = fb.readline().rstrip("\n").split(",")
        diff.removed += [name for name in names_a if name not in names_b]
        diff.added += [name for name in names_b if name not in names_a]
        columns = [(diff.tally(name), names_a.index(name), names_b.index(name))
                   for name in names_a if name in names_b]
        for row, (x, y) in enumerate(itertools.zip_longest(fa, fb), start=1):
            if x is None or y is None:
                diff.changed.append(f"row count: {'B' if x is None else 'A'} has rows past {row - 1}")
                break
            footer = x.startswith("rate,")
            if footer != y.startswith("rate,"):
                diff.changed.append(f"row {row}: a footer line on one side only")
                break
            cells_a, cells_b = x.rstrip("\n").split(","), y.rstrip("\n").split(",")
            want = (2, 2) if footer else (len(names_a), len(names_b))
            if (len(cells_a), len(cells_b)) != want:
                diff.changed.append(f"row {row}: {len(cells_a)} and {len(cells_b)} cells")
                break
            for tally, i, j in [(diff.tally("rate"), 1, 1)] if footer else columns:
                tally.add(cells_a[i], cells_b[j])
    return diff


def compare_files(a: Path, b: Path) -> FileDiff:
    if a.suffix == ".json":
        return compare_reports(a, b)
    if a.suffix == ".csv":
        return compare_csv(a, b)
    diff = FileDiff()
    if a.read_bytes() != b.read_bytes():
        diff.changed.append("bytes differ")
    return diff


def compare_trees(a: Path, b: Path) -> tuple[dict[str, FileDiff], list[str], list[str]]:
    """(per paired file its FileDiff, files only in A, files only in B)."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    in_a, in_b = files(a), files(b)
    paired = {name: compare_files(a / name, b / name) for name in sorted(in_a & in_b)}
    return paired, sorted(in_a - in_b), sorted(in_b - in_a)


def report(a: Path, b: Path, added: list[str] = ()) -> tuple[list[str], bool]:
    """(the lines to print, whether A and B differ in structure beyond added)."""
    paired, only_a, only_b = compare_trees(a, b)

    def allowed(*paths: str) -> bool:
        return any(fnmatch.fnmatchcase(p, pattern) for p in paths for pattern in added)

    lines = [f"only in A: {name}" for name in only_a]
    lines += [f"only in B: {name}" for name in only_b]
    structural = bool(only_a) or not all(allowed(name) for name in only_b)
    tokens = moved = 0
    for name, diff in paired.items():
        body = [f"  {path}: {t.moved} of {t.tokens} tokens moved, max abs {t.max_abs:.3g}, "
                f"max rel {t.max_rel:.3g}" for path, t in diff.tallies.items() if t.moved]
        body += [f"  added: {path}" for path in diff.added]
        body += [f"  removed: {path}" for path in diff.removed]
        body += [f"  changed: {what}" for what in diff.changed]
        if body:
            lines += [name, *body]
        structural |= bool(diff.removed or diff.changed)
        structural |= not all(allowed(path, name) for path in diff.added)
        tokens += sum(t.tokens for t in diff.tallies.values())
        moved += sum(t.moved for t in diff.tallies.values())
    lines.append(f"{len(paired)} files paired, {tokens} tokens compared, {moved} moved"
                 + (", structure differs" if structural else ""))
    return lines, structural


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--added", action="append", default=[], metavar="PATTERN",
                        help="a key path, column or file that may exist in B only "
                             "(fnmatch pattern; repeatable)")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    lines, structural = report(args.a, args.b, args.added)
    print("\n".join(lines))
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main())
