"""Same bytes: the CLI outputs of a base revision against the working tree.

    python3 bench/same.py --base HEAD

Run from the repository root.  It makes the two compiled copies that
``bench/ab.py`` makes (its ``checkout``), then runs each entry of the
checked-in manifest ``bench/same.json`` in each copy:
``python -m cinorm`` with the entry's ``args``, and ``--out out`` after
them unless the entry has ``"out": false``.  Each run is a fresh process in
a fresh directory, with a fresh ``CINORM_CACHE_DIR`` there.  It compares
the ``--out`` bytes, stderr, the exit code, and stdout with the per-check
seconds that ``cinorm verify`` prints masked.  The copy's own path and the
run's own directory are masked in both streams, so that a traceback or the
cache directory that ``cinorm cache stats`` prints reads the same in either
copy.
It prints one line per entry, ``same`` or ``DIFF``, and under each entry
that differs the first line that differs in each output, and exits 1 if
any entry differs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from ab import _working_tree, checkout

MANIFEST = Path(__file__).resolve().parent / "same.json"
#: The seconds that ``cinorm verify`` prints after each check, as ``(0.002s)``.
SECONDS = re.compile(rb"\(\d+\.\d+s\)")


def run(tree: Path, entry: dict) -> dict:
    """The outputs of one entry's run in ``tree``: ``out`` (None when no
    file was written), ``stdout``, ``stderr`` and ``exit``."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   CINORM_CACHE_DIR=str(Path(tmp) / "cache"))
        out = ["--out", "out"] if entry.get("out", True) else []
        proc = subprocess.run([sys.executable, "-m", "cinorm", *entry["args"], *out],
                              cwd=tmp, env=env, capture_output=True)
        path = Path(tmp) / "out"

        def mask(stream: bytes) -> bytes:
            return stream.replace(str(tree).encode(), b"<tree>").replace(tmp.encode(), b"<run>")
        return {"out": path.read_bytes() if path.exists() else None,
                "stdout": SECONDS.sub(b"(-s)", mask(proc.stdout)),
                "stderr": mask(proc.stderr),
                "exit": proc.returncode}


def first_difference(base: bytes, change: bytes) -> str:
    """Where two outputs first differ: the line, and each side's line from
    a little before the first differing byte."""
    for i, (a, b) in enumerate(zip_longest(base.splitlines(), change.splitlines()), 1):
        if a != b:
            if a is None or b is None:
                return f"line {i}: only in {'change' if a is None else 'base'}"
            col = next((j for j, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            start = max(col - 30, 0)
            return (f"line {i}, byte {col + 1}: base {a[start:col + 50]!r}"
                    f" change {b[start:col + 50]!r}")
    return "same lines, different line endings"


def differences(base: dict, change: dict) -> list[str]:
    """One line for each output of :func:`run` that differs."""
    lines = []
    for key in ("out", "stdout", "stderr"):
        a, b = base[key], change[key]
        if a != b:
            where = (f"written only by {'base' if b is None else 'change'}"
                     if a is None or b is None else first_difference(a, b))
            lines.append(f"{key}: {where}")
    if base["exit"] != change["exit"]:
        lines.append(f"exit: base {base['exit']}, change {change['exit']}")
    return lines


def compare(trees: tuple[Path, Path], entries: list[dict]) -> int:
    """Run every entry in both trees and print what differs; the number of
    entries that differ."""
    differ = 0
    for entry in entries:
        lines = differences(*(run(tree, entry) for tree in trees))
        differ += bool(lines)
        print(f"{'DIFF' if lines else 'same'}  {entry['name']}", flush=True)
        for line in lines:
            print(f"      {line}")
    print(f"{differ} of {len(entries)} entries differ")
    return differ


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD", help="the revision to compare against")
    args = p.parse_args(argv)
    entries = json.loads(MANIFEST.read_text())
    work = Path(tempfile.mkdtemp(prefix="cinorm-same-"))
    try:
        trees = (checkout(args.base, work / "base"), checkout(_working_tree(), work / "change"))
        print(f"{args.base} -> working tree", flush=True)
        return 1 if compare(trees, entries) else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
