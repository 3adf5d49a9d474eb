"""The line tracer of ``bench/cover.py``, on a small module written here:
no test suite or workload is traced."""

import importlib.util
import json
import runpy
import sys
import threading
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "cover", Path(__file__).resolve().parent.parent / "bench" / "cover.py")
cover = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cover)

SOURCE = '''"""A module."""
import os

LIMIT = 3


def used(x):
    """Doc."""
    global LIMIT
    if (x and
            x > 0):
        return [y for y in
                range(x)]
    try:
        pass
    except ValueError:
        raise
    return 2


def unused():
    return 3


@staticmethod
def decorated():
    return 4


class K:
    """Doc."""
    size: int = 1

    def method(self):
        with open(os.devnull) as f:
            return used(0)


def in_thread():
    return 5
'''


def test_a_small_module_is_traced(tmp_path):
    (tmp_path / "mod.py").write_text(SOURCE)
    (tmp_path / "other.py").write_text("def other():\n    return 6\n")

    def run():
        ns = runpy.run_path(str(tmp_path / "mod.py"))
        ns["used"](2)
        ns["K"]().method()
        worker = threading.Thread(target=ns["in_thread"])
        worker.start()
        worker.join()
    before = sys.gettrace()
    lines = cover.trace(tmp_path, run)
    assert sys.gettrace() is before
    assert set(lines) == {"mod.py"}  # other.py never ran
    statements, _ = cover.module_map(tmp_path / "mod.py")
    # docstrings and `global` run no code; a multi-line header counts once
    assert sorted(statements) == [2, 4, 7, 10, 12, 14, 15, 17, 18, 21, 22, 26, 27,
                                  30, 32, 34, 35, 36, 39, 40]
    missed = {line for line, span in statements.items() if lines["mod.py"].isdisjoint(span)}
    assert missed == {17, 22, 27}
    rows, never = cover.summarize(tmp_path, lines)
    assert rows == [("mod.py", 17, 20), ("other.py", 0, 2)]
    assert never == ["mod.py:21 unused", "mod.py:26 decorated", "other.py:1 other"]
    report = cover.format_summary(rows, never)
    assert report.splitlines()[3].split() == ["total", "17", "22", "77.3%"]
    assert "functions never run (3):" in report


def test_the_statements_that_did_not_run_are_listed_with_their_source(tmp_path):
    (tmp_path / "mod.py").write_text(SOURCE)
    (tmp_path / "other.py").write_text("def other():\n    return 6\n")
    lines = cover.trace(tmp_path, lambda: runpy.run_path(str(tmp_path / "mod.py"))["used"](2))
    missed = cover.missed_statements(tmp_path, lines)
    # used(2) returns from its header's branch, and method() and
    # in_thread() never ran; a compound statement is named by its first line
    assert missed == {
        "mod.py": [[14, "try:"], [15, "pass"], [17, "raise"], [18, "return 2"], [22, "return 3"], [27, "return 4"],
                   [35, "with open(os.devnull) as f:"], [36, "return used(0)"],
                   [40, "return 5"]],
        "other.py": [[1, "def other():"], [2, "return 6"]],
    }


def test_json_records_lines_and_missed_statements(tmp_path, capsys):
    # --merge reads the lines of earlier runs; a module none of them ran is
    # missed at every statement, one that ran in full at none
    package = cover.PACKAGE
    version = package / "_version.py"
    statements, _ = cover.module_map(version)
    ran = tmp_path / "ran.json"
    ran.write_text(json.dumps({"lines": {"_version.py": sorted(statements)}}))
    out = tmp_path / "out.json"
    assert cover.main(["--merge", str(ran), "--json", str(out)]) == 0
    written = json.loads(out.read_text())
    assert written["lines"] == {"_version.py": sorted(statements)}
    assert written["missed"]["_version.py"] == []
    source = (package / "errors.py").read_text().splitlines()
    assert written["missed"]["errors.py"] == [
        [line, source[line - 1].strip()]
        for line in sorted(cover.module_map(package / "errors.py")[0])]
    assert set(written["missed"]) == {p.name for p in package.glob("*.py")}
    capsys.readouterr()
