"""The line tracer of ``bench/cover.py``, on a small module written here:
no test suite or workload is traced."""

import importlib.util
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
