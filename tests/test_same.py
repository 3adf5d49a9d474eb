"""``bench/same.py`` on two made-up trees: no cinorm command is run."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# a stand-in for ``python -m cinorm``: a report written to --out, a verify
# line with its seconds on stdout, and a note on stderr
MAIN = """import sys
args = sys.argv[1:]
if "--out" in args:
    with open(args[args.index("--out") + 1], "w") as f:
        f.write('{"report": %s}\\n')
print("[s] s:check: ok (%ss)")
print("note", file=sys.stderr)
"""
ENTRIES = [{"name": "report", "args": ["verify"]},
           {"name": "no-out", "args": ["cld"], "out": False}]


def load_same(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # same.py imports its sibling ab.py
    spec = importlib.util.spec_from_file_location("same", BENCH / "same.py")
    same = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same)
    return same


def tree(root: Path, report: str, seconds: str) -> Path:
    package = root / "src" / "cinorm"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(MAIN % (report, seconds))
    return root


def test_identical_trees_report_nothing(tmp_path, monkeypatch, capsys):
    same = load_same(monkeypatch)
    # the seconds of a verify line differ, and are masked
    trees = (tree(tmp_path / "a", "10", "0.002"), tree(tmp_path / "b", "10", "0.125"))
    assert same.compare(trees, ENTRIES) == 0
    assert capsys.readouterr().out == "same  report\nsame  no-out\n0 of 2 entries differ\n"


def test_a_one_byte_change_to_a_report_is_reported(tmp_path, monkeypatch, capsys):
    same = load_same(monkeypatch)
    trees = (tree(tmp_path / "a", "10", "0.002"), tree(tmp_path / "b", "11", "0.002"))
    assert same.compare(trees, ENTRIES) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFF  report",
        """      out: line 1, byte 13: base b'{"report": 10}' change b'{"report": 11}'""",
        "same  no-out",
        "1 of 2 entries differ"]


def test_every_output_and_the_exit_code_are_compared(tmp_path, monkeypatch):
    same = load_same(monkeypatch)
    base = {"out": None, "stdout": b"a\nb\n", "stderr": b"x", "exit": 0}
    assert same.differences(base, dict(base)) == []
    change = {"out": b"{}", "stdout": b"a\nc\nd\n", "stderr": b"x", "exit": 2}
    assert same.differences(base, change) == [
        "out: written only by change",
        "stdout: line 2, byte 1: base b'b' change b'c'",
        "exit: base 0, change 2"]
    assert same.first_difference(b"a\n", b"a\nb\n") == "line 2: only in change"


def test_the_run_directory_is_masked(tmp_path, monkeypatch):
    # a stand-in for cinorm cache stats, which prints the run's own cache directory
    same = load_same(monkeypatch)
    main = "import os\nprint(os.environ['CINORM_CACHE_DIR'])\n"
    runs = []
    for name in ("a", "b"):
        root = tree(tmp_path / name, "10", "0.002")
        (root / "src" / "cinorm" / "__main__.py").write_text(main)
        runs.append(same.run(root, {"name": "stats", "args": ["cache", "stats"], "out": False}))
    assert runs[0]["stdout"] == runs[1]["stdout"] == b"<run>/cache\n"
    assert same.differences(*runs) == []
