"""The summary of ``bench/ab.py``, on made-up runs: no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "bench" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [{"name": "jobs_per_s", "better": "higher"},
           {"name": "job_ms_p50", "better": "lower"}]


def _pairs(base, change):
    return [({"jobs_per_s": b, "job_ms_p50": 1000 / b}, {"jobs_per_s": c, "job_ms_p50": 1000 / c})
            for b, c in zip(base, change)]


def test_wins_follow_the_better_direction():
    rows = ab.summarize(_pairs([400, 410, 420, 430, 440], [500, 400, 520, 530, 540]), METRICS)
    assert [(r["name"], r["wins"], r["pairs"]) for r in rows] == \
        [("jobs_per_s", 4, 5), ("job_ms_p50", 4, 5)]
    assert rows[0]["base"] == (410, 420, 430) and rows[0]["change"] == (500, 520, 530)
    assert all(r["beyond_iqr"] for r in rows)


def test_a_gap_inside_the_base_iqr_is_not_beyond_it():
    (row,) = ab.summarize(_pairs([400, 410, 420, 430, 440], [405, 415, 425, 435, 445]),
                          METRICS[:1])
    assert row["wins"] == 5 and not row["beyond_iqr"]
    # ties are no win either way
    (row,) = ab.summarize(_pairs([400, 410], [400, 410]), METRICS[:1])
    assert row["wins"] == 0 and not row["beyond_iqr"]


def test_one_pair_has_its_value_as_every_quartile():
    (row,) = ab.summarize(_pairs([400], [500]), METRICS[:1])
    assert row["base"] == (400, 400, 400) and row["beyond_iqr"]
    assert "1/1" in ab.format_rows([row])


def _output(metrics, per_kind, loop_s=0.25, speed=0.75):
    last = {"metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    notes = {"jobs": 3, "run_s_per_kind": per_kind, "median_speed_factor": speed,
             "raw": {"jobs_per_s": 12.0, "loop_wall_s": loop_s}}
    return "\n".join(["provenance {}", "notes " + json.dumps(notes, sort_keys=True),
                      "FAILED job 1 packing on sn:7: boom", json.dumps(last)]) + "\n"


def test_a_run_is_parsed_with_its_seconds_per_kind():
    out = _output({"jobs_per_s": 500.5, "ok_ratio": 1.0}, {"energy": 0.25, "packing": 0.5})
    assert ab.parse_run(out) == {"jobs_per_s": 500.5, "ok_ratio": 1.0,
                                 "run_s_per_kind": {"energy": 0.25, "packing": 0.5},
                                 "raw.loop_wall_s": 0.25, "median_speed_factor": 0.75}


# the last two lines of a `perfbench/run.py --workload scans --trace 0` run
NOTES_LINE = (
    'notes {"jobs": 139, "jobs_beyond_tail": 4, "median_speed_factor": 0.6518, '
    '"raw": {"job_ms_p50": 0.7912, "job_ms_tail": 2.0311, "jobs_per_s": 515.2, '
    '"loop_wall_s": 0.2698}, "ref_loop_s": 0.1759, "run_s_per_kind": '
    '{"packing": 0.0401}, "setup_samples_s": [0.11, 0.12], "tail_percentile": 95}')
METRICS_LINE = '{"metrics": {"jobs_per_s": {"unit": "jobs/s", "value": 790.2}}}'


def test_a_notes_line_gives_the_raw_loop_seconds_and_the_speed_factor():
    runs = [ab.parse_run(f"provenance {{}}\n{NOTES_LINE}\n{METRICS_LINE}\n")]
    assert runs[0]["raw.loop_wall_s"] == 0.2698 and runs[0]["median_speed_factor"] == 0.6518
    faster = dict(runs[0], **{"raw.loop_wall_s": 0.25, "median_speed_factor": 0.7})
    rows = ab.summarize([(runs[0], faster)] * 3, ab.NOTES)
    assert [(r["name"], r["wins"], r["base"][1], r["change"][1]) for r in rows] == [
        ("raw.loop_wall_s", 3, 0.2698, 0.25), ("median_speed_factor", 3, 0.6518, 0.7)]
    text = ab.format_rows(rows).splitlines()
    assert text[1].split()[0] == "raw.loop_wall_s" and text[2].split()[-2:] == ["3/3", "yes"]


def test_kind_medians_are_taken_per_side():
    runs = [ab.parse_run(_output({"jobs_per_s": 1.0}, kinds)) for kinds in (
        {"energy": 1.0, "packing": 2.0}, {"energy": 0.5},
        {"energy": 3.0, "packing": 4.0}, {"energy": 1.5, "packing": 1.0},
        {"energy": 2.0, "packing": 6.0}, {"energy": 1.0, "packing": 2.0})]
    pairs = list(zip(runs[0::2], runs[1::2]))
    # a kind missing from a run counts 0 there
    assert ab.kind_medians(pairs) == [("energy", 2.0, 1.0), ("packing", 4.0, 1.0)]
    text = ab.format_kinds(ab.kind_medians(pairs))
    assert text.splitlines()[1].split() == ["energy", "2.0000", "1.0000", "0.500"]


def test_line_counts_read_the_python_files_of_src_and_tests(tmp_path):
    for tree, src, tests in (("base", 3, 2), ("change", 1, 4)):
        for part, n in (("src", src), ("tests", tests)):
            pkg = tmp_path / tree / part / "pkg"
            pkg.mkdir(parents=True)
            (pkg / "a.py").write_text("x = 1\n" * n)
            (pkg / "notes.txt").write_text("not code\n")
        (tmp_path / tree / "bench.py").write_text("outside\n")
    base, change = (ab.line_counts(tmp_path / tree) for tree in ("base", "change"))
    assert base == {"src": 3, "tests": 2, "src code": 3}
    assert change == {"src": 1, "tests": 4, "src code": 1}
    assert ab.format_line_counts(base, change).splitlines() == [
        "lines       base  change   diff",
        "src            3       1     -2",
        "tests          2       4     +2",
        "src code       3       1     -2"]


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    source = (b'"""A module docstring\n'
              b'over two lines."""\n'
              b"\n"
              b"# a comment\n"
              b"def f(x):  # a trailing comment counts as its line of code\n"
              b"    'a docstring'\n"
              b"\n"
              b"    return (x +\n"
              b"            1)\n"
              b'TEXT = """a string that is\n'
              b'code, not a docstring"""\n')
    assert ab.code_lines(source) == 5
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_bytes(source)
    (tmp_path / "tests").mkdir()
    assert ab.line_counts(tmp_path) == {"src": 11, "tests": 0, "src code": 5}


def test_the_modules_whose_code_lines_differ_are_listed(tmp_path):
    for tree, modules in (("base", {"a.py": 2, "b.py": 3, "c.py": 1}),
                          ("change", {"a.py": 2, "b.py": 1, "d.py": 4})):
        pkg = tmp_path / tree / "src" / "cinorm"
        pkg.mkdir(parents=True)
        for name, n in modules.items():
            (pkg / name).write_text("# a comment\n" + "x = 1\n" * n)
    base, change = (ab.module_code_lines(tmp_path / tree) for tree in ("base", "change"))
    assert base == {"cinorm/a.py": 2, "cinorm/b.py": 3, "cinorm/c.py": 1}
    assert sum(base.values()) == ab.line_counts(tmp_path / "base")["src code"]
    # a module on one side only counts 0 on the other; an unchanged one is left out
    moved = ab.changed_modules(base, change)
    assert moved == ({"cinorm/b.py": 3, "cinorm/c.py": 1, "cinorm/d.py": 0},
                     {"cinorm/b.py": 1, "cinorm/c.py": 0, "cinorm/d.py": 4})
    assert ab.format_line_counts(*moved).splitlines() == [
        "lines          base  change   diff",
        "cinorm/b.py       3       1     -2",
        "cinorm/c.py       1       0     -1",
        "cinorm/d.py       0       4     +4"]


def test_no_pairs_print_the_line_counts_alone(tmp_path, monkeypatch, capsys):
    def fake_checkout(treeish, dest):
        (dest / "src" / "cinorm").mkdir(parents=True)
        (dest / "src" / "cinorm" / "a.py").write_text("x = 1\n" * (2 if treeish == "HEAD" else 1))
        (dest / "tests").mkdir()
        return dest

    def no_run(*args):
        raise AssertionError("a benchmark was run")
    monkeypatch.setattr(ab, "checkout", fake_checkout)
    monkeypatch.setattr(ab, "_working_tree", lambda: "tree")
    monkeypatch.setattr(ab, "run_once", no_run)
    out = tmp_path / "ab.json"
    assert ab.main(["--pairs", "0", "--workload", "scans", "tables", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "src code       2       1     -1" in text and "scans" not in text
    assert json.loads(out.read_text())["runs"] == []
    with pytest.raises(SystemExit) as exc:
        ab.main(["--pairs", "-1"])
    assert exc.value.code == 2
    assert "-1 is negative" in capsys.readouterr().err
