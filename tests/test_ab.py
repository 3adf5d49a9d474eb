"""The summary of ``bench/ab.py``, on made-up runs: no benchmark is run."""

import importlib.util
from pathlib import Path

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
