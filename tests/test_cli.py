"""CLI surface: exit codes, deterministic reports, cache behaviour."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

import cinorm
from cinorm import (
    ENUMERATION_GUARD,
    alternating,
    norm_table_from_payload,
    perm_from_cycles,
    qk_norm,
    symmetric,
)
from cinorm.cache import cache_clear, cache_dir, cache_get, cache_key, cache_put, cache_stats
from cinorm.cli import ExperimentConfig, _build_parser, main, run_suite
from cinorm.descriptors import _Interned
from cinorm.serialize import norm_table_payload, norm_table_to_json


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CINORM_CACHE_DIR", str(tmp_path / "cache"))
    yield


def test_suite_exit_codes(tmp_path):
    assert main(["verify", "--suite", "aff-z",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert main(["verify", "--suite", "negative-control",
                 "--out", str(tmp_path / "neg.json")]) == 1
    assert main(["verify", "--suite", "no-such-suite"]) == 2


def test_usage_error_exit_code():
    assert main(["not-a-command"]) == 2
    assert main(["qk", "--group", "definitely-not-a-descriptor",
                 "--k", "(1 2)"]) == 2


def test_guard_exit_code():
    # packing guard trips on a big ambient group
    assert main(["packing", "--group", "sn:12", "--h", "(1 2);(1 2 3)"]) == 3


@pytest.mark.parametrize("argv", [
    ["cl", "--group", "sn:3000"],
    ["cld", "--group", "sn:3000"],
    ["norm-verify", "--group", "sn:3000", "--norm", "support"],
    ["cl", "--group", "wreath:sn:9:zn:3000"],
    ["cl", "--group", "product:sn:2000,sn:2000"],
    ["cl", "--group", "slp:60:2"],
], ids=" ".join)
def test_a_guard_on_a_huge_order_exits_3_with_a_short_message(argv, capsys):
    # int-to-str refuses more than 4 300 digits: the order is not written out
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"resource guard tripped: |{argv[2]}| has ")
    assert " digits and exceeds the guard 10000000" in err and len(err) < 120


@pytest.mark.parametrize("argv", [
    ["cl", "--group", "sn:300000"],
    ["energy", "--group", "sn:300000", "--h", "(1 2);(1 2 3)", "--m", "1", "--norm", "support"],
], ids=" ".join)
def test_a_huge_order_is_refused_without_computing_it(argv, capsys, monkeypatch):
    # sn:300000 spent 1.6 s in factorial before it was refused; the order's
    # log now decides, and the message is the one the exact order gives
    def no_factorial(n):
        raise AssertionError("the order was computed")
    monkeypatch.setattr("math.factorial", no_factorial)
    assert main(argv) == 3
    assert capsys.readouterr().err == ("resource guard tripped: |sn:300000| has 1512852 "
                                       "digits and exceeds the guard 10000000\n")


BIG, HUGE = "1" + "0" * 400, "1" + "0" * 305


@pytest.mark.parametrize("group, field", [
    (f"sn:{BIG}", "n"), (f"an:{BIG}", "n"), (f"slp:{BIG}:2", "n"),
    (f"wreath:sn:3:zn:{BIG}", "n"), (f"wreath:sn:{BIG}:zn:3", "n"), (f"bar:sn:{BIG}", "n"),
    (f"product:sn:3,sn:{BIG}", "n"),
    # six logs of about 3e307 each sum past the largest float
    ("product:" + ",".join([f"sn:{HUGE}"] * 6), "parts"),
], ids=lambda x: x.replace(BIG, "1e400").replace(HUGE, "1e305"))
def test_a_field_too_large_for_a_float_exits_2(group, field, capsys):
    # its log10 overflowed a float while the descriptor was parsed, and the
    # OverflowError ended the CLI with a traceback and exit 1
    assert main(["cld", "--group", group]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: descriptor field {field} is too large: the size of this ")
    assert err.endswith(" group does not fit a float\n") and err.count("\n") == 1
    assert all(d.n < 10 ** 399 and len(d.parts) < 6 for d in list(_Interned._live.values()))


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff13"],
                         ids=["superscript", "arabic-indic", "fullwidth"])
def test_a_digit_outside_ascii_exits_2(digit, capsys):
    # str.isdigit holds for all three: "²" ended in int()'s own message, and
    # "٣" and "３" were read as sn:3
    assert main(["cld", "--group", f"sn:{digit}"]) == 2
    assert capsys.readouterr().err == f"error: expected integer at '{digit}'\n"


def test_a_large_prime_modulus_is_refused_by_the_guard_at_once(capsys):
    # trial division up to its square root ran for minutes before the guard
    start = time.perf_counter()
    assert main(["cld", "--group", "slp:2:1000000000000000003"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ("resource guard tripped: |slp:2:1000000000000000003| "
                                       "has 55 digits and exceeds the guard 10000000\n")


def test_failure_report_carries_witness(tmp_path):
    out = tmp_path / "neg.json"
    main(["verify", "--suite", "negative-control", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["passed"] is False
    (check,) = report["checks"]
    assert check["witness"]["element"] == "(1 2)"


def test_reports_deterministic_across_threads(tmp_path):
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"report-{threads}.json"
        code = main(["verify", "--suite", "qk-a5", "--threads", threads,
                     "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_reports_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["verify", "--suite", "bar-splitting", "--seed", "9",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_qk_command_uses_cache(tmp_path):
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    args = ["qk", "--group", "an:5", "--k", "(1 2 3 4 5)"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0  # second run hits the cache
    assert out1.read_bytes() == out2.read_bytes()
    # cache content equals a fresh computation, byte for byte
    d = alternating(5)
    table = qk_norm(d, [perm_from_cycles(d, (1, 2, 3, 4, 5))])
    assert out1.read_text() == norm_table_to_json(table)


def test_table_round_trip_and_tsv(tmp_path):
    d = alternating(5)
    table = qk_norm(d, [perm_from_cycles(d, (1, 2, 3, 4, 5))])
    payload = norm_table_payload(table)
    back = norm_table_from_payload(payload)
    assert back.values == table.values
    assert back.meta.diameter == table.meta.diameter
    out = tmp_path / "t.tsv"
    assert main(["qk", "--group", "an:5", "--k", "(1 2 3 4 5)",
                 "--format", "tsv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "element\tvalue"
    assert len(lines) == 61
    assert lines[1:] == sorted(lines[1:])


def test_cld_command(capsys):
    assert main(["cld", "--group", "an:5"]) == 0
    assert capsys.readouterr().out.strip().endswith("1/1")


@pytest.mark.parametrize("group", ["sn:7", "an:7"])
def test_cld_is_one_above_the_table_bound(group, capsys):
    # Ore 1951: every element of A_n, n >= 5, is a commutator in A_n, so
    # the commutator length diameter of S7 and of A7 is 1
    assert main(["cld", "--group", group]) == 0
    assert capsys.readouterr().out == "1/1\n"


def test_cl_command_sorted_json(tmp_path):
    out = tmp_path / "cl.json"
    assert main(["cl", "--group", "an:4", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    literals = [lit for lit, _ in rep["values"]]
    assert literals == sorted(literals)
    assert rep["meta"]["discrete"] is True and rep["meta"]["fine"] is False


def test_cache_cli_commands(capsys):
    assert main(["cache", "stats"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert "entries" in stats
    assert main(["cache", "clear"]) == 0


def test_norm_verify_command(tmp_path):
    out = tmp_path / "nv.json"
    assert main(["norm-verify", "--group", "sn:4", "--norm", "support",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and rep["pairs_checked"] == 576


def test_packing_and_energy_commands(tmp_path):
    out = tmp_path / "p.json"
    assert main(["packing", "--group", "sn:6", "--h", "(1 2);(1 2 3)",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["p"] == 2 and rep["exhausted"]
    out2 = tmp_path / "e.json"
    assert main(["energy", "--group", "sn:6", "--h", "(1 2);(1 2 3)",
                 "--m", "2", "--norm", "support", "--out", str(out2)]) == 0
    rep2 = json.loads(out2.read_text())
    assert rep2["energies"][0]["value"] == "6/1"
    assert rep2["energies"][1]["value"] == "infinite"


def test_element_lists_split_only_between_literals(tmp_path):
    # bar and product literals carry a ";" between their coordinates
    h = "((1 2);());((1 2 3);())"
    out = tmp_path / "p.json"
    assert main(["packing", "--group", "bar:sn:3", "--h", h, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["p"] == 2 and rep["witnesses"] == ["(();())t"]
    assert main(["energy", "--group", "product:sn:3,sn:3", "--h", h, "--norm", "trivial",
                 "--out", str(tmp_path / "e.json")]) == 0


@pytest.mark.parametrize("group,h,family", [
    ("slp:2:3", "[[1,1],[0,1]];[[0,2],[1,0]]", "slp"),
    ("product:sn:3,sn:3", "((1 2);());((1 2 3);())", "product")])
def test_energy_refuses_an_undefined_support_norm(group, h, family, tmp_path, capsys):
    # no strong displacer exists, so the norm was never read and each
    # energy was printed as "infinite" with exit 0; support is the default,
    # and only when it was not asked for does the message name the way out
    out = tmp_path / "e.json"
    undefined = f"error: support norm undefined for family {family!r}"
    for norm, err in ((["--norm", "support"], f"{undefined}\n"),
                      ([], f"{undefined}; --norm defaults to support, "
                           f"so pass --norm trivial\n")):
        assert main(["energy", "--group", group, "--h", h, *norm, "--out", str(out)]) == 2
        assert capsys.readouterr().err == err
    assert not out.exists()
    assert main(["energy", "--group", group, "--h", h, "--norm", "trivial",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("group,h", [
    ("bar:sn:3", "((1 2);());((1 2 3);())"),
    ("wreath:sn:3:zn:3", "{0:(1 2)};{0:(1 2 3)}")])
def test_energy_default_norm_names_the_trivial_norm(group, h, tmp_path, capsys):
    # a displacer exists here, and the default is still refused before the search
    family = group.split(":")[0].replace("wreath", "wreath-zn")
    out = tmp_path / "e.json"
    assert main(["energy", "--group", group, "--h", h, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: support norm undefined for family {family!r}; "
        f"--norm defaults to support, so pass --norm trivial\n")
    assert not out.exists()
    assert main(["energy", "--group", group, "--h", h, "--norm", "trivial",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["group"] == group


def test_energy_with_trivial_norm_does_not_enumerate(tmp_path, monkeypatch):
    def enumerate_all(d):
        raise AssertionError("energy built a table over the whole group")
    monkeypatch.setattr("cinorm.cli.trivial_norm_table", enumerate_all)
    out = tmp_path / "e.json"
    assert main(["energy", "--group", "sn:6", "--h", "(1 2);(1 2 3)",
                 "--norm", "trivial", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["energies"][0]["value"] == "1/1"


def test_packing_command_is_not_capped_by_m(tmp_path):
    # the default --m 2 once capped the clique at 3 and left S9 not exhausted
    out = tmp_path / "p.json"
    assert main(["packing", "--group", "sn:9", "--h", "(1 2);(1 2 3)",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    golden = Path(__file__).parent / "golden" / "verify-packing-s9.json"
    suite = json.loads(golden.read_text())["checks"][0]["detail"]
    assert rep["p"] == suite["p"] == 3 and rep["exhausted"]
    assert rep["witnesses"] == suite["witnesses"]


def test_packing_help_has_no_m(capsys):
    # packing once took --m and ignored it; now --m is a usage error
    assert main(["packing", "--help"]) == 0
    assert "--m" not in capsys.readouterr().out


def test_fcomm_command(tmp_path):
    out = tmp_path / "f.json"
    assert main(["fcomm", "--base", "sn:3", "--m", "2", "--seed", "3",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["verified"] and rep["factor_count"] <= 7
    assert len(rep["factors"]) == rep["factor_count"]
    assert {"f", "h", "value"} <= set(rep["factors"][0])


def test_qm_commands(tmp_path):
    out = tmp_path / "qm.json"
    assert main(["qm", "defect", "--pattern", "a b", "--budget", "200",
                 "--seed", "7", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["certified"] == "sampled_lower_bound" and rep["seed"] == 7
    assert main(["qm", "scl-bounds", "--word", "a b A B",
                 "--defect-upper", "6", "--n-max", "64",
                 "--out", str(out)]) == 0
    rep2 = json.loads(out.read_text())
    assert rep2["lower"] == "29/768"  # (1 - 6/64) / (4 * 6)


@pytest.mark.parametrize("action", ["scl-bounds", "homogenize"])
def test_qm_negative_defect_upper_exits_2(action, tmp_path, capsys):
    out = tmp_path / "qm.json"
    assert main(["qm", action, "--word", "B A b a", "--defect-upper=-1",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "negative" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["scl-bounds", "homogenize"])
@pytest.mark.parametrize("value", ["1/0", "x", "", "1/2/3"])
def test_qm_unparsable_defect_upper_is_a_usage_error(action, value, tmp_path, capsys):
    # parsed once as an exact Fraction: 1/0 once ended in a ZeroDivisionError
    # traceback with exit 1, the check-failure code
    out = tmp_path / "qm.json"
    assert main(["qm", action, "--defect-upper", value, "--out", str(out)]) == 2
    assert not out.exists()
    assert "--defect-upper: expected a fraction" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["scl-bounds", "homogenize"])
def test_qm_power_above_the_guard_exits_3(action, tmp_path, capsys):
    out = tmp_path / "qm.json"
    n = ENUMERATION_GUARD // 4 + 1
    assert main(["qm", action, "--word", "a b A B", "--defect-upper", "6",
                 "--n-max", str(n), "--out", str(out)]) == 3
    assert not out.exists()
    assert f"{4 * n} letters" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["packing", "--group", "sn:4", "--h", "(1 2);(1 2 3)",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unwritable_cache_dir_warns_and_emits_the_table(tmp_path, monkeypatch, capsys):
    # the cache only saves time: a failed write warns and keeps the table
    args = ["qk", "--group", "sn:4", "--k", "(1 2)"]
    assert main(args) == 0
    fresh = capsys.readouterr().out
    # a cache directory below a plain file cannot be made
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("CINORM_CACHE_DIR", str(tmp_path / "file" / "cache"))
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: ")
    assert captured.out == fresh


@pytest.mark.parametrize("args", [
    ["qk", "--group", "an:5", "--k", "(1 2 3)"],
    ["qk", "--group", "sn:4", "--k", "(1 2)", "--format", "tsv"],
    ["cl", "--group", "sn:4"],
    ["cl", "--group", "an:4", "--format", "tsv"],
    ["norm-verify", "--group", "sn:3"],
])
def test_stdout_and_out_file_carry_the_same_bytes(args, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main(args + ["--out", str(out)]) in (0, 1)
    assert capsys.readouterr().out == ""
    assert main(args) in (0, 1)
    assert capsys.readouterr().out == out.read_text()


def test_cache_roundtrip_and_eviction(tmp_path):
    key = cache_key("an:5", "q_K", ("(1 2 3 4 5)",))
    payload = {"hello": [1, 2, 3]}
    path = cache_put(key, payload)
    assert cache_get(key) == payload
    # version bump misses
    other = cache_key("an:5", "q_K", ("(1 2 3 4 5)",), version="9.9.9")
    assert other != key
    assert cache_get(other) is None
    # corruption evicts
    path.write_text(path.read_text().replace("hello", "hacked"))
    assert cache_get(key) is None
    assert not path.exists()


def test_cache_keys_follow_the_source_digest(tmp_path):
    # __version__ is one string on every commit and every checkout shares
    # the default directory, so keys by version alone read one revision's
    # tables in another
    import shutil
    from cinorm import cache

    copy = tmp_path / "cinorm"
    shutil.copytree(Path(cache.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert cache._code_version(copy) == cache._CODE_VERSION
    (copy / "norms.py").write_text((copy / "norms.py").read_text() + "# edited\n")
    edited = cache._code_version(copy)
    assert edited != cache._CODE_VERSION
    assert edited.startswith(f"{cinorm.__version__}+")
    args = ("sn:4", "q_K", ("(1 2)",))
    key = cache_key(*args)
    assert key == cache_key(*args, version=cache._CODE_VERSION)
    assert cache_key(*args, version=edited) != key
    cache_put(key, {"rows": [1]})
    assert cache_get(cache_key(*args, version=edited)) is None
    assert cache_get(key) == {"rows": [1]}


def test_cache_put_concurrent_writers():
    # more writers than cores, and frequent thread switches, on one key
    key = cache_key("an:5", "q_K", ("(1 2 3 4 5)",))
    payload = {"hello": list(range(100))}
    errors = []

    def writer():
        try:
            for _ in range(30):
                cache_put(key, payload)
        except Exception as exc:  # collected: a thread's raise would be lost
            errors.append(exc)
    threads = [threading.Thread(target=writer) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cache_get(key) == payload
    assert [p.name for p in cache_dir().iterdir()] == [f"{key}.json"]  # no temp left


def test_failed_cache_put_leaves_no_temp_file(capsys):
    # a directory where the entry should go: the replace fails
    args = ["qk", "--group", "sn:4", "--k", "(1 2)"]
    key = cache_key("sn:4", "q_K", ("(1 2)",))
    (cache_dir() / f"{key}.json").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        cache_put(key, {"hello": [1]})
    assert [p.name for p in cache_dir().iterdir()] == [f"{key}.json"]
    # a miss, not an entry: stats count regular files only, clear leaves it
    assert cache_get(key) is None
    assert cache_stats()["entries"] == 0 and cache_stats()["bytes"] == 0
    # qk still warns, emits the table and exits 0
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: ")
    d = symmetric(4)
    assert captured.out == norm_table_to_json(qk_norm(d, [perm_from_cycles(d, (1, 2))]))
    assert [p.name for p in cache_dir().iterdir()] == [f"{key}.json"]
    assert cache_clear() == 0 and (cache_dir() / f"{key}.json").is_dir()


def test_python_dash_m_runs_the_cli():
    src = str(Path(cinorm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-m", "cinorm", "cld", "--group", "sn:3"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0
    assert run.stdout == "1/1\n"


def test_suite_console_follows_redirected_stdout(tmp_path):
    # the per-check timing lines go to whatever sys.stdout is at call time
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["verify", "--suite", "aff-z",
                     "--out", str(tmp_path / "r.json")]) == 0
    lines = buf.getvalue().splitlines()
    assert lines and all(re.fullmatch(r"\[aff-z\] \S+: ok \(\d+\.\d{3}s\)", line)
                         for line in lines)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nope", ExperimentConfig(), console=io.StringIO())


# each command takes exactly the options its branch of the CLI reads
OPTIONS = {
    "qk": {"--group", "--k", "--out", "--format"},
    "cl": {"--group", "--out", "--format"},
    "cld": {"--group"},
    "norm-verify": {"--group", "--norm", "--out"},
    "packing": {"--group", "--h", "--out"},
    "energy": {"--group", "--h", "--norm", "--m", "--out"},
    "fcomm": {"--base", "--seed", "--m", "--out"},
    "qm": {"action", "--pattern", "--word", "--defect-upper", "--seed", "--budget",
           "--n-max", "--out"},
    "verify": {"--suite", "--seed", "--threads", "--out"},
    "cache": {"action"},
}


def test_each_command_takes_only_the_options_it_reads():
    (commands,) = [a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    found = {name: {a.option_strings[0] if a.option_strings else a.dest
                    for a in p._actions if not isinstance(a, argparse._HelpAction)}
             for name, p in commands.choices.items()}
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 36
    assert [f.name for f in fields(ExperimentConfig)] == ["seed", "threads"]


def test_one_parser_per_process_keeps_usage_errors_and_version(capsys):
    # main reuses one parser: a good call between two bad ones must not
    # change how the second is refused
    _build_parser.cache_clear()
    bad = ["energy", "--group", "sn:5", "--h", "(1 2)", "--m", "0"]
    assert main(bad) == 2
    assert main(["nope"]) == 2
    assert main(["cld", "--group", "sn:3"]) == 0
    assert main(bad) == 2
    assert main(["nope"]) == 2
    assert main(["cld", "--group", "sn:3", "--m", "2"]) == 2
    capsys.readouterr()
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == cinorm.__version__
    assert _build_parser.cache_info().misses == 1
    test_each_command_takes_only_the_options_it_reads()


@pytest.mark.parametrize("args", [
    ["cld", "--group", "an:5", "--out", "f"],
    ["norm-verify", "--group", "sn:3", "--format", "tsv"],
    ["packing", "--group", "sn:4", "--h", "(1 2);(1 2 3)", "--m", "5"],
    ["qk", "--group", "an:5", "--k", "(1 2 3)", "--seed", "1"],
    ["verify", "--suite", "aff-z", "--budget", "5"],
    ["fcomm", "--threads", "2"],
], ids=lambda args: f"{args[0]}{args[-2]}")
def test_unread_option_exits_2(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # cld --out f wrote no f


@pytest.mark.parametrize("args", [
    ["energy", "--group", "sn:5", "--h", "(1 2)", "--m", "0"],
    ["energy", "--group", "sn:5", "--h", "(1 2)", "--m", "-2"],
    ["fcomm", "--m", "0"],
    ["verify", "--suite", "aff-z", "--threads", "0"],
    ["qm", "defect", "--budget", "0"],
    ["qm", "homogenize", "--n-max", "0"],
    ["qm", "scl-bounds", "--defect-upper", "3", "--n-max", "-1"],
    ["fcomm", "--m", "two"],
])
def test_integer_options_must_be_positive(args, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(args + ["--out", str(out)]) == 2
    assert "expected a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_config_echo_with_a_nonzero_seed(tmp_path):
    # the keys and values reports had when verify also took --budget,
    # --n-max, --m and --format
    echo = {"budget": 1000, "elements": None, "format": "json", "group": None,
            "m": 2, "n_max": 32, "seed": 5}
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "aff-z", "--seed", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == echo
    _, report = run_suite("aff-z", ExperimentConfig(seed=5), console=io.StringIO())
    assert report["config"] == echo


def test_exhaustive_rearrangement_suite_catches_an_input_the_seeded_one_misses(monkeypatch):
    # the seeded suite draws 1000 of the 258 inputs (m = 1..3 over S3) with
    # repeats; a mutant wrong on one input it never draws passes it, and
    # the exhaustive suite fails on that input alone
    from itertools import product as tuples

    from cinorm import cli, enumerate_elements

    solve = cli.solve_rearrange_id
    drawn = set()

    def recording(env, gs):
        drawn.add(tuple(gs[:-1]))
        return solve(env, gs)
    monkeypatch.setattr(cli, "solve_rearrange_id", recording)
    seeded = run_suite("rearrange-id", ExperimentConfig(), console=io.StringIO())
    assert seeded[0] == 0
    elems = enumerate_elements(symmetric(3))
    inputs = [gs for m in (1, 2, 3) for gs in tuples(elems, repeat=m)]
    assert len(inputs) == 258 and drawn < set(inputs)
    missed = next(gs for gs in inputs if gs not in drawn and not gs[0].is_identity())

    def mutant(env, gs):
        sol, c = solve(env, gs)
        if tuple(gs[:-1]) == missed:  # component 0 should be g_1, not 1
            one = cinorm.identity(env.base)
            sol = replace(sol, components=(one,) + sol.components[1:])
        return sol, c
    monkeypatch.setattr(cli, "solve_rearrange_id", mutant)
    assert run_suite("rearrange-id", ExperimentConfig(), console=io.StringIO()) == seeded
    code, report = run_suite("rearrange-id-all", ExperimentConfig(), console=io.StringIO())
    assert code == 1 and not report["passed"]
    (row,) = report["checks"]
    assert row["witness"] == {"gs": [cinorm.to_literal(g) for g in missed], "k": 0}
    assert row["detail"]["inputs"] == inputs.index(missed)
    monkeypatch.setattr(cli, "solve_rearrange_id", solve)
    code, report = run_suite("rearrange-id-all", ExperimentConfig(), console=io.StringIO())
    assert code == 0 and report["checks"][0]["detail"] == {"inputs": 258}


def _replacing(**fields):
    """A wrapper of a library call whose result has ``fields`` replaced."""
    return lambda orig: lambda *args: replace(orig(*args), **fields)


def _rearranged_to_identity(orig):
    def solve(env, gs):
        sol, c = orig(env, gs)
        one = cinorm.identity(env.base)
        return replace(sol, components=tuple(one for _ in sol.components)), c
    return solve


# case -> (library call broken, how, {failing check: its witness keys}),
# each case named by its suite (and a tag where a suite has two); every
# other check of the suite still passes
BROKEN_SUITES = {
    "elementary-sl": ("cinorm.cli.commutator_of", lambda orig: lambda a, b: a,
                      {"slz3:e13=[e12,e23^p]": {"p", "lhs"},
                       "slz4:e13=[e12,e23^p]": {"p", "lhs"},
                       "slz4:e24=[e23,e34^p]": {"p", "lhs"}}),
    "aff-z": ("cinorm.cli.invert", lambda orig: lambda g: g,
              {"affz:presentation": {"relation"}}),
    # t becomes the identity and z the involution z t
    "aff-z:swapped": ("cinorm.cli.affz_element", lambda orig: lambda a, e=0: orig(a, 1 - e),
                      {"affz:conjugation": {"n", "lhs"}, "affz:commutator": {"n"}}),
    "seven-fcomm": ("cinorm.cli.two_commutator_witness", _replacing(verified=False),
                    {"seven-fcomm:100-seeded": {"m", "pairs"}}),
    "rearrange-id": ("cinorm.cli.solve_rearrange_id", _rearranged_to_identity,
                     {"rearrange:1000-seeded": {"k"}}),
    "rearrange-id-all": ("cinorm.cli.solve_rearrange_id", _rearranged_to_identity,
                         {"rearrange:all-m1-3": {"gs", "k"}}),
    "qk-a5": ("cinorm.cli.verify_norm_axioms", _replacing(passed=False),
              {"qk-a5:axioms": {"violations"}}),
    "bar-splitting": ("cinorm.cli.verify_bar_splitting", _replacing(passed=False),
                      {"bar:power-splitting": {"w", "failures"}}),
    "bar-defect": ("cinorm.cli.bar_defect_decomposition", _replacing(ok=False),
                   {"bar:defect-decomposition": {"h", "f", "lhs", "rhs"}}),
    "witness-additivity": ("cinorm.cli.verify_witness_additivity", _replacing(ok=False),
                           {"additivity:combined-witness": {"combined", "parts"}}),
    "stabilization": ("cinorm.norms.stabilization_upper",
                      lambda orig: lambda norm, f, n_max: replace(
                          orig(norm, f, n_max), exact_zero=False, upper=n_max),
                      {"stabilization:torsion-zero": {"element"},
                       "stabilization:antitone": {"n_max"}}),
    "displacement-s9": ("cinorm.cli.verify_master_inequalities",
                        lambda orig: lambda *args, **kw: replace(
                            orig(*args, **kw), ok=False),
                        {"displacement-s9:master": {"failing"}}),
    "packing-s6": ("cinorm.cli.packing_number",
                   lambda orig: lambda d, h: replace(orig(d, h), exhausted=False),
                   {"packing-s6:p=2": {"p", "exhausted", "witnesses"}}),
    "packing-s9": ("cinorm.cli.packing_number",
                   lambda orig: lambda d, h: replace(orig(d, h), p=2),
                   {"packing-s9:p=3": {"p", "exhausted", "witnesses"}}),
    "negative-control": (None, None,
                         {"negative-control:always-fails": {"group", "element"}}),
}


def test_every_suite_has_a_broken_case():
    assert {case.partition(":")[0] for case in BROKEN_SUITES} == set(cinorm.cli.SUITES)


@pytest.mark.parametrize("case", sorted(BROKEN_SUITES))
def test_a_broken_library_call_fails_its_suite_with_a_witness(case, tmp_path, monkeypatch,
                                                              capsys):
    target, breaking, failing = BROKEN_SUITES[case]
    suite = case.partition(":")[0]
    if target is not None:
        module, _, name = target.rpartition(".")
        monkeypatch.setattr(target, breaking(getattr(sys.modules[module], name)))
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    for row in report["checks"]:
        assert row["ok"] is (row["name"] not in failing), row["name"]
        if not row["ok"]:
            assert set(row["witness"]) == failing[row["name"]]
    assert {row["name"] for row in report["checks"]} >= set(failing)
    assert "FAIL" in capsys.readouterr().out
