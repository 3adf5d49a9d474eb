"""The README against the code: every example command of its command-line
section runs and exits 0, the options table lists exactly the options and
actions each command's parser takes, and the figures its finite-group kernel
section quotes are the kernel's own bounds."""

import argparse
import math
import re
import shlex
from pathlib import Path

import pytest

from cinorm import enumeration, kernel
from cinorm.cli import _build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SECTION = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
KERNEL = " ".join(README.split("## Finite-group kernel", 1)[1].split("\n## ", 1)[0].split())
EXAMPLES = [shlex.split(line, comments=True)
            for line in re.search(r"```sh\n(.*?)```", SECTION, re.DOTALL)[1].splitlines()
            if line.startswith("cinorm ")]


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_readme_example_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # `--out table.json` lands here
    monkeypatch.setenv("CINORM_CACHE_DIR", str(tmp_path / "cache"))
    assert argv[0] == "cinorm"
    assert main(argv[1:]) == 0


def _table() -> dict:
    """``{command: (actions, options)}`` from the README's options table."""
    rows = {}
    for line in SECTION.splitlines():
        if not line.startswith("| `"):
            continue
        cells = re.split(r"(?<!\\)\|", line)
        name, *actions = cells[1].strip().strip("`").replace("\\|", "|").split()
        rows[name] = (set(actions[0].split("|")) if actions else set(),
                      set(re.findall(r"--[a-z-]+", cells[2])))
    return rows


def _parsers() -> dict:
    """``{command: (actions, options)}`` from :func:`cinorm.cli._build_parser`."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    rows = {}
    for name, p in sub.choices.items():
        actions, options = set(), set()
        for a in p._actions:
            if a.option_strings:
                options.update(s for s in a.option_strings if s not in ("-h", "--help"))
            else:
                actions.update(a.choices)
        rows[name] = (actions, options)
    return rows


def test_readme_examples_were_found():
    assert len(EXAMPLES) >= 10
    assert {argv[1] for argv in EXAMPLES} == set(_parsers())


def test_readme_options_table_matches_the_parser():
    assert _table() == _parsers()


def test_readme_kernel_figures_match_the_code():
    # tables up to order 2048, 16 cached groups, element lists up to 8!
    bound, cached = kernel.TABLE_BOUND, enumeration._CACHE_SIZE
    assert f"the {cached} most recently used groups of order up to {bound} " \
        "stay cached" in KERNEL
    assert f"for every kernel of order N ≤ {bound}, the whole table" in KERNEL
    assert f"a table costs at most {4 * bound ** 2 // 2 ** 20} MiB" in KERNEL
    kept = enumeration._KEPT_ORDER
    assert kept == math.factorial(8)
    assert f"the {cached} most recently used groups of order up to 8! = " \
        f"{kept // 1000} {kept % 1000:03d}" in KERNEL
