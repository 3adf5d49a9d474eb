"""Packing and displacement reports stay byte-identical to the stored ones.

The files under ``tests/golden/`` were written by the full-scan searches
that preceded the orbit-stabilizer ones; every case here must reproduce
them byte for byte.
"""

from pathlib import Path

import pytest

from cinorm.cli import main

GOLDEN = Path(__file__).parent / "golden"
SYM123 = "(1 2);(1 2 3)"
TWISTED = "(1 2 3);(2 3)(4 5)"

CASES = {
    "verify-packing-s6": ["verify", "--suite", "packing-s6"],
    "verify-packing-s9": ["verify", "--suite", "packing-s9"],
    "verify-displacement-s9": ["verify", "--suite", "displacement-s9"],
    "packing-sn7": ["packing", "--group", "sn:7", "--h", SYM123],
    "energy-sn7-support": ["energy", "--group", "sn:7", "--h", SYM123,
                           "--m", "2", "--norm", "support"],
    "energy-sn7-trivial": ["energy", "--group", "sn:7", "--h", SYM123,
                           "--m", "2", "--norm", "trivial"],
    "packing-sn7-c": ["packing", "--group", "sn:7", "--h", "(3 7);(3 5 7)"],
    "packing-sn8-b": ["packing", "--group", "sn:8", "--h", TWISTED],
    "energy-sn8-b-support": ["energy", "--group", "sn:8", "--h", TWISTED,
                             "--m", "2", "--norm", "support"],
    "energy-sn8-b-trivial": ["energy", "--group", "sn:8", "--h", TWISTED,
                             "--m", "2", "--norm", "trivial"],
    # e_1 = 6 and e_2 = 9, while e_3 is infinite: S9 has no four pairwise
    # commuting conjugates of Sym{1,2,3}
    "energy-sn9-m3-support": ["energy", "--group", "sn:9", "--h", SYM123,
                              "--m", "3", "--norm", "support"],
    "packing-an8": ["packing", "--group", "an:8", "--h", "(1 2 3);(1 2)(3 4)"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.setenv("CINORM_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / f"{name}.json"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
