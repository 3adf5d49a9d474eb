"""Packing, displacement, seeded free-group and finite-group kernel reports
stay byte-identical to the stored ones.

The packing and displacement files under ``tests/golden/`` were written by
the full-scan searches that preceded the orbit-stabilizer ones.  The ``qm``
and the ``bar-defect`` / ``witness-additivity`` suite files were written
while ``random_word`` still drew each letter through ``randint`` and
``choice`` and free words were multiplied letter by letter.  The ``qk``,
``cl``, ``norm-verify`` and ``qk-a5`` files were written while subset
kernels still kept their Cayley-table rows one at a time; ``qk-an7-k3`` is
on a group of order 2520, above ``kernel.TABLE_BOUND``, so it runs on
payload products.  The ``elementary-sl``, ``rearrange-id``,
``seven-fcomm``, ``aff-z`` and ``bar-splitting`` suite files, the ``fcomm``
file and the ``cl`` / ``qk`` files on ``slp:3:2`` and ``slp:2:7`` were
written while each product and inverse still walked the family chain of
``_compose_payload`` / ``_invert_payload`` and every SL(n) inverse was a
Bareiss pass.  The ``wreath``, ``bar`` and ``slp:4:2`` packing and energy
files and the ``stabilization`` suite file were written while conjugates of
raw payloads were still made by a lambda built on each call and
``conjugate_of`` made two products and an inverse on every family.  Every
case here must reproduce them byte for byte.
"""

from pathlib import Path

import pytest

from cinorm.cli import SUITES, main

GOLDEN = Path(__file__).parent / "golden"
SYM123 = "(1 2);(1 2 3)"
TWISTED = "(1 2 3);(2 3)(4 5)"
# a fixed reduced 200-letter word of F2
WORD200 = (
    "a B a a B B a B B a b a a a b a B A B a a b a b A "
    "A b b b b A b a B B B a b a b A A b A b b A A A B "
    "A A B A b A A b b b b A B A b b a b a a b b A A B "
    "B B B A b A b b a B a a b a a a a b a b b A A A B "
    "a b A b A A b a a a b a b b a B B a B B B a a a a "
    "B A B A B B a a b a b A A b b A A b a a a a a b b "
    "A A b A A A b b b A b a B B a b a b A A B A B B B "
    "B B A A b A B a a b A A B A A A B B B A A A b b A"
)
# the elementary matrices E12 and E21 of SL(4, 2)
E12_E21 = ("[[1,1,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]];"
           "[[1,0,0,0],[1,1,0,0],[0,0,1,0],[0,0,0,1]]")

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
    "qm-defect-ab-seed7": ["qm", "defect", "--pattern", "a b", "--seed", "7",
                           "--budget", "400"],
    "qm-homogenize-ab-w200": ["qm", "homogenize", "--pattern", "a b", "--word", WORD200,
                              "--n-max", "32", "--defect-upper", "3"],
    # the README's lower bound 29/768
    "qm-scl-bounds-ab": ["qm", "scl-bounds", "--pattern", "a b", "--word", "a b A B",
                         "--defect-upper", "6", "--n-max", "64"],
    "verify-bar-defect": ["verify", "--suite", "bar-defect"],
    "verify-witness-additivity": ["verify", "--suite", "witness-additivity"],
    # the paper's A5 example
    "qk-an5-k5": ["qk", "--group", "an:5", "--k", "(1 2 3 4 5)"],
    "qk-an7-k3": ["qk", "--group", "an:7", "--k", "(1 2 3)"],
    "cl-slp-2-5": ["cl", "--group", "slp:2:5"],
    "norm-verify-sn4-support": ["norm-verify", "--group", "sn:4", "--norm", "support"],
    "verify-qk-a5": ["verify", "--suite", "qk-a5"],
    "verify-elementary-sl": ["verify", "--suite", "elementary-sl"],
    "verify-rearrange-id": ["verify", "--suite", "rearrange-id"],
    "verify-rearrange-id-all": ["verify", "--suite", "rearrange-id-all"],
    "verify-seven-fcomm": ["verify", "--suite", "seven-fcomm"],
    "verify-aff-z": ["verify", "--suite", "aff-z"],
    "verify-bar-splitting": ["verify", "--suite", "bar-splitting"],
    "fcomm-sn4-m3-seed5": ["fcomm", "--base", "sn:4", "--m", "3", "--seed", "5"],
    "cl-slp-3-2": ["cl", "--group", "slp:3:2"],
    "qk-slp-2-7-unipotent": ["qk", "--group", "slp:2:7", "--k", "[[1,1],[0,1]]"],
    "packing-wreath-sn3-zn4": ["packing", "--group", "wreath:sn:3:zn:4",
                               "--h", "{0:(1 2)};{0:(1 2 3)}"],
    "energy-bar-sn4-trivial": ["energy", "--group", "bar:sn:4",
                               "--h", "((1 2);());((1 2 3);())", "--m", "2",
                               "--norm", "trivial"],
    "packing-slp-4-2": ["packing", "--group", "slp:4:2", "--h", E12_E21],
    "verify-stabilization": ["verify", "--suite", "stabilization"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.setenv("CINORM_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / f"{name}.json"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_every_suite_has_a_golden():
    # negative-control always fails, and a golden case must exit 0
    covered = {args[2] for args in CASES.values() if args[:2] == ["verify", "--suite"]}
    assert covered == set(SUITES) - {"negative-control"}
