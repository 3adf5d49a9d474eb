import random

import pytest
from hypothesis import given, settings, strategies as st

from cinorm import (
    aff_z,
    enumerate_elements,
    affz_element,
    bar,
    binary_word,
    free_group,
    free_word,
    from_literal,
    identity,
    parse_descriptor,
    perm_from_cycles,
    product,
    sl_mod,
    sl_z,
    symmetric,
    to_literal,
    wreath_element,
    wreath_zn,
    z2_infinity,
)
from cinorm.cli import main
from cinorm.sampling import random_element

S3 = symmetric(3)

CASES = [
    (symmetric(5), "(1 2)(3 4 5)"),
    (symmetric(5), "()"),
    (free_group(2), "a b A"),
    (free_group(2), "1"),
    (aff_z(), "z^3 t"),
    (aff_z(), "z^-2"),
    (aff_z(), "t"),
    (z2_infinity(), "1011"),
    (sl_z(2), "[[1,5],[0,1]]"),
    (wreath_zn(S3, 3), "{0:(1 2); 2:(1 3)}s^1"),
    (bar(S3), "((1 2);(1 3))t"),
    (bar(S3), "((1 2 3);())"),
    (product(S3, free_group(2)), "((1 2);a b)"),
]


@pytest.mark.parametrize("d,text", CASES)
def test_parse_format_round_trip(d, text):
    e = from_literal(d, text)
    assert from_literal(d, to_literal(e)) == e


def test_specific_values():
    assert from_literal(aff_z(), "z^3 t") == affz_element(3, 1)
    assert from_literal(free_group(2), "a b A") == free_word(free_group(2), (1, 2, -1))
    assert from_literal(z2_infinity(), "10110") == binary_word((1, 0, 1, 1))
    assert from_literal(symmetric(4), "1") == identity(symmetric(4))
    assert to_literal(identity(symmetric(4))) == "()"
    assert to_literal(perm_from_cycles(symmetric(4), (1, 2), (3, 4))) == "(1 2)(3 4)"


def test_repeated_wreath_coordinate_composes_its_lamps():
    # a repeated coordinate, written directly or modulo the ring, composes
    # its lamps in order, as wreath_element does with the same pairs
    d = wreath_zn(S3, 3)
    a, b = perm_from_cycles(S3, (1, 2)), perm_from_cycles(S3, (1, 3))
    expected = wreath_element(d, [(0, a), (0, b)])
    assert to_literal(expected) == "{0:(1 3 2)}s^0"
    assert from_literal(d, "{0:(1 2); 0:(1 3)}") == expected
    assert from_literal(d, "{0:(1 2); 3:(1 3)}") == expected
    assert from_literal(d, "{0:(1 3); 0:(1 2)}") == wreath_element(d, [(0, b), (0, a)])
    assert from_literal(d, "{1:(1 2); 1:(1 2)}") == identity(d)


def test_bad_literals():
    with pytest.raises(ValueError):
        from_literal(symmetric(3), "(1 5)")
    with pytest.raises(ValueError):
        from_literal(free_group(1), "a b")  # b outside rank-1 alphabet
    with pytest.raises(ValueError):
        from_literal(z2_infinity(), "102")


@pytest.mark.parametrize("text,point", [
    ("(1 1)", 1), ("(1 2 2)", 2), ("(2 2)(1 3)", 2), ("(1 2)(2 3)", 2), ("(1)(1 2)", 1)])
def test_repeated_cycle_point_is_refused(text, point):
    with pytest.raises(ValueError, match=f"^bad or overlapping cycle point {point}$"):
        from_literal(symmetric(5), text)


def test_one_cycles_fix_their_point():
    S5 = symmetric(5)
    assert from_literal(S5, "(1)") == identity(S5)
    assert from_literal(S5, "(1)(2 3)") == perm_from_cycles(S5, (2, 3))
    assert perm_from_cycles(S5, (0,), (1, 2), one_based=False) == perm_from_cycles(S5, (2, 3))
    with pytest.raises(ValueError, match="^bad or overlapping cycle point 0$"):
        perm_from_cycles(S5, (0, 0), one_based=False)


def test_repeated_cycle_point_exits_2(capsys):
    assert main(["energy", "--group", "sn:5", "--h", "(1 1 2)"]) == 2
    assert "bad or overlapping cycle point 1" in capsys.readouterr().err


# the kept literal index of serialize relies on both properties
INDEXED_GROUPS = ([f"sn:{n}" for n in range(1, 7)] + [f"an:{n}" for n in range(3, 7)]
                  + ["slp:2:5", "slp:3:2", "bar:sn:3", "product:sn:3,sn:3",
                     "wreath:sn:3:zn:2"])


@pytest.mark.parametrize("name", INDEXED_GROUPS)
def test_canonical_literals_are_distinct_and_parse_back(name):
    d = parse_descriptor(name)
    elems = enumerate_elements(d)
    lits = [to_literal(g) for g in elems]
    assert len(set(lits)) == len(elems)
    assert [from_literal(d, lit) for lit in lits] == elems


@pytest.mark.parametrize("text", [
    "[[1.5,0],[0,1]]", "[[true,0],[0,1]]", "[[1,0],[0,1.0]]", "5", "[1,2]",
    "[[1,2],3]", "[[1,0]]", "[[1,0],[0,1],[0,0]]", "[[1,0,0],[0,1]]",
    '[["1",0],[0,1]]', "[[1,0],[0,null]]", "{}", "[[1,0],[0,1]"])
@pytest.mark.parametrize("group", [sl_mod(2, 5), sl_z(2)], ids=str)
def test_malformed_matrix_literals(group, text):
    with pytest.raises(ValueError):
        from_literal(group, text)


def test_malformed_matrix_literal_exits_2(capsys):
    assert main(["energy", "--group", "slp:2:5", "--h", "[[1.5,0],[0,1]]"]) == 2
    assert "bad matrix literal" in capsys.readouterr().err


FAMILIES = [d for d, _ in CASES]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(FAMILIES))), st.integers(0, 10 ** 9))
def test_round_trip_random(idx, seed):
    d = FAMILIES[idx]
    e = random_element(d, random.Random(seed), size=5)
    assert from_literal(d, to_literal(e)) == e
