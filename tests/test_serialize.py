"""Norm table serialization through the kept literal index, against the
per-row ``to_literal`` / ``from_literal`` path it replaced, kept here as the
oracle."""

import random
import re
from fractions import Fraction

import pytest

from cinorm import (
    DescriptorMismatchError,
    NormTable,
    NormTableMeta,
    c_generates,
    commutator_length,
    commutator_length_over,
    enumerate_elements,
    from_literal,
    parse_descriptor,
    perm_from_cycles,
    qk_norm,
    subgroup_closure,
    support_norm,
    support_norm_table,
    symmetric,
    to_literal,
    trivial_norm_table,
)
from cinorm import enumeration, literals, serialize
from cinorm.serialize import (
    dumps,
    fraction_str,
    norm_table_from_payload,
    norm_table_payload,
    norm_table_to_json,
    parse_fraction,
)

GROUPS = ["sn:1", "sn:4", "an:5", "an:6", "slp:2:5", "slp:3:2", "bar:sn:3",
          "product:sn:3,sn:3", "wreath:sn:3:zn:2"]


# oracle: the former serializer, one to_literal per row and then the sort


def oracle_fraction_str(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def oracle_payload(table):
    rows = sorted((to_literal(g), oracle_fraction_str(v))
                  for g, v in table.values.items())
    meta = table.meta
    return {
        "group": str(table.descriptor),
        "norm": meta.name,
        "values": [[lit, val] for lit, val in rows],
        "meta": {
            "diameter": "unbounded" if meta.diameter is None
            else oracle_fraction_str(meta.diameter),
            "fine": meta.fine,
            "discrete": meta.discrete,
            "generator_set": list(meta.generator_set),
        },
    }


def c_generating_set(d, rng):
    elems = enumerate_elements(d)
    K = [rng.choice(elems[1:])] if len(elems) > 1 else elems
    while not c_generates(d, K):
        K.append(rng.choice(elems))
    return K


def tables_of(name):
    """Whole-group tables, cl over [G, G], and tables over a subgroup closure
    and its derived subgroup."""
    d = parse_descriptor(name)
    rng = random.Random(name)
    tables = [trivial_norm_table(d), qk_norm(d, c_generating_set(d, rng)),
              commutator_length(d)]
    if d.family in ("sn", "an"):
        tables.append(support_norm_table(d))
    elems = enumerate_elements(d)
    closure = subgroup_closure([rng.choice(elems) for _ in range(2)])
    tables.append(commutator_length_over(closure, d))
    values = {g: Fraction(i % 3, 2) for i, g in enumerate(sorted(closure, key=to_literal))}
    tables.append(NormTable(d, values, NormTableMeta("closure", diameter=None)))
    return tables


def assert_matches_oracle(table):
    payload = norm_table_payload(table)
    expected = oracle_payload(table)
    assert payload == expected
    assert norm_table_to_json(table) == dumps(expected)
    back = norm_table_from_payload(payload)
    assert list(back.values.items()) == sorted(table.values.items(),
                                               key=lambda kv: to_literal(kv[0]))
    assert norm_table_to_json(back) == dumps(expected)


@pytest.mark.parametrize("name", GROUPS)
def test_payloads_match_the_sort_path(name):
    for table in tables_of(name):
        assert_matches_oracle(table)


@pytest.mark.parametrize("name", ["sn:4", "slp:2:5", "bar:sn:3"])
def test_payloads_above_the_kept_order_match_the_sort_path(name, monkeypatch):
    tables = tables_of(name)  # the index of the group is kept by now
    monkeypatch.setattr(enumeration, "_KEPT_ORDER", 0)
    assert serialize._literal_index(parse_descriptor(name)) == ({}, {})
    for table in tables:
        assert_matches_oracle(table)


def test_infinite_group_tables_match_the_sort_path():
    d = parse_descriptor("free:2")
    values = {from_literal(d, w): Fraction(len(w.split())) for w in ("1", "a", "a B", "b A a")}
    assert_matches_oracle(NormTable(d, values, NormTableMeta("length")))


def test_kept_groups_format_and_parse_no_literal(monkeypatch):
    d = parse_descriptor("an:6")
    table = qk_norm(d, [perm_from_cycles(d, (1, 2, 3))])
    payload = norm_table_payload(table)  # builds the index

    def refuse(*args):
        raise AssertionError("literal formatted or parsed per row")
    monkeypatch.setattr(serialize, "to_literal", refuse)
    monkeypatch.setattr(serialize, "from_literal", refuse)
    assert norm_table_payload(table) == payload
    assert norm_table_from_payload(payload).values == table.values


# reading: any spelling from_literal accepts, and its errors


def respell(d, lit):
    """A non-canonical spelling of the same element."""
    if lit == "()":
        return "1"
    if d.family in ("sn", "an"):  # rotate every cycle, pad with spaces
        cycles = re.findall(r"\(([\d ]+)\)", lit)
        return " " + "".join(f"( {' '.join(c.split()[1:] + c.split()[:1])} )"
                             for c in cycles) + " "
    return f"  {lit} "


@pytest.mark.parametrize("name", ["sn:4", "an:5", "slp:2:5", "bar:sn:3",
                                  "product:sn:3,sn:3", "wreath:sn:3:zn:2"])
def test_non_canonical_spellings_give_the_same_table(name):
    d = parse_descriptor(name)
    table = trivial_norm_table(d)
    payload = norm_table_payload(table)
    spelled = dict(payload, values=[[respell(d, lit), v] for lit, v in payload["values"]])
    assert spelled["values"] != payload["values"]
    back = norm_table_from_payload(spelled)
    assert back.values == table.values
    assert norm_table_to_json(back) == norm_table_to_json(table)


@pytest.mark.parametrize("bad", ["(1 5)", "(1 1)", "(1 2 2)", "(1 2)(2 3)", "1 2", "[1]"])
def test_malformed_literal_raises_as_from_literal(bad):
    d = symmetric(4)
    with pytest.raises(ValueError) as expected:
        literals.from_literal(d, bad)
    payload = norm_table_payload(support_norm_table(d))
    rows = payload["values"]
    for at in (0, 7, len(rows) - 1):
        broken = dict(payload, values=rows[:at] + [[bad, rows[at][1]]] + rows[at + 1:])
        with pytest.raises(ValueError) as exc:
            norm_table_from_payload(broken)
        assert str(exc.value) == str(expected.value)


def test_malformed_value_raises_on_every_row():
    d = symmetric(3)
    payload = norm_table_payload(trivial_norm_table(d))
    for at in range(6):
        rows = [list(r) for r in payload["values"]]
        rows[at][1] = "1/0"
        with pytest.raises(ValueError, match=r"bad fraction '1/0'"):
            norm_table_from_payload(dict(payload, values=rows))


# fractions


@pytest.mark.parametrize("text", ["1/0", "3/", "/2", "", "x", "1/2/3", "1.5"])
def test_malformed_fraction_names_the_string(text):
    with pytest.raises(ValueError, match=re.escape(f"bad fraction {text!r}")):
        parse_fraction(text)


@pytest.mark.parametrize("text,value", [("3", Fraction(3)), ("-2/4", Fraction(-1, 2)),
                                        ("0/1", Fraction(0)), ("7/3", Fraction(7, 3))])
def test_fraction_strings_parse(text, value):
    assert parse_fraction(text) == value
    assert parse_fraction(fraction_str(value)) == value


def test_fraction_str_takes_fractions_and_integers():
    assert fraction_str(Fraction(6, 4)) == "3/2"
    assert fraction_str(Fraction(0)) == "0/1"
    assert fraction_str(5) == "5/1"
    assert fraction_str(support_norm(perm_from_cycles(symmetric(3), (1, 2)))) == "2/1"



# the literal memo: filled from the rows written, never from all of G


def test_cold_write_formats_only_the_rows_written(monkeypatch):
    d = parse_descriptor("sn:8")
    table = commutator_length_over(
        subgroup_closure([perm_from_cycles(d, (1, 2)), perm_from_cycles(d, (1, 2, 3))]), d)
    assert len(table.values) == 3
    enumeration._store.cache_clear()  # a cold process: nothing kept for S8
    calls = []

    def counting(g):
        calls.append(g)
        return to_literal(g)
    monkeypatch.setattr(serialize, "to_literal", counting)
    assert norm_table_payload(table) == oracle_payload(table)
    assert len(calls) == 3
    assert norm_table_payload(table) == oracle_payload(table)  # now memoized
    assert len(calls) == 3


def test_memo_holds_canonical_spellings_only():
    d = symmetric(4)
    enumeration._store.cache_clear()
    table = trivial_norm_table(d)
    payload = norm_table_payload(table)
    spelled = dict(payload, values=[[respell(d, lit), v] for lit, v in payload["values"]])
    for p in (spelled, payload, spelled):
        assert norm_table_from_payload(p).values == table.values
    literal_of, element_of = serialize._literal_index(d)
    assert len(literal_of) == len(element_of) == 24
    assert all(literal_of[g] == lit and element_of[lit] == g for lit, g in
               ((to_literal(g), g) for g in enumerate_elements(d)))


# rows that are not one [literal, value] pair per element


@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_an_element_named_twice_is_refused(at):
    payload = norm_table_payload(trivial_norm_table(symmetric(3)))
    rows = payload["values"]
    i = {"first": 0, "middle": 3, "last": len(rows)}[at]
    rows = rows[:i] + [["(2 1)", "5/1"]] + rows[i:]
    assert len(rows) == 7
    (j, a), (k, b) = sorted([(i, "(2 1)"), (rows.index(["(1 2)", "1/1"]), "(1 2)")])
    with pytest.raises(ValueError) as exc:
        norm_table_from_payload(dict(payload, values=rows))
    assert str(exc.value) == f"rows {j} and {k} name one element of sn:3: {a!r} and {b!r}"


@pytest.mark.parametrize("row", [["(1 2)"], ["(1 2)", "1/1", "2/1"], [], 7, None])
def test_a_row_that_is_not_a_pair_names_its_index(row):
    payload = norm_table_payload(trivial_norm_table(symmetric(3)))
    rows = payload["values"]
    for at in (0, 4, len(rows) - 1):
        broken = dict(payload, values=rows[:at] + [row] + rows[at + 1:])
        with pytest.raises(ValueError, match=re.escape(f"row {at} is not a [literal, value] pair")):
            norm_table_from_payload(broken)


@pytest.mark.parametrize("values", [5, None, "rows", {"()": "0/1"}])
def test_values_that_are_not_a_list_of_rows_are_refused(values):
    payload = norm_table_payload(trivial_norm_table(symmetric(3)))
    with pytest.raises(ValueError, match="the table's values are not a list of rows"):
        norm_table_from_payload(dict(payload, values=values))


def test_a_foreign_element_stays_out_of_the_memo():
    d, e = symmetric(3), symmetric(4)
    foreign = perm_from_cycles(e, (1, 4))
    table = NormTable(d, {foreign: Fraction(1)}, NormTableMeta("mixed"))
    # its literal would not parse back in sn:3, so the write is refused
    with pytest.raises(DescriptorMismatchError, match=re.escape("(1 4) of sn:4 in a norm table of sn:3")):
        norm_table_payload(table)
    literals, elements = serialize._literal_index(d)
    assert foreign not in literals and "(1 4)" not in elements
