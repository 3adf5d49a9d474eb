"""Whole-group tables of a rule (trivial and support norms): made without
their values, read as the rule until ``values`` is first read, and from
then on ordinary dict tables."""

import pickle
from fractions import Fraction

import pytest

from cinorm import (
    GuardExceededError,
    NormTable,
    SubgroupSpec,
    disjunction_energy,
    displacement_energy,
    enumerate_elements,
    fcomm_norm_bound,
    find_strong_displacer,
    identity,
    parse_descriptor,
    perm_from_cycles,
    seven_fcommutators,
    stabilization_upper,
    support_norm,
    support_norm_table,
    symmetric,
    trivial_norm,
    trivial_norm_table,
    verify_master_inequalities,
    wreath_environment,
)
from cinorm import displacement, enumeration

RULES = [(trivial_norm_table, trivial_norm), (support_norm_table, support_norm)]


def _unread(table):
    return "values" not in vars(table)


@pytest.fixture
def no_enumeration(monkeypatch):
    # nothing is kept, so every enumeration of a group reaches _enumerate
    def refuse(*args):
        raise AssertionError("enumerated G")
    monkeypatch.setattr(enumeration, "_KEPT_ORDER", 0)
    monkeypatch.setattr(enumeration, "_enumerate", refuse)


@pytest.mark.parametrize("build", [trivial_norm_table, support_norm_table])
def test_scans_over_an_unread_table_enumerate_nothing(build, no_enumeration):
    # S7 is above the order at which the master inequalities tabulate cl_G
    d = symmetric(7)
    h = SubgroupSpec((perm_from_cycles(d, (1, 2)), perm_from_cycles(d, (1, 2, 3))))
    h2 = SubgroupSpec((perm_from_cycles(d, (3, 4, 5)),))
    table = build(d)
    for m in (1, 2):
        displacement_energy(d, h, m, table)
        assert find_strong_displacer(d, h, m).found == (m == 1)  # 3 (m + 1) <= 7
    disjunction_energy(d, h, h2, table)
    assert verify_master_inequalities(d, h, 1, table).ok
    assert stabilization_upper(table, perm_from_cycles(d, (1, 2, 3)), 4).exact_zero
    assert _unread(table)
    with pytest.raises(AssertionError, match="enumerated G"):
        table.values


def test_the_shift_bound_over_an_unread_table_enumerates_nothing(no_enumeration):
    s3 = symmetric(3)
    env = wreath_environment(s3, capacity=2)
    dec = seven_fcommutators(env, [(perm_from_cycles(s3, (1, 2, 3)),
                                    perm_from_cycles(s3, (1, 2)))])
    table = trivial_norm_table(env.ambient)
    assert fcomm_norm_bound(dec, env, table) == fcomm_norm_bound(dec, env, trivial_norm)
    assert _unread(table)


def test_refusals_come_at_the_call(no_enumeration):
    # the guard and the support norm's family, before any values are read
    with pytest.raises(GuardExceededError, match=r"^\|sn:8\| = 40320 exceeds the guard 100$"):
        trivial_norm_table(symmetric(8), limit=100)
    for text in ("slp:2:3", "bar:sn:3", "wreath:sn:3:zn:2", "product:sn:3,sn:3"):
        family = parse_descriptor(text).family
        with pytest.raises(ValueError, match=f"^support norm undefined for family '{family}'$"):
            support_norm_table(parse_descriptor(text))


def _subgroups(d):
    # two non-identity elements of G and the last element, in payload order
    elems = enumerate_elements(d)
    return SubgroupSpec(tuple(elems[1:3])), SubgroupSpec((elems[-1],))


def _results(d, norm):
    h, h2 = _subgroups(d)
    out = [displacement_energy(d, h, m, norm) for m in (1, 2)]
    out.append(disjunction_energy(d, h, h2, norm))
    out.append(verify_master_inequalities(d, h, 1, norm))
    return out


@pytest.mark.parametrize("text", ["sn:5", "sn:6", "sn:7", "an:6", "slp:3:2", "bar:sn:3",
                                  "product:sn:3,sn:3", "wreath:sn:3:zn:2"])
def test_unread_read_and_rule_agree(text):
    d = parse_descriptor(text)
    for build, rule in RULES[:1 + (d.family in ("sn", "an"))]:
        table = build(d)
        unread = _results(d, table)
        assert _unread(table)
        assert len(table.values) == len(enumerate_elements(d))
        assert unread == _results(d, table) == _results(d, rule)


def test_an_edited_value_is_the_one_read():
    d = symmetric(6)
    h = SubgroupSpec((perm_from_cycles(d, (1, 2)), perm_from_cycles(d, (1, 2, 3))))
    table = trivial_norm_table(d)
    e = displacement_energy(d, h, 1, table)
    assert e.value == 1
    table.values[e.minimizer] = Fraction(1, 2)
    assert displacement_energy(d, h, 1, table) == displacement_energy(d, h, 1, table.values.get)
    assert displacement_energy(d, h, 1, table).value == Fraction(1, 2)
    assert displacement._floor(d, table) == Fraction(1, 2)
    # values assigned before any read replace the rule too
    part = trivial_norm_table(d)
    part.values = {identity(d): Fraction(0)}
    with pytest.raises(ValueError, match="^the norm table covers 1 elements, not all 720"):
        displacement_energy(d, h, 1, part)


def test_the_first_read_is_the_enumerated_table():
    d = symmetric(8)
    table = trivial_norm_table(d)
    values = table.values
    assert values is table.values and not _unread(table)
    assert list(values.items()) == [(g, int(not g.is_identity()))
                                    for g in enumerate_elements(d)]
    assert isinstance(table, NormTable) and table.meta.name == "trivial"
    twin = pickle.loads(pickle.dumps(trivial_norm_table(d)))  # a pickle carries the rule
    assert _unread(twin) and list(twin.values.items()) == list(values.items())


@pytest.mark.parametrize("text", [f"{f}:{n}" for f in ("sn", "an") for n in range(1, 9)])
def test_diameters_match_the_enumerated_maximum(text):
    d = parse_descriptor(text)
    for build, rule in RULES:
        assert build(d).meta.diameter == max(map(rule, enumerate_elements(d)))


def test_a_trivial_group_has_diameter_zero():
    for d in map(parse_descriptor, ("sn:1", "an:2", "product:sn:1,an:2")):
        assert trivial_norm_table(d).meta.diameter == 0
