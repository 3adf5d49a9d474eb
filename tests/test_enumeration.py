"""Enumeration, closures and derived subgroups against brute-force oracles."""

import math
from itertools import product as iproduct

import pytest

from cinorm import (
    Element,
    GuardExceededError,
    InfiniteGroupError,
    SubgroupSpec,
    abelianization_order,
    aff_z,
    alternating,
    bar,
    compose,
    conjugacy_closure,
    derived_subgroup,
    elementary,
    enumerate_elements,
    free_group,
    in_class_g,
    invert,
    parse_descriptor,
    perm_from_cycles,
    product,
    sl_mod,
    sort_key,
    subgroup_closure,
    support_norm_table,
    symmetric,
    trivial_norm_table,
    wreath_zn,
)
from cinorm import enumeration
from cinorm.descriptors import _order_text, finite, order
from cinorm.elements import _perm_parity
from cinorm.kernel import commutator_indices, group_kernel

S3 = symmetric(3)
S4 = symmetric(4)
A5 = alternating(5)


def test_counts():
    assert len(enumerate_elements(S3)) == 6
    assert len(enumerate_elements(wreath_zn(S3, 3))) == 648
    assert len(enumerate_elements(bar(S3))) == 72


def test_enumeration_exact_and_sorted():
    for d in (S4, alternating(4), bar(S3), sl_mod(2, 3)):
        elems = enumerate_elements(d)
        assert len(elems) == len(set(elems))
        keys = [sort_key(e) for e in elems]
        assert keys == sorted(keys)


def test_slmod_enumeration_against_bruteforce():
    # independent oracle: all 3^4 matrices with ad - bc = 1 mod 3
    d = sl_mod(2, 3)
    expected = set()
    for a, b, c, e in iproduct(range(3), repeat=4):
        if (a * e - b * c) % 3 == 1:
            expected.add(((a, b), (c, e)))
    got = {m.payload for m in enumerate_elements(d)}
    assert got == expected
    assert len(got) == 24


def test_guards():
    with pytest.raises(InfiniteGroupError):
        enumerate_elements(free_group(2))
    with pytest.raises(GuardExceededError):
        enumerate_elements(symmetric(9), limit=100)


def test_subgroup_closures():
    assert subgroup_closure([perm_from_cycles(S3, (1, 2))]) == {
        Element(S3, (0, 1, 2)), Element(S3, (1, 0, 2))}
    s6 = symmetric(6)
    c = subgroup_closure([perm_from_cycles(s6, (1, 2)),
                          perm_from_cycles(s6, (1, 2, 3))])
    assert len(c) == 6
    sl25 = sl_mod(2, 5)
    c2 = subgroup_closure([elementary(sl25, 1, 2), elementary(sl25, 2, 1)])
    assert len(c2) == 120  # all of the group


def test_closure_guard():
    with pytest.raises(GuardExceededError):
        subgroup_closure([elementary(sl_mod(2, 5), 1, 2),
                          elementary(sl_mod(2, 5), 2, 1)], limit=50)


def test_conjugacy_closures():
    assert conjugacy_closure([Element(S4, (0, 1, 2, 3))], S4) == {
        Element(S4, (0, 1, 2, 3))}
    transpositions = conjugacy_closure([perm_from_cycles(S4, (1, 2))], S4)
    assert len(transpositions) == 6  # all of them


def test_five_cycle_closure_in_a5():
    # the inverse of a 5-cycle is an even-conjugate of it, so the closure is
    # one class of 12 (exhaustive conjugation is the defining computation)
    sigma = perm_from_cycles(A5, (1, 2, 3, 4, 5))
    closure = conjugacy_closure([sigma], A5)
    assert invert(sigma) in closure
    assert len(closure) == 12
    # oracle: direct orbit computation
    orbit = set()
    for phi in enumerate_elements(A5):
        orbit.add(compose(compose(phi, sigma), invert(phi)))
        orbit.add(compose(compose(phi, invert(sigma)), invert(phi)))
    assert closure == orbit


def test_derived_subgroups():
    ds4 = derived_subgroup(S4)
    evens = {e for e in enumerate_elements(S4) if not _perm_parity(e.payload)}
    assert ds4 == evens  # A_4, by the parity oracle
    assert len(derived_subgroup(A5)) == 60  # perfect
    # abelian models have trivial derived subgroup
    assert derived_subgroup(symmetric(2)) == {Element(symmetric(2), (0, 1))}
    assert len(derived_subgroup(alternating(3))) == 1


def oracle_commutator_pool(elements):
    """Every simple commutator ``a b a^-1 b^-1`` over all pairs of elements of
    a finite group, read from a Cayley table of one ``compose`` per pair."""
    elems = list(elements)
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[compose(a, b)] for b in elems] for a in elems]
    inv = [index[invert(a)] for a in elems]
    return {elems[table[ab][table[inv[a]][inv[b]]]]
            for a, row in enumerate(table) for b, ab in enumerate(row)}


@pytest.mark.parametrize("name", [
    "sn:2", "sn:3", "sn:4", "sn:5", "sn:6", "an:3", "an:4", "an:5", "an:6",
    "slp:2:3", "slp:2:5", "slp:2:7", "bar:sn:3", "product:sn:3,sn:3",
    "wreath:sn:2:zn:2", "wreath:sn:3:zn:3"])
def test_derived_subgroup_against_commutator_pool(name):
    # oracle: the subgroup generated by every simple commutator of G
    d = parse_descriptor(name)
    elems = enumerate_elements(d)
    oracle = subgroup_closure(oracle_commutator_pool(elems))
    assert derived_subgroup(d) == oracle
    assert abelianization_order(d) == len(elems) // len(oracle)


def test_derived_subgroup_guard():
    with pytest.raises(GuardExceededError):
        derived_subgroup(symmetric(8), limit=100)


def test_abelianization():
    assert abelianization_order(A5) == 1
    assert abelianization_order(S4) == 2
    assert abelianization_order(aff_z()) == 4
    assert abelianization_order(free_group(2)) is None
    assert abelianization_order(sl_mod(2, 5)) == 1
    assert in_class_g(aff_z())
    assert not in_class_g(free_group(2))
    # a product is infinite-abelianized exactly when a part is
    assert abelianization_order(product(S4, free_group(2))) is None
    assert not in_class_g(product(S4, free_group(2)))


def test_enumeration_count_check_catches_a_lost_parity_filter(monkeypatch):
    # every permutation taken as even: A4 enumerates all of S4
    monkeypatch.setattr(enumeration, "_perm_parity", lambda p: 0)
    enumeration._store.cache_clear()  # enumerate, not read the kept list
    with pytest.raises(AssertionError, match="^enumerated 24 elements of an:4, not 12$"):
        enumerate_elements(alternating(4))
    enumeration._store.cache_clear()


def test_commutator_pool_is_conjugation_closed():
    G = group_kernel(S4)
    pool = {G.elements[i] for i in commutator_indices(G)}
    for phi in enumerate_elements(S4):
        for c in pool:
            assert compose(compose(phi, c), invert(phi)) in pool


def test_subgroup_spec_validation():
    with pytest.raises(ValueError):
        SubgroupSpec(())
    with pytest.raises(ValueError):
        SubgroupSpec((perm_from_cycles(S3, (1, 2)),
                      perm_from_cycles(S4, (1, 2))))


# the kept element lists: every call is a new list equal to a fresh enumeration

MEMO_GROUPS = ["sn:3", "sn:7", "an:6", "slp:2:5", "bar:sn:3", "product:sn:3,an:4",
               "wreath:sn:3:zn:2"]


@pytest.mark.parametrize("name", MEMO_GROUPS)
def test_kept_elements_match_a_fresh_enumeration(name, monkeypatch):
    d = parse_descriptor(name)
    kept = [enumerate_elements(d), enumerate_elements(d)]  # build, then reuse
    # oracle: nothing kept at any depth, nested bases included
    monkeypatch.setattr(enumeration, "_KEPT_ORDER", 0)
    fresh = enumeration._enumerate(d, order(d), None)
    for elems in kept:
        assert [e.payload for e in elems] == [e.payload for e in fresh]
        assert all(e.descriptor == d for e in elems)
    assert enumerate_elements(d) == fresh


def test_kept_elements_are_copied_per_call():
    first = enumerate_elements(S4)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    del first[:3]
    second = enumerate_elements(S4)
    assert second == expected and second is not first


def test_kept_group_still_meets_the_guard():
    d = symmetric(5)
    assert len(enumerate_elements(d)) == 120  # kept from here on
    for limit in (100, 119):
        with pytest.raises(GuardExceededError) as exc:
            enumerate_elements(d, limit=limit)
        assert str(exc.value) == f"|sn:5| = 120 exceeds the guard {limit}"
    assert len(enumerate_elements(d, limit=120)) == 120


def _exact_text(d, size):
    """The refusal's text for ``d`` as of a group that stored its exact
    order ``size``."""
    with pytest.MonkeyPatch.context() as m:
        m.setitem(vars(d), "_size", size)
        return _order_text(d)


def test_a_long_order_is_written_by_its_exact_digit_count():
    d = symmetric(40)
    assert _exact_text(d, 10 ** 30 - 1) == f"= {10 ** 30 - 1}"
    for k in (30, 31, 99, 100, 4301, 20000):
        for size, digits in ((10 ** k - 1, k), (10 ** k, k + 1), (10 ** k + 1, k + 1),
                             (2 * 10 ** k, k + 1)):
            if size >= 10 ** 30:
                assert _exact_text(d, size) == f"has {digits} digits and"


def _guard_outcome(check, d, guard):
    try:
        return check(d, guard)
    except (GuardExceededError, InfiniteGroupError) as exc:
        return type(exc), str(exc)


def _exact_checked_order(d, guard):
    # the guard as it was: the whole order first, then the comparison
    size = enumeration.gd.order(d)
    if size is None:
        raise InfiniteGroupError(f"{d} is infinite")
    if size > guard:
        raise GuardExceededError(
            f"|{d}| {_exact_text(d, size)} exceeds the guard {guard}")
    return size


@pytest.mark.parametrize("text", [
    "sn:1", "sn:2", "sn:9", "sn:27", "sn:28", "sn:29", "sn:30", "sn:500",
    "an:1", "an:2", "an:28", "an:29", "an:300", "wreath:sn:3:zn:3",
    "wreath:sn:3:zn:36", "wreath:sn:3:zn:37", "wreath:sn:9:zn:300", "bar:sn:14",
    "bar:sn:15", "bar:sn:200", "slp:2:5", "slp:5:3", "slp:6:3", "slp:60:2",
    "product:sn:20,sn:10", "product:sn:200,an:100,slp:4:7", "free:2", "wreath:free:2:zn:3",
    "slz:3", "z2inf", "aff-z", "wreath:sn:3:z", "bar:free:2", "product:sn:3,free:2",
])
def test_the_log_bound_refuses_as_the_exact_order_does(text):
    # orders on both sides of 10^30, guards on both sides of the order
    d = parse_descriptor(text)
    assert finite(d) == (order(d) is not None)
    size = order(d) or 1
    for guard in (1, 10 ** 7, size - 1, size, size + 1, 10 ** 30 - 1, 10 ** 30, 10 ** 31):
        assert _guard_outcome(enumeration._checked_order, d, guard) == \
            _guard_outcome(_exact_checked_order, d, guard)


@pytest.mark.parametrize("text,refused", [("sn:300000", "|sn:300000| has 1512852"),
                                          ("product:sn:2,an:300000", "|an:300000| has 1512851")])
def test_abelianization_meets_the_guard_before_the_order(text, refused, monkeypatch):
    # it computed the whole order, 1.6 s of factorial, before the guard
    factorial = math.factorial

    def small_factorial(n):
        assert n < 1000, "a huge order was computed"
        return factorial(n)
    monkeypatch.setattr(math, "factorial", small_factorial)
    with pytest.raises(GuardExceededError) as exc:
        abelianization_order(parse_descriptor(text))
    assert str(exc.value) == f"{refused} digits and exceeds the guard 10000000"


def test_sizing_sl_takes_no_log_of_a_huge_int(monkeypatch):
    # log10(q^k - 1) for every k <= n took 12.9 s on slp:100000:2
    log10 = math.log10

    def small_log10(x):
        assert not isinstance(x, int) or x < 2 ** 1024, "the log of a huge int was taken"
        return log10(x)
    monkeypatch.setattr(math, "log10", small_log10)
    with pytest.raises(GuardExceededError) as exc:
        enumeration._checked_order(parse_descriptor("slp:100000:2"), None)
    assert str(exc.value) == "|slp:100000:2| has 3010299957 digits and exceeds the guard 10000000"


@pytest.mark.parametrize("k", [30, 31, 99, 4301])
def test_a_log_bound_off_by_its_error_keeps_the_digit_count(k, monkeypatch):
    # near a power of ten the float cannot tell k from k + 1 digits, so the
    # order is computed exactly there
    d = symmetric(40)
    for size in (10 ** k - 1, 10 ** k, 10 ** k + 1, 2 * 10 ** k):
        for err in (-9e-7, 0.0, 9e-7):
            monkeypatch.setattr(enumeration.gd, "order", lambda d: size)
            monkeypatch.setitem(vars(d), "_size", math.log10(size) + err)
            assert _guard_outcome(enumeration._checked_order, d, 10 ** 7) == \
                _guard_outcome(_exact_checked_order, d, 10 ** 7)


def test_a_comparison_the_log_settles_computes_no_order(monkeypatch):
    # log10 |G| = 31 is a whole number, so the float cannot settle the digit
    # count, yet it settles |G| > 10^7: the comparison computed the order
    # for a digit count that no refusal asked of it
    def no_order(d):
        raise AssertionError("the order was computed")
    d = symmetric(40)
    monkeypatch.setattr(enumeration.gd, "order", no_order)
    monkeypatch.setitem(vars(d), "_size", math.log10(10 ** 31))
    assert enumeration.gd._order_within(d, 10 ** 7) is None
    assert enumeration.kept(d, "elements", lambda: "made") == "made"


def test_a_finite_group_is_in_class_g_with_nothing_enumerated(monkeypatch):
    # G' of a finite group was computed, and refused above the guard, to
    # answer a question every finite group answers yes
    def no_derived(d, limit=None):
        raise AssertionError("G' was computed")
    monkeypatch.setattr(enumeration, "derived_subgroup", no_derived)
    for text in ("sn:20", "an:30", "product:sn:20,slz:3", "aff-z"):
        assert in_class_g(parse_descriptor(text))
    for text in ("free:2", "product:sn:20,free:2"):
        assert not in_class_g(parse_descriptor(text))


@pytest.mark.parametrize("text", ["sn:100000000000", "an:100000000000",
                                  "wreath:sn:3:zn:1000000000000"])
def test_a_huge_group_is_refused_by_its_log_alone(text, monkeypatch, capsys):
    # from log10 |G| >= 5e11 the float's slack is at least 0.5, so the digit
    # count is never settled, and the exact order was computed instead:
    # `cld --group sn:100000000000` ran factorial(10^11) until it was killed
    from cinorm.cli import main

    def no_order(d):
        raise AssertionError("the order was computed")
    monkeypatch.setattr(enumeration.gd, "order", no_order)
    d = parse_descriptor(text)
    with pytest.raises(GuardExceededError,
                       match=rf"^\|{text}\| has about \d+ digits and exceeds the guard 10000000$"):
        enumeration._checked_order(d, None)
    assert main(["cld", "--group", text]) == 3
    assert "has about" in capsys.readouterr().err


@pytest.mark.parametrize("table", [trivial_norm_table, support_norm_table])
def test_kept_tables_still_meet_the_guard(table):
    d = symmetric(5)
    assert len(table(d).values) == 120  # kept from here on
    for limit in (100, 119):
        with pytest.raises(GuardExceededError) as exc:
            table(d, limit=limit)
        assert str(exc.value) == f"|sn:5| = 120 exceeds the guard {limit}"
    assert len(table(d, limit=120).values) == 120
    with pytest.raises(InfiniteGroupError):
        table(aff_z())


@pytest.mark.parametrize("name", ["sn:1", "sn:5", "an:6", "slp:2:5", "bar:sn:3"])
def test_kept_tables_match_a_fresh_build(name, monkeypatch):
    d = parse_descriptor(name)
    builds = [trivial_norm_table] + [support_norm_table] * (d.family in ("sn", "an"))
    kept = [[build(d) for build in builds] for _ in range(2)]
    monkeypatch.setattr(enumeration, "_KEPT_ORDER", 0)
    fresh = [build(d) for build in builds]
    for tables in kept:
        for t, f in zip(tables, fresh):
            assert list(t.values.items()) == list(f.values.items())
            assert t.meta == f.meta


def test_repeated_tables_share_no_values_dict():
    d = symmetric(7)
    a, b = trivial_norm_table(d), trivial_norm_table(d)
    assert a.values is not b.values and a.values == b.values
    one, g = list(a.values)[:2]
    a.values[g] = 5
    del a.values[one]
    assert len(b.values) == 5040 and (b.values[one], b.values[g]) == (0, 1)


def test_support_values_share_one_fraction_per_count():
    values = support_norm_table(symmetric(6)).values.values()
    assert len({id(v) for v in values}) == len(set(values)) == 6  # 0, 2, ..., 6 points


def test_second_table_enumerates_nothing(monkeypatch):
    d = symmetric(7)
    expected = trivial_norm_table(d).values, support_norm_table(d).values

    def refuse(*args):
        raise AssertionError("enumerated again")
    monkeypatch.setattr(enumeration, "_enumerate", refuse)
    assert trivial_norm_table(d).values == expected[0]
    assert support_norm_table(d).values == expected[1]
    with pytest.raises(AssertionError, match="enumerated again"):
        enumerate_elements(symmetric(9))  # above the kept order


# the store behind every kept value: one slot per group, evicted whole

OTHER_GROUPS = [symmetric(n) for n in range(1, 9)] + [alternating(n) for n in range(3, 9)] \
    + [sl_mod(2, 5), sl_mod(3, 2)]


class Maker:
    """A ``make`` for :func:`enumeration.kept` that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return [self.calls]


def test_kept_value_is_built_once():
    make = Maker()
    first = enumeration.kept(bar(S3), make, make)
    assert enumeration.kept(bar(S3), make, make) is first
    assert make.calls == 1


def test_a_group_is_evicted_with_everything_kept_for_it():
    d = wreath_zn(S3, 2)
    makers = [Maker() for _ in range(3)]  # each its own key
    for make in makers:
        enumeration.kept(d, make, make)
    assert len(OTHER_GROUPS) == enumeration._CACHE_SIZE
    assert d not in OTHER_GROUPS and all(order(g) <= enumeration._KEPT_ORDER
                                         for g in OTHER_GROUPS)
    for g in OTHER_GROUPS:
        enumeration.kept(g, "touched", list)
    for make in makers:
        assert enumeration.kept(d, make, make) == [2]
        assert make.calls == 2


def test_infinite_and_large_groups_are_made_on_every_call(monkeypatch):
    make = Maker()
    assert enumeration.kept(free_group(2), make, make) == [1]
    assert enumeration.kept(free_group(2), make, make) == [2]
    monkeypatch.setattr(enumeration, "_KEPT_ORDER", 0)
    assert enumeration.kept(S3, make, make) == [3]
    assert enumeration.kept(S3, make, make) == [4]


def test_a_make_that_raises_keeps_nothing():
    d = parse_descriptor("product:sn:2,sn:3")
    calls = []

    def fail():
        calls.append(1)
        raise RuntimeError("make failed")
    for _ in range(2):
        with pytest.raises(RuntimeError, match="make failed"):
            enumeration.kept(d, fail, fail)
    assert len(calls) == 2
    assert enumeration.kept(d, fail, list) == []  # retried, and kept now
    assert enumeration.kept(d, fail, fail) == []
