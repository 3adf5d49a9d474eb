"""The conjugate search kept with its group: a warm store answers as a
cleared one does, a repeat does no search work, guards still trip on a kept
orbit, a search that raises keeps nothing, and no scan changes a kept orbit.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from cinorm import (
    GuardExceededError,
    SubgroupSpec,
    disjunction_energy,
    displacement_energy,
    enumerate_elements,
    packing_number,
    parse_descriptor,
    perm_from_cycles,
    support_norm,
    symmetric,
    trivial_norm_table,
    wreath_element,
)
from cinorm import displacement, enumeration
from cinorm.displacement import _FlatChain, _StabChain, _conjugates

GROUPS = ["sn:5", "sn:6", "sn:7", "sn:8", "an:5", "an:6", "an:7",
          "wreath:sn:3:zn:3", "slp:3:2"]


def _outcome(call):
    try:
        return call()
    except (ValueError, GuardExceededError) as exc:
        return type(exc), str(exc)


def _scans(d, h, h2):
    table = trivial_norm_table(d)
    calls = [lambda: packing_number(d, h)]
    for norm in (support_norm, table):
        calls += [lambda norm=norm, m=m: displacement_energy(d, h, m, norm) for m in (1, 2)]
        calls.append(lambda norm=norm: disjunction_energy(d, h, h2, norm))
    return calls


def _cold(call):
    enumeration._store.cache_clear()
    return _outcome(call)


def _pools(d):
    # the last three points (four on an) or the lamp at 0 leave room for
    # commuting conjugates, so packings above 1 and finite energies occur;
    # payload order lists the permutations of the last points first
    elems = enumerate_elements(d)
    if d.family == "wreath-zn":
        return elems, [e for e in elems if e.payload[1] == 0
                       and all(i == 0 for i, _ in e.payload[0])]
    if d.family == "slp":
        return elems, elems
    k = d.n - (3 if d.family == "sn" else 4)
    return elems, [e for e in elems[:24] if e.payload[:k] == tuple(range(k))]


@pytest.mark.parametrize("text", GROUPS)
@settings(deadline=None, max_examples=6)
@given(data=st.data())
def test_a_warm_store_answers_as_a_cleared_one(text, data):
    d = parse_descriptor(text)
    pools = _pools(d)

    def subgroup():
        pool = pools[data.draw(st.sampled_from([0, 1, 1]))]
        return SubgroupSpec(tuple(data.draw(st.sampled_from(pool))
                                  for _ in range(data.draw(st.sampled_from([1, 2, 2])))))
    h, h2 = subgroup(), subgroup()
    calls = _scans(d, h, h2)
    cold = [_cold(call) for call in calls]
    for call in calls:  # every search and near-list kept
        _outcome(call)
    # packing's p, witnesses and exhausted, every energy's value and minimizer
    assert [_outcome(call) for call in calls] == cold


@pytest.mark.parametrize("text", ["wreath:sn:3:zn:3", "slp:3:2"])
def test_one_level_chains_are_among_the_kept(text):
    # the walk over a payload closure, not a stabilizer chain
    d = parse_descriptor(text)
    h = SubgroupSpec((enumerate_elements(d)[1],))
    assert isinstance(_conjugates(d, h, 10 ** 7).chain, _FlatChain)


def _counting_searches(monkeypatch):
    calls = [0]
    search = displacement._orbit_search

    def counted(*args):
        calls[0] += 1
        return search(*args)
    monkeypatch.setattr(displacement, "_orbit_search", counted)
    return calls


def _sym3(d):
    """Sym{1,2,3}, Alt{1,2,3,4} on ``an``, or Sym{1,2,3} at the lamp 0."""
    if d.family == "an":
        return SubgroupSpec((perm_from_cycles(d, (1, 2, 3)), perm_from_cycles(d, (2, 3, 4))))
    if d.family == "sn":
        return SubgroupSpec((perm_from_cycles(d, (1, 2)), perm_from_cycles(d, (1, 2, 3))))
    s3 = symmetric(3)
    return SubgroupSpec(tuple(wreath_element(d, {0: perm_from_cycles(s3, c)})
                              for c in ((1, 2), (1, 2, 3))))


@pytest.mark.parametrize("text", ["sn:7", "an:6", "wreath:sn:3:zn:3"])
def test_a_repeated_search_does_no_search_work(text, monkeypatch):
    d = parse_descriptor(text)
    h = _sym3(d)
    enumeration._store.cache_clear()
    calls = _counting_searches(monkeypatch)
    orb = _conjugates(d, h, 10 ** 7)
    assert calls[0] >= 1
    calls[0] = 0
    # other generators of the same subgroup share its search
    twin = SubgroupSpec(tuple(reversed(h.generators)))
    assert _conjugates(d, twin, 10 ** 7) is orb
    packing_number(d, h)
    for norm in (support_norm, trivial_norm_table(d)):  # support: a refusal on wreath
        _outcome(lambda: displacement_energy(d, h, 1, norm))
        _outcome(lambda: displacement_energy(d, twin, 2, norm))
        _outcome(lambda: disjunction_energy(d, twin, h, norm))
    assert calls[0] == 0


def test_the_clique_guard_trips_on_a_kept_orbit(monkeypatch):
    d = symmetric(7)
    h = _sym3(d)  # 35 conjugates
    enumeration._store.cache_clear()
    displacement_energy(d, h, 1, support_norm)  # uncapped: the orbit is kept
    calls = _counting_searches(monkeypatch)
    monkeypatch.setattr(displacement, "CLIQUE_GUARD", 10)
    with pytest.raises(GuardExceededError,
                       match=r"^11 conjugate subgroups reached, above the clique guard 10$"):
        packing_number(d, h)
    assert calls[0] == 0
    monkeypatch.setattr(displacement, "CLIQUE_GUARD", 35)
    assert packing_number(d, h).p == 2


def _kept_searches(d):
    return [k for k in enumeration._store(d) if isinstance(k, tuple) and k[0] == "conjugates"]


def test_a_search_that_raises_keeps_nothing(monkeypatch):
    d = symmetric(5)
    h = _sym3(d)
    enumeration._store.cache_clear()
    # a generating set that misses part of the group breaks |orbit| |N| = |G|
    with monkeypatch.context() as patch:
        patch.setattr(displacement, "group_generators",
                      lambda d: (perm_from_cycles(d, (1, 2, 3, 4)),))
        with pytest.raises(AssertionError, match="orbit-stabilizer count"):
            _conjugates(d, h, 10 ** 7)
    assert _kept_searches(d) == []
    # nor does a search stopped by the clique guard
    with pytest.raises(GuardExceededError, match="^6 conjugate subgroups reached"):
        _conjugates(d, h, 10 ** 7, cap=5)
    assert _kept_searches(d) == []
    orb = _conjugates(d, h, 10 ** 7)
    assert len(orb.trans) * orb.chain.order() == 120 and len(_kept_searches(d)) == 1


def _state(orb):
    # the chain's data without its payload operations, which copy as new objects
    chain = {k: v for k, v in vars(orb.chain).items() if not callable(v)}
    return orb.trans, orb.action, orb.tree, chain


@pytest.mark.parametrize("text", ["sn:7", "wreath:sn:3:zn:3"])
def test_no_scan_changes_a_kept_orbit(text):
    d = parse_descriptor(text)
    h = _sym3(d)
    h2 = SubgroupSpec((h.generators[0],))
    enumeration._store.cache_clear()
    orb = _conjugates(d, h, 10 ** 7)
    assert isinstance(orb.chain, _FlatChain if d.family == "wreath-zn" else _StabChain)
    before = copy.deepcopy(orb)
    packing_number(d, h)
    for norm in (support_norm, trivial_norm_table(d)):
        for m in (1, 2):
            _outcome(lambda: displacement_energy(d, h, m, norm))
        _outcome(lambda: disjunction_energy(d, h2, h, norm))
    assert _conjugates(d, h, 10 ** 7) is orb
    assert _state(orb) == _state(before)
