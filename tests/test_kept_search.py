"""The conjugate search kept with its group, once per conjugacy class: a
warm store answers as a cleared one does, a repeat does no search work, a
conjugate of a kept class runs no name search and no commuting test and
keeps only its point of the class, a walk alone builds a chain, guards
still trip on a kept orbit, a search that raises keeps nothing, and no scan
changes a kept orbit.
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
    from_literal,
    packing_number,
    parse_descriptor,
    perm_from_cycles,
    support_norm,
    symmetric,
    trivial_norm_table,
    wreath_element,
)
from cinorm import displacement, enumeration, find_strong_displacer, product, subgroup_closure
from cinorm.displacement import _Class, _FlatChain, _Orbit, _StabChain, _conjugates
from cinorm.elements import conjugate_of

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
    # t h t^-1, asked after h: a point of the class that h's calls keep,
    # moved against h2 as h is, so that both share one commuting list
    twin = _conjugate(h, data.draw(st.sampled_from(pools[0])))
    table = trivial_norm_table(d)
    calls = _scans(d, h, h2) + [lambda: packing_number(d, twin)] + [
        lambda norm=norm, m=m: displacement_energy(d, twin, m, norm)
        for norm in (support_norm, table) for m in (1, 2)] + [
        lambda k=k: disjunction_energy(d, h2, k, table) for k in (h, twin)]
    cold = [_cold(call) for call in calls]
    for call in calls:  # every search and commuting list kept
        _outcome(call)
    # packing's p, witnesses and exhausted, every energy's value and minimizer
    assert [_outcome(call) for call in calls] == cold


@pytest.mark.parametrize("text", ["wreath:sn:3:zn:3", "slp:3:2"])
def test_one_level_chains_are_among_the_kept(text):
    # the walk over a payload closure, not a stabilizer chain
    d = parse_descriptor(text)
    h = SubgroupSpec((enumerate_elements(d)[1],))
    assert isinstance(_conjugates(d, h, 10 ** 7).chain, _FlatChain)


def _counting(monkeypatch, *names):
    """Count the calls of ``displacement.<name>`` for each name, together."""
    calls = [0]
    for name in names:
        def counted(*args, f=getattr(displacement, name)):
            calls[0] += 1
            return f(*args)
        monkeypatch.setattr(displacement, name, counted)
    return calls


def _counting_searches(monkeypatch):
    """Count the name searches and the subgroups read as points of a
    class."""
    return _counting(monkeypatch, "_name_search", "_Orbit")


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


def _kept_names(d):
    """The keys of the conjugates of every kept class."""
    return [k for cls in enumeration._store(d).get("classes", ()) for k in cls.where]


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
    assert _kept_searches(d) == _kept_names(d) == []
    # nor does a search stopped by the clique guard
    with pytest.raises(GuardExceededError, match="^6 conjugate subgroups reached"):
        _conjugates(d, h, 10 ** 7, cap=5)
    assert _kept_searches(d) == _kept_names(d) == []
    orb = _conjugates(d, h, 10 ** 7)
    assert len(orb.cls.trans) * orb.chain.order() == 120 and len(_kept_searches(d)) == 1
    assert len(_kept_names(d)) == 10


def _state(orb):
    # the chain's data without its payload operations, which copy as new objects
    chain = {k: v for k, v in vars(orb.chain).items() if not callable(v)}
    cls = orb.cls
    return cls.trans, cls.action, cls.tree, cls.where, orb.j, orb.t_inv, chain


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


# ---------------------------------------------------------------------------
# one search per conjugacy class


def _conjugate(h, w):
    return SubgroupSpec(tuple(conjugate_of(g, w) for g in h.generators))


def _counting_acts(monkeypatch):
    """Count the calls of the name searches' ``act``, for both keys."""
    calls = [0]
    for name in ("_orbit_key", "_exact_key"):
        make = getattr(displacement, name)

        def counted_key(*args, make=make):
            key, act, *rest = make(*args)

            def counted(*a):
                calls[0] += 1
                return act(*a)
            return (key, counted, *rest)
        monkeypatch.setattr(displacement, name, counted_key)
    return calls


def _counting_commutes(monkeypatch):
    """Count the commuting tests of ``_commuter``'s predicates."""
    calls = [0]
    make = displacement._commuter

    def counted_commuter(*args):
        commutes = make(*args)

        def counted(*a):
            calls[0] += 1
            return commutes(*a)
        return counted
    monkeypatch.setattr(displacement, "_commuter", counted_commuter)
    return calls


@pytest.mark.parametrize("text,w", [("sn:7", "(1 4)(2 6 7)"), ("sn:8", "(1 8 3)(2 5)"),
                                    ("sn:5", "(1 5)(2 3)"), ("wreath:sn:3:zn:3", None)])
def test_a_conjugate_of_a_kept_class_runs_no_name_search_and_no_commuting_test(
        text, w, monkeypatch):
    d = parse_descriptor(text)
    h = _sym3(d)
    # on the wreath product the shift moves the lamp at 0 to the lamp at 1
    twin = _conjugate(h, wreath_element(d, {}, 1) if w is None else from_literal(d, w))
    cold = []
    for k in (h, twin):
        enumeration._store.cache_clear()
        cold.append([_outcome(call) for call in _scans(d, k, k)[:4]])
    enumeration._store.cache_clear()
    for call in _scans(d, h, h)[:4]:  # H's class, its graph and its orbit kept
        _outcome(call)
    acts, searches = _counting_acts(monkeypatch), _counting(monkeypatch, "_name_search")
    commutes = _counting_commutes(monkeypatch)
    # packing, e_1 and e_2 under the support norm: no power is tested for
    # m = 2, since the clique bound stops every search here but the wreath one
    warm = [_outcome(call) for call in _scans(d, twin, twin)[:3]]
    assert (acts[0], searches[0]) == (0, 0)
    if d.family != "wreath-zn":
        assert commutes[0] == 0
    assert warm == cold[1][:3]


@pytest.mark.parametrize("text,pts,w", [("sn:7", (1, 2, 3), ((1, 4), (2, 6, 7))),
                                        ("sn:8", (1, 2, 3), ((1, 8, 3), (2, 5))),
                                        ("sn:8", (2, 4, 6, 8), ((1, 2), (3, 4)))])
def test_an_energy_stopped_by_the_clique_bound_builds_no_chain(text, pts, w, monkeypatch):
    d = parse_descriptor(text)
    h = SubgroupSpec((perm_from_cycles(d, pts[:2]), perm_from_cycles(d, pts)))
    twin = _conjugate(h, perm_from_cycles(d, *w))
    enumeration._store.cache_clear()
    _conjugates(d, h, 10 ** 7)  # the class: H_0's chain is built for its check
    chains = _counting(monkeypatch, "_normalizer_chain")
    for norm in (support_norm, trivial_norm_table(d)):
        assert displacement_energy(d, twin, 2, norm).value is None
    assert not find_strong_displacer(d, twin, 2).found
    assert chains[0] == 0
    e = displacement_energy(d, twin, 1, support_norm)  # a walk: one chain, then kept
    displacement_energy(d, twin, 1, support_norm)
    assert chains[0] == 1 and e.value == 2 * len(pts)


def test_the_clique_guard_trips_on_a_conjugate_of_a_kept_class(monkeypatch):
    d = symmetric(7)
    h = _sym3(d)  # 35 conjugates
    twin = _conjugate(h, perm_from_cycles(d, (1, 5), (2, 6), (3, 7)))
    enumeration._store.cache_clear()
    displacement_energy(d, h, 1, support_norm)  # uncapped: the class is kept
    searches = _counting(monkeypatch, "_name_search")
    monkeypatch.setattr(displacement, "CLIQUE_GUARD", 10)
    with pytest.raises(GuardExceededError,
                       match=r"^11 conjugate subgroups reached, above the clique guard 10$"):
        packing_number(d, twin)
    monkeypatch.setattr(displacement, "CLIQUE_GUARD", 35)
    assert packing_number(d, twin).p == 2
    assert searches[0] == 0  # rooted in the kept class, not searched


def test_the_order_guard_runs_first_on_a_kept_class():
    d = symmetric(7)
    h = _sym3(d)
    twin = _conjugate(h, perm_from_cycles(d, (1, 5), (2, 6), (3, 7)))
    enumeration._store.cache_clear()
    packing_number(d, h)
    for k in (h, twin):
        with pytest.raises(GuardExceededError, match=r"^\|sn:7\| = 5040 exceeds the guard 100$"):
            displacement_energy(d, k, 1, support_norm, limit=100)
        with pytest.raises(GuardExceededError, match=r"^\|sn:7\| = 5040 exceeds the guard 100$"):
            packing_number(d, k, limit=100)


def test_groups_above_the_kept_order_search_per_call(monkeypatch):
    d = symmetric(9)
    h = _sym3(d)
    twin = _conjugate(h, perm_from_cycles(d, (1, 7), (2, 8), (3, 9)))
    searches = _counting(monkeypatch, "_name_search")
    for k in (h, twin, h):
        packing_number(d, k)
    assert searches[0] == 3 and _kept_searches(d) == _kept_names(d) == []


def test_the_orbit_stabilizer_count_is_checked_on_every_chain(monkeypatch):
    # generators that miss the second factor: the element-set search builds
    # no chain, so the count fails where a walk first reads one, for H and
    # for a conjugate rooted in its class, and the failed chain is not kept
    s3 = symmetric(3)
    d = product(s3, s3)
    h = SubgroupSpec((enumerate_elements(d)[6],))  # a transposition of the first factor
    first = [g for g in enumeration.group_generators(d) if g.payload[1] == (0, 1, 2)]
    enumeration._store.cache_clear()
    monkeypatch.setattr(displacement, "group_generators", lambda d: tuple(first))
    try:
        orb = _conjugates(d, h, 10 ** 7)
        assert len(orb.cls.trans) == 3
        twin = _conjugate(h, first[1])
        for k in (h, twin, h):
            with pytest.raises(AssertionError, match=r"^orbit-stabilizer count 3 \* 2 is not "
                                                     r"\|product:sn:3,sn:3\| = 36$"):
                displacement_energy(d, k, 1, trivial_norm_table(d))
        assert len(subgroup_closure(first)) == 6
    finally:  # the class searched with the short generating set
        enumeration._store.cache_clear()


def test_a_conjugate_keeps_its_point_and_not_an_orbit():
    # an 8-cycle has 1 260 conjugates in S8; five of them share one class,
    # and each keeps its point of it, with no transversal, action or tree
    d = symmetric(8)
    h = SubgroupSpec((perm_from_cycles(d, (1, 2, 3, 4, 5, 6, 7, 8)),))
    enumeration._store.cache_clear()
    for w in ("()", "(1 2)", "(1 5 3)(2 8)", "(3 4 5 6)", "(2 5)(3 7)"):
        displacement_energy(d, _conjugate(h, from_literal(d, w)), 1, support_norm)
    store = enumeration._store(d)
    (cls,) = store["classes"]
    assert isinstance(cls, _Class) and len(cls.where) == 1260
    points = [store[k] for k in _kept_searches(d)]
    assert len(points) == 5 and all(isinstance(p, _Orbit) and p.cls is cls for p in points)
    assert sorted(p.j for p in points)[0] == 0 and len({p.j for p in points}) == 5
    for p in points:
        fields = [getattr(p, f) for f in p.__slots__]
        assert not [f for f in fields if isinstance(f, (tuple, list)) and len(f) == 1260]
