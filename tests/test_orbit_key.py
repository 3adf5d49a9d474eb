"""The orbit key of ``_conjugates`` against the exact element-set key, the
chain it stops at the known order against one fed every Schreier
generator, and every subgroup read as a point of a kept conjugacy class
against a fresh search from that subgroup.

On ``sn``/``an`` the conjugates of H are named by their non-trivial point
orbits, and the generators of the finished chain's level 0 are checked to
normalize H; when one does not, the search runs again with the exact key.  Either way
the class must be the orbit the exact key builds from its first subgroup
H_0: the same transversal, action, BFS tree and chain.  The fixed subgroups
below share their point orbits with other conjugates, so the orbit key
fails there and the fallback runs.  A subgroup H = H_j of the class must
reach the conjugates the search from H reaches, through the cosets
``t[x] t[j]^-1 N``, with a chain of N whose order and level orbits are
that search's.

The oracle is :func:`_orbit_search`, the search the library ran afresh for
each subgroup before it kept one search per conjugacy class.
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st
import pytest

from cinorm import (
    SubgroupSpec,
    alternating,
    from_literal,
    group_generators,
    packing_number,
    parse_descriptor,
    perm_from_cycles,
    symmetric,
    to_literal,
)
from cinorm import displacement, enumeration
from cinorm.descriptors import PERMUTATION_FAMILIES
from cinorm.displacement import (
    _FlatChain,
    _StabChain,
    _commuter,
    _conjugates,
    _exact_key,
    _kept_conjugates,
    _orbit_key,
)
from cinorm.elements import Element, _payload_ops, _perm_parity
from cinorm.enumeration import _checked_order, closure_of, enumerate_elements

LIMIT = 10 ** 7


def _orbit_search(d, size, name, act, normalizes, cap, t_conj=None):
    """The search of one subgroup H, from scratch, in two phases.  First the
    BFS: ``act(name, s, s^-1)`` names the conjugate by s of the one named,
    and each non-tree edge is recorded, not yet formed.  Then, in BFS order,
    the Schreier generator of each edge, conjugated by ``t_conj`` when it is
    given, joins the chain, until the chain reaches the order ``size /
    |orbit|``.  None when ``normalizes`` is given and fails on a generator
    of the chain's level 0."""
    mul, inv, one, _ = _payload_ops(d)
    steps = [(s.payload, inv(s.payload)) for s in group_generators(d)]
    names = [name]
    where = {name: 0}
    trans, trans_inv, tree = [one], [one], [None]
    action = [[] for _ in steps]
    edges = []  # (j, s, t): the Schreier generator t[j]^-1 s t, unformed
    for i, t in enumerate(trans):
        for si, (s, s_inv) in enumerate(steps):
            k = act(names[i], s, s_inv)
            j = where.get(k)
            if j is None:
                assert cap is None or len(names) < cap
                j = where[k] = len(names)
                names.append(k)
                trans.append(mul(s, t))
                trans_inv.append(mul(trans_inv[i], s_inv))
                tree.append((i, si))
            else:
                edges.append((j, s, t))
            action[si].append(j)
    chain = _StabChain(d) if d.family in PERMUTATION_FAMILIES else _FlatChain(d, size)
    for j, s, t in edges:
        if len(trans) * chain.order() == size:
            break
        g = mul(trans_inv[j], mul(s, t))
        chain.add(g if t_conj is None else mul(mul(t_conj, g), inv(t_conj)))
    if normalizes is not None and not all(map(normalizes, chain.gens[0])):
        return None
    return SimpleNamespace(trans=tuple(trans), chain=chain,
                           action=tuple(map(tuple, action)), tree=tuple(tree))


def fresh_search(d, h):
    """The orbit of H as the library built it for each subgroup: the orbit
    key on ``sn``/``an``, the element-set key when it fails or elsewhere,
    and the orbit-stabilizer count checked."""
    size = _checked_order(d, LIMIT)
    elements = frozenset(g.payload for g in closure_of(h))
    orb = None
    if d.family in PERMUTATION_FAMILIES:
        orb = _orbit_search(d, size, *_orbit_key(d, h, elements), None)
    if orb is None:
        orb = _orbit_search(d, size, *_exact_key(d, elements), None)
    assert len(orb.trans) * orb.chain.order() == size
    return orb


def _subgroup(text, h):
    d = parse_descriptor(text)
    return d, SubgroupSpec(tuple(from_literal(d, x) for x in h.split(";")))


def _searches(d, h):
    """``(_conjugates, exact, orbit)``: the orbit the library builds, the one
    the exact key builds, and the orbit key's own search (None when a
    generator of its chain's level 0 fails to normalize H)."""
    size = _checked_order(d, LIMIT)
    elements = frozenset(g.payload for g in closure_of(h))
    return (_conjugates(d, h, LIMIT),
            _orbit_search(d, size, *_exact_key(d, elements), None),
            _orbit_search(d, size, *_orbit_key(d, h, elements), None))


def _fields(orb):
    return orb.trans, orb.action, orb.tree, orb.chain.levels()


def _element_sets(d, h, trans):
    """The element set of ``t H t^-1`` for each t."""
    _, inv, _, conj = _payload_ops(d)
    members = [g.payload for g in closure_of(h)]
    return [frozenset(conj(t, x, inv(t)) for x in members) for t in trans]


def assert_point_of_its_class(d, orb, h, fresh=None):
    """H, asked as ``orb``, is the point j of a class that is the orbit the
    oracle builds from the class's H_0, field by field, chain included;
    ``coset(x) H coset(x)^-1`` is that orbit's conjugate at x, and these are
    the conjugates the oracle's search from H reaches; the chain of N has
    order ``|G| / |orbit|`` and the level orbits of that search's chain."""
    cls = orb.cls
    root = fresh_search(d, cls.root)
    assert (cls.trans, cls.action, cls.tree) == (root.trans, root.action, root.tree)
    h0 = _conjugates(d, cls.root, LIMIT)
    assert h0.cls is cls and h0.j == 0
    assert _chain_fields(h0.chain) == _chain_fields(root.chain)
    fresh = fresh_search(d, h) if fresh is None else fresh
    sets = _element_sets(d, h, [orb.coset(x) for x in range(len(cls.trans))])
    assert sets == _element_sets(d, cls.root, root.trans)
    assert set(sets) == set(_element_sets(d, h, fresh.trans))
    assert orb.chain.order() * len(cls.trans) == _checked_order(d, LIMIT)
    assert [sorted(reps) for reps, _ in orb.chain.levels()] == \
        [sorted(reps) for reps, _ in fresh.chain.levels()]
    if orb.j == 0:
        assert _chain_fields(orb.chain) == _chain_fields(fresh.chain)


def assert_same_as_exact(d, h):
    built, exact, orbit = _searches(d, h)
    assert_point_of_its_class(d, built, h, exact)
    if orbit is not None:
        assert _fields(orbit) == _fields(exact)
    return orbit


@st.composite
def permutation_subgroups(draw):
    d = parse_descriptor(draw(st.sampled_from(
        ["sn:5", "sn:6", "sn:7", "sn:8", "an:5", "an:6", "an:7"])))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.permutations(range(d.n)))
        if d.family == "an" and _perm_parity(tuple(p)):
            p[0], p[1] = p[1], p[0]
        gens.append(Element(d, tuple(p)))
    return d, SubgroupSpec(tuple(gens))


@settings(deadline=None, max_examples=40)
@given(permutation_subgroups())
def test_orbit_key_builds_the_exact_orbit(case):
    assert_same_as_exact(*case)


@pytest.mark.parametrize("text,h,count", [
    ("sn:5", "(1 2 3 4)", 15),
    ("sn:6", "(1 2 3)(4 5 6)", 20),
    ("sn:7", "(1 2 3 4 5 6 7)", 120),
    ("sn:5", "(1 2 3 4);(1 3)", 15),
])
def test_shared_point_orbits_fall_back_to_the_exact_key(text, h, count):
    d, spec = _subgroup(text, h)
    assert assert_same_as_exact(d, spec) is None
    assert len(_conjugates(d, spec, LIMIT).cls.trans) == count


@pytest.mark.parametrize("text", ["sn:5", "sn:7", "an:5", "an:6"])
def test_the_whole_group_is_its_own_orbit(text):
    d = parse_descriptor(text)
    orbit = assert_same_as_exact(d, SubgroupSpec(group_generators(d)))
    assert orbit is not None and len(orbit.trans) == 1
    assert len(_conjugates(d, SubgroupSpec(group_generators(d)), LIMIT).cls.trans) == 1


def _counted_conjugations(d):
    """Wrap the bound conjugation of a fresh descriptor ``d`` in a counter."""
    mul, inv, one, conj = _payload_ops(d)
    calls = [0]

    def counted(s, x, s_inv):
        calls[0] += 1
        return conj(s, x, s_inv)
    object.__setattr__(d, "_payload_ops", (mul, inv, one, counted))
    return calls


def _sym_block(d, k):
    return SubgroupSpec((perm_from_cycles(d, (1, 2)), perm_from_cycles(d, tuple(range(1, k + 1)))))


def test_packing_sym6_in_s12_conjugates_few_payloads():
    # the element-set key made 924 conjugates x 2 generators x 720 elements
    # = 1 330 560 payload conjugations in the search alone
    d = symmetric(12)
    calls = _counted_conjugations(d)
    res = packing_number(d, _sym_block(d, 6), limit=10 ** 9)
    assert res.p == 2
    assert [to_literal(w) for w in res.certificate.witnesses] == \
        ["(1 7)(2 8)(3 9)(4 10)(5 11)(6 12)"]
    assert 0 < calls[0] < 4000


def test_packing_sym7_in_s14():
    d = symmetric(14)
    assert packing_number(d, _sym_block(d, 7), limit=10 ** 11).p == 2


@pytest.mark.parametrize("n,pts,checks", [
    (7, (1, 2, 3), 5), (9, (1, 2, 3), 7), (9, (2, 4, 7), 4),
    (12, (1, 2, 3, 4, 5, 6), 9), (14, (1, 2, 3, 4, 5, 6, 7), 11),
])
def test_the_orbit_key_checks_each_level_0_generator_once(n, pts, checks, monkeypatch):
    # the finished chain is the stabilizer of H's name, and its level-0
    # generators generate it, so they alone decide whether it normalizes H;
    # checking each Schreier generator the chain took made 10, 20, 12, 26 and
    # 39 checks
    calls = []
    orbit_key = displacement._orbit_key

    def counted_key(*args):
        name, act, normalizes = orbit_key(*args)

        def counted(g):
            calls.append(g)
            return normalizes(g)
        return name, act, counted
    monkeypatch.setattr(displacement, "_orbit_key", counted_key)
    d = symmetric(n)
    h = SubgroupSpec((perm_from_cycles(d, pts[:2]), perm_from_cycles(d, pts)))
    enumeration._store.cache_clear()  # S7's class is searched here, not read
    orb = _conjugates(d, h, 10 ** 11)
    # each decoded from the chain's bytes images
    assert calls == list(map(tuple, orb.chain.gens[0])) and len(calls) == checks


def test_alternating_blocks_use_the_orbit_key():
    d = alternating(7)
    h = SubgroupSpec((perm_from_cycles(d, (1, 2, 3)), perm_from_cycles(d, (2, 3, 4))))
    assert assert_same_as_exact(d, h) is not None


# ---------------------------------------------------------------------------
# the known order: the chain stopped at |G| / |orbit| against the chain fed
# every Schreier generator


def _every_generator(d, h, t_conj=None):
    """The orbit of H with no stop at the known order: a chain whose
    ``order`` reads 0 never reaches it, so every Schreier generator is
    checked and added, each conjugated by ``t_conj`` when it is given."""
    size = _checked_order(d, LIMIT)
    elements = frozenset(g.payload for g in closure_of(h))
    with pytest.MonkeyPatch.context() as m:
        for chain in (_StabChain, _FlatChain):
            m.setattr(chain, "order", lambda self: 0)
        orb = None
        if d.family in PERMUTATION_FAMILIES:
            orb = _orbit_search(d, size, *_orbit_key(d, h, elements), None, t_conj)
        if orb is None:
            orb = _orbit_search(d, size, *_exact_key(d, elements), None, t_conj)
    return orb


def _chain_state(chain):
    if isinstance(chain, _StabChain):
        return chain.gens, chain.reps
    return chain.gens, chain.elements


def assert_same_as_every_generator(d, h):
    # H = H_j: the chain stopped at the known order is the one fed every
    # Schreier generator of H_0's search, conjugated by t[j]
    built = _conjugates(d, h, LIMIT)
    cls = built.cls
    every = _every_generator(d, cls.root, cls.trans[built.j] if built.j else None)
    assert (cls.trans, cls.action, cls.tree) == (every.trans, every.action, every.tree)
    assert _chain_state(built.chain) == _chain_state(every.chain)
    assert built.chain.levels() == every.chain.levels()


@settings(deadline=None, max_examples=40)
@given(permutation_subgroups())
def test_known_order_stop_builds_the_whole_chain(case):
    assert_same_as_every_generator(*case)


@pytest.mark.parametrize("text,h", [
    ("sn:5", "(1 2 3 4)"), ("sn:7", "(1 2 3 4)"), ("sn:6", "(1 2 3)(4 5 6)"),
    ("sn:8", "(1 2 3 4 5 6 7 8)"), ("sn:9", "(1 2);(1 2 3)"), ("sn:9", "(2 4);(2 4 7)"),
])
def test_known_order_stop_on_fixed_subgroups(text, h):
    assert_same_as_every_generator(*_subgroup(text, h))


@st.composite
def other_family_subgroups(draw):
    d = parse_descriptor(draw(st.sampled_from(
        ["slp:2:5", "bar:sn:3", "product:sn:3,sn:3", "wreath:sn:2:zn:2"])))
    elems = enumerate_elements(d)
    return d, SubgroupSpec(tuple(draw(st.lists(st.sampled_from(elems),
                                                min_size=1, max_size=2))))


@settings(deadline=None, max_examples=30)
@given(other_family_subgroups())
def test_known_order_stop_on_flat_chains(case):
    assert_same_as_every_generator(*case)


# ---------------------------------------------------------------------------
# one search per conjugacy class: every conjugate's orbit, read off the kept
# class, against a fresh search from that conjugate


def _chain_fields(chain):
    return _chain_state(chain), chain.levels()


def _conjugate_subgroups(d, h, trans):
    """``t H t^-1`` for each t, generated by the conjugates of H's
    generators."""
    _, inv, _, conj = _payload_ops(d)
    return [SubgroupSpec(tuple(Element(d, conj(t, g.payload, inv(t))) for g in h.generators))
            for t in trans]


def assert_every_conjugate_matches_a_fresh_search(d, h, seed, most=40):
    """Ask H's conjugates (at most ``most`` of them, drawn by ``seed``) in a
    shuffled order, from an empty store: the first is the class's H_0, the
    rest are points of its class.  Each must be a point of the class as the
    fresh searches find it, and its neighbourhood in the class graph the
    points whose conjugate a commuting test, conjugate by conjugate, finds
    to commute with it."""
    conjugates = _conjugate_subgroups(d, h, fresh_search(d, h).trans)
    rng = random.Random(seed)
    asked = rng.sample(conjugates, min(most, len(conjugates)))
    enumeration._store.cache_clear()
    inv = _payload_ops(d)[1]
    for k in asked:
        orb, _ = _kept_conjugates(d, k, LIMIT, None)
        assert_point_of_its_class(d, orb, k)
        commutes = _commuter(d, k, k)
        cosets = [orb.coset(x) for x in range(len(orb.cls.trans))]
        assert sorted(orb.cls.near(orb.j)) == \
            [x for x, t in enumerate(cosets) if commutes(t, inv(t))]


@settings(deadline=None, max_examples=20)
@given(permutation_subgroups(), st.integers(0, 2 ** 32))
def test_every_conjugate_is_rooted_as_a_fresh_search_finds_it(case, seed):
    for s in (seed, seed + 1):
        assert_every_conjugate_matches_a_fresh_search(*case, s)


@settings(deadline=None, max_examples=12)
@given(other_family_subgroups(), st.integers(0, 2 ** 32))
def test_every_conjugate_is_rooted_on_flat_chains(case, seed):
    for s in (seed, seed + 1):
        assert_every_conjugate_matches_a_fresh_search(*case, s)


@pytest.mark.parametrize("text,h", [
    ("sn:5", "(1 2 3 4)"), ("sn:6", "(1 2 3)(4 5 6)"), ("sn:7", "(1 2);(1 2 3)"),
    ("sn:7", "(1 2 3)"), ("an:6", "(1 2 3);(2 3 4)"), ("an:7", "(1 2)(3 4)"),
    ("slp:3:2", "[[1,1,0],[0,1,0],[0,0,1]]"),
])
def test_every_conjugate_of_fixed_subgroups_is_rooted(text, h):
    d, spec = _subgroup(text, h)
    for seed in range(3):
        assert_every_conjugate_matches_a_fresh_search(d, spec, seed, most=80)


def test_classes_whose_names_collide_are_told_apart():
    # Sym{1,2,3} and <(1 2 3)> both name {{1,2,3}}, and both pass the orbit
    # key's check: each is found in its own class
    d = symmetric(6)
    sym, cyc = _subgroup("sn:6", "(1 2);(1 2 3)")[1], _subgroup("sn:6", "(1 2 3)")[1]
    enumeration._store.cache_clear()
    _conjugates(d, sym, LIMIT)
    for k in _conjugate_subgroups(d, cyc, fresh_search(d, cyc).trans[:8]):
        assert_point_of_its_class(d, _conjugates(d, k, LIMIT), k)
    name = hash(frozenset([frozenset([0, 1, 2])]))
    assert sum(name in cls.where for cls in enumeration.kept(d, "classes", list)) == 2


def test_conjugates_of_a_fallback_subgroup_skip_the_orbit_key(monkeypatch):
    # <(1 2 3 4)> in S5 shares its point orbits with two other conjugates, so
    # the orbit key's pass fails (12 calls of sift) before the element-set search;
    # its conjugates are then found in the element-set index, with no sift
    # and no normalizer check
    sifts, checks = [0], [0]
    sift, orbit_key = _StabChain.sift, displacement._orbit_key

    def counted_sift(chain, g, k=0):
        sifts[0] += 1
        return sift(chain, g, k)

    def counted_key(*args):
        name, act, normalizes = orbit_key(*args)

        def counted(g):
            checks[0] += 1
            return normalizes(g)
        return name, act, counted
    monkeypatch.setattr(_StabChain, "sift", counted_sift)
    monkeypatch.setattr(displacement, "_orbit_key", counted_key)
    d, h = _subgroup("sn:5", "(1 2 3 4)")
    enumeration._store.cache_clear()
    orb = _conjugates(d, h, LIMIT)
    assert (sifts[0], checks[0] > 0) == (12, True)
    # one class, indexed by the hashes of its 15 element sets alone
    (cls,) = enumeration.kept(d, "classes", list)
    assert len(cls.where) == len(cls.trans) == 15
    elements = frozenset(g.payload for g in closure_of(h))
    assert hash(elements) in cls.where
    assert hash(_orbit_key(d, h, elements)[0]) not in cls.where
    for k in _conjugate_subgroups(d, h, cls.trans[1:]):
        sifts[0] = checks[0] = 0
        _conjugates(d, k, LIMIT)
        assert (sifts[0], checks[0]) == (0, 0)
