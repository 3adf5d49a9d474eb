"""The orbit key of ``_conjugates`` against the exact element-set key, and
the chain it stops at the known order against one fed every Schreier
generator.

On ``sn``/``an`` the conjugates of H are named by their non-trivial point
orbits, and the generators of the finished chain's level 0 are checked to
normalize H; when one does not, the search runs again with the exact key.  Either way
the orbit must be the one the exact key builds: the same transversal,
action, BFS tree and chain levels.  The fixed subgroups below share their
point orbits with other conjugates, so the orbit key fails there and the
fallback runs.
"""

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
from cinorm import displacement
from cinorm.descriptors import PERMUTATION_FAMILIES
from cinorm.displacement import (
    _FlatChain,
    _StabChain,
    _conjugates,
    _exact_key,
    _orbit_key,
    _orbit_search,
)
from cinorm.elements import Element, _payload_ops, _perm_parity
from cinorm.enumeration import _checked_order, closure_of, enumerate_elements

LIMIT = 10 ** 7


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
    return orb.trans, orb.trans_inv, orb.action, orb.tree, orb.chain.levels()


def assert_same_as_exact(d, h):
    built, exact, orbit = _searches(d, h)
    assert _fields(built) == _fields(exact)
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
    assert len(_conjugates(d, spec, LIMIT).trans) == count


@pytest.mark.parametrize("text", ["sn:5", "sn:7", "an:5", "an:6"])
def test_the_whole_group_is_its_own_orbit(text):
    d = parse_descriptor(text)
    orbit = assert_same_as_exact(d, SubgroupSpec(group_generators(d)))
    assert orbit is not None and len(orbit.trans) == 1


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
    orb = _conjugates(d, h, 10 ** 11)
    assert calls == orb.chain.gens[0] and len(calls) == checks


def test_alternating_blocks_use_the_orbit_key():
    d = alternating(7)
    h = SubgroupSpec((perm_from_cycles(d, (1, 2, 3)), perm_from_cycles(d, (2, 3, 4))))
    assert assert_same_as_exact(d, h) is not None


# ---------------------------------------------------------------------------
# the known order: the chain stopped at |G| / |orbit| against the chain fed
# every Schreier generator


def _every_generator(d, h):
    """The orbit of ``_conjugates`` with no stop at the known order: a chain
    whose ``order`` reads 0 never reaches it, so every Schreier generator is
    checked and added."""
    size = _checked_order(d, LIMIT)
    elements = frozenset(g.payload for g in closure_of(h))
    with pytest.MonkeyPatch.context() as m:
        for chain in (_StabChain, _FlatChain):
            m.setattr(chain, "order", lambda self: 0)
        orb = None
        if d.family in PERMUTATION_FAMILIES:
            orb = _orbit_search(d, size, *_orbit_key(d, h, elements), None)
        if orb is None:
            orb = _orbit_search(d, size, *_exact_key(d, elements), None)
    return orb


def _chain_state(chain):
    if isinstance(chain, _StabChain):
        return chain.gens, chain.reps
    return chain.gens, chain.elements


def assert_same_as_every_generator(d, h):
    built = _conjugates(d, h, LIMIT)
    every = _every_generator(d, h)
    assert (built.trans, built.trans_inv, built.action, built.tree) == \
        (every.trans, every.trans_inv, every.action, every.tree)
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
