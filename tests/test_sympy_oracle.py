"""``sympy.combinatorics`` as an oracle that shares no code with cinorm.

Each group is rebuilt in sympy from the payloads of
:func:`~cinorm.enumeration.group_generators`, so the generators are checked
along with the results:

* on S5-S7 and A5-A7, the order, the number of conjugacy classes and their
  sizes of the kernel's :meth:`~cinorm.kernel.FiniteGroup.classes`, the
  derived subgroup and the abelianization order;
* the stabilizer chain of the normalizer N = N_G(H) that the displacement
  scans walk (``_StabChain``, base 0..n-1), against sympy's base and strong
  generating set with that base: its order and the length of each basic
  orbit, and that every generator of N normalizes H;
* ``descriptors.order`` of ``slp`` groups, against the permutation group
  that the ``slp`` generators generate on the non-zero row vectors, on
  which SL(n, p) acts faithfully.  slp:4:3 and slp:5:2 are too large for a
  closure in pure Python.

Each check is also run with a fault planted by ``monkeypatch``, and must
fail on it.
"""

from itertools import product as iproduct
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.util import _distribute_gens_by_base, _orbits_transversals_from_bsgs

from cinorm import enumeration, kernel
from cinorm.descriptors import order, parse_descriptor
from cinorm.displacement import _conjugates, _StabChain
from cinorm.elements import Element
from cinorm.enumeration import SubgroupSpec
from cinorm.literals import from_literal

PERMUTATION_GROUPS = ["sn:5", "sn:6", "sn:7", "an:5", "an:6", "an:7"]
SLP_GROUPS = ["slp:3:2", "slp:3:3", "slp:4:2", "slp:4:3", "slp:5:2"]
LIMIT = 10 ** 7


def sympy_group(d):
    """The permutation group that the library's generators of ``d`` generate."""
    return PermutationGroup([Permutation(list(g.payload))
                             for g in enumeration.group_generators(d)])


def assert_group_matches_sympy(d):
    G, S = kernel.group_kernel(d), sympy_group(d)
    assert G.n == S.order()
    _, members = G.classes()
    classes = S.conjugacy_classes()
    assert len(members) == len(classes)
    assert sorted(map(len, members.values())) == sorted(map(len, classes))
    derived = S.derived_subgroup().order()
    assert len(enumeration.derived_subgroup(d)) == derived
    assert enumeration.abelianization_order(d) == S.order() // derived


def assert_chain_matches_sympy(chain, n, h=()):
    """``chain`` against sympy's BSGS, with base 0..n-1, of the group that
    its generators generate, and each of them normalizes the group that the
    permutations ``h`` generate."""
    gens = [Permutation(list(g)) for level in chain.gens for g in level]
    N = PermutationGroup(gens or [Permutation(n - 1)])
    base, strong = N.schreier_sims_incremental(base=list(range(n)))
    orbits, _ = _orbits_transversals_from_bsgs(base, _distribute_gens_by_base(base, strong))
    assert base == list(range(n))
    assert [len(reps) for reps in chain.reps] == [len(o) for o in orbits]
    assert chain.order() == N.order()
    if h:
        H = PermutationGroup([Permutation(list(x)) for x in h])
        assert all(H.contains(s * x * ~s) for s in gens for x in H.generators)


def slp_order_by_sympy(d):
    """The order of the group that the ``slp`` generators of ``d`` generate,
    acting on the non-zero row vectors of F_p^n by v -> v M."""
    n, p = d.n, d.p
    vectors = [v for v in iproduct(range(p), repeat=n) if any(v)]
    index = {v: i for i, v in enumerate(vectors)}

    def action(rows):
        return Permutation([index[tuple(sum(v[i] * rows[i][j] for i in range(n)) % p
                                        for j in range(n))] for v in vectors])
    return PermutationGroup([action(g.payload)
                             for g in enumeration.group_generators(d)]).order()


# ---------------------------------------------------------------------------
# orders, classes and the derived subgroup


@pytest.mark.parametrize("text", PERMUTATION_GROUPS)
def test_classes_and_derived_subgroup_match_sympy(text):
    assert_group_matches_sympy(parse_descriptor(text))


def test_a_dropped_generator_fails_the_group_check(monkeypatch):
    gens = enumeration.group_generators
    monkeypatch.setattr(enumeration, "group_generators", lambda d: gens(d)[:-1])
    with pytest.raises(AssertionError):
        assert_group_matches_sympy(parse_descriptor("sn:5"))


def test_two_merged_classes_fail_the_group_check(monkeypatch):
    classes = kernel.FiniteGroup.classes

    def merged(self):
        label, members = classes(self)
        (a, first), (b, second) = list(members.items())[:2]
        members = {**members, a: first + second}
        del members[b]
        return label, members
    monkeypatch.setattr(kernel.FiniteGroup, "classes", merged)
    with pytest.raises(AssertionError):
        assert_group_matches_sympy(parse_descriptor("an:6"))


def test_a_short_derived_subgroup_fails_the_group_check(monkeypatch):
    derived = enumeration.derived_subgroup
    monkeypatch.setattr(enumeration, "derived_subgroup",
                        lambda d, limit=None: set(list(derived(d, limit))[1:]))
    with pytest.raises(AssertionError):
        assert_group_matches_sympy(parse_descriptor("sn:6"))


# ---------------------------------------------------------------------------
# the normalizer chains of the displacement scans


@pytest.mark.parametrize("text,points", [
    ("sn:6", 3), ("sn:7", 2), ("sn:7", 3), ("sn:8", 3), ("sn:8", 4)])
def test_the_normalizer_chain_of_sym_a_matches_sympy(text, points):
    # N(Sym{1..k}) in S_n is Sym{1..k} x Sym{k+1..n}
    d = parse_descriptor(text)
    h = SubgroupSpec(tuple(from_literal(d, c) for c in
                           ["(1 2)", "(" + " ".join(map(str, range(1, points + 1))) + ")"]))
    chain = _conjugates(d, h, LIMIT).chain
    assert chain.order() == factorial(points) * factorial(d.n - points)
    assert_chain_matches_sympy(chain, d.n, [g.payload for g in h.generators])


@st.composite
def subgroups(draw):
    d = parse_descriptor(draw(st.sampled_from(["sn:6", "sn:7", "sn:8"])))
    gens = tuple(Element(d, tuple(draw(st.permutations(range(d.n)))))
                 for _ in range(draw(st.integers(1, 2))))
    return d, SubgroupSpec(gens)


@settings(deadline=None, max_examples=8)
@given(subgroups())
def test_the_normalizer_chain_of_a_subgroup_matches_sympy(case):
    d, h = case
    assert_chain_matches_sympy(_conjugates(d, h, LIMIT).chain, d.n,
                               [g.payload for g in h.generators])


def test_a_chain_that_drops_schreier_generators_fails_the_chain_check(monkeypatch):
    # the chain of Sym{1,2,3} x Sym{4,5,6,7}, with no generator sifted past
    # level 0
    d = parse_descriptor("sn:7")
    add = _StabChain.add

    def level_0_only(self, g, k=0):
        if k == 0:
            add(self, g, k)
    monkeypatch.setattr(_StabChain, "add", level_0_only)
    chain = _StabChain(d)
    for c in ["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6 7)"]:
        chain.add(from_literal(d, c).payload)
    with pytest.raises(AssertionError):
        assert_chain_matches_sympy(chain, d.n)


# ---------------------------------------------------------------------------
# the orders of SL(n, p)


@pytest.mark.parametrize("text", SLP_GROUPS)
def test_slp_order_matches_the_group_its_generators_generate(text):
    d = parse_descriptor(text)
    assert slp_order_by_sympy(d) == order(d)


def test_a_dropped_slp_generator_fails_the_order_check(monkeypatch):
    gens = enumeration.group_generators
    monkeypatch.setattr(enumeration, "group_generators", lambda d: gens(d)[:1])
    d = parse_descriptor("slp:4:3")
    assert slp_order_by_sympy(d) != order(d)
