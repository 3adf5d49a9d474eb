"""``sympy.combinatorics`` as an oracle that shares no code with cinorm.

Each group is rebuilt in sympy from the payloads of
:func:`~cinorm.enumeration.group_generators`, so the generators are checked
along with the results:

* on S5-S7 and A5-A7, the order, the number of conjugacy classes and their
  sizes of the kernel's :meth:`~cinorm.kernel.FiniteGroup.classes`, the
  derived subgroup and the abelianization order, and the centralizer order
  |G|/|class| of each class's representative;
* the order, class count and class sizes of ``product`` groups acting on
  the disjoint union of their parts' points, and of ``wreath-zn`` groups
  acting on blocks of their base's points;
* the stabilizer chain of the normalizer N = N_G(H) that the displacement
  scans walk (``_StabChain``, base 0..n-1), against sympy's base and strong
  generating set with that base: its order and the length of each basic
  orbit, and that every generator of N normalizes H;
* that the ``an`` generators generate A_n for 3 <= n <= 30;
* ``descriptors.order`` of ``slp`` groups, against the permutation group
  that the ``slp`` generators generate on the non-zero row vectors, on
  which SL(n, p) acts faithfully.  slp:4:3 and slp:5:2 are too large for a
  closure in pure Python.

Each check is also run with a fault planted by ``monkeypatch``, and must
fail on it.
"""

from functools import partial
from itertools import product as iproduct
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.util import _distribute_gens_by_base, _orbits_transversals_from_bsgs

from cinorm import elements, enumeration, kernel
from cinorm.descriptors import order, parse_descriptor
from cinorm.displacement import _conjugates, _StabChain
from cinorm.elements import Element
from cinorm.enumeration import SubgroupSpec
from cinorm.literals import from_literal

PERMUTATION_GROUPS = ["sn:5", "sn:6", "sn:7", "an:5", "an:6", "an:7"]
ACTION_GROUPS = ["product:sn:3,sn:4", "wreath:sn:3:zn:2", "wreath:sn:2:zn:3"]
SLP_GROUPS = ["slp:3:2", "slp:3:3", "slp:4:2", "slp:4:3", "slp:5:2", "slp:6:2"]
LIMIT = 10 ** 7


def points(d, p):
    """The images of the points under the payload ``p`` of ``d``: ``sn`` and
    ``an`` on their own, a ``product`` of them on the disjoint union of
    their points, and ``wreath:sn:k:zn:n`` on n blocks of k points, (f, s)
    sending point x of block i to point f(i + s)(x) of block i + s."""
    if d.family in ("sn", "an"):
        return list(p)
    if d.family == "product":
        images = []
        for part, q in zip(d.parts, p):
            offset = len(images)
            images += [offset + x for x in q]
        return images
    (lamps, s), k, n = p, d.base.n, d.n
    lamps = dict(lamps)
    return [(i + s) % n * k + lamps.get((i + s) % n, range(k))[x]
            for i in range(n) for x in range(k)]


def sympy_group(d):
    """The permutation group that the library's generators of ``d`` generate."""
    return PermutationGroup([Permutation(points(d, g.payload))
                             for g in enumeration.group_generators(d)])


def assert_classes_match_sympy(d):
    """The order, class count and class sizes of ``d``'s kernel against
    sympy's; the kernel and sympy's group."""
    G, S = kernel.group_kernel(d), sympy_group(d)
    assert G.n == S.order()
    _, members = G.classes()
    classes = S.conjugacy_classes()
    assert len(members) == len(classes)
    assert sorted(map(len, members.values())) == sorted(map(len, classes))
    return G, S


def assert_group_matches_sympy(d):
    G, S = assert_classes_match_sympy(d)
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


@pytest.mark.parametrize("text", ACTION_GROUPS)
def test_classes_of_a_group_acting_on_points_match_sympy(text):
    assert_classes_match_sympy(parse_descriptor(text))


def test_a_shift_that_moves_no_lamp_fails_the_class_check(monkeypatch):
    # the lamps of b stay on their blocks when a shifts: G^n x Z_n, of the
    # same order as G wr Z_n but with other classes
    d = parse_descriptor("wreath:sn:3:zn:2")
    base_mul, base_inv, base_one, _ = elements._payload_ops(d.base)
    mul = partial(elements._wreath_mul, d.n, base_mul, base_one)

    def unshifted(a, b):
        return mul((a[0], 0), (b[0], 0))[0], (a[1] + b[1]) % d.n

    def inverse(a):
        return tuple((i, base_inv(g)) for i, g in a[0]), -a[1] % d.n
    faulty = (unshifted, inverse, ((), 0), partial(elements._mul_conj, unshifted))
    monkeypatch.setattr(kernel, "_payload_ops", lambda e: faulty if e == d else
                        elements._payload_ops(e))
    monkeypatch.setattr(kernel, "group_kernel", lambda e: kernel.FiniteGroup(
        e, enumeration.enumerate_elements(e), full=True))
    with pytest.raises(AssertionError):
        assert_classes_match_sympy(d)


# ---------------------------------------------------------------------------
# centralizer orders


def assert_centralizers_match_sympy(d):
    """|G|/|class| of each class's representative, its label, against
    sympy's centralizer of it."""
    G, S = kernel.group_kernel(d), sympy_group(d)
    for label, cls in G.classes()[1].items():
        rep = Permutation(points(d, G.payloads[label]))
        assert G.n // len(cls) == S.centralizer(rep).order()


@pytest.mark.parametrize("text", PERMUTATION_GROUPS)
def test_centralizer_orders_match_sympy(text):
    assert_centralizers_match_sympy(parse_descriptor(text))


def test_classes_listed_under_each_others_labels_fail_the_centralizer_check(monkeypatch):
    # the sizes are kept, so only the centralizer check sees the swap
    classes = kernel.FiniteGroup.classes

    def swapped(self):
        label, members = classes(self)
        a, b = (min(members, key=lambda k: len(members[k])),
                max(members, key=lambda k: len(members[k])))
        return label, {**members, a: members[b], b: members[a]}
    monkeypatch.setattr(kernel.FiniteGroup, "classes", swapped)
    d = parse_descriptor("sn:5")
    assert_classes_match_sympy(d)
    with pytest.raises(AssertionError):
        assert_centralizers_match_sympy(d)


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
def subgroups(draw, groups=("sn:6", "sn:7", "sn:8")):
    d = parse_descriptor(draw(st.sampled_from(groups)))

    def member():
        p = draw(st.permutations(range(d.n)))
        if d.family == "an" and Permutation(p).is_odd:
            p[0], p[1] = p[1], p[0]
        return Element(d, tuple(p))
    return d, SubgroupSpec(tuple(member() for _ in range(draw(st.integers(1, 2)))))


@settings(deadline=None, max_examples=8)
@given(subgroups())
def test_the_normalizer_chain_of_a_subgroup_matches_sympy(case):
    d, h = case
    assert_chain_matches_sympy(_conjugates(d, h, LIMIT).chain, d.n,
                               [g.payload for g in h.generators])


@settings(deadline=None, max_examples=8)
@given(subgroups(("an:5", "an:6", "an:7")))
def test_the_normalizer_chain_of_an_even_subgroup_matches_sympy(case):
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
# generation: A_n up to n = 30, and the orders of SL(n, p)


def assert_an_generators_generate(n_max):
    for n in range(3, n_max + 1):
        assert sympy_group(parse_descriptor(f"an:{n}")).order() == factorial(n) // 2


def test_the_an_generators_generate_a_n_up_to_30():
    assert_an_generators_generate(30)


def test_an_odd_an_generator_fails_the_generation_check(monkeypatch):
    # the n-cycle for n even too: an odd permutation, so S_n
    gens = enumeration.group_generators
    monkeypatch.setattr(enumeration, "group_generators", lambda d: gens(d)[:1] + (
        Element(d, (*range(1, d.n), 0)),))
    with pytest.raises(AssertionError):
        assert_an_generators_generate(4)


@pytest.mark.parametrize("text", SLP_GROUPS)
def test_slp_order_matches_the_group_its_generators_generate(text):
    d = parse_descriptor(text)
    assert slp_order_by_sympy(d) == order(d)


def test_a_dropped_slp_generator_fails_the_order_check(monkeypatch):
    gens = enumeration.group_generators
    monkeypatch.setattr(enumeration, "group_generators", lambda d: gens(d)[:1])
    d = parse_descriptor("slp:4:3")
    assert slp_order_by_sympy(d) != order(d)
