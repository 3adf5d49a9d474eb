"""The ``sn``/``an`` coset walks on bytes images.

Byte-identical goldens show that the walks find what they found on tuples;
these tests pin what they cannot see: the product identity and the order
the walk relies on, the power memo's key, the type of every payload a scan
hands out, that the walk makes its products in C, and the refusal of a
degree a bytes image cannot hold.
"""

import random
from itertools import permutations, product

import pytest

from cinorm import (
    GuardExceededError,
    SubgroupSpec,
    alternating,
    disjunction_energy,
    displacement_energy,
    find_strong_displacer,
    packing_number,
    perm_from_cycles,
    support_norm,
    symmetric,
    trivial_norm,
)
from cinorm import displacement
from cinorm.elements import _gather, _perm_parity


def pad(n):
    return bytes(range(n, 256))


def sym_block(d, pts):
    return SubgroupSpec((perm_from_cycles(d, pts[:2]), perm_from_cycles(d, pts)))


def payloads(d):
    return [p for p in permutations(range(d.n)) if d.family == "sn" or not _perm_parity(p)]


def assert_product_and_order(n, pairs):
    for a, b in pairs:
        assert bytes(b).translate(bytes(a) + pad(n)) == bytes(_gather(a, b))
        assert (bytes(a) < bytes(b)) == (a < b)
        assert (bytes(a) == bytes(b)) == (a == b)


@pytest.mark.parametrize("d", [symmetric(5), alternating(5)], ids=str)
def test_translate_is_the_product_on_every_pair(d):
    assert_product_and_order(d.n, product(payloads(d), repeat=2))


def test_translate_is_the_product_on_seeded_pairs_of_s10():
    rng = random.Random(10)

    def draw():
        return tuple(rng.sample(range(10), 10))
    assert_product_and_order(10, [(draw(), draw()) for _ in range(2000)])


@pytest.mark.parametrize("m", [2, 3])
def test_power_memo_keys_are_the_power_images_of_supp_h(m):
    # test(phi) returns phi itself, so accept answers the first phi of its
    # key: equal images share it, and unequal ones never do
    d = symmetric(7)
    moved = SubgroupSpec((perm_from_cycles(d, (2, 5)), perm_from_cycles(d, (2, 5, 7))))
    supp = (1, 4, 6)
    asked = []

    def test(phi):
        asked.append(phi)
        return phi
    accept = displacement._power_memo(test, moved, m)
    first = {}
    for phi in permutations(range(7)):
        images, img = [], supp
        for _ in range(m):  # phi(supp), ..., phi^m(supp)
            img = tuple(phi[x] for x in img)
            images.append(img)
        key = tuple(images[1:])
        new = key not in first
        first.setdefault(key, phi)
        count = len(asked)
        assert accept(bytes(phi)) == first[key]
        assert len(asked) == count + new
    assert len(asked) == len(first) > 1
    assert all(type(phi) is tuple for phi in asked)


def cycles_of(p):
    """The cycles of the payload p, 1-based, for :func:`perm_from_cycles`."""
    seen, out = set(), []
    for i in range(len(p)):
        cycle = []
        while i not in seen:
            seen.add(i)
            cycle.append(i + 1)
            i = p[i]
        if len(cycle) > 1:
            out.append(tuple(cycle))
    return out


def assert_built_alike(d, x):
    assert type(x.payload) is tuple
    y = perm_from_cycles(d, *cycles_of(x.payload))
    assert x == y and hash(x) == hash(y)


@pytest.mark.parametrize("text,pts,pts2", [("sn:7", (1, 2, 3), (3, 4)),
                                           ("sn:9", (2, 4, 7), (1, 2)),
                                           ("an:8", (1, 2, 3, 4), (4, 5, 6))])
def test_every_element_a_scan_returns_is_a_tuple_payload(text, pts, pts2):
    d = symmetric(int(text[3:])) if text.startswith("sn") else alternating(int(text[3:]))
    if d.family == "an":  # <(1 2 3), (1 2)(3 4)>, A4 on the first four points
        h = SubgroupSpec((perm_from_cycles(d, pts[:3]),
                          perm_from_cycles(d, pts[:2], pts[2:])))
        h2 = SubgroupSpec((perm_from_cycles(d, pts2),))
    else:
        h, h2 = sym_block(d, pts), SubgroupSpec((perm_from_cycles(d, pts2),))
    found = []
    for m in (1, 2):
        found += find_strong_displacer(d, h, m).witnesses
        for norm in (support_norm, trivial_norm):
            found.append(displacement_energy(d, h, m, norm).minimizer)
    found.append(disjunction_energy(d, h, h2, support_norm).minimizer)
    packing = packing_number(d, h)
    assert packing.p > 1
    found += packing.certificate.witnesses
    found = [x for x in found if x is not None]  # None: e_m is infinite
    assert len(found) >= 5
    for x in found:
        assert_built_alike(d, x)


def test_the_sn_walk_makes_no_payload_product_per_leaf(monkeypatch):
    # the strong 2-displacer of Sym{2,4,7} in S9 multiplies out 13 780
    # leaves; on bytes images none of them is a payload product, and the
    # only products inside the walk are those of the power tests it runs
    d = symmetric(9)
    h = sym_block(d, (2, 4, 7))
    where, products, tests = ["out"], {"out": 0, "walk": 0, "test": 0}, [0]
    make_ops, least_leaf, power_memo = (displacement._payload_ops, displacement._least_leaf,
                                        displacement._power_memo)

    def ops(*args):
        mul, *rest = make_ops(*args)

        def counted(a, b):
            products[where[0]] += 1
            return mul(a, b)
        return (counted, *rest)

    def within(state, f, *args):
        outer, where[0] = where[0], state
        try:
            return f(*args)
        finally:
            where[0] = outer

    def memo(test, moved, m):
        def run(phi):
            tests[0] += 1
            return within("test", test, phi)
        return power_memo(run, moved, m)
    monkeypatch.setattr(displacement, "_payload_ops", ops)
    monkeypatch.setattr(displacement, "_least_leaf", lambda *a: within("walk", least_leaf, *a))
    monkeypatch.setattr(displacement, "_power_memo", memo)
    rep = find_strong_displacer(d, h, 2)
    assert rep.witnesses == (perm_from_cycles(d, (1, 2, 3), (4, 5, 6), (7, 8, 9)),
                             perm_from_cycles(d, (1, 3, 2), (4, 6, 5), (7, 9, 8)))
    assert products["walk"] == 0
    # each test makes phi^2, phi^-2 and at most 2 * 2 products per pair of
    # generators of H
    assert 0 < tests[0] <= 504 and 0 < products["test"] <= 10 * tests[0]


@pytest.mark.parametrize("call", [
    lambda d, h, limit: displacement_energy(d, h, 1, support_norm, limit),
    lambda d, h, limit: displacement_energy(d, h, 2, trivial_norm, limit),
    lambda d, h, limit: disjunction_energy(d, h, h, support_norm, limit),
    lambda d, h, limit: find_strong_displacer(d, h, 2, limit),
    lambda d, h, limit: packing_number(d, h, limit),
], ids=["energy-support", "energy-trivial", "disjunction", "strong", "packing"])
def test_a_degree_above_256_is_refused_after_the_order_guard(call, monkeypatch):
    d = symmetric(300)
    h = sym_block(d, (1, 2, 3))

    def no_search(*args):
        raise AssertionError("a search started")
    monkeypatch.setattr(displacement, "_find_class", no_search)
    # the order guard speaks first, as it did
    with pytest.raises(GuardExceededError, match=r"^\|sn:300\| has 615 digits and exceeds"):
        call(d, h, 10 ** 7)
    with pytest.raises(GuardExceededError) as info:
        call(d, h, 10 ** 700)
    assert str(info.value) == "sn:300 has degree 300, above the 256 points a bytes image holds"


@pytest.mark.parametrize("d,h", [
    (alternating(6), ((1, 2, 3),)),
    (symmetric(7), ((1, 2), (1, 2, 3))),
], ids=str)
def test_the_orbit_keeps_its_chain_levels_as_bytes(d, h):
    h = SubgroupSpec(tuple(perm_from_cycles(d, c) for c in h))
    orb = displacement._conjugates(d, h, 10 ** 7)
    assert orb.levels is orb.levels  # built once
    # the chain is grown on bytes images: its levels are walked as they are
    assert orb.levels == orb.chain.levels()
    assert all(type(u) is bytes for reps, _ in orb.chain.levels() for u in reps.values())
    assert all(type(g) is bytes for gens in orb.chain.gens for g in gens)
    # and the walk over them takes the least element of each coset t N,
    # against N and its cosets enumerated
    mul, inv, _, conj = displacement._payload_ops(d)
    elements = displacement._payloads(h)
    normalizer = [g for g in permutations(range(d.n))
                  if not (d.family == "an" and _perm_parity(g))
                  and all(conj(g, x.payload, inv(g)) in elements for x in h.generators)]
    assert len(normalizer) == orb.chain.order()
    for x in range(len(orb.cls.trans)):
        t = orb.coset(x)
        least = displacement._least_leaf(d, [t], orb.levels, None, lambda s, k: 0, None)
        assert least == (0, min(mul(t, g) for g in normalizer))
        assert type(least[1]) is tuple
