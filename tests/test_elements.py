"""Element arithmetic against independent oracles.

The wreath and bar multiplication laws are checked exhaustively against
faithful permutation actions built from generator images only; the affine
family is checked against its action on the integers.  None of the oracles
uses the library's own multiplication on the family under test.
"""

import copy
import dataclasses
import pickle
import random
from itertools import permutations
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from cinorm import (
    DescriptorMismatchError,
    QuasiMorphism,
    Element,
    affz_element,
    alternating,
    aff_z,
    bar,
    bar_element,
    bar_extension,
    binary_word,
    commutator_of,
    commutator_sup,
    compose,
    conjugate_of,
    counting_qm,
    defect,
    element_order,
    elementary,
    enumerate_elements,
    free_group,
    free_word,
    identity,
    int_matrix,
    invert,
    mod_matrix,
    perm_from_cycles,
    permutation,
    power,
    product,
    product_element,
    sl_mod,
    sl_z,
    symmetric,
    wreath_zn,
    z2_infinity,
)
from cinorm import elements
from cinorm.descriptors import GroupDescriptor, finite, parse_descriptor
from cinorm.elements import _mat_det, _payload_ops, normalized, sort_key
from cinorm.literals import from_literal, to_literal
from cinorm.sampling import random_element, random_payload, random_permutation, random_word

S3 = symmetric(3)
AFFZ = aff_z()

FAMILIES = [
    symmetric(4),
    alternating(4),
    free_group(2),
    aff_z(),
    z2_infinity(),
    sl_z(3),
    sl_mod(2, 5),
    wreath_zn(S3, 3),
    bar(S3),
    product(S3, free_group(1)),
]


def seeded(d, seed, size=6):
    return random_element(d, random.Random(seed), size=size)


# ---------------------------------------------------------------------------
# spec'd examples


def test_transposition_squares_to_identity():
    a = perm_from_cycles(S3, (1, 2))
    assert compose(a, a).is_identity()


def test_affz_zt_squared_is_identity():
    zt = affz_element(1, 1)
    assert compose(zt, zt).is_identity()


def test_bar_mixed_product_normal_form():
    d = bar(S3)
    h1, h2 = perm_from_cycles(S3, (1, 2)), perm_from_cycles(S3, (1, 3))
    f1, f2 = perm_from_cycles(S3, (1, 2, 3)), perm_from_cycles(S3, (2, 3))
    h = bar_element(d, h1, h2, 1)
    f = bar_element(d, f1, f2, 0)
    assert compose(h, f) == bar_element(d, compose(h1, f2), compose(h2, f1), 1)


def test_inverses():
    assert invert(identity(S3)).is_identity()
    f2 = free_group(2)
    w = free_word(f2, (1, 2, -1))
    assert invert(w) == free_word(f2, (1, -2, -1))
    e12 = elementary(sl_z(2), 1, 2)
    assert invert(e12).payload == ((1, -1), (0, 1))


def test_conjugation_examples():
    g = perm_from_cycles(S3, (1, 2))
    assert conjugate_of(g, identity(S3)) == g
    assert conjugate_of(g, perm_from_cycles(S3, (1, 3))) == perm_from_cycles(S3, (2, 3))
    t = affz_element(0, 1)
    for n in range(1, 30):
        # conjugating by z^-n appends z^{2n}
        assert conjugate_of(t, affz_element(-n, 0)) == \
            compose(t, affz_element(2 * n, 0))


def test_commutator_examples():
    a = seeded(S3, 1)
    assert commutator_of(a, a).is_identity()
    d3 = sl_z(3)
    for p in (-7, -1, 2, 13):
        assert commutator_of(elementary(d3, 1, 2),
                             power(elementary(d3, 2, 3), p)) == \
            power(elementary(d3, 1, 3), p)
    t, z = affz_element(0, 1), affz_element(1, 0)
    assert commutator_of(t, z) == affz_element(-2, 0)


def test_descriptor_mismatch_raises():
    with pytest.raises(DescriptorMismatchError):
        compose(identity(S3), identity(symmetric(4)))


def test_conjugate_of_checks_descriptors_as_compose_does():
    with pytest.raises(DescriptorMismatchError, match="^cannot compose sn:4 with sn:3$"):
        conjugate_of(identity(S3), identity(symmetric(4)))
    # an equal descriptor that is another object is the same group
    by = Element(symmetric(3), (1, 0, 2))
    assert conjugate_of(perm_from_cycles(S3, (1, 2, 3)), by) == perm_from_cycles(S3, (1, 3, 2))


def test_equal_payloads_of_two_groups_are_two_keys():
    # Element hashes its payload alone: the identities of sn:3 and an:3
    # collide, and equality still tells them apart
    s, a = identity(S3), identity(alternating(3))
    assert s.payload == a.payload and hash(s) == hash(a)
    assert s != a
    keys = {s: "sn", a: "an"}
    assert len(keys) == 2 and keys[identity(S3)] == "sn" and keys[a] == "an"
    assert not hasattr(s, "__dict__")


@pytest.mark.parametrize("idx", range(len(FAMILIES)))
def test_elements_stay_frozen_hashable_and_copyable(idx):
    # Element builds itself through its slots, past the frozen __setattr__;
    # assignment must still be refused, and copies and pickles round-trip
    d = FAMILIES[idx]
    e = seeded(d, idx)
    for field in ("descriptor", "payload"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, field, None)
    assert hash(e) == hash(e.payload)
    for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e)),
                 Element(descriptor=d, payload=e.payload), dataclasses.replace(e)):
        assert twin == e and hash(twin) == hash(e)
        assert twin.descriptor == d and twin.payload == e.payload


@pytest.mark.parametrize("idx", range(len(FAMILIES)))
def test_operator_and_method_forms_match_the_functions(idx):
    d = FAMILIES[idx]
    g, h = seeded(d, idx), seeded(d, idx + 100)
    assert g * h == compose(g, h)
    assert g.inverse() == invert(g)
    assert (g * g.inverse()).is_identity()


# ---------------------------------------------------------------------------
# AffZ against its affine action on the integers


def affz_action(payload, x):
    a, e = payload
    return a + (x if e == 0 else -x)


def test_affz_law_matches_affine_action():
    window = [(a, e) for a in range(-3, 4) for e in (0, 1)]
    points = range(-4, 5)
    for pa in window:
        for pb in window:
            prod = compose(Element(AFFZ, pa), Element(AFFZ, pb)).payload
            for x in points:
                assert affz_action(prod, x) == affz_action(pa, affz_action(pb, x))


def test_affz_presentation_relations():
    t, z = affz_element(0, 1), affz_element(1, 0)
    assert compose(t, t).is_identity()
    assert compose(t, z) == compose(invert(z), t)
    for n in range(-20, 21):
        zn = affz_element(n, 0)
        assert compose(t, zn) == compose(invert(zn), t)


# ---------------------------------------------------------------------------
# Bar law against a faithful 6-point action


def _bar_pi(payload):
    """Permutation of {0,1} x {0,1,2} built from generator images only."""
    g1, g2, e = payload
    pts = list(iproduct((0, 1), (0, 1, 2)))

    def act(pt):
        b, p = pt
        if e:  # swap applied first
            b = 1 - b
        g = (g1, g2)[b]
        return (b, g[p])

    return tuple(act(pt) for pt in pts)


def test_bar_law_matches_block_action_exhaustively():
    d = bar(S3)
    elems = enumerate_elements(d)
    assert len(elems) == 72
    pi = {h: _bar_pi(h.payload) for h in elems}
    images = set(pi.values())
    assert len(images) == 72  # the action is faithful
    pts = list(iproduct((0, 1), (0, 1, 2)))
    index = {pt: i for i, pt in enumerate(pts)}
    for h in elems:
        ph = pi[h]
        for f in elems:
            pf = pi[f]
            composed = tuple(ph[index[pt]] for pt in pf)
            assert composed == pi[compose(h, f)]


# ---------------------------------------------------------------------------
# wreath law against a faithful 9-point action


def _wreath_pi(payload, ring, base_n):
    lamps, s = payload
    lamp_map = dict(lamps)
    pts = list(iproduct(range(ring), range(base_n)))

    def act(pt):
        j, p = pt
        jj = (j + s) % ring
        g = lamp_map.get(jj)
        return (jj, p if g is None else g[p])

    return tuple(act(pt) for pt in pts)


def test_wreath_law_matches_block_action_exhaustively():
    d = wreath_zn(S3, 3)
    elems = enumerate_elements(d)
    assert len(elems) == 648
    pi = {h: _wreath_pi(h.payload, 3, 3) for h in elems}
    assert len(set(pi.values())) == 648
    pts = list(iproduct(range(3), range(3)))
    index = {pt: i for i, pt in enumerate(pts)}
    for h in elems:
        ph = pi[h]
        for f in elems:
            composed = tuple(ph[index[pt]] for pt in pi[f])
            assert composed == pi[compose(h, f)]


def test_wreath_semidirect_law_components():
    # shifts add, base parts compose after index translation
    d = wreath_zn(S3, 3)
    rng = random.Random(11)
    for _ in range(200):
        a, b = seeded(d, rng.randrange(10 ** 6)), seeded(d, rng.randrange(10 ** 6))
        (la, sa), (lb, sb) = a.payload, b.payload
        prod = compose(a, b)
        lamps, s = prod.payload
        assert s == (sa + sb) % 3
        da, db, dp = dict(la), dict(lb), dict(lamps)
        one = identity(S3).payload
        for i in range(3):
            expected = compose(Element(S3, da.get(i, one)),
                               Element(S3, db.get((i - sa) % 3, one)))
            got = Element(S3, dp.get(i, one))
            assert got == expected


# ---------------------------------------------------------------------------
# generic group laws and canonical form, across all families


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(FAMILIES))), st.integers(0, 10 ** 9))
def test_associativity_and_inverse(idx, seed):
    d = FAMILIES[idx]
    rng = random.Random(seed)
    a, b, c = (random_element(d, rng, size=5) for _ in range(3))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, invert(a)).is_identity()
    assert compose(identity(d), a) == a == compose(a, identity(d))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(FAMILIES))), st.integers(0, 10 ** 9))
def test_canonical_idempotence(idx, seed):
    d = FAMILIES[idx]
    g = random_element(d, random.Random(seed), size=5)
    assert normalized(d, g.payload) == g.payload


# payloads are plain ints and tuples at every depth, so tuple order is the
# payload order and the hash is the payload's, in every family
NESTED = [parse_descriptor(s) for s in (
    "bar:wreath:sn:3:zn:2", "product:(bar:sn:3),free:2", "wreath:(product:sn:3,sn:2):z")]


def _plain(p):
    return isinstance(p, int) or isinstance(p, tuple) and all(map(_plain, p))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FAMILIES + NESTED), st.integers(0, 10 ** 9))
def test_payloads_are_plain_data(d, seed):
    rng = random.Random(seed)
    a, b = random_element(d, rng, size=4), random_element(d, rng, size=4)
    for e in (a, compose(a, b), invert(a), identity(d)):
        assert _plain(e.payload), e
        assert sort_key(e) == e.payload and hash(e) == hash(e.payload)
        assert from_literal(d, to_literal(e)) == e


@pytest.mark.parametrize("d", [d for d in FAMILIES + NESTED if finite(d)], ids=str)
def test_enumeration_is_strictly_increasing_plain_payloads(d):
    payloads = [e.payload for e in enumerate_elements(d)]
    assert all(map(_plain, payloads))
    assert all(p < q for p, q in zip(payloads, payloads[1:]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(-6, 6), st.integers(-6, 6))
def test_power_laws(seed, i, j):
    d = FAMILIES[seed % len(FAMILIES)]
    g = random_element(d, random.Random(seed), size=4)
    assert compose(power(g, i), power(g, j)) == power(g, i + j)
    assert power(g, -1) == invert(g)


POWER_FAMILIES = [symmetric(5), free_group(2), sl_z(3), wreath_zn(S3, 3),
                  bar(free_group(2)), product(S3, free_group(2))]


@pytest.mark.parametrize("d", POWER_FAMILIES, ids=str)
def test_power_matches_repeated_compose(d):
    rng = random.Random(str(d))
    for _ in range(3):
        g = random_element(d, rng, size=5)
        for sign, step in ((1, g), (-1, invert(g))):
            acc = identity(d)
            for k in range(21):
                assert power(g, sign * k) == acc
                acc = compose(acc, step)


@pytest.mark.parametrize("d", POWER_FAMILIES, ids=str)
def test_power_of_two_squares_once_per_bit(d, monkeypatch):
    squares = []
    real = elements.compose

    def counting(a, b):
        if a is b:
            squares.append(a)
        return real(a, b)

    monkeypatch.setattr(elements, "compose", counting)
    g = random_element(d, random.Random(5), size=5)
    for j in range(8):
        squares.clear()
        power(g, 2 ** j)
        assert len(squares) == j


def test_free_reduction():
    f2 = free_group(2)
    assert free_word(f2, (1, -1)).is_identity()
    assert free_word(f2, (1, 2, -2, -1, 1)) == free_word(f2, (1,))
    w = free_word(f2, (1, 2))
    assert compose(w, invert(w)).is_identity()


def reduced_words(d, length):
    """Every reduced word of ``d`` of exactly ``length`` letters."""
    letters = [x for i in range(1, d.n + 1) for x in (i, -i)]
    words = [()]
    for _ in range(length):
        words = [w + (x,) for w in words for x in letters if not w or w[-1] != -x]
    return words


@pytest.mark.parametrize("rank", [1, 2])
def test_free_product_matches_reduction_exhaustively(rank):
    d = free_group(rank)
    words = [w for n in range(4) for w in reduced_words(d, n)]
    for a in words:
        for b in words:
            assert compose(Element(d, a), Element(d, b)).payload == normalized(d, a + b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
       st.integers(0, 10 ** 9))
def test_free_product_matches_reduction(rank, la, shared, lb, seed):
    # b starts with the inverse of a suffix of a, so up to ``shared``
    # letters cancel at the junction, and then possibly a few more
    d = free_group(rank)
    rng = random.Random(seed)
    a = random_word(d, rng, la)
    suffix = a.payload[len(a.payload) - min(shared, la):]
    b = compose(invert(Element(d, suffix)), random_word(d, rng, lb))
    assert compose(a, b).payload == normalized(d, a.payload + b.payload)
    assert compose(a, invert(a)).payload == ()
    assert compose(a, identity(d)) == a == compose(identity(d), a)


def test_binary_word_canonical():
    assert binary_word((1, 0, 1, 1, 0)).payload == (1, 0, 1, 1)
    assert binary_word((0, 0)).is_identity()
    w = binary_word((1, 1))
    assert compose(w, w).is_identity()


def test_matrix_det_validation():
    d = sl_z(2)
    with pytest.raises(ValueError):
        int_matrix(d, [[1, 0], [0, 2]])
    m = int_matrix(d, [[2, 1], [1, 1]])
    assert compose(m, invert(m)).is_identity()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_elementary_matches_the_checked_constructors(n):
    # elementary builds its payload without the determinant check that the
    # constructors make of user matrices
    for d in (sl_z(n), sl_mod(n, 2), sl_mod(n, 3), sl_mod(n, 7)):
        build = int_matrix if d.family == "slz" else mod_matrix
        for i, j in permutations(range(n), 2):
            for p in range(-3, 4):
                rows = [[p if (r, c) == (i, j) else int(r == c) for c in range(n)]
                        for r in range(n)]
                assert elementary(d, i + 1, j + 1, p) == build(d, rows)


def test_element_order():
    assert element_order(perm_from_cycles(S3, (1, 2, 3))) == 3
    assert element_order(affz_element(0, 1)) == 2
    assert element_order(affz_element(1, 0), cap=50) is None


def test_alternating_rejects_odd():
    with pytest.raises(ValueError):
        permutation(alternating(4), (1, 0, 2, 3))


def test_product_componentwise():
    d = product(S3, free_group(1))
    a = product_element(d, (perm_from_cycles(S3, (1, 2)), free_word(free_group(1), (1,))))
    b = product_element(d, (perm_from_cycles(S3, (1, 3)), free_word(free_group(1), (1, 1))))
    ab = compose(a, b)
    assert Element(S3, ab.payload[0]) == compose(Element(S3, a.payload[0]),
                                                 Element(S3, b.payload[0]))
    assert ab.payload[1] == (1, 1, 1)


# ---------------------------------------------------------------------------
# the SL(n) inverse against the adjugate by minors


def adjugate_by_minors(a, mod):
    """Entry (i, j) is (-1)^(i+j) times the determinant of ``a`` without row j
    and column i: n^2 Bareiss determinants, reduced mod ``mod`` if non-zero."""
    n = len(a)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            v = _mat_det(minor) if n > 1 else 1
            if (i + j) & 1:
                v = -v
            row.append(v % mod if mod else v)
        rows.append(tuple(row))
    return tuple(rows)


def signed_permutation_matrices(d):
    """Every signed permutation matrix of determinant 1 in ``d``."""
    n = d.n
    for perm in permutations(range(n)):
        for signs in iproduct((1, -1), repeat=n):
            rows = [[signs[i] if perm[i] == j else 0 for j in range(n)]
                    for i in range(n)]
            if _mat_det(rows) == 1:
                yield int_matrix(d, rows)


def assert_inverse_matches_minors(g):
    d = g.descriptor
    inv = invert(g)
    assert inv.payload == adjugate_by_minors(g.payload, d.p if d.family == "slp" else 0)
    assert compose(g, inv).is_identity() and compose(inv, g).is_identity()


@pytest.mark.parametrize("d", [sl_z(2), sl_z(3), sl_z(4), sl_z(5), sl_mod(2, 7),
                               sl_mod(3, 2)], ids=str)
def test_matrix_inverse_matches_adjugate_by_minors(d):
    rng = random.Random(f"inverse:{d}")
    for _ in range(60):
        assert_inverse_matches_minors(random_element(d, rng, size=10))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_inverse_with_row_swaps(n):
    # zero pivots force the elimination to swap rows, and a product with a
    # random element moves those zeros around
    d = sl_z(n)
    rng = random.Random(n)
    count = 0
    for s in signed_permutation_matrices(d):
        assert_inverse_matches_minors(s)
        g = random_element(d, rng, size=6)
        assert_inverse_matches_minors(compose(s, g))
        assert_inverse_matches_minors(compose(g, s))
        count += 1
    assert count == 2 ** (n - 1) * len(list(permutations(range(n))))


def bound_inverse(n, mod):
    """The inverse bound to ``sl_z(n)``, or to ``sl_mod(n, mod)`` when
    ``mod`` is non-zero: the adjugate, reduced mod ``mod``."""
    return _payload_ops(sl_mod(n, mod) if mod else sl_z(n))[1]


def test_singular_matrix_has_no_inverse():
    with pytest.raises(ValueError, match="singular"):
        bound_inverse(2, 0)(((1, 2), (2, 4)))
    with pytest.raises(ValueError, match="singular"):
        bound_inverse(3, 0)(((0, 0, 1), (0, 0, 2), (1, 0, 0)))


# ---------------------------------------------------------------------------
# seeded sampling draws the same stream as the validated word builder


def random_word_by_free_word(d, rng, length):
    """Draw letters exactly as ``random_word`` does, then build the word
    through the validating, reducing constructor."""
    letters = []
    for _ in range(length):
        while True:
            x = rng.randint(1, d.n) * rng.choice((1, -1))
            if not letters or letters[-1] != -x:
                break
        letters.append(x)
    return free_word(d, letters)


def random_element_by_free_word(d, rng, size):
    if d.family == "free":
        return random_word_by_free_word(d, rng, rng.randint(0, size))
    if d.family == "bar":
        return Element(d, (random_element_by_free_word(d.base, rng, size).payload,
                           random_element_by_free_word(d.base, rng, size).payload,
                           rng.randint(0, 1)))
    return Element(d, tuple(random_element_by_free_word(p, rng, size).payload
                            for p in d.parts))


@pytest.mark.parametrize("d", [free_group(2), bar(free_group(2)),
                               product(free_group(2), free_group(2))], ids=str)
def test_seeded_words_are_unchanged(d):
    for seed in range(21):
        fast, slow = random.Random(seed), random.Random(seed)
        if d.family == "free":
            assert random_word(d, fast, 9) == random_word_by_free_word(d, slow, 9)
        for _ in range(5):
            assert random_element(d, fast, 8) == random_element_by_free_word(d, slow, 8)
        assert fast.getstate() == slow.getstate()


def random_element_by_elements(d, rng, size):
    """Draw as ``random_element`` once did, composing Elements: every family
    through the public constructors and ``compose``."""
    f = d.family
    if f in ("sn", "an"):
        return random_permutation(d, rng)
    if f == "free":
        return random_word(d, rng, rng.randint(0, size))
    if f == "z2inf":
        return binary_word(rng.randint(0, 1) for _ in range(rng.randint(0, size)))
    if f == "aff-z":
        return affz_element(rng.randint(-size, size), rng.randint(0, 1))
    if f in ("slz", "slp"):
        out = identity(d)
        for _ in range(rng.randint(1, max(1, size // 2))):
            i = rng.randint(1, d.n)
            j = rng.randint(1, d.n - 1)
            j = j if j < i else j + 1
            out = compose(out, elementary(d, i, j, rng.choice((-2, -1, 1, 2))))
        return out
    if f in ("wreath-zn", "wreath-z"):
        ring = d.n if f == "wreath-zn" else size
        lamps = {}
        for i in range(ring):
            if rng.random() < 0.5:
                g = random_element_by_elements(d.base, rng, size)
                if not g.is_identity():
                    lamps[i] = g.payload
        shift = rng.randrange(ring) if f == "wreath-zn" else rng.randint(-size, size)
        return Element(d, (tuple(sorted(lamps.items())), shift))
    if f == "bar":
        return Element(d, (random_element_by_elements(d.base, rng, size).payload,
                           random_element_by_elements(d.base, rng, size).payload,
                           rng.randint(0, 1)))
    return Element(d, tuple(random_element_by_elements(p, rng, size).payload
                            for p in d.parts))


@pytest.mark.parametrize("name", [
    "sn:5", "an:5", "free:2", "free:3", "z2inf", "aff-z", "slz:3", "slp:3:5",
    "wreath:sn:3:zn:4", "wreath:sn:3:z", "wreath:free:2:zn:3", "bar:free:2",
    "bar:slz:2", "product:sn:3,free:2"])
def test_payload_draws_match_element_draws(name):
    # random_element wraps random_payload; both draw the stream the Element
    # loop drew, and leave the generator in the same state
    d = parse_descriptor(name)
    for seed, size in iproduct(range(6), (0, 1, 5, 12)):
        by_payload, by_element, wrapped = (random.Random(seed) for _ in range(3))
        for _ in range(4):
            g = random_element_by_elements(d, by_element, size)
            assert random_payload(d, by_payload, size) == g.payload
            assert random_element(d, wrapped, size) == g
        assert by_payload.getstate() == by_element.getstate() == wrapped.getstate()


def test_random_word_needs_a_free_group():
    with pytest.raises(ValueError, match="not a free group"):
        random_word(S3, random.Random(0), 3)


def test_random_word_refuses_rank_zero():
    # the raw dataclass admits rank 0, which has no letter to draw
    d = GroupDescriptor("free", n=0)
    rng = random.Random(0)
    state = rng.getstate()
    for length in (0, 3):
        with pytest.raises(ValueError, match="no letters"):
            random_word(d, rng, length)
    assert rng.getstate() == state


def product_by_reduction(d, a, b):
    """``ab`` on payloads of free, bar and product groups, with free words
    multiplied by concatenating and reducing."""
    if d.family == "free":
        return normalized(d, a + b)
    if d.family == "bar":
        (g1, g2, e), (f1, f2, fe) = a, b
        if e:
            f1, f2 = f2, f1
        return (product_by_reduction(d.base, g1, f1),
                product_by_reduction(d.base, g2, f2), (e + fe) & 1)
    return tuple(map(product_by_reduction, d.parts, a, b))


def sampled_by_reduction(q, budget, seed, defect_size=12, sup_size=8, max_witnesses=5):
    """Sampled defect and commutator sup of ``q``, drawn through the
    validating word builder and multiplied by reduction."""
    d = q.domain

    def mul(x, y):
        return Element(d, product_by_reduction(d, x.payload, y.payload))

    rng = random.Random(seed)
    worst = 0
    for _ in range(budget):
        a = random_element_by_free_word(d, rng, defect_size)
        b = random_element_by_free_word(d, rng, defect_size)
        worst = max(worst, abs(q(mul(a, b)) - q(a) - q(b)))
    rng = random.Random(seed)
    best, witnesses = 0, []
    for _ in range(budget):
        x = random_element_by_free_word(d, rng, sup_size)
        y = random_element_by_free_word(d, rng, sup_size)
        v = q(mul(mul(x, y), mul(invert(x), invert(y))))
        if v > best:
            best, witnesses = v, [(x, y)]
        elif v == best and v > 0 and len(witnesses) < max_witnesses:
            witnesses.append((x, y))
    return worst, best, witnesses


def _sampled_qms():
    f2 = free_group(2)
    count = counting_qm(free_word(f2, (1, 2)))
    pair = product(f2, f2)
    summed = QuasiMorphism(pair, lambda g: sum(count(Element(f2, c)) for c in g.payload),
                           name="sum-count")
    return [count, bar_extension(count, bar(f2)), summed]


@pytest.mark.parametrize("q", _sampled_qms(), ids=lambda q: str(q.domain))
def test_sampled_estimates_match_reduction(q):
    for seed in (0, 7):
        d_est = defect(q, "sampled", budget=150, seed=seed)
        c_est = commutator_sup(q, mode="sampled", budget=150, seed=seed)
        worst, best, witnesses = sampled_by_reduction(q, 150, seed)
        assert (d_est.value, d_est.sample_count) == (worst, 150)
        assert (c_est.value, c_est.witnesses, c_est.sample_count) == (best, witnesses, 150)


# ---------------------------------------------------------------------------
# the matrix product against the triple loop


def product_by_triple_loop(a, b, mod):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] += a[i][k] * b[k][j]
            if mod:
                out[i][j] %= mod
    return tuple(tuple(row) for row in out)


@pytest.mark.parametrize("d", [sl_z(2), sl_z(3), sl_z(4), sl_z(5), sl_mod(2, 7),
                               sl_mod(3, 2)], ids=str)
def test_matrix_product_matches_triple_loop(d):
    rng = random.Random(f"product:{d}")
    mod = d.p if d.family == "slp" else 0
    for _ in range(60):
        a, b = random_element(d, rng, size=10), random_element(d, rng, size=10)
        assert compose(a, b).payload == product_by_triple_loop(a.payload, b.payload, mod)


def test_free_length_is_drawn_as_randint_draws_it():
    # sizes with size + 1 a power of two, just above one and zero: the
    # rejection loop redraws at different rates on each
    d = free_group(2)
    for size in (0, 1, 2, 3, 6, 7, 8, 15, 16, 31, 40, 64):
        for seed in range(8):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(6):
                assert random_element(d, fast, size) == \
                    random_word_by_free_word(d, slow, slow.randint(0, size))
            assert fast.getstate() == slow.getstate()


def test_negative_free_length_is_refused_before_drawing():
    # randint(0, -1) raises; getrandbits(0) is 0, so the inline loop would
    # never end without the guard
    rng = random.Random(3)
    state = rng.getstate()
    for size in (-1, -2, -9):
        with pytest.raises(ValueError, match="negative"):
            random_element(free_group(2), rng, size)
    assert rng.getstate() == state


# ---------------------------------------------------------------------------
# the bound payload operations against the family chains they replaced


def chain_identity(d):
    """The identity payload, family by family."""
    f = d.family
    if f in ("sn", "an"):
        return tuple(range(d.n))
    if f == "free" or f == "z2inf":
        return ()
    if f == "aff-z":
        return (0, 0)
    if f in ("slz", "slp"):
        return tuple(tuple(1 if i == j else 0 for j in range(d.n)) for i in range(d.n))
    if f in ("wreath-z", "wreath-zn"):
        return ((), 0)
    if f == "bar":
        one = chain_identity(d.base)
        return (one, one, 0)
    return tuple(chain_identity(p) for p in d.parts)


def chain_mat_mul(a, b, mod):
    cols = list(zip(*b))
    if mod:
        return tuple([tuple([sum(map(lambda x, y: x * y, row, col)) % mod for col in cols])
                      for row in a])
    return tuple([tuple([sum(map(lambda x, y: x * y, row, col)) for col in cols])
                  for row in a])


def bareiss_adjugate(a, mod):
    """The adjugate by one fraction-free Gauss-Jordan pass on [A | I], as
    every SL(n) inverse was made before the cofactor formulas."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                raise ValueError("singular matrix has no inverse")
        rk = m[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], rk)]
        prev = p
    if mod:
        return tuple(tuple(sign * x % mod for x in row[n:]) for row in m)
    return tuple(tuple(sign * x for x in row[n:]) for row in m)


def chain_compose(d, a, b):
    """The product by the family if-chain, recursing on nested families."""
    f = d.family
    if f in ("sn", "an"):
        return tuple(a[i] for i in b)
    if f == "free":
        k = 0
        m = min(len(a), len(b))
        while k < m and a[-1 - k] == -b[k]:
            k += 1
        return a[:len(a) - k] + b[k:] if k else a + b
    if f == "aff-z":
        aa, ae = a
        ba, be = b
        return (aa + ba if ae == 0 else aa - ba, (ae + be) & 1)
    if f == "z2inf":
        la, lb = len(a), len(b)
        bits = [(a[i] if i < la else 0) ^ (b[i] if i < lb else 0)
                for i in range(max(la, lb))]
        while bits and bits[-1] == 0:
            bits.pop()
        return tuple(bits)
    if f == "slz":
        return chain_mat_mul(a, b, 0)
    if f == "slp":
        return chain_mat_mul(a, b, d.p)
    if f in ("wreath-z", "wreath-zn"):
        ring = d.n if f == "wreath-zn" else 0
        lamps_a, s = a
        lamps_b, u = b
        lamps = dict(lamps_a)
        for j, g in lamps_b:
            i = j + s if ring == 0 else (j + s) % ring
            cur = lamps.get(i)
            if cur is None:
                lamps[i] = g
            else:
                v = chain_compose(d.base, cur, g)
                if v == chain_identity(d.base):
                    del lamps[i]
                else:
                    lamps[i] = v
        shift = s + u if ring == 0 else (s + u) % ring
        return (tuple(sorted(lamps.items())), shift)
    if f == "bar":
        g1, g2, e = a
        f1, f2, fe = b
        if e:
            f1, f2 = f2, f1
        return (chain_compose(d.base, g1, f1), chain_compose(d.base, g2, f2),
                (e + fe) & 1)
    return tuple(map(chain_compose, d.parts, a, b))


def chain_invert(d, a):
    """The inverse by the family if-chain, recursing on nested families."""
    f = d.family
    if f in ("sn", "an"):
        out = [0] * len(a)
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)
    if f == "free":
        return tuple(-x for x in reversed(a))
    if f == "aff-z":
        aa, e = a
        return (-aa, 0) if e == 0 else (aa, 1)
    if f == "z2inf":
        return a
    if f == "slz":
        return bareiss_adjugate(a, 0)
    if f == "slp":
        return bareiss_adjugate(a, d.p)
    if f in ("wreath-z", "wreath-zn"):
        ring = d.n if f == "wreath-zn" else 0
        lamps, s = a
        out = {}
        for i, g in lamps:
            j = i - s if ring == 0 else (i - s) % ring
            out[j] = chain_invert(d.base, g)
        return (tuple(sorted(out.items())), -s if ring == 0 else (-s) % ring)
    if f == "bar":
        g1, g2, e = a
        if e:
            g1, g2 = g2, g1
        return (chain_invert(d.base, g1), chain_invert(d.base, g2), e)
    return tuple(map(chain_invert, d.parts, a))


BOUND_FAMILIES = [
    "sn:5", "an:5", "free:2", "aff-z", "z2inf",
    "slz:2", "slz:3", "slz:4", "slz:5", "slp:2:7", "slp:3:2", "slp:4:3", "slp:5:2",
    "wreath:sn:3:z", "wreath:sn:4:zn:3", "bar:free:2",
    "product:sn:3,free:2,slz:3,wreath:sn:3:zn:2,aff-z",
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BOUND_FAMILIES), st.integers(0, 10 ** 9))
def test_bound_operations_match_the_family_chains(text, seed):
    d = parse_descriptor(text)
    rng = random.Random(seed)
    a, b = random_element(d, rng, 6), random_element(d, rng, 6)
    mul, inv, one, conj = _payload_ops(d)
    ab = chain_compose(d, a.payload, b.payload)
    assert mul(a.payload, b.payload) == ab
    assert compose(a, b).payload == ab
    for g in (a, b):
        g_inv = chain_invert(d, g.payload)
        assert inv(g.payload) == g_inv
        assert invert(g).payload == g_inv
    ba_inv = chain_invert(d, chain_compose(d, b.payload, a.payload))
    assert commutator_of(a, b).payload == chain_compose(d, ab, ba_inv)
    assert one == identity(d).payload == chain_identity(d)
    assert compose(a, invert(a)).is_identity()
    a_inv = chain_invert(d, a.payload)
    aba_inv = chain_compose(d, ab, a_inv)
    assert conj(a.payload, b.payload, a_inv) == aba_inv
    assert conjugate_of(b, a).payload == aba_inv


MATRIX_GROUPS = [sl_z(n) for n in range(2, 6)] + \
    [sl_mod(n, p) for n in range(2, 6) for p in (2, 3, 5, 7)]


@pytest.mark.parametrize("d", MATRIX_GROUPS, ids=str)
def test_adjugates_match_bareiss_on_sl(d):
    rng = random.Random(f"adjugate:{d}")
    mod = d.p if d.family == "slp" else 0
    for _ in range(25):
        g = random_element(d, rng, size=10)
        assert bound_inverse(d.n, mod)(g.payload) == bareiss_adjugate(g.payload, mod)
        assert invert(g).payload == bareiss_adjugate(g.payload, mod)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n)),
       st.sampled_from([0, 2, 3, 5, 7]))
def test_adjugates_match_bareiss_on_integer_matrices(rows, mod):
    # any determinant: the adjugate is defined for every non-singular matrix,
    # and both refuse exactly the singular ones
    a = tuple(map(tuple, rows))
    try:
        want = bareiss_adjugate(a, mod)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            bound_inverse(len(a), mod)(a)
    else:
        assert bound_inverse(len(a), mod)(a) == want


def square_matrices(n):
    return st.lists(st.tuples(*[st.integers()] * n), min_size=n, max_size=n).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(square_matrices(n), square_matrices(n))),
       st.sampled_from([0, 2, 3, 5, 7]))
def test_products_match_the_chain_on_integer_matrices(pair, mod):
    # any entries, singular or not: straight-line products for n <= 4, the
    # generic comprehension at n = 5; a tuple of tuples, so payloads hash
    a, b = pair
    got = _payload_ops(sl_mod(len(a), mod) if mod else sl_z(len(a)))[0](a, b)
    assert got == chain_mat_mul(a, b, mod)
    assert type(got) is tuple and all(type(row) is tuple for row in got)


@pytest.mark.parametrize("a", [
    ((1, 2), (2, 4)),
    ((0, 0), (0, 0)),
    ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
    ((0, 0, 1), (0, 0, 2), (1, 0, 0)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 0, 1)),
    ((1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6), (4, 5, 6, 7)),
], ids=lambda a: f"{len(a)}x{len(a)}")
def test_singular_small_matrices_are_refused(a):
    for mod in (0, 5):
        with pytest.raises(ValueError, match="singular"):
            bound_inverse(len(a), mod)(a)


@pytest.mark.parametrize("text", BOUND_FAMILIES, ids=str)
def test_descriptors_and_elements_round_trip_after_use(text):
    # the bound operations are kept on the descriptor: they must not stop
    # it or its Elements from copying and pickling, nor change its eq,
    # hash, repr or str
    d = parse_descriptor(text)
    rng = random.Random(text)
    a, b = random_element(d, rng, 6), random_element(d, rng, 6)
    e = commutator_of(compose(a, b), invert(b))
    fresh = parse_descriptor(text)
    assert d == fresh and hash(d) == hash(fresh)
    assert str(d) == str(fresh) == text and repr(d) == repr(fresh)
    for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d)),
                 dataclasses.replace(d)):
        assert twin == d and hash(twin) == hash(d) and str(twin) == text
        assert compose(Element(twin, a.payload), Element(twin, b.payload)) == compose(a, b)
    for g in (a, b, e):
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g)),
                     dataclasses.replace(g)):
            assert twin == g and hash(twin) == hash(g)
            assert compose(twin, g) == compose(g, g)


@pytest.mark.parametrize("text", BOUND_FAMILIES, ids=str)
def test_round_trip_after_a_first_conjugation(text):
    # a record first built by conjugate_of holds conj as well: a gather on
    # sn/an, a partial over the product elsewhere, and both must pickle
    rng = random.Random(text)
    a, b = (random_element(parse_descriptor(text), rng, 6).payload for _ in range(2))
    d = parse_descriptor(text)
    a, b = Element(d, a), Element(d, b)
    e = conjugate_of(a, b)
    assert "_payload_ops" in vars(d)
    for twin in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert twin is d
        assert conjugate_of(Element(twin, a.payload), Element(twin, b.payload)) == e
    for g in (a, b, e):
        for twin in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g and hash(twin) == hash(g)
            assert conjugate_of(twin, g) == conjugate_of(g, g)


def test_operations_on_one_descriptor_never_compare_or_hash_it(monkeypatch):
    d = parse_descriptor("wreath:sn:3:zn:3")
    rng = random.Random(0)
    a, b = random_element(d, rng, 6), random_element(d, rng, 6)
    calls = []
    eq, hash_ = GroupDescriptor.__eq__, GroupDescriptor.__hash__

    def counted_eq(self, other):
        calls.append("eq")
        return eq(self, other)

    def counted_hash(self):
        calls.append("hash")
        return hash_(self)
    monkeypatch.setattr(GroupDescriptor, "__eq__", counted_eq)
    monkeypatch.setattr(GroupDescriptor, "__hash__", counted_hash)
    for _ in range(3):
        compose(a, b)
        invert(a)
        commutator_of(a, b)
        a.is_identity()
        identity(d)
    assert calls == []
    # an equal descriptor is the same object, so nothing compares it either
    twin = Element(parse_descriptor("wreath:sn:3:zn:3"), b.payload)
    assert twin.descriptor is d
    calls.clear()  # finding it hashed its base sn:3, in the intern key
    assert compose(a, twin) == compose(a, b)
    assert calls == []
