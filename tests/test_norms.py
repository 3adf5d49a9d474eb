"""Norm construction and verification against independent oracles.

Oracles used here and nowhere in the library:
* iterated set-products of the conjugacy closure for the BFS word metric;
* ``n - #cycles`` for the transposition metric on the symmetric group;
* iterated products of the commutator pool for commutator length.
"""

import random
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from cinorm import (
    DescriptorMismatchError,
    Element,
    NormTable,
    NormTableMeta,
    NotCGeneratingError,
    QuasiNormSpec,
    affz_element,
    alternating,
    aff_z,
    bar,
    binary_word,
    check_extremal_domination,
    commutator_length,
    commutator_of,
    compose,
    conjugacy_closure,
    coset_extension_qnorm,
    c_generates,
    enumerate_elements,
    free_group,
    generator_filtration_norm,
    identity,
    parse_descriptor,
    perm_from_cycles,
    power,
    product,
    product_element,
    pullback_qnorm,
    qk_norm,
    quasinorm_to_norm,
    stabilization_upper,
    support_norm,
    support_norm_table,
    symmetric,
    trivial_norm,
    trivial_norm_table,
    verify_norm_axioms,
    verify_quasinorm,
    wreath_element,
    z2_infinity,
)
from cinorm.norms import payload_value_fn
from cinorm.sampling import random_element

S3 = symmetric(3)
S4 = symmetric(4)
S5 = symmetric(5)
A5 = alternating(5)


def closure_metric_oracle(d, K):
    """Independent oracle: minimal n with g in the n-fold set product of the
    conjugacy closure."""
    closure = conjugacy_closure(K, d)
    expected = {identity(d): 0}
    level = {identity(d)}
    total = len(enumerate_elements(d))
    n = 0
    while len(expected) < total:
        n += 1
        level = {compose(g, c) for g in level for c in closure}
        new = level - expected.keys()
        if not new:
            raise AssertionError("set-closure oracle stalled: not c-generating")
        for g in new:
            expected.setdefault(g, n)
    return expected


def cl_oracle(elements, d):
    """Independent oracle: minimal n with g in the n-fold product of the
    commutator set."""
    elements = list(elements)
    pool = {commutator_of(a, b) for a in elements for b in elements}
    expected = {identity(d): 0}
    level = {identity(d)}
    n = 0
    while True:
        n += 1
        level = {compose(g, c) for g in level for c in pool}
        new = level - expected.keys()
        if not new:
            return expected
        for g in new:
            expected[g] = n


@pytest.mark.parametrize("text", ["sn:1", "sn:2", "sn:3", "sn:4", "sn:5", "sn:6",
                                  "an:3", "an:4", "an:5", "an:6"])
def test_payload_forms_agree_with_the_norms(text):
    d = parse_descriptor(text)
    support, trivial = payload_value_fn(d, support_norm), payload_value_fn(d, trivial_norm)
    for g in enumerate_elements(d):
        v = support(g.payload)
        assert type(v) is int and v == support_norm(g)
        assert trivial(g.payload) == trivial_norm(g)


@pytest.mark.parametrize("text", ["slp:2:3", "bar:sn:3", "product:sn:3,sn:3",
                                  "wreath:sn:2:zn:2"])
def test_payload_values_agree_off_permutations(text):
    # off permutations every norm goes through Element(d, payload)
    d = parse_descriptor(text)
    trivial = payload_value_fn(d, trivial_norm)
    assert all(trivial(g.payload) == trivial_norm(g) for g in enumerate_elements(d))
    # so the support norm keeps its error
    with pytest.raises(ValueError, match="support norm undefined"):
        payload_value_fn(d, support_norm)(identity(d).payload)


# ---------------------------------------------------------------------------
# axioms


def test_trivial_norm_passes():
    rep = verify_norm_axioms(trivial_norm_table(S4))
    assert rep.passed and not rep.violations


def test_support_norm_s5_passes_exhaustively():
    rep = verify_norm_axioms(support_norm_table(S5))
    assert rep.passed
    assert rep.pairs_checked == 120 * 120


def test_axiom_violations_reported_not_raised():
    vals = {g: Fraction(0 if g.is_identity() else 1)
            for g in enumerate_elements(S3)}
    dead = perm_from_cycles(S3, (1, 2))
    vals[dead] = Fraction(0)  # breaks positivity and symmetry
    rep = verify_norm_axioms(NormTable(S3, vals, NormTableMeta(name="broken")))
    assert not rep.passed
    assert any(axiom == "v" for axiom, _ in rep.violations) or \
        any(axiom == "ii" for axiom, _ in rep.violations)


def test_axioms_refuse_a_domain_without_an_inverse():
    # it used to raise a bare KeyError: Element(sn:3, (2, 0, 1))
    vals = {identity(S3): Fraction(0), perm_from_cycles(S3, (1, 2, 3)): Fraction(1)}
    with pytest.raises(ValueError, match=r"^the table's domain holds \(1 2 3\) "
                                         r"but not its inverse \(1 3 2\)$"):
        verify_norm_axioms(NormTable(S3, vals, NormTableMeta(name="partial")))


# ---------------------------------------------------------------------------
# q_K


def test_qk_a5_matches_set_closure_oracle():
    K = [perm_from_cycles(A5, (1, 2, 3, 4, 5))]
    table = qk_norm(A5, K)
    expected = closure_metric_oracle(A5, K)
    assert len(table.values) == 60
    assert all(table.values[g] == v for g, v in expected.items())
    assert table.meta.diameter == max(expected.values())
    assert verify_norm_axioms(table).passed


def test_qk_basics():
    K = [perm_from_cycles(A5, (1, 2, 3, 4, 5))]
    table = qk_norm(A5, K)
    assert table.values[identity(A5)] == 0
    for c in conjugacy_closure(K, A5):
        assert table.values[c] == 1


def test_qk_s5_transpositions_matches_cycle_count():
    K = [perm_from_cycles(S5, (1, 2))]
    table = qk_norm(S5, K)
    for g in enumerate_elements(S5):
        seen = [False] * 5
        cycles = 0
        for i in range(5):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = g.payload[j]
        assert table.values[g] == 5 - cycles
    assert table.meta.diameter == 4


def test_qk_rejects_non_generating():
    # a 3-cycle's closure stays inside the alternating part of S_4
    with pytest.raises(NotCGeneratingError):
        qk_norm(S4, [perm_from_cycles(S4, (1, 2, 3))])
    assert not c_generates(S4, [perm_from_cycles(S4, (1, 2, 3))])
    assert c_generates(S4, [perm_from_cycles(S4, (1, 2))])


# ---------------------------------------------------------------------------
# commutator length


def test_cl_a5_identically_one_off_identity():
    table = commutator_length(A5)
    assert len(table.values) == 60
    assert table.meta.diameter == 1
    for g, v in table.values.items():
        assert v == (0 if g.is_identity() else 1)


def test_cl_s4_matches_bruteforce_oracle():
    elems = enumerate_elements(S4)
    table = commutator_length(S4)
    expected = cl_oracle(elems, S4)
    assert table.values == {g: Fraction(v) for g, v in expected.items()}
    assert set(table.values) == set(expected)  # domain is the derived subgroup
    assert len(table.values) == 12


def test_cl_affz_witness():
    # every even power of z is a single commutator: [t, z^-n] = z^2n
    t = affz_element(0, 1)
    for n in range(1, 50):
        assert commutator_of(t, affz_element(-n, 0)) == affz_element(2 * n, 0)


# ---------------------------------------------------------------------------
# support and filtration norms


def test_support_norm_values():
    assert support_norm(identity(S5)) == 0
    assert support_norm(perm_from_cycles(S5, (1, 2))) == 2
    assert support_norm(binary_word((1, 0, 1, 1, 0))) == 3


def test_generator_filtration_norm():
    z2 = z2_infinity()
    units = [binary_word((0,) * i + (1,)) for i in range(10)]
    assert generator_filtration_norm(identity(z2), units) == 0
    w = binary_word((0,) * 6 + (1,))  # highest set bit at (1-based) index 7
    assert generator_filtration_norm(w, units) == 7
    assert generator_filtration_norm(binary_word((1, 0, 1)), units) == 3

    z_sq = product(free_group(1), free_group(1))
    f1 = free_group(1)

    def vec(a, b):
        return product_element(z_sq, (Element(f1, (1,) * a if a >= 0 else (-1,) * -a),
                                      Element(f1, (1,) * b if b >= 0 else (-1,) * -b)))
    gens = [vec(1, 0), vec(0, 1)]
    assert generator_filtration_norm(vec(0, 5), gens) == 2
    assert generator_filtration_norm(vec(3, 0), gens) == 1
    with pytest.raises(ValueError):
        generator_filtration_norm(vec(1, 1), [vec(2, 0), vec(0, 1)][:1])


def brute_filtration(g, gens, exponents):
    """The least k with g a product of powers ``s_i^c_i`` of the first k
    generators, every ``c_i`` in ``exponents``; None when there is none."""
    for k in range(len(gens) + 1):
        for cs in iter_product(exponents, repeat=k):
            x = identity(g.descriptor)
            for c, s in zip(cs, gens):
                x = compose(x, power(s, c))
            if x == g:
                return k
    return None


def test_generator_filtration_norm_reduces_against_brute_force():
    # two generators share a leading column or bit, so the lattice's gcd
    # reduction and the GF(2) basis's reduction run; a finite abelian group
    # takes its closure, and one that is neither finite nor free is refused
    f1 = free_group(1)
    z_sq = product(f1, f1)

    def vec(a, b):
        return product_element(z_sq, (power(Element(f1, (1,)), a), power(Element(f1, (1,)), b)))
    gens = [vec(2, 0), vec(3, 0), vec(0, 1)]
    for (a, b), k in (((1, 0), 2), ((5, 0), 2), ((1, 1), 3)):
        assert generator_filtration_norm(vec(a, b), gens) == k
        assert brute_filtration(vec(a, b), gens, range(-5, 6)) == k

    def word(bits):
        return binary_word(map(int, bits))
    gens = [word("011"), word("111"), word("0001")]
    for bits, k in (("1", 2), ("1001", 3)):
        assert generator_filtration_norm(word(bits), gens) == k
        assert brute_filtration(word(bits), gens, (0, 1)) == k
    assert brute_filtration(word("001"), gens, (0, 1)) is None
    with pytest.raises(ValueError, match="outside the span"):
        generator_filtration_norm(word("001"), gens)

    s2 = symmetric(2)
    klein = product(s2, s2)
    swap, one = perm_from_cycles(s2, (1, 2)), identity(s2)
    gens = [product_element(klein, (swap, one)), product_element(klein, (one, swap))]
    for g in enumerate_elements(klein):
        assert generator_filtration_norm(g, gens) == brute_filtration(g, gens, (0, 1))

    lamps = parse_descriptor("wreath:sn:1:z")
    shift = wreath_element(lamps, {}, 1)
    with pytest.raises(ValueError, match="undecidable"):
        generator_filtration_norm(shift, [shift])


# ---------------------------------------------------------------------------
# quasi-norms


@pytest.mark.parametrize("text,diameter", [("sn:1", 0), ("sn:2", 1), ("sn:4", 1),
                                           ("an:5", 1)])
def test_trivial_norm_table_diameter(text, diameter):
    # the trivial group has the single value 0, so its diameter is 0
    assert trivial_norm_table(parse_descriptor(text)).meta.diameter == diameter


def test_true_norm_is_a_quasinorm():
    table = trivial_norm_table(S4)
    q = QuasiNormSpec(S4, Fraction(0), Fraction(0), table=dict(table.values))
    elems = enumerate_elements(S4)
    pairs = [(a, b) for a in elems for b in elems]
    rep = verify_quasinorm(q, pairs)
    assert rep.passed
    assert rep.max_subadd_slack <= 0
    assert rep.max_conj_gap == 0


def test_quasinorm_violation_reported():
    vals = {g: support_norm(g) for g in enumerate_elements(S3)}
    q = QuasiNormSpec(S3, Fraction(-1), Fraction(0), table=vals)  # c_add too small
    elems = enumerate_elements(S3)
    rep = verify_quasinorm(q, [(a, b) for a in elems for b in elems])
    assert not rep.passed
    assert any(kind == "subadditivity" for kind, _ in rep.violations)


def test_quasinorm_to_norm_shifts_a_norm_by_constant():
    table = support_norm_table(S3)
    q = QuasiNormSpec(S3, Fraction(0), Fraction(0), table=dict(table.values))
    out = quasinorm_to_norm(q, S3)
    for g, v in out.values.items():
        assert v == (0 if g.is_identity() else table.values[g] + 1)
    assert verify_norm_axioms(out).passed


def test_quasinorm_to_norm_refuses_a_quasi_norm_of_another_group():
    # with fn the S3 quasi-norm used to give a "norm" on S4, with a table a
    # bare KeyError
    table = dict(support_norm_table(S3).values)
    for q in (QuasiNormSpec(S3, Fraction(0), Fraction(0), table=table),
              QuasiNormSpec(S3, Fraction(0), Fraction(0), fn=support_norm)):
        with pytest.raises(DescriptorMismatchError,
                           match="the quasi-norm is on sn:3, not sn:4"):
            quasinorm_to_norm(q, S4)


def test_quasinorm_to_norm_refuses_a_table_that_misses_an_element():
    # it used to die with KeyError: Element(sn:3, (1, 0, 2))
    table = dict(support_norm_table(S3).values)
    del table[perm_from_cycles(S3, (1, 2))]
    q = QuasiNormSpec(S3, Fraction(0), Fraction(0), table=table)
    with pytest.raises(ValueError, match="covers 5 elements, not all 6 of sn:3"):
        quasinorm_to_norm(q, S3)


def test_quasinorm_to_norm_constant_zero_pseudonorm():
    elems = enumerate_elements(S3)
    q = QuasiNormSpec(S3, Fraction(0), Fraction(0),
                      table={g: Fraction(0) for g in elems})
    out = quasinorm_to_norm(q, S3)
    assert verify_norm_axioms(out).passed
    for g, v in out.values.items():
        assert v == (0 if g.is_identity() else 1)


def test_coset_extension_bar_s3_exhaustive():
    d = bar(S3)
    q = coset_extension_qnorm(d)
    elems = enumerate_elements(d)
    pairs = [(a, b) for a in elems for b in elems]
    rep = verify_quasinorm(q, pairs)
    assert rep.passed, rep.violations[:3]
    converted = quasinorm_to_norm(q, d)
    assert verify_norm_axioms(converted).passed


def test_coset_extension_affz_window():
    q = coset_extension_qnorm(aff_z())
    assert q.c_add == 2 and q.c_conj == 1
    window = [affz_element(a, e) for a in range(-50, 51) for e in (0, 1)]
    # bounded overall, and zero exactly on the transversal-reachable part
    for g in window:
        assert 0 <= q.value(g) <= 1
    rep = verify_quasinorm(q, [(a, b) for a in window for b in window[:40]])
    assert rep.passed
    for g in window:
        a, e = g.payload
        assert q.value(g) == (0 if a - (a % 2) == 0 else 1)


def test_pullback_qnorm():
    z2 = z2_infinity()
    trivial = QuasiNormSpec(z2, Fraction(0), Fraction(0),
                            fn=lambda g: Fraction(0 if g.is_identity() else 1))

    def abelianize(g):  # (a, e) -> bits (a mod 2, e)
        a, e = g.payload
        return binary_word((a % 2, e))

    window = [affz_element(a, e) for a in range(-20, 21) for e in (0, 1)]
    samples = [(a, b) for a in window[:30] for b in window[:30]]
    q = pullback_qnorm(trivial, abelianize, aff_z(), samples)
    assert all(q.value(g) <= 1 for g in window)  # bounded pullback
    bd = bar(S3)
    ebit = QuasiNormSpec(z2, Fraction(0), Fraction(0),
                         fn=lambda g: Fraction(0 if g.is_identity() else 1))
    qb = pullback_qnorm(ebit, lambda h: binary_word((h.payload[2],)), bd)
    rng = random.Random(4)
    for _ in range(50):
        h = random_element(bd, rng)
        assert qb.value(h) == (1 if h.payload[2] else 0)


def test_pullback_identity_epi_unchanged():
    table = support_norm_table(S4)
    q = QuasiNormSpec(S4, Fraction(0), Fraction(0), table=dict(table.values))
    elems = enumerate_elements(S4)
    pulled = pullback_qnorm(q, lambda g: g, S4,
                            [(elems[3], elems[5]), (elems[7], elems[2])])
    for g in elems:
        assert pulled.value(g) == q.value(g)
    assert (pulled.c_add, pulled.c_conj) == (q.c_add, q.c_conj)


def test_pullback_rejects_non_homomorphism():
    z2 = z2_infinity()
    trivial = QuasiNormSpec(z2, Fraction(0), Fraction(0),
                            fn=lambda g: Fraction(0 if g.is_identity() else 1))
    bad = lambda g: binary_word((1,))  # not a homomorphism
    t, z = affz_element(0, 1), affz_element(1, 0)
    with pytest.raises(ValueError):
        pullback_qnorm(trivial, bad, aff_z(), [(t, z)])


# ---------------------------------------------------------------------------
# stabilization


def test_stabilization_torsion_hits_zero():
    table = support_norm_table(symmetric(9), limit=10 ** 6)
    f = perm_from_cycles(symmetric(9), (1, 2, 3))
    est = stabilization_upper(table, f, 3)
    assert est.exact_zero and est.upper == 0


def test_stabilization_refuses_a_table_of_another_group():
    g = perm_from_cycles(S4, (1, 2, 3, 4))
    with pytest.raises(DescriptorMismatchError, match="the norm table is on sn:3, not sn:4"):
        stabilization_upper(trivial_norm_table(S3), g, 3)


def test_stabilization_refuses_a_power_outside_the_table():
    # cl lives on A3: f = (1 2) itself is outside, where a KeyError came out
    cl = commutator_length(S3)
    f = perm_from_cycles(S3, (1, 2))
    with pytest.raises(ValueError, match=r"f\^1 = \(1 2\) is outside the domain "
                                         r"of the norm table \(3 elements\)"):
        stabilization_upper(cl, f, 3)
    # a table that covers every power within the horizon keeps working
    c = perm_from_cycles(S3, (1, 2, 3))
    est = stabilization_upper(cl, c, 3)
    assert est.exact_zero and est.upper == 0


def test_stabilization_trivial_norm_decays():
    def one_if(g):
        return Fraction(0 if g.is_identity() else 1)
    z = affz_element(1, 0)
    est = stabilization_upper(one_if, z, 64)
    assert not est.exact_zero
    assert est.upper == Fraction(1, 64)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 10 ** 6))
def test_stabilization_antitone(n1, n2, seed):
    def one_if(g):
        return Fraction(0 if g.is_identity() else 1)
    g = affz_element(random.Random(seed).randint(1, 9), 0)
    lo, hi = min(n1, n2), max(n1, n2)
    assert stabilization_upper(one_if, g, hi).upper <= \
        stabilization_upper(one_if, g, lo).upper


# ---------------------------------------------------------------------------
# extremal domination


def test_domination_by_itself_and_trivial():
    K = [perm_from_cycles(A5, (1, 2, 3, 4, 5))]
    qk = qk_norm(A5, K)
    rep = check_extremal_domination(qk, K)
    assert rep.lam == 1 and rep.witness_checked == 60
    rep2 = check_extremal_domination(trivial_norm_table(A5), K)
    assert rep2.lam == 1


def test_domination_support_norm_three_cycles():
    K = [perm_from_cycles(A5, (1, 2, 3))]
    rep = check_extremal_domination(support_norm_table(A5), K)
    assert rep.lam == 3
    assert rep.witness_checked == 60


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_domination_never_fails_for_verified_norms(seed, use_support):
    # failure would raise inside check_extremal_domination: a library bug
    d = S4
    rng = random.Random(seed)
    elems = enumerate_elements(d)
    K = [rng.choice(elems) for _ in range(rng.randint(1, 3))]
    if not c_generates(d, K):
        return
    table = support_norm_table(d) if use_support else trivial_norm_table(d)
    rep = check_extremal_domination(table, K)
    assert rep.witness_checked == 24


@pytest.mark.parametrize("n_max", [0, -3])
def test_stabilization_needs_a_positive_horizon(n_max):
    # word length on free:2: the stable norm of a is 1, so an upper bound 0
    # from an empty horizon would be false
    def word_length(g):
        return Fraction(len(g.payload))
    a = Element(free_group(2), (1,))  # the generator a
    assert stabilization_upper(word_length, a, 1).upper == 1
    with pytest.raises(ValueError):
        stabilization_upper(word_length, a, n_max)
