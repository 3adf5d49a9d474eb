"""Displaceability and packing against plain brute-force tuple searches."""

import inspect
from fractions import Fraction
from itertools import permutations

import pytest

import cinorm
from cinorm import (
    Element,
    GuardExceededError,
    NormTable,
    DescriptorMismatchError,
    SubgroupSpec,
    alternating,
    compose,
    disjunction_energy,
    displacement_energy,
    enumerate_elements,
    fcomm_norm_bound,
    find_strong_displacer,
    group_generators,
    identity,
    invert,
    packing_number,
    parse_descriptor,
    perm_from_cycles,
    seven_fcommutators,
    stabilization_upper,
    subgroups_commute,
    support_norm,
    support_norm_table,
    symmetric,
    trivial_norm,
    trivial_norm_table,
    verify_disjunction_inequality,
    verify_master_inequalities,
    wreath_environment,
)
from cinorm import displacement
from cinorm.displacement import PACKING_GUARD, EnergyResult

S5 = symmetric(5)
S6 = symmetric(6)
S8 = symmetric(8)


def sym_block(d, points):
    pts = list(points)
    return SubgroupSpec((perm_from_cycles(d, pts[:2]),
                         perm_from_cycles(d, pts)),
                        label="Sym{" + ",".join(map(str, pts)) + "}")


def test_subgroups_commute_examples():
    a = sym_block(S6, (1, 2, 3))
    b = sym_block(S6, (4, 5, 6))
    c = sym_block(S6, (3, 4, 5))
    assert subgroups_commute(a, b)
    assert not subgroups_commute(a, c)
    trivial = SubgroupSpec((Element(S6, tuple(range(6))),))
    assert subgroups_commute(a, trivial)


def test_strong_displacer_s6():
    h = sym_block(S6, (1, 2, 3))
    rep = find_strong_displacer(S6, h, 1)
    assert rep.found
    assert rep.witnesses[0].payload == (3, 4, 5, 0, 1, 2)
    rep2 = find_strong_displacer(S6, h, 2)
    assert not rep2.found and rep2.witnesses == ()


def test_strong_displacer_s9_shift():
    s9 = symmetric(9)
    h = sym_block(s9, (1, 2, 3))
    rep = find_strong_displacer(s9, h, 2)
    assert rep.found
    assert rep.witnesses[0].payload == (3, 4, 5, 6, 7, 8, 0, 1, 2)


def brute_force_weak_displaceable(d, h, m):
    """Plain tuple search over all conjugator m-tuples, as slow as it looks."""
    gens = [g.payload for g in h.generators]
    n = d.n

    def mul(a, b):
        return tuple(map(a.__getitem__, b))

    def inv(a):
        out = [0] * len(a)
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def conj_gens(phi):
        pi = inv(phi)
        return [mul(mul(phi, g), pi) for g in gens]

    def commute(ga, gb):
        return all(mul(x, y) == mul(y, x) for x in ga for y in gb)

    base = [tuple(range(n))]
    stacks = [[conj_gens(b) for b in base]]

    def search(chosen, depth):
        if depth == m:
            return True
        for phi in permutations(range(n)):
            cg = conj_gens(phi)
            if all(commute(cg, prev) for prev in chosen):
                if search(chosen + [cg], depth + 1):
                    return True
        return False

    return search([conj_gens(tuple(range(n)))], 0)


def test_packing_s6_cross_checked():
    h = sym_block(S6, (1, 2, 3))
    res = packing_number(S6, h)
    assert res.p == 2 and res.exhausted and not res.degenerate
    assert res.certificate is not None and len(res.certificate.witnesses) == 1
    # plain brute force agrees: 1-displaceable but not weakly 2-displaceable
    assert brute_force_weak_displaceable(S6, h, 1)
    assert not brute_force_weak_displaceable(S6, h, 2)


def test_packing_s5_is_one():
    h = sym_block(S5, (1, 2, 3))
    res = packing_number(S5, h)
    assert res.p == 1 and res.exhausted
    assert not brute_force_weak_displaceable(S5, h, 1)


def test_packing_abelian_degenerate():
    h = SubgroupSpec((perm_from_cycles(S6, (1, 2), (3, 4)),))
    res = packing_number(S6, h)
    assert res.degenerate and res.p is None
    e = displacement_energy(S6, h, 3, support_norm_table(S6))
    assert e.value == 0 and e.minimizer.is_identity()


def test_packing_not_below_strong_search():
    h = sym_block(S6, (1, 2, 3))
    res = packing_number(S6, h)
    strong_best = 0
    for m in (1, 2):
        if find_strong_displacer(S6, h, m).found:
            strong_best = m
    assert res.p >= 1 + strong_best


def test_energy_s6_support():
    h = sym_block(S6, (1, 2, 3))
    table = support_norm_table(S6)
    e1 = displacement_energy(S6, h, 1, table)
    assert e1.value == 6
    assert e1.minimizer.payload == (3, 4, 5, 0, 1, 2)
    e2 = displacement_energy(S6, h, 2, table)
    assert e2.value is None and e2.minimizer is None


def test_energy_monotone_in_m():
    s9 = symmetric(9)
    h = sym_block(s9, (1, 2, 3))
    e1 = displacement_energy(s9, h, 1, support_norm)
    e2 = displacement_energy(s9, h, 2, support_norm)
    assert e1.value == 6
    assert e2.value == 9  # a strong 2-displacer must move every point
    assert e1.value <= e2.value


def test_master_inequalities_trivial_norm():
    h = sym_block(S6, (1, 2, 3))
    rep = verify_master_inequalities(S6, h, 1, trivial_norm_table(S6))
    assert rep.ok and rep.ambient_cl_checked
    assert any(r.label == "cl_ambient(x) <= 2" for r in rep.rows)


def test_master_inequalities_support_norm():
    h = sym_block(S6, (1, 2, 3))
    rep = verify_master_inequalities(S6, h, 1, support_norm_table(S6))
    assert rep.ok
    assert rep.energy.value == 6
    # H' of Sym{1,2,3} is the 3-cycles: their support is 3 <= 4*6
    xs = [r for r in rep.rows if r.label.startswith("v(x)")]
    assert len(xs) == 2
    assert all(r.lhs == 3 for r in xs)
    assert len(rep.chain_rows) == 6 * 6 + 6


def test_disjunction_energy_s8():
    h1 = sym_block(S8, (1, 2, 3))
    h2 = sym_block(S8, (2, 3, 4))
    e = disjunction_energy(S8, h1, h2, support_norm)
    # phi must move {2,3,4} off {1,2,3}; 4 may stay put, so 4 points suffice
    assert e.value == 4
    conj = SubgroupSpec(tuple(compose(compose(e.minimizer, g), invert(e.minimizer))
                              for g in h2.generators))
    assert subgroups_commute(h1, conj)
    rep = verify_disjunction_inequality(S8, h1, h2, support_norm, energy=e)
    assert rep.ok
    assert len(rep.rows) == 36


def test_witness_revalidation_runs():
    # the library re-checks witnesses with the public commutation predicate;
    # returned reports therefore always carry valid witnesses
    s9 = symmetric(9)
    h = sym_block(s9, (1, 2, 3))
    rep = find_strong_displacer(s9, h, 1)
    conj = SubgroupSpec(tuple(compose(compose(rep.witnesses[0], g),
                                      invert(rep.witnesses[0]))
                              for g in h.generators))
    assert subgroups_commute(h, conj)


def test_tampered_witness_trips_the_recheck():
    # every search result goes through one re-checker before it is returned
    from cinorm.displacement import _assert_witnesses
    h = sym_block(S6, (1, 2, 3))
    good = find_strong_displacer(S6, h, 1).witnesses
    _assert_witnesses(h, h, good)
    # good maps {1,2,3} onto {4,5,6}; after (3 4) the image is {4,5,1}
    tampered = (compose(good[0], perm_from_cycles(S6, (3, 4))),)
    with pytest.raises(AssertionError):
        _assert_witnesses(h, h, tampered)
    h1, h2 = sym_block(S8, (1, 2, 3)), sym_block(S8, (2, 3, 4))
    e = disjunction_energy(S8, h1, h2, support_norm)
    _assert_witnesses(h1, h2, (e.minimizer,))
    with pytest.raises(AssertionError):
        _assert_witnesses(h1, h2, (identity(S8),))


def test_library_surface_has_no_unread_parameters_or_names():
    assert "m_cap" not in inspect.signature(packing_number).parameters
    assert "ambient_cl_limit" not in \
        inspect.signature(verify_master_inequalities).parameters
    for name in ("cgen_spec", "CGenSpec", "norm_table_to_tsv", "commutator_pool",
                 "check_homogeneity"):
        assert not hasattr(cinorm, name)
    assert not hasattr(cinorm.enumeration, "commutator_pool")
    assert not hasattr(cinorm.quasimorphisms, "check_homogeneity")
    assert not hasattr(cinorm.serialize, "norm_table_to_tsv")
    assert not hasattr(Element, "conjugated_by")
    assert not hasattr(NormTable, "value")
    assert not hasattr(NormTable, "__contains__")


def test_scan_guard_is_the_enumeration_order_check():
    # S10 (3 628 800 elements) is above the packing guard of 10^6
    d = symmetric(10)
    with pytest.raises(GuardExceededError) as scan:
        packing_number(d, sym_block(d, (1, 2, 3)))
    with pytest.raises(GuardExceededError) as listing:
        enumerate_elements(d, limit=PACKING_GUARD)
    assert str(scan.value) == str(listing.value) == \
        "|sn:10| = 3628800 exceeds the guard 1000000"


def test_inequality_verifiers_refuse_an_energy_of_another_m():
    # e_2 of Sym{1,2,3} in S7 is infinite (two disjoint blocks at most), so
    # taken for e_1 it used to pass with no row at all
    S7 = symmetric(7)
    h, h2 = sym_block(S7, (1, 2, 3)), sym_block(S7, (2, 3, 4))
    e1 = displacement_energy(S7, h, 1, support_norm)
    e2 = displacement_energy(S7, h, 2, support_norm)
    assert e1.value == 6 and e2.value is None
    with pytest.raises(ValueError, match="the energy is e_2, not e_1"):
        verify_master_inequalities(S7, h, 1, support_norm, energy=e2)
    with pytest.raises(ValueError, match="the energy is e_1, not e_2"):
        verify_master_inequalities(S7, h, 2, support_norm, energy=e1)
    with pytest.raises(ValueError, match="the energy is e_2, not e_1"):
        verify_disjunction_inequality(S7, h, h2, support_norm, energy=e2)


def test_inequality_verifiers_recheck_a_supplied_minimizer():
    h = sym_block(S8, (1, 2, 3))
    e = displacement_energy(S8, h, 1, support_norm)
    assert (e.value, e.minimizer) == (6, perm_from_cycles(S8, (1, 4), (2, 5), (3, 6)))
    six_cycle = perm_from_cycles(S8, (1, 2, 3, 4, 5, 6))  # value 6, moves 1 2 3 onto 2 3 4
    for bad, match in [(EnergyResult(1, e.value - 1, e.minimizer), "not the value of"),
                       (EnergyResult(1, e.value, None), "not the value of"),
                       (EnergyResult(1, e.value, six_cycle), "does not displace")]:
        with pytest.raises(ValueError, match=match):
            verify_master_inequalities(S8, h, 1, support_norm, energy=bad)
    h1, h2 = sym_block(S8, (1, 2, 3)), sym_block(S8, (2, 3, 4))
    e = disjunction_energy(S8, h1, h2, support_norm)
    four_cycle = perm_from_cycles(S8, (1, 2, 3, 4))  # value 4, moves 2 3 4 onto 3 4 1
    for bad, match in [(EnergyResult(1, e.value + 1, e.minimizer), "not the value of"),
                       (EnergyResult(1, e.value, four_cycle), "does not displace")]:
        with pytest.raises(ValueError, match=match):
            verify_disjunction_inequality(S8, h1, h2, support_norm, energy=bad)
    assert verify_disjunction_inequality(S8, h1, h2, support_norm, energy=e).ok


@pytest.mark.parametrize("text", ["slp:2:3", "bar:sn:3"])
def test_an_undefined_support_norm_is_refused_at_the_call(text):
    # no strong displacer of G itself exists, so a search that read the norm
    # only at a leaf reported e = infinite, and the verifiers ok with no row
    d = parse_descriptor(text)
    h = SubgroupSpec(tuple(group_generators(d)))
    calls = [lambda: displacement_energy(d, h, 1, support_norm),
             lambda: displacement_energy(d, h, 2, support_norm),
             lambda: disjunction_energy(d, h, h, support_norm),
             lambda: verify_master_inequalities(d, h, 1, support_norm),
             lambda: verify_master_inequalities(d, h, 1, support_norm,
                                                energy=EnergyResult(1, None, None)),
             lambda: verify_disjunction_inequality(d, h, h, support_norm),
             lambda: verify_disjunction_inequality(d, h, h, support_norm,
                                                   energy=EnergyResult(1, None, None)),
             lambda: stabilization_upper(support_norm, identity(d), 3)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^support norm undefined for family '{d.family}'$"):
            call()


def test_fcomm_norm_bound_refuses_an_undefined_support_norm():
    env = wreath_environment(symmetric(3), capacity=2)
    dec = seven_fcommutators(env, [])
    with pytest.raises(ValueError, match="^support norm undefined for family 'wreath-zn'$"):
        fcomm_norm_bound(dec, env, support_norm)


def test_a_minimizer_of_another_group_is_refused_before_any_value(monkeypatch):
    # a minimizer in A6 supplied for S6 ended in a bare KeyError on a read
    # table, and in the witness re-check's "cannot compose" elsewhere
    phi = perm_from_cycles(alternating(6), (4, 5, 6))
    energy = EnergyResult(1, Fraction(1), phi)
    h1, h2 = sym_block(S6, (1, 2, 3)), sym_block(S6, (2, 3, 4))
    reads = [0]
    reader = displacement.payload_value_fn

    def counted(d, norm):
        value = reader(d, norm)

        def read(p):
            reads[0] += 1
            return value(p)
        return read
    monkeypatch.setattr(displacement, "payload_value_fn", counted)
    read_table = trivial_norm_table(S6)
    assert len(read_table.values) == 720
    for norm in (read_table, trivial_norm_table(S6), trivial_norm, support_norm):
        for call in (lambda: verify_master_inequalities(S6, h1, 1, norm, energy=energy),
                     lambda: verify_disjunction_inequality(S6, h1, h2, norm, energy=energy)):
            with pytest.raises(DescriptorMismatchError,
                               match="^the energy's minimizer lives in an:6, not sn:6$"):
                call()
    assert reads == [0]
