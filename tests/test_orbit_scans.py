"""Orbit-stabilizer displacement and packing searches against full scans.

The oracles below are the full scans the library used before it searched
over cosets of the normalizer: they visit every element of the group in
payload order and keep the first best one.  Two deliberate differences from
those scans: the energy scans do not stop at the smallest positive table
value (that exit skipped a later identity of norm 0 in ``slp``, whose least
element is not the identity), and the packing clique is rooted at H's own
vertex rather than at vertex 0.  The graph from one vertex and the chain
descent are checked against what they replaced: the r^2 pairwise
commutation test and the least of all products t n.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from cinorm import (
    DescriptorMismatchError,
    from_literal,
    Element,
    GuardExceededError,
    alternating,
    SubgroupSpec,
    bar_element,
    closure_of,
    disjunction_energy,
    displacement_energy,
    enumerate_elements,
    find_strong_displacer,
    group_generators,
    identity,
    mod_matrix,
    moved_points,
    order,
    packing_number,
    parse_descriptor,
    perm_from_cycles,
    subgroup_closure,
    support_norm,
    symmetric,
    trivial_norm,
    trivial_norm_table,
    wreath_element,
)
from cinorm import displacement
from cinorm.descriptors import PERMUTATION_FAMILIES
from cinorm.displacement import (
    _assert_witnesses,
    _base_image_chain,
    _commutation_graph,
    _commuter,
    _conjugates,
    _least_conjugators,
    _least_displacer,
    _least_in_coset,
    _max_clique,
    is_abelian_subgroup,
)
from cinorm.elements import _compose_payload, _invert_payload, _perm_parity, sort_key
from cinorm.norms import norm_value_fn
from cinorm.cli import main

FAMILIES = ["sn:4", "sn:5", "sn:6", "an:5", "slp:2:3", "bar:sn:3",
            "product:sn:3,sn:3", "wreath:sn:2:zn:2"]


# ---------------------------------------------------------------------------
# full-scan oracles


def _payload_ops(d):
    return (lambda a, b: _compose_payload(d, a, b),
            lambda a: _invert_payload(d, a))


def _iter_payloads(d):
    if d.family == "sn":
        return permutations(range(d.n))
    if d.family == "an":
        return (p for p in permutations(range(d.n)) if not _perm_parity(p))
    return (e.payload for e in enumerate_elements(d))


def _strongly_displaces(mul, inv, phi, gens, m):
    pw = None
    for k in range(1, m + 1):
        pw = phi if k == 1 else mul(phi, pw)
        pwi = inv(pw)
        for g in gens:
            c = mul(mul(pw, g), pwi)
            for h in gens:
                if mul(c, h) != mul(h, c):
                    return False
    return True


def scan_strong_displacer(d, h, m):
    mul, inv = _payload_ops(d)
    gens = tuple(g.payload for g in h.generators)
    for phi in _iter_payloads(d):
        if _strongly_displaces(mul, inv, phi, gens, m):
            e = Element(d, phi)
            return tuple(e ** k for k in range(1, m + 1))
    return ()


def scan_displacement_energy(d, h, m, value):
    mul, inv = _payload_ops(d)
    gens = tuple(g.payload for g in h.generators)
    best = best_phi = None
    for phi in _iter_payloads(d):
        v = Fraction(value(Element(d, phi)))
        if best is not None and v >= best:
            continue
        if _strongly_displaces(mul, inv, phi, gens, m):
            best, best_phi = v, phi
            if best == 0:
                break
    return best, None if best_phi is None else Element(d, best_phi)


def scan_disjunction_energy(d, h1, h2, value):
    mul, inv = _payload_ops(d)
    gens1 = tuple(g.payload for g in h1.generators)
    gens2 = tuple(g.payload for g in h2.generators)
    best = best_phi = None
    for phi in _iter_payloads(d):
        v = Fraction(value(Element(d, phi)))
        if best is not None and v >= best:
            continue
        pwi = inv(phi)
        if all(mul(c, x) == mul(x, c)
               for c in (mul(mul(phi, g), pwi) for g in gens2) for x in gens1):
            best, best_phi = v, phi
            if best == 0:
                break
    return best, None if best_phi is None else Element(d, best_phi)


def scan_packing(d, h, m_cap=16):
    if is_abelian_subgroup(h):
        return None, ()
    mul, inv = _payload_ops(d)
    closure = [g.payload for g in closure_of(h)]
    gens = tuple(g.payload for g in h.generators)
    keys, order_seen, conj_gens = {}, [], []
    for phi in _iter_payloads(d):
        pwi = inv(phi)
        key = frozenset(mul(mul(phi, x), pwi) for x in closure)
        if key not in keys:
            keys[key] = len(order_seen)
            order_seen.append(phi)
            conj_gens.append(tuple(mul(mul(phi, g), pwi) for g in gens))
    n = len(order_seen)
    root = keys[frozenset(closure)]
    neighbors = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if all(mul(x, y) == mul(y, x) for x in conj_gens[i] for y in conj_gens[j]):
                neighbors[i].add(j)
                neighbors[j].add(i)
    best = [root]
    cap = m_cap + 1

    def grow(clique, cand):
        nonlocal best
        if len(clique) > len(best):
            best = list(clique)
        if len(clique) >= cap:
            return
        for idx, v in enumerate(cand):
            if len(clique) + len(cand) - idx <= len(best):
                break
            grow(clique + [v], [u for u in cand[idx + 1:] if u in neighbors[v]])

    grow([root], sorted(neighbors[root]))
    return len(best), tuple(Element(d, order_seen[v]) for v in best[1:])


# ---------------------------------------------------------------------------
# differential tests


@st.composite
def family_and_subgroups(draw):
    d = parse_descriptor(draw(st.sampled_from(FAMILIES)))
    elems = enumerate_elements(d)
    # subgroups of one corner (first points, first factor, lamp 0) leave room
    # for commuting conjugates, so packings above 1 and finite energies occur
    pools = [elems, [e for e in elems if _in_corner(e)] or elems]

    def subgroup():
        pool = draw(st.sampled_from(pools))
        return SubgroupSpec(tuple(draw(st.sampled_from(pool))
                                  for _ in range(draw(st.integers(1, 2)))))
    return d, subgroup(), subgroup()


def _in_corner(e):
    d, p = e.descriptor, e.payload
    if d.family in PERMUTATION_FAMILIES:
        return all(p[i] == i for i in range(3 if d.family == "sn" else 4, d.n))
    if d.family == "bar":
        return p[1].is_identity() and p[2] == 0
    if d.family == "product":
        return all(c.is_identity() for c in p[1:])
    if d.family == "wreath-zn":
        return p[1] == 0 and all(i == 0 for i, _ in p[0])
    return False


def _packing(res):
    return res.p, () if res.certificate is None else res.certificate.witnesses


def _halved_support(g):
    return Fraction(moved_points(g), 2)


def _third_off_identity(g):
    return Fraction(0 if g.is_identity() else 1, 3)


def _norms(d):
    # tables, the trivial norm as a callable, the support norm's payload
    # form, and a rational callable that goes through Element: values with
    # denominators other than 1 reach the scan keys
    out = [trivial_norm_table(d), trivial_norm]
    if d.family in PERMUTATION_FAMILIES:
        out += [support_norm, _halved_support]
    else:
        out.append(_third_off_identity)
    return out


def assert_matches_full_scans(d, h, h2):
    for m in (1, 2):
        rep = find_strong_displacer(d, h, m)
        assert rep.witnesses == scan_strong_displacer(d, h, m)
        assert rep.found == bool(rep.witnesses)
    for norm in _norms(d):
        value = norm_value_fn(norm)
        for m in (1, 2):
            e = displacement_energy(d, h, m, norm)
            assert (e.value, e.minimizer) == scan_displacement_energy(d, h, m, value)
        e = disjunction_energy(d, h, h2, norm)
        assert (e.value, e.minimizer) == scan_disjunction_energy(d, h, h2, value)
    res = packing_number(d, h)
    assert _packing(res) == scan_packing(d, h)
    assert res.degenerate == (res.p is None)


@settings(deadline=None, max_examples=60)
@given(family_and_subgroups())
def test_searches_match_full_scans(case):
    assert_matches_full_scans(*case)


def sym_block(d, pts):
    return SubgroupSpec((perm_from_cycles(d, pts[:2]), perm_from_cycles(d, pts)))


@pytest.mark.parametrize("n,pts", [(5, (1, 2, 3)), (6, (2, 5, 3)), (6, (1, 2, 3, 4)),
                                   (7, (4, 1, 6)), (7, (3, 7, 5)), (7, (1, 5, 7)),
                                   (7, (2, 7)), (7, (1, 2, 3, 4, 5))])
def test_sym_blocks_match_full_scans(n, pts):
    d = symmetric(n)
    assert_matches_full_scans(d, sym_block(d, pts),
                              SubgroupSpec((perm_from_cycles(d, (1, 2, 3)),)))


@pytest.mark.parametrize("text", ["bar:sn:3", "wreath:sn:3:zn:2", "wreath:sn:3:zn:3"])
def test_corner_sym3_matches_full_scans(text):
    # Sym{1,2,3} in the first coordinate: its conjugates in the other
    # coordinates commute with it, so p is the number of coordinates and the
    # energies are finite and positive
    d = parse_descriptor(text)
    s3 = symmetric(3)
    gens = [perm_from_cycles(s3, (1, 2)), perm_from_cycles(s3, (1, 2, 3))]
    if d.family == "bar":
        h = SubgroupSpec(tuple(bar_element(d, g, identity(s3)) for g in gens))
    else:
        h = SubgroupSpec(tuple(wreath_element(d, {0: g}) for g in gens))
    assert packing_number(d, h).p == (2 if d.family == "bar" else d.n)
    assert_matches_full_scans(d, h, SubgroupSpec(h.generators[1:]))


@pytest.mark.parametrize("text", FAMILIES + ["sn:1", "sn:2", "an:3", "an:4", "slp:2:2",
                                             "slp:3:2", "wreath:sn:3:zn:3", "bar:an:4"])
def test_group_generators_generate(text):
    d = parse_descriptor(text)
    assert len(subgroup_closure(group_generators(d))) == order(d)


# ---------------------------------------------------------------------------
# fixed defects and guards


def test_energy_of_abelian_subgroup_is_zero_when_identity_is_not_first():
    # the least element of SL(2,3) is not the identity; the identity still
    # displaces the centre, with norm 0
    d = parse_descriptor("slp:2:3")
    assert not enumerate_elements(d)[0].is_identity()
    centre = SubgroupSpec((mod_matrix(d, [[2, 0], [0, 2]]),))
    table = trivial_norm_table(d)
    for m in (1, 2):
        e = displacement_energy(d, centre, m, table)
        assert e.value == 0 and e.minimizer.is_identity()
    e = disjunction_energy(d, centre, centre, table)
    assert e.value == 0 and e.minimizer.is_identity()


def test_packing_clique_is_rooted_at_h_in_slp():
    d = parse_descriptor("slp:2:3")
    elems = enumerate_elements(d)
    assert not elems[0].is_identity()
    seen = set()
    for a in elems:
        for b in elems:
            h = SubgroupSpec((a, b))
            key = frozenset(closure_of(h))
            if key in seen:
                continue
            seen.add(key)
            res = packing_number(d, h)
            if res.certificate is not None:
                _assert_witnesses(h, h, res.certificate.witnesses)
                assert res.p == 1 + len(res.certificate.witnesses)


def test_clique_guard_trips_while_the_orbit_grows(monkeypatch, tmp_path):
    monkeypatch.setattr(displacement, "CLIQUE_GUARD", 10)
    d = symmetric(7)
    h = sym_block(d, (1, 2, 3))  # 35 conjugates
    with pytest.raises(GuardExceededError, match=r"11 conjugate subgroups reached.* 10"):
        packing_number(d, h)
    monkeypatch.setenv("CINORM_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["packing", "--group", "sn:7", "--h", "(1 2);(1 2 3)"]) == 3
    monkeypatch.setattr(displacement, "CLIQUE_GUARD", 35)
    assert packing_number(d, h).p == 2


def test_orbit_stabilizer_count_is_checked(monkeypatch):
    # a generating set that misses part of the group breaks |orbit| |N| = |G|
    d = symmetric(5)
    h = sym_block(d, (1, 2, 3))
    monkeypatch.setattr(displacement, "group_generators",
                        lambda d: (perm_from_cycles(d, (1, 2, 3, 4)),))
    with pytest.raises(AssertionError, match="orbit-stabilizer count"):
        packing_number(d, h)


@pytest.mark.parametrize("text", ["sn:5", "an:5", "slp:2:3", "bar:sn:3",
                                  "product:sn:3,sn:3", "wreath:sn:2:zn:2"])
def test_trivial_norm_table_values(text):
    d = parse_descriptor(text)
    table = trivial_norm_table(d)
    assert table.values == {g: Fraction(0 if g.is_identity() else 1)
                            for g in enumerate_elements(d)}
    assert all(trivial_norm(g) == v for g, v in table.values.items())
    assert sorted(table.values, key=sort_key) == enumerate_elements(d)


def _foreign_subgroup_cases():
    # an A4 subgroup with S4 (same payloads: silently p = 1 and infinite
    # energy before the check), and an S5 subgroup with S9 (a bare IndexError)
    a4 = alternating(4)
    yield symmetric(4), SubgroupSpec((perm_from_cycles(a4, (1, 2, 3)),
                                      perm_from_cycles(a4, (2, 3, 4))))
    yield symmetric(9), sym_block(symmetric(5), (1, 2, 3))


@pytest.mark.parametrize("d,h", list(_foreign_subgroup_cases()))
def test_scans_refuse_a_subgroup_of_another_group(d, h):
    own = sym_block(d, (1, 2, 3))
    calls = [lambda: packing_number(d, h),
             lambda: find_strong_displacer(d, h, 1),
             lambda: displacement_energy(d, h, 1, support_norm),
             lambda: disjunction_energy(d, own, h, support_norm),
             lambda: disjunction_energy(d, h, own, support_norm),  # fixed side
             # a caller-supplied energy skips the scans, so the inequality
             # checks refuse the subgroup themselves
             lambda: displacement.verify_master_inequalities(d, h, 1, support_norm, energy=e),
             lambda: displacement.verify_disjunction_inequality(d, own, h, support_norm, e),
             lambda: displacement.verify_disjunction_inequality(d, h, own, support_norm, e)]
    e = displacement_energy(d, own, 1, support_norm)
    for call in calls:
        with pytest.raises(DescriptorMismatchError):
            call()


@pytest.mark.parametrize("text,table_text", [("sn:7", "sn:5"), ("sn:5", "an:5")])
def test_scans_refuse_a_norm_table_of_another_group(text, table_text, monkeypatch):
    # an S5 table with S7 once read "infinite" for m = 2 (the clique bound
    # fired before any lookup) and raised a bare KeyError for m = 1; an A5
    # table with S5 did the same; now each call refuses before any work
    d = parse_descriptor(text)
    table = trivial_norm_table(parse_descriptor(table_text))
    h, h2 = sym_block(d, (1, 2, 3)), SubgroupSpec((perm_from_cycles(d, (3, 4, 5)),))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the norm was checked")
    for name in ("_conjugates", "closure_of", "commutator_length_over"):
        monkeypatch.setattr(displacement, name, no_work)
    calls = [lambda: displacement_energy(d, h, 1, table),
             lambda: displacement_energy(d, h, 2, table),
             lambda: disjunction_energy(d, h, h2, table),
             lambda: displacement.verify_master_inequalities(d, h, 1, table),
             lambda: displacement.verify_disjunction_inequality(d, h, h2, table)]
    for call in calls:
        with pytest.raises(DescriptorMismatchError, match=f"on {table_text}, not {text}"):
            call()


def test_support_energy_off_permutations_raises_as_before():
    # the support norm has no payload form on slp: the Element path raises
    # the norm's own error at the first candidate
    d = parse_descriptor("slp:2:3")
    centre = SubgroupSpec((mod_matrix(d, [[2, 0], [0, 2]]),))
    for call in (lambda: displacement_energy(d, centre, 1, support_norm),
                 lambda: displacement_energy(d, centre, 2, support_norm),
                 lambda: disjunction_energy(d, centre, centre, support_norm)):
        with pytest.raises(ValueError, match=r"^support norm undefined for family 'slp'$"):
            call()


# ---------------------------------------------------------------------------
# the orbit action: the graph from one vertex, chain descent, the clique bound


def _subgroup(text, h):
    d = parse_descriptor(text)
    return d, SubgroupSpec(tuple(from_literal(d, x) for x in h.split(";")))


def _orbit_and_graph(d, h):
    orb = _conjugates(d, h, 10 ** 7)
    return orb, _commutation_graph(orb, orb.commuting(_commuter(d, h, h)))


def pairwise_graph(d, orb, h):
    """The r^2 commutation test on every pair of conjugates, itself included."""
    mul, _ = _payload_ops(d)
    gens = [g.payload for g in h.generators]
    conj = [[mul(mul(t, g), ti) for g in gens] for t, ti in zip(orb.trans, orb.trans_inv)]
    return [frozenset(k for k, ys in enumerate(conj)
                      if all(mul(x, y) == mul(y, x) for x in xs for y in ys))
            for xs in conj]


def assert_graph_from_one_vertex(d, h):
    orb, near = _orbit_and_graph(d, h)
    assert [near(j) for j in reversed(range(len(orb.trans)))][::-1] == \
        pairwise_graph(d, orb, h)


# Sym(A) for blocks A of 3 and 4 points in S6-S9
SYM_BLOCKS = [(6, (1, 2, 3)), (6, (2, 5, 3, 4)), (7, (4, 1, 6)), (8, (1, 2, 3)),
              (8, (3, 8, 5, 6)), (9, (1, 2, 3)), (9, (9, 4, 7))]


@settings(deadline=None, max_examples=40)
@given(family_and_subgroups())
def test_graph_from_one_vertex_matches_pairwise(case):
    d, h, _ = case
    assert_graph_from_one_vertex(d, h)


@pytest.mark.parametrize("n,pts", SYM_BLOCKS)
def test_graph_from_one_vertex_matches_pairwise_on_sym_blocks(n, pts):
    d = symmetric(n)
    assert_graph_from_one_vertex(d, sym_block(d, pts))


def _least_by_products(d, t, normalizer):
    mul, _ = _payload_ops(d)
    return min(mul(t, x) for x in normalizer)


def assert_chain_descent(d, h, rng):
    orb = _conjugates(d, h, 10 ** 7)
    everyone = list(range(len(orb.trans)))
    least = _least_conjugators(d, orb, everyone)
    assert least == {i: _least_by_products(d, orb.trans[i], orb.normalizer)
                     for i in everyone}
    # and on cosets t N of elements that are not transversal elements
    chain = _base_image_chain(orb.normalizer)
    for _ in range(20):
        t = tuple(rng.sample(range(d.n), d.n))
        if d.family == "an" and _perm_parity(t):
            t = (t[1], t[0]) + t[2:]
        assert _least_in_coset(t, chain) == _least_by_products(d, t, orb.normalizer)


@settings(deadline=None, max_examples=40)
@given(family_and_subgroups(), st.randoms(use_true_random=False))
def test_chain_descent_matches_min_over_coset(case, rng):
    d, h, _ = case
    if d.family in PERMUTATION_FAMILIES:
        assert_chain_descent(d, h, rng)


@pytest.mark.parametrize("n,pts", SYM_BLOCKS)
def test_chain_descent_matches_min_over_coset_on_sym_blocks(n, pts):
    d = symmetric(n)
    assert_chain_descent(d, sym_block(d, pts), random.Random(f"{n}:{pts}"))


@pytest.mark.parametrize("text,h", [
    ("sn:4", "(1 2)(3 4);(1 3)(2 4)"),  # V4 is normal in S4
    ("sn:6", "(1 2 3);(1 2 4);(1 2 5);(1 2 6)"),  # A6
    ("an:5", "(1 2 3);(1 2 3 4 5)"),  # A5 itself
    ("sn:7", "(1 2);(1 2 3 4 5 6 7)"),  # S7 itself
    ("an:8", "(1 2 3);(1 2)(3 4)"),
])
def test_chain_descent_with_a_normal_or_large_normalizer(text, h):
    d, spec = _subgroup(text, h)
    assert_chain_descent(d, spec, random.Random(text))


def clique_bound_fires(d, h, m):
    _, near = _orbit_and_graph(d, h)
    return len(_max_clique(near, m + 1)) <= m


def assert_clique_bound(d, h, m):
    """The bound may only fire where the full scan finds no displacer, and
    every search still matches the full scan; returns (fires, found)."""
    fires = not is_abelian_subgroup(h) and clique_bound_fires(d, h, m)
    rep = find_strong_displacer(d, h, m)
    assert rep.witnesses == scan_strong_displacer(d, h, m)
    assert not (fires and rep.found)
    if d.family in PERMUTATION_FAMILIES:
        e = displacement_energy(d, h, m, support_norm)
        assert (e.value, e.minimizer) == scan_displacement_energy(
            d, h, m, norm_value_fn(support_norm))
    return fires, rep.found


@settings(deadline=None, max_examples=40)
@given(family_and_subgroups(), st.sampled_from([2, 3]))
def test_clique_bound_matches_full_scans(case, m):
    d, h, _ = case
    assert_clique_bound(d, h, m)


@pytest.mark.parametrize("text,h,m,verdict", [
    ("sn:6", "(1 2);(1 2 3)", 2, (True, False)),  # p = 2
    ("sn:6", "(1 2)(3 4);(1 3)", 3, (True, False)),
    ("sn:7", "(4 1);(4 1 6)", 2, (True, False)),
    ("sn:8", "(1 2)(3 4);(1 3)(2 4);(1 2)", 2, (True, False)),
    # Sym{1,2,3} at lamps 0, 1, 2 commute pairwise, and the shift cycles them
    ("wreath:sn:3:zn:3", "{0:(1 2)};{0:(1 2 3)}", 2, (False, True)),
    ("wreath:sn:3:zn:3", "{0:(1 2)};{0:(1 2 3)}", 3, (True, False)),
    # abelian: the bound does not apply, and the identity displaces H when no
    # other conjugate commutes with it
    ("sn:6", "(1 2 3 4 5 6)", 2, (False, True)),
    ("sn:7", "(1 2);(3 4)(5 6)", 3, (False, True)),
])
def test_clique_bound_verdicts(text, h, m, verdict):
    d, spec = _subgroup(text, h)
    assert assert_clique_bound(d, spec, m) == verdict


@pytest.mark.parametrize("m", [2, 3])
def test_clique_bound_is_not_applied_to_two_subgroups(m):
    # the bound speaks of one subgroup's own conjugates: here the identity
    # is the least phi whose powers move <(6 7)> to commute with Sym{1..5},
    # while <(6 7)> is the only conjugate that does
    d = symmetric(7)
    fixed = sym_block(d, (1, 2, 3, 4, 5))
    moved = SubgroupSpec((perm_from_cycles(d, (6, 7)),))
    assert _least_displacer(d, fixed, moved, m, None, 10 ** 7).minimizer == identity(d)
    value = norm_value_fn(support_norm)
    assert _least_displacer(d, fixed, moved, m, value, 10 ** 7).value == 0


def scan_two_subgroup_displacer(d, fixed, moved, m):
    """The least phi in payload order whose powers phi^1..phi^m each
    conjugate ``moved`` to commute with ``fixed``."""
    mul, inv = _payload_ops(d)
    fixed_gens = tuple(g.payload for g in fixed.generators)
    moved_gens = tuple(g.payload for g in moved.generators)
    for phi in _iter_payloads(d):
        pw = phi
        for k in range(1, m + 1):
            pw = phi if k == 1 else mul(phi, pw)
            pwi = inv(pw)
            if not all(mul(c, x) == mul(x, c)
                       for c in (mul(mul(pw, g), pwi) for g in moved_gens)
                       for x in fixed_gens):
                break
        else:
            return Element(d, phi)
    return None


@pytest.mark.parametrize("fixed_pts,moved_pts", [((5, 6, 7), (1, 2, 3)),
                                                  ((1, 2, 3), (3, 4, 5))])
def test_two_subgroup_displacer_matches_full_scan(fixed_pts, moved_pts):
    # the conjugates of `moved` must commute with `fixed`, not with each
    # other: the re-check once demanded both and raised on these results
    d = symmetric(7)
    fixed, moved = sym_block(d, fixed_pts), sym_block(d, moved_pts)
    phi = _least_displacer(d, fixed, moved, 2, None, 10 ** 7).minimizer
    assert phi == scan_two_subgroup_displacer(d, fixed, moved, 2)
    assert (phi == identity(d)) == (fixed_pts == (5, 6, 7))
    _assert_witnesses(fixed, moved, (phi, phi ** 2))
    # a conjugate of `moved` that meets `fixed` still trips the re-check
    with pytest.raises(AssertionError):
        _assert_witnesses(fixed, moved, (phi, perm_from_cycles(d, (3, 5))))


def test_recheck_of_one_subgroup_pairs_the_conjugates():
    # both conjugates are Sym{4,5,6}, which commutes with H = Sym{1,2,3}
    # but not with itself
    d = symmetric(9)
    h = sym_block(d, (1, 2, 3))
    w = perm_from_cycles(d, (1, 4), (2, 5), (3, 6))
    _assert_witnesses(h, h, (w,))
    with pytest.raises(AssertionError):
        _assert_witnesses(h, h, (w, w))
    _assert_witnesses(h, sym_block(d, (1, 2, 3)), (w, w))
