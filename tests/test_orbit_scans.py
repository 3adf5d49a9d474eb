"""Orbit-stabilizer displacement and packing searches against full scans.

The oracles below are the full scans the library used before it searched
over cosets of the normalizer: they visit every element of the group in
payload order and keep the first best one.  Two deliberate differences from
those scans: the energy scans do not stop at the smallest positive table
value (that exit skipped a later identity of norm 0 in ``slp``, whose least
element is not the identity), and the packing clique is rooted at H's own
vertex rather than at vertex 0.  The graph from one vertex and the chain
descent are checked against what they replaced: the r^2 pairwise
commutation test and the least of all products t n.  On ``sn``/``an`` the
stabilizer chain of N is checked against a brute-force normalizer, and the
pruned walk over cosets against the coset expansion it replaced.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, repeat
from operator import ne

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
    commutator_length,
    commutator_length_over,
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
    qk_norm,
    subgroup_closure,
    support_norm,
    support_norm_table,
    symmetric,
    trivial_norm,
    trivial_norm_table,
    wreath_element,
)
from cinorm import displacement, enumeration
from cinorm.descriptors import PERMUTATION_FAMILIES
from cinorm.displacement import (
    _StabChain,
    _assert_witnesses,
    _commuter,
    _conjugates,
    _least_displacer,
    _least_leaf,
    _max_clique,
    _orbit_bound,
    is_abelian_subgroup,
)
from cinorm.elements import _mat_det, _payload_ops, _perm_parity, sort_key
from cinorm.norms import NormTable, NormTableMeta, _floor, payload_value_fn
from cinorm.cli import main

FAMILIES = ["sn:4", "sn:5", "sn:6", "an:5", "slp:2:3", "bar:sn:3",
            "product:sn:3,sn:3", "wreath:sn:2:zn:2"]


# ---------------------------------------------------------------------------
# full-scan oracles


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
    mul, inv, _, _ = _payload_ops(d)
    gens = tuple(g.payload for g in h.generators)
    for phi in _iter_payloads(d):
        if _strongly_displaces(mul, inv, phi, gens, m):
            e = Element(d, phi)
            return tuple(e ** k for k in range(1, m + 1))
    return ()


def scan_displacement_energy(d, h, m, value):
    mul, inv, _, _ = _payload_ops(d)
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
    mul, inv, _, _ = _payload_ops(d)
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
    mul, inv, _, _ = _payload_ops(d)
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
        return Element(d.base, p[1]).is_identity() and p[2] == 0
    if d.family == "product":
        return all(Element(pd, c).is_identity() for pd, c in zip(d.parts[1:], p[1:]))
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


def _value(norm):
    """The full scans' own accessor: a table's dict, or the callable."""
    return norm.values.__getitem__ if isinstance(norm, NormTable) else norm


def assert_matches_full_scans(d, h, h2):
    for m in (1, 2):
        rep = find_strong_displacer(d, h, m)
        assert rep.witnesses == scan_strong_displacer(d, h, m)
        assert rep.found == bool(rep.witnesses)
    for norm in _norms(d):
        value = _value(norm)
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


@pytest.mark.parametrize("text", list(dict.fromkeys(
    FAMILIES + ["sn:1", "sn:2", "an:3", "an:4", "slp:2:2", "slp:3:2", "wreath:sn:3:zn:3",
                "bar:an:4"] + [f"an:{n}" for n in range(3, 10)]
    + ["slp:2:11", "slp:3:3", "slp:4:2"])))
def test_group_generators_generate(text):
    # by closure order; slp:5:2 (order 9 999 360) and slp:4:3 (12 130 560)
    # rest on the proof in the docstring of group_generators, since a
    # closure of that size takes minutes in pure Python
    d = parse_descriptor(text)
    gens = group_generators(d)
    assert len(subgroup_closure(gens)) == order(d)
    if d.family == "slp" or (d.family == "an" and d.n >= 4):
        assert len(gens) == 2
    if d.family == "slp":
        assert _mat_det(gens[1].payload) % d.p == 1


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
    enumeration._store.cache_clear()  # an orbit kept by an earlier call
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
    # a table of d on part of G (here cl over Sym{1,2,3}: 3 elements) raised
    # a bare KeyError, or passed an inequality check, when given an energy
    d = parse_descriptor(text)
    table = trivial_norm_table(parse_descriptor(table_text))
    h, h2 = sym_block(d, (1, 2, 3)), SubgroupSpec((perm_from_cycles(d, (3, 4, 5)),))
    part = commutator_length_over(closure_of(h), d)
    e = displacement_energy(d, h, 1, support_norm)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the norm was checked")
    for name in ("_conjugates", "closure_of", "domain_kernel"):
        monkeypatch.setattr(displacement, name, no_work)
    calls = [lambda t: displacement_energy(d, h, 1, t),
             lambda t: displacement_energy(d, h, 2, t),
             lambda t: disjunction_energy(d, h, h2, t),
             lambda t: displacement.verify_master_inequalities(d, h, 1, t),
             lambda t: displacement.verify_master_inequalities(d, h, 1, t, energy=e),
             lambda t: displacement.verify_disjunction_inequality(d, h, h2, t),
             lambda t: displacement.verify_disjunction_inequality(d, h, h2, t, e)]
    for call in calls:
        with pytest.raises(DescriptorMismatchError, match=f"on {table_text}, not {text}"):
            call(table)
        with pytest.raises(ValueError, match=rf"^the norm table covers 3 elements, "
                                             rf"not all {order(d)} of {text}$"):
            call(part)


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


def _cosets(orb):
    """A conjugator taking H to each conjugate, in class order."""
    return [orb.coset(x) for x in range(len(orb.cls.trans))]


def _commuting(d, fixed, moved, orb):
    """The class points whose conjugate of ``moved`` commutes with
    ``fixed``, tested conjugate by conjugate."""
    commutes, inv = _commuter(d, fixed, moved), _payload_ops(d)[1]
    return [x for x, t in enumerate(_cosets(orb)) if commutes(t, inv(t))]


def pairwise_graph(d, orb, h):
    """The r^2 commutation test on every pair of conjugates, itself included."""
    mul, inv, _, _ = _payload_ops(d)
    gens = [g.payload for g in h.generators]
    conj = [[mul(mul(t, g), inv(t)) for g in gens] for t in _cosets(orb)]
    return [frozenset(k for k, ys in enumerate(conj)
                      if all(mul(x, y) == mul(y, x) for x in xs for y in ys))
            for xs in conj]


def assert_graph_from_one_vertex(d, h):
    # the class graph, from a cleared store, its vertices asked deepest first
    enumeration._store.cache_clear()
    orb = _conjugates(d, h, 10 ** 7)
    near = orb.cls.near
    assert [near(x) for x in reversed(range(len(orb.cls.trans)))][::-1] == \
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


@lru_cache(maxsize=16)
def brute_normalizer(d, h):
    """N_G(H) = {g : g H g^-1 = H} in payload order, by conjugating the
    generators of H by every element of G (g H g^-1 is a subgroup of the
    order of H, so it is H once it lies in H).  The points H moves are
    those g H g^-1 moves, mapped by g, so a g that moves them elsewhere is
    passed over first."""
    members = frozenset(g.payload for g in closure_of(h))
    gens = [g.payload for g in h.generators]
    moved = frozenset(i for x in gens for i in range(d.n) if x[i] != i)
    out = []
    for g in _iter_payloads(d):
        if not moved.issuperset(map(g.__getitem__, moved)):
            continue
        g_inv = tuple(sorted(range(d.n), key=g.__getitem__))
        if all(tuple(map(tuple(map(g.__getitem__, x)).__getitem__, g_inv)) in members
               for x in gens):
            out.append(g)
    return tuple(out)


def _least_by_products(d, t, normalizer):
    mul = _payload_ops(d)[0]
    return min(mul(t, x) for x in normalizer)


def assert_chain_descent(d, h, rng):
    """The walk with no norm and no test, as packing runs it, takes the
    least element of each coset t N."""
    orb = _conjugates(d, h, 10 ** 7)
    normalizer = brute_normalizer(d, h)
    levels = orb.chain.levels()

    def least_in_coset(t):
        return _least_leaf(d, [t], levels, None, lambda s, k: 0, None)[-1]
    for t in _cosets(orb):
        assert least_in_coset(t) == _least_by_products(d, t, normalizer)
    # and on cosets t N of elements that are not transversal elements
    for _ in range(20):
        t = tuple(rng.sample(range(d.n), d.n))
        if d.family == "an" and _perm_parity(t):
            t = (t[1], t[0]) + t[2:]
        assert least_in_coset(t) == _least_by_products(d, t, normalizer)


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


NORMAL_SUBGROUPS = [
    ("sn:4", "(1 2)(3 4);(1 3)(2 4)"),  # V4 is normal in S4
    ("sn:6", "(1 2 3);(1 2 4);(1 2 5);(1 2 6)"),  # A6
    ("an:5", "(1 2 3);(1 2 3 4 5)"),  # A5 itself
    ("sn:7", "(1 2);(1 2 3 4 5 6 7)"),  # S7 itself
]


@pytest.mark.parametrize("text,h", NORMAL_SUBGROUPS + [("an:8", "(1 2 3);(1 2)(3 4)")])
def test_chain_descent_with_a_normal_or_large_normalizer(text, h):
    d, spec = _subgroup(text, h)
    assert_chain_descent(d, spec, random.Random(text))


# ---------------------------------------------------------------------------
# the stabilizer chain of N (Schreier-Sims) against the brute-force normalizer


def assert_chain_is_the_normalizer(d, h):
    chain = _conjugates(d, h, 10 ** 7).chain
    normalizer = set(brute_normalizer(d, h))
    assert chain.order() == len(normalizer)
    one = bytes(range(d.n))  # the chain sifts to bytes images
    for g in _iter_payloads(d):
        level, rest = chain.sift(g)
        assert (level == d.n) == (g in normalizer)
        assert level < d.n or rest == one


@st.composite
def permutation_subgroups(draw):
    d = parse_descriptor(draw(st.sampled_from(
        ["sn:2", "sn:3", "sn:4", "sn:5", "sn:6", "an:3", "an:4", "an:5", "an:6"])))
    elems = enumerate_elements(d)
    return d, SubgroupSpec(tuple(draw(st.lists(st.sampled_from(elems),
                                                min_size=1, max_size=3))))


@settings(deadline=None, max_examples=60)
@given(permutation_subgroups())
def test_chain_is_the_normalizer(case):
    assert_chain_is_the_normalizer(*case)


@pytest.mark.parametrize("n,pts", [(n, pts) for n, pts in SYM_BLOCKS if n <= 7])
def test_chain_is_the_normalizer_on_sym_blocks(n, pts):
    d = symmetric(n)
    assert_chain_is_the_normalizer(d, sym_block(d, pts))


@pytest.mark.parametrize("text,h", NORMAL_SUBGROUPS)
def test_chain_is_the_normalizer_of_a_normal_subgroup(text, h):
    assert_chain_is_the_normalizer(*_subgroup(text, h))


@pytest.mark.parametrize("text,h", [
    # H = G: the orbit is H alone, and the Schreier generators are G's own
    # generators, so without the first of them N falls short of G
    ("sn:5", "(1 2);(1 2 3 4 5)"),
    ("an:6", "(1 2 3);(1 2 4);(1 2 5);(1 2 6)"),
])
def test_skipping_a_schreier_generator_trips_the_count(text, h, monkeypatch):
    d, spec = _subgroup(text, h)
    assert _conjugates(d, spec, 10 ** 7).chain.order() == len(brute_normalizer(d, spec))
    add, skipped = _StabChain.add, []

    def add_all_but_the_first(chain, g, k=0):
        if k == 0 and not skipped and g != tuple(range(d.n)):
            skipped.append(g)
            return
        add(chain, g, k)
    monkeypatch.setattr(_StabChain, "add", add_all_but_the_first)
    enumeration._store.cache_clear()  # the orbit kept by the call above
    with pytest.raises(AssertionError, match="orbit-stabilizer count"):
        _conjugates(d, spec, 10 ** 7)
    assert skipped


# ---------------------------------------------------------------------------
# the chain walk against the enumerated cosets it replaced on sn/an


def enumerated_least_displacer(d, fixed, moved, m, norm):
    """The coset search ``_least_displacer`` ran on ``sn``/``an`` before the
    chain walk: each commuting coset t N expanded as payloads (N the
    brute-force normalizer here) and keyed (value, payload); for m = 1 the
    least key, for m >= 2 the powers tested on each key below the best."""
    value = None if norm is None else payload_value_fn(d, norm)
    orb = _conjugates(d, moved, 10 ** 7)
    normalizer = brute_normalizer(d, moved)
    mul, inv, _, _ = _payload_ops(d)
    commutes = _commuter(d, fixed, moved)
    near0 = _commuting(d, fixed, moved, orb)
    if fixed is moved and m >= 2 and not is_abelian_subgroup(fixed):
        if len(_max_clique(orb.cls.near, orb.j, m + 1)) <= m:
            return None, None

    def keyed(coset):
        return zip(repeat(0) if value is None else map(value, coset), coset)

    def powers_commute(phi, phi_inv):
        pw, pwi = phi, phi_inv
        for _ in range(2, m + 1):
            pw, pwi = mul(phi, pw), mul(pwi, phi_inv)
            if not commutes(pw, pwi):
                return False
        return True

    if m == 1:
        best = min((min(keyed([mul(orb.coset(i), x) for x in normalizer]))
                    for i in near0), default=None)
    else:
        inverses = [inv(x) for x in normalizer]
        best = None
        for i in near0:
            t = orb.coset(i)
            ti = inv(t)
            for key, xi in zip(keyed([mul(t, x) for x in normalizer]), inverses):
                if (best is None or key < best) and powers_commute(key[1], mul(xi, ti)):
                    best = key
    return (None, None) if best is None else (Fraction(best[0]), Element(d, best[1]))


@lru_cache(maxsize=4)
def _trivial_table(d):
    return trivial_norm_table(d)


def assert_walk_matches_enumeration(d, h, h2):
    """Norms: none, the support and trivial norms (their own bounds), a
    table and a rational callable (bound 0); m = 1..3; H against itself and
    against a second subgroup."""
    for norm in (None, support_norm, trivial_norm, _trivial_table(d), _halved_support):
        for m in (1, 2, 3):
            for fixed in (h, h2):
                e = _least_displacer(d, fixed, h, m, norm, 10 ** 7)
                assert (e.value, e.minimizer) == \
                    enumerated_least_displacer(d, fixed, h, m, norm)


@st.composite
def small_support_subgroups(draw):
    """Subgroups of S5-S8 and A5-A7 moving at most 4 points, so N is at
    most S4 x S4 and the enumerated cosets stay small."""
    d = parse_descriptor(draw(st.sampled_from(
        ["sn:5", "sn:6", "sn:7", "sn:8", "an:5", "an:6", "an:7"])))

    def subgroup():
        pts = draw(st.lists(st.integers(0, d.n - 1), min_size=3, max_size=4, unique=True))
        gens = []
        for _ in range(draw(st.integers(1, 2))):
            image = draw(st.permutations(pts))
            p = list(range(d.n))
            for a, b in zip(pts, image):
                p[a] = b
            if d.family == "an" and _perm_parity(p):
                p[pts[0]], p[pts[1]] = p[pts[1]], p[pts[0]]
            gens.append(Element(d, tuple(p)))
        return SubgroupSpec(tuple(gens))
    return d, subgroup(), subgroup()


@settings(deadline=None, max_examples=12)
@given(small_support_subgroups())
def test_walk_matches_enumerated_cosets(case):
    assert_walk_matches_enumeration(*case)


@pytest.mark.parametrize("text,pts,pts2", [
    ("sn:5", (1, 2, 3), (3, 4, 5)), ("sn:6", (2, 5, 3), (1, 2, 4)),
    ("sn:7", (4, 1, 6), (6, 7, 2)), ("sn:8", (1, 2, 3), (2, 4, 6)),
    ("sn:8", (3, 8, 5, 6), (1, 2, 3)), ("an:7", (1, 2, 3), (4, 5, 6)),
    ("an:7", (2, 7, 4), (1, 2, 3))])
def test_walk_matches_enumerated_cosets_on_sym_blocks(text, pts, pts2):
    d = parse_descriptor(text)
    if d.family == "an":  # Sym(A) meets A_n in Alt(A) x <(a b)(c d)>
        free = [i for i in range(1, d.n + 1) if i not in pts][:2]
        h = SubgroupSpec((perm_from_cycles(d, pts), perm_from_cycles(d, pts[:2], free)))
    else:
        h = sym_block(d, pts)
    assert_walk_matches_enumeration(d, h, SubgroupSpec((perm_from_cycles(d, pts2),)))


def _support_bound(s, k):
    """The prefix bound ``#{i < k : s(i) != i} + #{i < k : s(i) >= k}`` on
    every permutation whose images of 0..k-1 are those of ``s``: the orbit
    bound for Sym{k..n-1} >= N_k.  With its one orbit {k..n-1}, a point
    x >= k counts when s(x) < k, and there are as many such x as i < k with
    s(i) >= k.  A larger group has larger orbits, so a count no larger: the
    orbit bound is never below the prefix bound."""
    head = s[:k]
    return sum(map(ne, head, range(k))) + k - sum(map(k.__gt__, head))


def test_support_bound_is_the_least_support_under_a_prefix():
    # in S6 every prefix of images has a completion moving exactly the bound
    least = {}
    for p in permutations(range(6)):
        moved = sum(i != x for i, x in enumerate(p))
        for k in range(7):
            least[p[:k]] = min(least.get(p[:k], moved), moved)
    for head, v in least.items():
        assert _support_bound(head + (0,) * (6 - len(head)), len(head)) == v


def _brute_orbits(d, h, k):
    """The orbit of each point under N_k, the elements of the brute-force
    normalizer that fix 0..k-1."""
    stab = [v for v in brute_normalizer(d, h) if v[:k] == tuple(range(k))]
    return [frozenset(v[x] for v in stab) for x in range(d.n)]


def orbit_bound_failures(d, h, bound):
    """The nodes ``(c, k)`` of the walks of H's commuting cosets, images of
    0..k-1 set, where ``_support_bound(c, k) <= bound(c, k) <= the least
    support among the leaves below c`` fails."""
    orb = _conjugates(d, h, 10 ** 7)
    levels = orb.chain.levels()
    mul = _payload_ops(d)[0]
    failures = []

    def least(c, depth: int) -> int:
        if depth == len(levels):
            return sum(map(ne, c, range(d.n)))
        reps, fixed = levels[depth]
        out = d.n
        for u in reps.values():
            child = mul(c, u)
            below = least(child, depth + 1)
            if not _support_bound(child, fixed) <= bound(child, fixed) <= below:
                failures.append((child, fixed))
            out = min(out, below)
        return out
    for i in _commuting(d, h, h, orb):
        least(orb.coset(i), 0)
    return failures


def orbit_bound_mutants(d, h):
    """Two wrong orbit bounds: one that counts the points x < k among those
    s may keep in their orbit, and one that reads the orbits of the level
    above (N_j, j the base point of the level whose choice set 0..k-1)."""
    orbits = lru_cache(maxsize=None)(lambda k: _brute_orbits(d, h, k))
    above = {fixed: min(reps) for reps, fixed in _conjugates(d, h, 10 ** 7).chain.levels()}

    def counts_the_prefix(c, k):
        kept = sum(c[x] in orbits(k)[x] for x in range(d.n))
        return sum(map(ne, c[:k], range(k))) + d.n - k - kept

    def orbits_above(c, k):
        return sum(c[x] not in orbits(above[k])[x] for x in range(d.n))
    return counts_the_prefix, orbits_above


def orbit_bound_of(d, h):
    return _orbit_bound(d.n, _conjugates(d, h, 10 ** 7).chain.levels())


ORBIT_BOUND_CASES = [
    ("sn:6", "(1 2);(1 2 3)"), ("sn:6", "(2 5);(2 5 3)"), ("sn:7", "(4 1);(4 1 6)"),
    ("sn:7", "(3 7);(3 7 5)"), ("an:7", "(2 7 4)"),
    # conjugates that share their point orbits, keyed by element sets
    ("sn:5", "(1 2 3 4)"), ("sn:6", "(1 2 3)(4 5 6)"), ("sn:7", "(1 2 3 4)"),
    ("an:7", "(1 2 3)(4 5 6)"),
]


@pytest.mark.parametrize("text,h", ORBIT_BOUND_CASES)
def test_orbit_bound_lies_between_the_prefix_bound_and_the_least_support(text, h):
    d, spec = _subgroup(text, h)
    assert orbit_bound_failures(d, spec, orbit_bound_of(d, spec)) == []


@pytest.mark.parametrize("text,h", ORBIT_BOUND_CASES[2:])
def test_orbit_bound_check_catches_two_mutants(text, h):
    # in S6 each leaf of the one commuting coset of a 3-point block moves
    # every point, and neither mutant shows there
    d, spec = _subgroup(text, h)
    for mutant in orbit_bound_mutants(d, spec):
        assert orbit_bound_failures(d, spec, mutant)


@settings(deadline=None, max_examples=12)
@given(small_support_subgroups().filter(lambda case: case[0].n <= 7))
def test_orbit_bound_on_small_support_subgroups(case):
    d, h, _ = case
    assert orbit_bound_failures(d, h, orbit_bound_of(d, h)) == []


@pytest.mark.parametrize("text,h", ORBIT_BOUND_CASES[:2])
def test_orbit_bound_is_the_brute_force_count(text, h):
    # labels grown up the chain against the orbits of the brute-force N_k,
    # at every k the walk bounds: N moves 0, and the root is never bounded
    d, spec = _subgroup(text, h)
    bound = orbit_bound_of(d, spec)
    for k in range(1, d.n + 1):
        orbits = _brute_orbits(d, spec, k)
        for c in random.Random(k).sample(list(permutations(range(d.n))), 50):
            assert bound(c, k) == sum(c[x] not in orbits[x] for x in range(d.n))


def test_negative_norm_values_are_refused():
    # the walk bounds every norm but the support norm below by 0, and the
    # message names the leaf by its literal
    d = symmetric(6)
    h = sym_block(d, (1, 2, 3))
    with pytest.raises(ValueError, match=r"< 0 on \(\d"):
        displacement_energy(d, h, 1, lambda g: Fraction(-moved_points(g)))
    # a one-level chain refuses it too
    d = parse_descriptor("bar:sn:3")
    s3 = symmetric(3)
    h = SubgroupSpec(tuple(bar_element(d, perm_from_cycles(s3, c), identity(s3))
                           for c in ((1, 2), (1, 2, 3))))
    with pytest.raises(ValueError, match=r"norm value -1 < 0 on \(\(\);\(\)\)t$"):
        displacement_energy(d, h, 1, lambda g: Fraction(-1))


# ---------------------------------------------------------------------------
# larger symmetric groups, by theory: Sym(A) and Sym(B) commute iff A and B
# are disjoint, so p = floor(n / 3), and a 1-displacer of Sym{1,2,3} moves
# {1,2,3} and its disjoint image, at least 6 points; (1 4)(2 5)(3 6) is the
# least in payload order that moves only those.  The least conjugator taking
# {1,2,3} to {7,8,9} in order sends 4, 5, 6 to the least free points 1, 2, 3


def test_s10_energy_and_s11_packing_by_theory():
    d = symmetric(10)
    e = displacement_energy(d, sym_block(d, (1, 2, 3)), 1, support_norm, limit=10 ** 7)
    assert e.value == 6
    assert e.minimizer == perm_from_cycles(d, (1, 4), (2, 5), (3, 6))
    d = symmetric(11)
    res = packing_number(d, sym_block(d, (1, 2, 3)), limit=10 ** 8)
    assert res.p == 3
    assert res.certificate.witnesses == (
        perm_from_cycles(d, (1, 4), (2, 5), (3, 6)),
        perm_from_cycles(d, (1, 7, 4), (2, 8, 5), (3, 9, 6)))


def clique_bound_fires(d, h, m):
    orb = _conjugates(d, h, 10 ** 7)
    return len(_max_clique(orb.cls.near, orb.j, m + 1)) <= m


def assert_clique_bound(d, h, m):
    """The bound may only fire where the full scan finds no displacer, and
    every search still matches the full scan; returns (fires, found)."""
    fires = not is_abelian_subgroup(h) and clique_bound_fires(d, h, m)
    rep = find_strong_displacer(d, h, m)
    assert rep.witnesses == scan_strong_displacer(d, h, m)
    assert not (fires and rep.found)
    if d.family in PERMUTATION_FAMILIES:
        e = displacement_energy(d, h, m, support_norm)
        assert (e.value, e.minimizer) == scan_displacement_energy(d, h, m, support_norm)
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
    assert _least_displacer(d, fixed, moved, m, support_norm, 10 ** 7).value == 0


def scan_two_subgroup_energy(d, fixed, moved, m, value=lambda g: 0):
    """Least (value, payload) over all phi whose powers phi^1..phi^m each
    conjugate ``moved`` to commute with ``fixed``; with no value, the least
    such phi in payload order."""
    mul, inv, _, _ = _payload_ops(d)
    fixed_gens = tuple(g.payload for g in fixed.generators)
    moved_gens = tuple(g.payload for g in moved.generators)

    def displaces(phi):
        pw = phi
        for k in range(1, m + 1):
            pw = phi if k == 1 else mul(phi, pw)
            pwi = inv(pw)
            for c in (mul(mul(pw, g), pwi) for g in moved_gens):
                if any(mul(c, x) != mul(x, c) for x in fixed_gens):
                    return False
        return True
    best = min(((value(Element(d, phi)), phi) for phi in _iter_payloads(d)
                if displaces(phi)), default=None)
    return (None, None) if best is None else (Fraction(best[0]), Element(d, best[1]))


@pytest.mark.parametrize("fixed_pts,moved_pts", [((5, 6, 7), (1, 2, 3)),
                                                  ((1, 2, 3), (3, 4, 5))])
def test_two_subgroup_displacer_matches_full_scan(fixed_pts, moved_pts):
    # the conjugates of `moved` must commute with `fixed`, not with each
    # other: the re-check once demanded both and raised on these results
    d = symmetric(7)
    fixed, moved = sym_block(d, fixed_pts), sym_block(d, moved_pts)
    phi = _least_displacer(d, fixed, moved, 2, None, 10 ** 7).minimizer
    assert phi == scan_two_subgroup_energy(d, fixed, moved, 2)[1]
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


# ---------------------------------------------------------------------------
# fixed costs of the walk: the memoized power test, the one-level chain's
# leaves, the trivial norm's bound


def _counting(monkeypatch, name, count):
    """Wrap the function that ``displacement.<name>`` returns (for
    ``_payload_ops``, the record's product) so that each call of it adds one
    to ``count[0]``."""
    make = getattr(displacement, name)

    def counted(*args):
        f = make(*args)
        rest = ()
        if name == "_payload_ops":
            f, *rest = f

        def call(*a):
            count[0] += 1
            return f(*a)
        return (call, *rest) if rest else call
    monkeypatch.setattr(displacement, name, counted)


def test_power_test_runs_once_per_power_image_of_supp_h(monkeypatch):
    # phi^2 H phi^-2 depends only on phi^2 on supp H = {2, 4, 7}: at most
    # 9 * 8 * 7 = 504 distinct keys, where every leaf tested once ran the
    # commutation test (9 704 calls)
    d = symmetric(9)
    h = sym_block(d, (2, 4, 7))
    calls = [0]
    _counting(monkeypatch, "_commuter", calls)
    rep = find_strong_displacer(d, h, 2)
    assert calls[0] <= 504
    assert rep.witnesses == (perm_from_cycles(d, (1, 2, 3), (4, 5, 6), (7, 8, 9)),
                             perm_from_cycles(d, (1, 3, 2), (4, 6, 5), (7, 9, 8)))


def test_orbit_bound_prunes_wherever_h_sits_in_the_base(monkeypatch):
    # the prefix bound alone bounded 190 inner nodes for Sym{1,2,3}, but
    # 8 099 for Sym{2,4,7} and 7 656 for Sym{9,5,1}, whose points sit deep in
    # the base; the orbit bound, which reads the images past the prefix too,
    # bounds 90, 199 and 202 (199 / 90 = 2.2: for Sym blocks it is already the
    # least support below each node, so no sharper bound closes that gap)
    d = symmetric(9)
    nodes, count = {}, [0]
    _counting(monkeypatch, "_orbit_bound", count)
    for pts, phi in [((1, 2, 3), ((1, 4), (2, 5), (3, 6))),
                     ((2, 4, 7), ((2, 3), (4, 5), (7, 8))),
                     ((9, 5, 1), ((1, 2), (5, 6), (8, 9)))]:
        count[0] = 0
        e = displacement_energy(d, sym_block(d, pts), 1, support_norm)
        assert (e.value, e.minimizer) == (6, perm_from_cycles(d, *phi))
        nodes[pts] = count[0]
    assert nodes[(1, 2, 3)] <= 90
    assert nodes[(2, 4, 7)] <= 199 and nodes[(9, 5, 1)] <= 202


@pytest.mark.parametrize("fixed,moved", [((2, 4), (2, 3, 6)), ((2, 4), (4, 7))])
def test_power_memo_keys_the_last_power(fixed, moved):
    # for m = 3 the key must hold the images of supp H under phi^3 as well:
    # keyed by phi^2 alone, one leaf's verdict is reused for leaves whose
    # phi^3 differs, and these searches miss their least displacer
    d = symmetric(7)
    fixed = SubgroupSpec((perm_from_cycles(d, fixed),))
    moved = SubgroupSpec((perm_from_cycles(d, moved),))
    for m in (2, 3):
        e = _least_displacer(d, fixed, moved, m, None, 10 ** 7)
        assert (e.value, e.minimizer) == scan_two_subgroup_energy(d, fixed, moved, m)
        e = _least_displacer(d, fixed, moved, m, support_norm, 10 ** 7)
        assert (e.value, e.minimizer) == scan_two_subgroup_energy(d, fixed, moved, m,
                                                                  support_norm)


def test_the_chain_of_n_stops_at_the_known_order(monkeypatch):
    # |N| = |G| / |orbit| is known once the BFS ends, and the chain of N
    # reaches it after 20, 12 and 26 Schreier generators; checking and adding
    # every one of them took 85, 85 and 925
    checked, added = [0], [0]
    orbit_key, add = displacement._orbit_key, _StabChain.add

    def counted_key(*args):
        name, act, normalizes = orbit_key(*args)

        def counted(g):
            checked[0] += 1
            return normalizes(g)
        return name, act, counted

    def counted_add(chain, g, k=0):
        added[0] += k == 0
        add(chain, g, k)
    monkeypatch.setattr(displacement, "_orbit_key", counted_key)
    monkeypatch.setattr(_StabChain, "add", counted_add)
    for n, pts, most in [(9, (1, 2, 3), 20), (9, (2, 4, 7), 12),
                         (12, (1, 2, 3, 4, 5, 6), 26)]:
        d = symmetric(n)
        checked[0] = added[0] = 0
        orb = _conjugates(d, sym_block(d, pts), 10 ** 9)
        assert len(orb.cls.trans) * orb.chain.order() == order(d)
        assert 0 < checked[0] <= most and 0 < added[0] <= most
    d = symmetric(9)
    for pts, witnesses, (e1, e2) in [
            ((1, 2, 3), ("(1 4)(2 5)(3 6)", "(1 7 4)(2 8 5)(3 9 6)"),
             ("(1 4)(2 5)(3 6)", "(1 4 7)(2 5 8)(3 6 9)")),
            ((2, 4, 7), ("(2 3)(4 5)(7 8)", "(1 2)(4 6 5)(7 9 8)"),
             ("(2 3)(4 5)(7 8)", "(1 2 3)(4 5 6)(7 8 9)"))]:
        h = sym_block(d, pts)
        res = packing_number(d, h)
        assert res.p == 3
        assert res.certificate.witnesses == tuple(from_literal(d, w) for w in witnesses)
        for m, value, phi in ((1, 6, e1), (2, 9, e2)):
            e = displacement_energy(d, h, m, support_norm)
            assert (e.value, e.minimizer) == (value, from_literal(d, phi))


def _corner_sym3(text):
    d = parse_descriptor(text)
    s3 = symmetric(3)
    return d, SubgroupSpec(tuple(wreath_element(d, {0: perm_from_cycles(s3, c)})
                                 for c in ((1, 2), (1, 2, 3))))


def test_one_level_chain_walk_makes_one_product_per_leaf(monkeypatch):
    # N has 216 elements on one level: the leaves of a coset t N are the
    # products t n, and the level's own elements are the tails, so N is not
    # multiplied by the identity first (2 |N| more products per coset)
    d, h = _corner_sym3("wreath:sn:3:zn:3")
    orb = _conjugates(d, h, 10 ** 7)
    levels = orb.chain.levels()
    assert len(levels) == 1 and orb.chain.order() == 216
    t = orb.coset(1)
    products = [0]
    _counting(monkeypatch, "_payload_ops", products)
    least = _least_leaf(d, [t], levels, None, lambda s, k: 0, None)
    assert products[0] == 216
    mul = _payload_ops(d)[0]
    assert least[1] == min(mul(t, x) for x in levels[0][0].values())
    products[0] = 0
    enumeration._store.cache_clear()  # count a cold search, not the orbit kept above
    assert packing_number(d, h).p == 3
    # 2316 when the tails started from the identity; 1766 while every
    # Schreier generator was formed (2 products each), though N is complete
    # one generator before the last; 1764 while every transversal element
    # was inverted along the tree (2 products for the 3-point orbit), where
    # only the generators formed now invert theirs
    assert products[0] == 1762


def test_trivial_norm_walk_keys_one_leaf_batch(monkeypatch):
    # for m = 1 the bound 1 under every prefix but the identity's ends the
    # walk at the first leaf batch, where all 86 400 leaves of the 20
    # commuting cosets were keyed
    d = symmetric(9)
    h = sym_block(d, (1, 2, 3))
    values = [0]
    _counting(monkeypatch, "payload_value_fn", values)
    for m in (1, 2):
        values[0] = 0
        e = displacement_energy(d, h, m, trivial_norm)
        assert e.value == 1
        assert (e.minimizer,) == find_strong_displacer(d, h, m).witnesses[:1]
        if m == 1:
            assert values[0] <= displacement.LEAF_BATCH


def _tables(d):
    """Whole-group tables: trivial, support, q_K of a transposition (a
    3-cycle on ``an``) and, on the perfect ``an``, commutator length."""
    k = perm_from_cycles(d, (1, 2) if d.family == "sn" else (1, 2, 3))
    tables = [trivial_norm_table(d), support_norm_table(d), qk_norm(d, [k])]
    if d.family == "an":
        tables.append(commutator_length(d))
    return tables


def _shifted(table, off, at_one):
    """``table`` with ``off`` added off the identity and ``at_one`` at it."""
    values = {g: at_one if g.is_identity() else v + off for g, v in table.values.items()}
    return NormTable(table.descriptor, values, NormTableMeta(name="shifted"))


def _outcome(call):
    try:
        e = call()
        return e.value, e.minimizer
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("text,pts,pts2", [("sn:6", (1, 2, 3), (3, 4, 5)),
                                           ("sn:7", (2, 5, 3), (1, 6)),
                                           ("an:6", (1, 2, 3), (2, 4, 6))])
def test_the_floor_bound_matches_enumerated_cosets_on_tables(text, pts, pts2, monkeypatch):
    # tables are bounded below by their least value off the identity; a
    # table with a value off the identity below 0 gets the floor 0, the
    # bound every table had, and refuses its negative value where it did
    d = parse_descriptor(text)
    h = SubgroupSpec((perm_from_cycles(d, pts),)) if d.family == "an" else sym_block(d, pts)
    h2 = SubgroupSpec((perm_from_cycles(d, pts2),))
    support = support_norm_table(d)
    for table in _tables(d) + [_shifted(support, 0, Fraction(5)),
                               _shifted(support, Fraction(1, 2), Fraction(0))]:
        for m in (1, 2):
            for fixed in (h, h2):
                e = _least_displacer(d, fixed, h, m, table, 10 ** 7)
                assert (e.value, e.minimizer) == \
                    enumerated_least_displacer(d, fixed, h, m, table)
    negative = _shifted(support, -3 if d.family == "sn" else -4, Fraction(0))
    calls = [lambda m=m, fixed=fixed: _least_displacer(d, fixed, h, m, negative, 10 ** 7)
             for m in (1, 2) for fixed in (h, h2)]
    floored = [_outcome(call) for call in calls]
    monkeypatch.setattr(displacement, "_floor", lambda d, norm: 0)  # the zero bound
    assert floored == [_outcome(call) for call in calls]
    assert any("< 0 on" in str(o) for o in floored)


def test_the_floor_of_a_table(monkeypatch):
    d = symmetric(5)
    support = support_norm_table(d)
    # the support rule, and its table while unread, take the orbit bound
    assert _floor(d, support_norm) is None and _floor(d, support) is None
    assert _floor(d, trivial_norm) == 1
    assert _floor(d, trivial_norm_table(d)) == 1
    assert len(support.values) == 120  # read: from now on a table like any other
    assert _floor(d, support) == 2
    assert _floor(d, _shifted(support, 0, Fraction(-7))) == 2
    assert _floor(d, _shifted(support, Fraction(-3, 2), Fraction(0))) == Fraction(1, 2)
    assert _floor(d, _shifted(support, -3, Fraction(0))) == 0
    for norm in (None, _halved_support):
        assert _floor(d, norm) == 0
    # the table is read, not changed
    assert len(support.values) == 120 and support.values[identity(d)] == 0


def test_a_norm_table_on_part_of_g_is_refused(monkeypatch):
    # a table of commutator length on H once ended in a bare KeyError at the
    # first leaf outside it; now the walk refuses it before any work
    d = symmetric(6)
    h = sym_block(d, (1, 2, 3))
    table = commutator_length_over(closure_of(h), d)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the norm was checked")
    monkeypatch.setattr(displacement, "_conjugates", no_work)
    for m in (1, 2):
        with pytest.raises(ValueError, match=rf"^the norm table covers {len(table.values)} "
                                             r"elements, not all 720 of sn:6$"):
            displacement_energy(d, h, m, table)
