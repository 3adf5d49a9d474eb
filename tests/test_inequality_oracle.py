"""The inequality verifiers against their Element-loop oracle.

``verify_master_inequalities`` reads cl_H and every [f, g] of its chain from
one kernel of H, and ``verify_disjunction_inequality`` forms each [x1, x2]
on payloads; both make each literal and each value once per element.  The
oracles below are the loops they replaced: every commutator multiplied out
with the Element API, and valued and written per pair.  The whole reports
must agree, and a norm that raises must raise alike on both sides.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from cinorm import (
    closure_of,
    commutator_length,
    commutator_length_over,
    commutator_of,
    disjunction_energy,
    displacement_energy,
    enumerate_elements,
    parse_descriptor,
    perm_from_cycles,
    qk_norm,
    support_norm,
    support_norm_table,
    to_literal,
    trivial_norm,
    verify_disjunction_inequality,
    verify_master_inequalities,
)
from cinorm import descriptors as gd
from cinorm import displacement
from cinorm.displacement import (
    AMBIENT_CL_LIMIT,
    InequalityRow,
    MasterReport,
    _energy,
)
from cinorm.elements import sort_key
from cinorm.norms import NormTable


def _value(norm):
    """The oracle's own accessor: a table's dict, or the callable."""
    return norm.values.__getitem__ if isinstance(norm, NormTable) else norm


def master_oracle(d, h, m, norm, *, energy=None):
    e, _ = _energy(d, norm, h, h, m, energy)  # the verifier's refusals and energy
    value = _value(norm)
    closure = sorted(closure_of(h), key=sort_key)
    cl_h = commutator_length_over(closure, d, name="cl_H")
    rows, chain = [], []
    ambient_cl = None
    if gd._order_within(d, AMBIENT_CL_LIMIT) is not None:
        ambient_cl = commutator_length(d)
    factor = 4 if m == 1 else 14
    for x, clv in sorted(cl_h.values.items(), key=lambda kv: sort_key(kv[0])):
        if clv != m:
            continue
        if e.value is not None:
            lhs = Fraction(value(x))
            rhs = factor * e.value
            rows.append(InequalityRow(
                f"v(x) <= {factor} e_{m}", (to_literal(x),), lhs, rhs, lhs <= rhs))
        if ambient_cl is not None:
            lhs = ambient_cl.values[x]
            rows.append(InequalityRow(
                "cl_ambient(x) <= 2", (to_literal(x),), lhs, Fraction(2), lhs <= 2))
    if m == 1 and e.value is not None and e.minimizer is not None:
        phi = e.minimizer
        vphi = Fraction(value(phi))
        for f in closure:
            part = Fraction(value(commutator_of(f, phi)))
            for g in closure:
                lhs = Fraction(value(commutator_of(f, g)))
                chain.append(InequalityRow(
                    "v([f,g]) <= 2 v([f,phi])",
                    (to_literal(f), to_literal(g)), lhs, 2 * part, lhs <= 2 * part))
            chain.append(InequalityRow(
                "2 v([f,phi]) <= 4 v(phi)", (to_literal(f),),
                2 * part, 4 * vphi, 2 * part <= 4 * vphi))
    ok = all(r.ok for r in rows) and all(r.ok for r in chain)
    return MasterReport(e, rows, chain, ambient_cl is not None, ok)


def disjunction_oracle(d, h1, h2, norm, energy=None):
    e, _ = _energy(d, norm, h1, h2, 1, energy)
    value = _value(norm)
    rows = []
    if e.value is not None:
        for x1 in sorted(closure_of(h1), key=sort_key):
            for x2 in sorted(closure_of(h2), key=sort_key):
                lhs = Fraction(value(commutator_of(x1, x2)))
                rhs = 4 * e.value
                rows.append(InequalityRow(
                    "v([x1,x2]) <= 4 e(H1,H2)",
                    (to_literal(x1), to_literal(x2)), lhs, rhs, lhs <= rhs))
    return MasterReport(e, rows, [], False, all(r.ok for r in rows))


GROUPS = ["sn:5", "sn:6", "sn:7", "an:5", "an:6"]
# "first-image" is no norm: a value that is not conjugation-invariant tells
# [f, g] from its conjugates, such as [f^-1, g] = f^-1 [f, g]^-1 f
NORMS = ["support", "trivial", "support-table", "qk-table", "first-image"]


def first_image(g):
    return Fraction(g.payload[0])


@cache
def _norm(text, kind):
    d = parse_descriptor(text)
    if kind == "support":
        return support_norm
    if kind == "trivial":
        return trivial_norm
    if kind == "first-image":
        return first_image
    if kind == "support-table":
        return support_norm_table(d)
    k = (1, 2) if d.family == "sn" else (1, 2, 3)
    return qk_norm(d, [perm_from_cycles(d, k)])


@cache
def _pool(text, block):
    # the elements that fix every point off the block, so |H| <= 24 and,
    # on three points in S6, S7 or A6, a conjugate can commute with H
    d = parse_descriptor(text)
    off = [i for i in range(d.n) if i + 1 not in block]
    return [g for g in enumerate_elements(d) if all(g.payload[i] == i for i in off)]


def _subgroups(data, text, count):
    d = parse_descriptor(text)
    out = []
    for _ in range(count):
        size = data.draw(st.sampled_from([3, 3, 4]))
        block = tuple(sorted(data.draw(st.sets(st.integers(1, d.n), min_size=size,
                                               max_size=size))))
        pool = _pool(text, block)
        gens = pool if data.draw(st.booleans()) else data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=2))
        out.append(displacement.SubgroupSpec(tuple(gens)))
    return d, out


def _sym(d, pts):
    return displacement.SubgroupSpec((perm_from_cycles(d, pts[:2]), perm_from_cycles(d, pts)))


def _outcome(call):
    try:
        return call()
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", GROUPS)
@settings(deadline=None, max_examples=12)
@given(data=st.data())
def test_master_report_matches_the_element_loops(text, data):
    d, (h,) = _subgroups(data, text, 1)
    norm = _norm(text, data.draw(st.sampled_from(NORMS)))
    m = data.draw(st.sampled_from([1, 2]))
    energy = displacement_energy(d, h, m, norm) if data.draw(st.booleans()) else None
    new = _outcome(lambda: verify_master_inequalities(d, h, m, norm, energy=energy))
    assert new == _outcome(lambda: master_oracle(d, h, m, norm, energy=energy))


@pytest.mark.parametrize("text", ["sn:6", "sn:7"])
@pytest.mark.parametrize("kind", NORMS)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("given_energy", [False, True], ids=["computed", "supplied"])
def test_master_report_on_a_displaceable_subgroup(text, kind, m, given_energy):
    # Sym{1,2,3} is non-abelian with a finite e_1, so at m = 1 every row
    # kind occurs; its e_2 is infinite and no x has cl_H(x) = 2
    d = parse_descriptor(text)
    h, norm = _sym(d, (1, 2, 3)), _norm(text, kind)
    energy = displacement_energy(d, h, m, norm) if given_energy else None
    rep = verify_master_inequalities(d, h, m, norm, energy=energy)
    assert rep == master_oracle(d, h, m, norm, energy=energy)
    assert m == 2 or (rep.rows and len(rep.chain_rows) == 42)


@pytest.mark.parametrize("text", GROUPS)
@settings(deadline=None, max_examples=12)
@given(data=st.data())
def test_disjunction_report_matches_the_element_loops(text, data):
    d, (h1, h2) = _subgroups(data, text, 2)
    norm = _norm(text, data.draw(st.sampled_from(NORMS)))
    energy = disjunction_energy(d, h1, h2, norm) if data.draw(st.booleans()) else None
    new = _outcome(lambda: verify_disjunction_inequality(d, h1, h2, norm, energy))
    assert new == _outcome(lambda: disjunction_oracle(d, h1, h2, norm, energy))


def _picky(allowed):
    # the support norm on ``allowed`` only, naming the first element off it
    def norm(g):
        if g not in allowed:
            raise ValueError(f"no value off the allowed set: {to_literal(g)}")
        return support_norm(g)
    return norm


@pytest.mark.parametrize("text", ["sn:6", "sn:7", "an:8"])
def test_a_norm_that_raises_off_the_derived_part_raises_alike(text):
    # H', and the minimizer its supplied energy is checked on, are allowed:
    # the rows pass and the chain raises on the first [f, phi] outside H'
    d = parse_descriptor(text)
    h = _sym(d, (1, 2, 3)) if d.family == "sn" else displacement.SubgroupSpec(
        (perm_from_cycles(d, (1, 2, 3)), perm_from_cycles(d, (1, 2), (7, 8))))
    derived = set(commutator_length_over(closure_of(h), d).values)
    e = displacement_energy(d, h, 1, support_norm)
    assert e.minimizer is not None
    norm = _picky(derived | {e.minimizer})
    new = _outcome(lambda: verify_master_inequalities(d, h, 1, norm, energy=e))
    assert new[0] is ValueError and new[1].startswith("no value off the allowed set")
    assert new == _outcome(lambda: master_oracle(d, h, 1, norm, energy=e))
    # without a supplied energy the scan values the first leaf off H' itself
    new = _outcome(lambda: verify_master_inequalities(d, h, 1, norm))
    assert new[0] is ValueError
    assert new == _outcome(lambda: master_oracle(d, h, 1, norm))

    h2 = _sym(d, (2, 3, 4)) if d.family == "sn" else displacement.SubgroupSpec(
        (perm_from_cycles(d, (2, 3, 4)), perm_from_cycles(d, (2, 3), (7, 8))))
    e = disjunction_energy(d, h, h2, support_norm)
    norm = _picky(derived | {e.minimizer})
    new = _outcome(lambda: verify_disjunction_inequality(d, h, h2, norm, e))
    assert new[0] is ValueError
    assert new == _outcome(lambda: disjunction_oracle(d, h, h2, norm, e))


def test_each_element_is_written_and_valued_once(monkeypatch):
    # no literal and no value per pair: |H| literals, and each valued
    # payload once, for the 36 + 6 chain rows of Sym{1,2,3} in S7
    d = parse_descriptor("sn:7")
    h, h2 = _sym(d, (1, 2, 3)), _sym(d, (3, 4, 5))
    literals, valued = [], []
    monkeypatch.setattr(displacement, "to_literal",
                        lambda g: literals.append(g) or to_literal(g))

    def norm(g):
        valued.append(g)
        return support_norm(g)
    e = displacement_energy(d, h, 1, support_norm)
    rep = verify_master_inequalities(d, h, 1, norm, energy=e)
    assert len(rep.chain_rows) == 42 and rep.ok
    assert len(literals) == 6
    # the supplied energy's minimizer is valued first by its own re-check
    assert valued[0] == e.minimizer and len(valued) - 1 == len(set(valued[1:]))
    assert rep == master_oracle(d, h, 1, support_norm, energy=e)

    literals.clear(), valued.clear()
    e = disjunction_energy(d, h, h2, support_norm)
    rep = verify_disjunction_inequality(d, h, h2, norm, e)
    assert len(rep.rows) == 36 and len(literals) == 12
    assert valued[0] == e.minimizer and len(valued) - 1 == len(set(valued[1:]))
    assert rep == disjunction_oracle(d, h, h2, support_norm, e)
