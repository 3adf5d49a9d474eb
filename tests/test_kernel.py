"""Differential tests: every path routed through the indexed kernel against
the elementwise loop it replaced, kept here as the oracle.

The oracles below are the library's former ``Element``-level loops, verbatim
in logic: they compose, invert and hash ``Element`` objects and do
``Fraction`` arithmetic pair by pair.  Every finite family with at most 200
elements is covered, once deterministically per family and again under
hypothesis with seeded tables, tamperings and subgroups.
"""

import os
import random
import re
from collections import Counter
from math import factorial, prod
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cinorm
from cinorm import (
    DescriptorMismatchError,
    GuardExceededError,
    NormTable,
    NotCGeneratingError,
    NormTableMeta,
    QuasiMorphism,
    QuasiNormSpec,
    SubgroupSpec,
    c_generates,
    check_extremal_domination,
    closure_of,
    commutator_length,
    commutator_length_over,
    commutator_of,
    commutator_sup,
    compose,
    conjugacy_closure,
    coset_extension_qnorm,
    defect,
    enumerate_elements,
    identity,
    invert,
    parse_descriptor,
    perm_from_cycles,
    qk_norm,
    quasinorm_to_norm,
    sort_key,
    support_norm_table,
    symmetric,
    to_literal,
    trivial_norm_table,
    verify_norm_axioms,
)
from cinorm import enumeration, kernel
from cinorm.elements import _payload_ops
from cinorm.enumeration import group_generators, subgroup_closure
from cinorm.kernel import (
    TABLE_BOUND,
    FiniteGroup,
    commutator_indices,
    conjugacy_indices,
    domain_kernel,
    group_kernel,
)

FAMILIES = ("sn:3", "sn:4", "sn:5", "an:4", "an:5", "slp:2:3", "slp:2:5",
            "bar:sn:3", "product:sn:3,sn:3", "wreath:sn:2:zn:2")
ZERO = Fraction(0)


def conj(G, b, a):
    """Index in the kernel G of ``b a b^-1``, -1 outside it; ``b`` must have
    its inverse in the set."""
    ab = G.mul(b, a)
    return -1 if ab < 0 else G.mul(ab, G.inv[b])


# ---------------------------------------------------------------------------
# oracles: the elementwise loops


def oracle_axioms(table, max_violations=25):
    vals = table.values
    violations = []

    def record(axiom, *witness):
        violations.append((axiom, witness))
        return len(violations) >= max_violations

    elems = table.domain()
    one = identity(table.descriptor)
    if vals.get(one, ZERO) != 0 and record("i", one):
        return (False, violations, 0, len(elems))
    full = True
    for g in elems:
        if vals[g] != vals[invert(g)]:
            full = not record("ii", g)
            if not full:
                break
        if g != one and vals[g] <= 0:
            full = not record("v", g)
            if not full:
                break
    pairs = 0
    if full:
        inverses = {g: invert(g) for g in elems}
        for f in elems:
            f_inv = inverses[f]
            vf = vals[f]
            for g in elems:
                pairs += 1
                fg = compose(f, g)
                if fg not in vals:
                    full = not record("domain", f, g)
                    break
                if vals[fg] > vf + vals[g]:
                    full = not record("iii", f, g)
                    break
                conj = compose(compose(f, g), f_inv)
                if vals.get(conj) != vals[g]:
                    full = not record("iv", f, g)
                    break
            if not full:
                break
    return (not violations, violations, pairs, len(elems))


def oracle_conjugacy_closure(base, d):
    seeds = set(base)
    seeds |= {invert(b) for b in seeds}
    return {compose(compose(phi, b), invert(phi))
            for phi in enumerate_elements(d) for b in seeds}


def oracle_commutator_pool(elements):
    elems = list(elements)
    return {compose(compose(a, b), compose(invert(a), invert(b)))
            for a in elems for b in elems}


def oracle_classes(G):
    # each member's class under conjugation by every member, by Elements
    elems = G.elements
    label, members = [-1] * G.n, {}
    for i, e in enumerate(elems):
        if label[i] < 0:
            cls = sorted({G.index_of(compose(compose(phi, e), invert(phi))) for phi in elems})
            members[i] = cls
            for c in cls:
                label[c] = i
    return label, members


def oracle_commutator_indices(G):
    # the N^2 loop the class representatives replaced, with its row formula
    G.require_closed()
    out = set()
    for x in range(G.n):
        xy, xiyi = G.row(x), G.row(G.inv[x])
        out.update(G.mul(xy[y], xiyi[G.inv[y]]) for y in range(G.n))
    return sorted(out)


def oracle_commutator_row(G, x):
    xy, xiyi = G.row(x), G.row(G.inv[x])
    return [G.mul(xy[y], xiyi[G.inv[y]]) for y in range(G.n)]


def oracle_bfs(d, step):
    gens = sorted(step, key=sort_key)
    dist = {identity(d): 0}
    frontier = [identity(d)]
    n = 0
    while frontier:
        n += 1
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(g, s)
                if h not in dist:
                    dist[h] = n
                    nxt.append(h)
        frontier = nxt
    return dist


def oracle_qk_values(d, K):
    closure = oracle_conjugacy_closure(K, d)
    return [(g, Fraction(n)) for g, n in oracle_bfs(d, closure).items()]


def oracle_cl_values(elements, d):
    dist = oracle_bfs(d, oracle_commutator_pool(elements))
    return [(g, Fraction(n)) for g, n in dist.items()]


def oracle_quasinorm_to_norm(q, d):
    elems = enumerate_elements(d)
    sym = {a: max(q.value(a), q.value(invert(a))) for a in elems}
    conj_sup = {}
    for a in elems:
        best = sym[a]
        for b in elems:
            c = compose(compose(b, a), invert(b))
            if sym[c] > best:
                best = sym[c]
        conj_sup[a] = best
    const = q.c_add + q.c_conj + 1
    one = identity(d)
    return [(a, ZERO if a == one else conj_sup[a] + const) for a in elems]


def oracle_coset_extension(d, reps=None):
    cl = commutator_length(d)
    derived = set(cl.values)
    elems = sorted(enumerate_elements(d), key=sort_key)
    if reps is None:
        reps = []
        for g in elems:
            if not any(compose(g, invert(r)) in derived for r in reps):
                reps.append(g)
    else:
        seen = set()
        for r in reps:
            key = frozenset(compose(h, r) for h in derived)
            if key in seen:
                raise ValueError("representative list is not a transversal")
            seen.add(key)
        if len(reps) * len(derived) != len(elems):
            raise ValueError("representative list is not a transversal")

    def rep_of(g):
        return next(r for r in reps if compose(g, invert(r)) in derived)

    table = {g: cl.values[compose(g, invert(rep_of(g)))] for g in elems}
    c_big = ZERO
    for s1 in reps:
        for s2 in reps:
            prod = compose(s1, s2)
            c_big = max(c_big, cl.values[compose(prod, invert(rep_of(prod)))])
    return list(table.items()), reps, c_big


def oracle_defect(q):
    elems = enumerate_elements(q.domain)
    vals = {g: q(g) for g in elems}
    best = ZERO
    for a in elems:
        for b in elems:
            best = max(best, abs(vals[compose(a, b)] - vals[a] - vals[b]))
    return best, len(elems) ** 2


def oracle_commutator_sup(q, h, max_witnesses):
    best = ZERO
    witnesses = []
    elems = sorted(closure_of(h), key=sort_key)
    for x in elems:
        for y in elems:
            v = q(commutator_of(x, y))
            if v > best:
                best = v
                witnesses = [(x, y)]
            elif v == best and v > 0 and len(witnesses) < max_witnesses:
                witnesses.append((x, y))
    return best, witnesses, len(elems) ** 2


# ---------------------------------------------------------------------------
# helpers


def report_tuple(rep):
    return (rep.passed, rep.violations, rep.pairs_checked, rep.domain_size)


def random_fraction(rng, top=4):
    return Fraction(rng.randint(0, top), rng.choice((1, 1, 2, 3)))


def c_generating_set(d, rng):
    elems = enumerate_elements(d)
    K = [rng.choice(elems[1:])]
    while not c_generates(d, K):
        K.append(rng.choice(elems))
    return K


def tables_for(d, rng):
    """Valid tables on the whole group and on its derived subgroup."""
    tables = [trivial_norm_table(d), qk_norm(d, c_generating_set(d, rng)),
              commutator_length(d)]
    if d.family in ("sn", "an"):
        tables.append(support_norm_table(d))
    return tables


def tampered(table, rng):
    """The table with one value changed, or with a few elements dropped from
    its domain; both break some axiom."""
    vals = dict(table.values)
    keys = sorted(vals, key=sort_key)
    if rng.random() < 0.5:
        g = rng.choice(keys)
        vals[g] = random_fraction(rng, top=6)
    else:
        for g in rng.sample(keys, min(len(keys) - 1, rng.randint(1, 3))):
            vals.pop(g, None)
            if rng.random() < 0.8:  # else an inverse is left without its partner
                vals.pop(invert(g), None)
    return NormTable(table.descriptor, vals, NormTableMeta(name="tampered"))


def assert_axioms_agree(table, max_violations=25):
    try:
        expected = oracle_axioms(table, max_violations)
    except KeyError as exc:  # an inverse outside the domain
        g, g_inv = (re.escape(to_literal(x)) for x in (invert(exc.args[0]), exc.args[0]))
        with pytest.raises(ValueError,
                           match=rf"^the table's domain holds {g} but not its inverse {g_inv}$"):
            verify_norm_axioms(table, max_violations)
        return None
    got = report_tuple(verify_norm_axioms(table, max_violations))
    assert got == expected
    return got


# ---------------------------------------------------------------------------
# the kernel itself


@pytest.mark.parametrize("text", FAMILIES)
def test_kernel_indexes_the_group_in_payload_order(text):
    d = parse_descriptor(text)
    G = group_kernel(d)
    elems = enumerate_elements(d)
    assert G.elements == elems == sorted(elems, key=sort_key)
    assert group_kernel(d) is G  # cached per descriptor
    assert [G.elements[i] for i in G.inv] == [invert(g) for g in elems]
    assert G.elements[G.one] == identity(d)
    rng = random.Random(text)
    for i in rng.sample(range(G.n), min(G.n, 6)):
        row = G.row(i)
        assert [G.elements[k] for k in row] == [compose(elems[i], g) for g in elems]
        j = rng.randrange(G.n)
        assert G.mul(i, j) == row[j]
        assert G.elements[conj(G, j, i)] == compose(compose(elems[j], elems[i]),
                                                    invert(elems[j]))


def test_subset_kernel_marks_products_outside_with_minus_one():
    d = symmetric(4)
    sub = [g for g in enumerate_elements(d) if g.payload[3] == 3]  # a copy of S3
    G = domain_kernel(d, sub)
    assert not G.full and G.n == 6
    G.require_closed()
    t = perm_from_cycles(d, (1, 2))
    H = domain_kernel(d, [identity(d), t, perm_from_cycles(d, (1, 2, 3))])
    assert -1 in H.inv  # the 3-cycle's inverse is missing
    assert -1 in H.row(H.index_of(t))  # (1 2)(1 2 3) is missing
    assert H.row(H.index_of(t))[H.index_of(t)] == H.one
    with pytest.raises(ValueError):
        H.require_closed()


@pytest.mark.parametrize("closed", [True, False])
def test_subset_kernel_builds_its_whole_table_at_first_use(closed):
    # a copy of S3 in S4, and the same set with (1 2 3) swapped for (1 2 4)
    d = symmetric(4)
    sub = [g for g in enumerate_elements(d) if g.payload[3] == 3]
    if not closed:
        sub[sub.index(perm_from_cycles(d, (1, 2, 3)))] = perm_from_cycles(d, (1, 2, 4))
    G = domain_kernel(d, sub)
    assert not G.full and G.n == 6
    assert G._rows is None
    p = G.payloads
    mul = _payload_ops(d)[0]
    expected = [[G.index.get(mul(a, b), -1) for b in p] for a in p]
    assert (-1 in sum(expected, [])) is not closed
    assert G.mul(3, 4) == expected[3][4]  # the first product builds a subgroup's table
    if closed:
        assert len(G._rows) == G.n and None not in G._rows
    for i in range(G.n):
        assert list(G.row(i)) == expected[i]
        assert G.products(i, [5, 0, i]) == [expected[i][j] for j in (5, 0, i)]
        assert [G.mul(i, j) for j in range(G.n)] == expected[i]
    if not closed:  # a set that is not a subgroup keeps no table
        assert G._rows is None


def test_subset_generators_grow_the_subgroup_or_are_none():
    d = symmetric(4)
    one, c = identity(d), perm_from_cycles(d, (1, 2, 3))
    s3 = [g for g in enumerate_elements(d) if g.payload[3] == 3]
    not_subgroups = [s3[1:],  # no identity
                     [one, c],  # no inverse of c
                     [one, perm_from_cycles(d, (1, 2)), perm_from_cycles(d, (3, 4))],  # no product
                     []]
    for sub in not_subgroups:
        G = domain_kernel(d, sub)
        assert G.generators() is None and G._rows is None
        with pytest.raises(ValueError, match="are not a subgroup of sn:4"):
            G.require_closed()
    S7 = symmetric(7)
    sym5 = closure_of(SubgroupSpec((perm_from_cycles(S7, (1, 2)),
                                    perm_from_cycles(S7, (1, 2, 3, 4, 5)))))
    for sub in (s3, [one], closure_of(SubgroupSpec((c,))), sym5):
        G = domain_kernel(next(iter(sub)).descriptor, sub)
        gens = G.generators()
        assert G.generators() is gens  # found once
        assert gens == sorted(gens) and G.one not in gens
        chosen = [G.elements[G.one]] + [G.elements[i] for i in gens]
        for k, x in enumerate(gens, 1):  # each outside the closure of those before it
            assert G.elements[x] not in subgroup_closure(chosen[:k])
        assert subgroup_closure(chosen) == set(G.elements)
    G = group_kernel(d)
    assert G.generators() == [G.index_of(x) for x in group_generators(d)]


def test_subgroup_kernel_does_generator_products_only(monkeypatch):
    # the closure of Sym{1..5} in S7: N |gens| payload products find its
    # generators and N |gens| build its table, and the classes and the
    # commutator set read the table (the table alone made N^2 = 14 400 when
    # a subset had no generators)
    d = symmetric(7)
    H = closure_of(SubgroupSpec((perm_from_cycles(d, (1, 2)),
                                 perm_from_cycles(d, (1, 2, 3, 4, 5)))))
    count = []

    def counting_ops(d):
        mul, *rest = _payload_ops(d)
        return (lambda a, b: count.append(1) or mul(a, b), *rest)
    monkeypatch.setattr(kernel, "_payload_ops", counting_ops)
    G = domain_kernel(d, H)
    assert not G.full and G.n == 120
    cs = commutator_indices(G)
    assert len(cs) == 60 and len(G._rows) == G.n and len(G.classes()[1]) == 7
    assert len(count) <= 2 * G.n * len(G.generators())


def test_domain_kernel_drops_repeats():
    # <(1 2)> has a trivial derived subgroup; counted with its repeats, the
    # six elements used to pass for all of S3 and gave the cl table of A3
    d = symmetric(3)
    H = [identity(d), perm_from_cycles(d, (1, 2))] * 3
    G = domain_kernel(d, H)
    assert not G.full and G.n == 2
    cl = commutator_length_over(H, d)
    assert list(cl.values.items()) == [(identity(d), ZERO)]


def test_domain_kernel_refuses_elements_of_another_group():
    S4 = symmetric(4)
    closure = closure_of(SubgroupSpec((perm_from_cycles(S4, (1, 2)),
                                       perm_from_cycles(S4, (1, 2, 3)))))
    assert len(closure) == 6
    with pytest.raises(DescriptorMismatchError, match="is not an element of sn:3"):
        commutator_length_over(closure, symmetric(3))


def test_empty_domain_is_not_a_subgroup():
    with pytest.raises(ValueError, match="the 0 elements are not a subgroup of sn:3"):
        commutator_length_over([], symmetric(3))


def test_axiom_i_counts_toward_the_cap():
    # the identity's value breaks (i); with one violation allowed the check
    # stops there instead of going on to record (iii) after 8 pairs
    d = symmetric(3)
    vals = dict(trivial_norm_table(d).values)
    vals[identity(d)] = Fraction(3)
    table = NormTable(d, vals, NormTableMeta(name="bad-identity"))
    rep = verify_norm_axioms(table, max_violations=1)
    assert report_tuple(rep) == (False, [("i", (identity(d),))], 0, 6)
    assert report_tuple(rep) == oracle_axioms(table, 1)
    assert [a for a, _ in verify_norm_axioms(table, max_violations=2).violations] == \
        ["i", "iii"]


def test_rows_above_the_table_bound_are_recomputed():
    d = parse_descriptor("an:7")  # 2520 elements
    G = group_kernel(d)
    assert G.n > TABLE_BOUND
    i = G.n // 3
    row = G.row(i)
    assert row is not G.row(i)  # not kept
    elems = G.elements
    assert all(G.elements[row[j]] == compose(elems[i], elems[j])
               for j in range(0, G.n, 97))
    assert G.mul(i, 5) == row[5]


def test_a_whole_group_in_any_order_gets_the_cached_kernel():
    d = symmetric(3)
    assert domain_kernel(d, reversed(enumerate_elements(d))) is group_kernel(d)


@pytest.mark.parametrize("text", ["sn:4", "slp:2:3", "an:7"])
def test_products_match_the_row_and_store_none(text):
    d = parse_descriptor(text)
    elems = enumerate_elements(d)
    G = FiniteGroup(d, elems, full=True)  # a fresh kernel: no row built yet
    assert G._rows is None
    rng = random.Random(text)
    for i in rng.sample(range(G.n), 4):
        js = sorted(rng.sample(range(G.n), 12)) + [i, 0, i]
        got = G.products(i, js)
        assert got == [G.index[compose(elems[i], elems[j]).payload] for j in js]
        if G.n <= TABLE_BOUND:  # the first call gathered the whole table
            assert len(G._rows) == G.n and None not in G._rows
        else:  # nothing is stored
            assert G._rows is None
        row = G.row(i)
        assert G.products(i, js) == [row[j] for j in js] == got
        assert G.products(i, range(G.n)) == list(row)


@pytest.mark.parametrize("text", FAMILIES + ("sn:1", "an:6"))
def test_gathered_table_matches_payload_products(text):
    d = parse_descriptor(text)
    G = FiniteGroup(d, enumerate_elements(d), full=True)
    p, mul = G.payloads, _payload_ops(d)[0]
    for i in range(G.n):
        row = G.row(i)
        assert list(row) == [G.index[mul(p[i], q)] for q in p]
        assert row[G.inv[i]] == G.one


def test_gather_refuses_generators_that_miss_elements(monkeypatch):
    # without the 4-cycle, (1 2) reaches 2 of the 24 elements of S4
    d = symmetric(4)
    monkeypatch.setattr(kernel, "group_generators", lambda d: group_generators(d)[:1])
    G = FiniteGroup(d, enumerate_elements(d), full=True)
    with pytest.raises(AssertionError, match="reach 2 of 24 elements"):
        G.row(0)
    assert G._rows is None  # nothing half-built is published


def test_gather_check_survives_python_O():
    code = (
        "from cinorm import enumerate_elements, kernel, symmetric\n"
        "gens = kernel.group_generators\n"
        "kernel.group_generators = lambda d: gens(d)[:1]\n"
        "d = symmetric(4)\n"
        "kernel.FiniteGroup(d, enumerate_elements(d), full=True).row(0)\n")
    src = str(Path(cinorm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert "AssertionError: the generators of sn:4 reach 2 of 24 elements" in run.stderr


@pytest.fixture
def cold_cache():
    # everything kept for a group during the test is dropped again after it
    enumeration._store.cache_clear()
    yield
    enumeration._store.cache_clear()


def test_qk_does_generator_products_only(monkeypatch, cold_cache):
    # q_K reads the gathered table: N |gens| payload products build it and
    # the BFS adds none (without a table it did N |closure|, here 15 456)
    d = parse_descriptor("slp:2:7")
    K = c_generating_set(d, random.Random("work:slp:2:7"))
    enumeration._store.cache_clear()
    count = []

    def counting_ops(d):
        mul, *rest = _payload_ops(d)
        return (lambda a, b: count.append(1) or mul(a, b), *rest)
    monkeypatch.setattr(kernel, "_payload_ops", counting_ops)
    table = qk_norm(d, K)
    assert len(table.values) == 336
    assert len(count) <= 336 * (len(group_generators(d)) + 1)


def test_first_use_from_threads_gives_equal_tables(cold_cache):
    # four threads race to gather the table of one cached kernel
    d = parse_descriptor("an:6")
    K = [perm_from_cycles(d, (1, 2, 3))]
    tables, errors = [], []

    def work():
        try:
            tables.append(qk_norm(d, K).values)
        except Exception as exc:  # collected: a thread's raise would be lost
            errors.append(exc)
    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(tables) == 4
    assert all(list(t.items()) == list(tables[0].items()) for t in tables)
    G = group_kernel(d)
    assert None not in G._rows
    assert list(qk_norm(d, K).values.items()) == oracle_qk_values(d, K)


@pytest.mark.parametrize("text", FAMILIES)
def test_conjugates_match_oracle(text):
    d = parse_descriptor(text)
    G = group_kernel(d)
    rng = random.Random(f"conjugates:{text}")
    for size in (1, 2, 3):
        base = rng.sample(G.elements, size)
        seeds = {G.index_of(b) for b in base}
        with_inverses = G.conjugates(seeds | {G.inv[s] for s in seeds})
        assert {G.elements[i] for i in with_inverses} == \
            oracle_conjugacy_closure(base, d)
        assert {G.elements[i] for i in G.conjugates(seeds)} == {
            compose(compose(phi, b), invert(phi)) for phi in G.elements for b in base}


# ---------------------------------------------------------------------------
# conjugacy classes and the class functions routed through them

CLASS_GROUPS = FAMILIES + ("sn:1", "an:2", "sn:2", "an:3")


def cycle_type(p):
    # cycle lengths of a permutation payload, fixed points included
    seen, out = set(), []
    for i in range(len(p)):
        k, j = 0, i
        while j not in seen:
            seen.add(j)
            j, k = p[j], k + 1
        if k:
            out.append(k)
    return tuple(sorted(out, reverse=True))


def partitions(n, top=None):
    top = n if top is None else top
    if n == 0:
        yield ()
    for k in range(min(n, top), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def class_sizes(family, n):
    # n!/z_lambda per cycle type; on A_n the even types, each split in two
    # halves when its cycle lengths are distinct and odd (n >= 2)
    sizes = []
    for lam in partitions(n):
        size = factorial(n) // prod(k ** m * factorial(m) for k, m in Counter(lam).items())
        if family == "sn":
            sizes.append(size)
        elif (n - len(lam)) % 2 == 0:
            split = len(set(lam)) == len(lam) and all(k % 2 for k in lam)
            sizes += [size // 2] * 2 if split else [size]
    return sorted(sizes)


def counting_products(monkeypatch):
    # every payload product the kernel makes; a conjugation counts as two
    count = []

    def counting_ops(d):
        mul, inv, one, conj = _payload_ops(d)
        return (lambda a, b: count.append(1) or mul(a, b), inv, one,
                lambda s, x, s_inv: count.extend((1, 1)) or conj(s, x, s_inv))
    monkeypatch.setattr(kernel, "_payload_ops", counting_ops)
    return count


@pytest.mark.parametrize("text", CLASS_GROUPS)
def test_classes_match_oracle(text):
    G = group_kernel(parse_descriptor(text))
    label, members = G.classes()
    assert (list(label), members) == oracle_classes(G)
    assert list(members) == sorted(members)
    assert G.classes() is G.classes()  # labelled once per kernel


def test_subset_classes_conjugate_by_members_only():
    # A3 in S3 is abelian: three classes of one, where S3 joins the 3-cycles
    d = symmetric(3)
    a3 = [identity(d), perm_from_cycles(d, (1, 2, 3)), perm_from_cycles(d, (1, 3, 2))]
    G = domain_kernel(d, a3)
    assert not G.full
    label, members = G.classes()
    assert (list(label), members) == ([0, 1, 2], {0: [0], 1: [1], 2: [2]})
    assert commutator_indices(G) == [G.one]
    S3 = group_kernel(d)
    assert len(S3.classes()[1]) == 3
    # a copy of S3 in S4, and a set that is not a subgroup
    S4 = symmetric(4)
    sub = domain_kernel(S4, [g for g in enumerate_elements(S4) if g.payload[3] == 3])
    assert (list(sub.classes()[0]), sub.classes()[1]) == oracle_classes(sub)
    assert sorted(map(len, sub.classes()[1].values())) == [1, 2, 3]
    H = domain_kernel(S4, [identity(S4), perm_from_cycles(S4, (1, 2, 3))])
    with pytest.raises(ValueError, match="the 2 elements are not a subgroup of sn:4"):
        H.classes()
    assert H._classes is None


@pytest.mark.parametrize("text", CLASS_GROUPS + ("slp:2:7",))
def test_commutator_set_matches_the_pairwise_loop(text):
    G = group_kernel(parse_descriptor(text))
    assert commutator_indices(G) == oracle_commutator_indices(G)
    rng = random.Random(f"commutators:{text}")
    for x in rng.sample(range(G.n), min(G.n, 4)):
        assert G.commutators(x) == oracle_commutator_row(G, x)
    label, members = G.classes()
    if text in ("an:3", "slp:2:7"):  # r and r^-1 lie in different classes
        assert any(label[G.inv[r]] != r for r in members)


def test_commutators_above_the_table_bound_match_the_pairwise_row():
    G = group_kernel(parse_descriptor("an:7"))
    for x in (1, G.n // 2):
        assert G.commutators(x) == oracle_commutator_row(G, x)
    assert G._rows is None


@pytest.mark.parametrize("text,count", [("sn:7", 15), ("an:7", 9)])
def test_classes_above_the_table_bound_follow_cycle_types(text, count):
    d = parse_descriptor(text)
    G = group_kernel(d)
    assert G.n > TABLE_BOUND
    label, members = G.classes()
    assert G._rows is None
    assert len(members) == count
    assert sorted(map(len, members.values())) == class_sizes(d.family, d.n)
    for r, cls in members.items():
        assert cls[0] == r and all(label[c] == r for c in cls)
        assert {cycle_type(G.payloads[c]) for c in cls} == {cycle_type(G.payloads[r])}
    rng = random.Random(text)
    for b in rng.sample(range(G.n), 3):
        assert all(label[conj(G, b, r)] == r for r in members)


@pytest.mark.parametrize("n", range(2, 8))
def test_commutators_of_sn_are_the_even_permutations(n):
    G = group_kernel(symmetric(n))
    even = [i for i, p in enumerate(G.payloads) if (n - len(cycle_type(p))) % 2 == 0]
    assert commutator_indices(G) == even


@pytest.mark.parametrize("text", ["an:5", "an:6", "sn:5", "sn:6"])
def test_every_element_of_the_derived_subgroup_is_a_commutator(text):
    # Ore 1951: every element of A_n, n >= 5, is a commutator in A_n
    d = parse_descriptor(text)
    table = commutator_length(d)
    assert table.meta.diameter == 1
    assert len(table.values) == factorial(d.n) // 2


@pytest.mark.parametrize("n", range(3, 8))
def test_transposition_norm_is_n_minus_cycles(n):
    d = symmetric(n)
    table = qk_norm(d, [perm_from_cycles(d, (1, 2))])
    assert len(table.values) == factorial(n)
    assert all(v == n - len(cycle_type(g.payload)) for g, v in table.values.items())
    assert table.meta.diameter == n - 1


@pytest.mark.parametrize("call", ["commutator_length", "conjugacy_closure"])
def test_class_functions_do_generator_products_only(monkeypatch, cold_cache, call):
    # the table's N |gens| products; classes, the commutator set and the
    # closure only read it
    d = parse_descriptor("slp:2:7")
    count = counting_products(monkeypatch)
    if call == "commutator_length":
        assert len(commutator_length(d).values) == 336
    else:
        # the class of a unipotent element and that of its inverse
        assert len(conjugacy_closure([group_generators(d)[0]], d)) == 48
    assert 0 < len(count) <= 336 * (len(group_generators(d)) + 1)


def test_commutator_set_without_a_table_makes_n_products(monkeypatch):
    # above TABLE_BOUND: N |gens| conjugations label the classes, then N
    # products give the commutator set (the pairwise loop made 3 N^2)
    d = parse_descriptor("an:7")
    count = counting_products(monkeypatch)
    G = group_kernel(d)
    assert len(commutator_indices(G)) == G.n
    assert len(count) <= G.n * (2 * len(group_generators(d)) + 1)


@pytest.mark.parametrize("text", ["sn:5", "slp:2:5", "bar:sn:3"])
def test_passing_axiom_check_reads_class_representative_rows_only(monkeypatch, text):
    d = parse_descriptor(text)
    G = group_kernel(d)
    members = G.classes()[1]
    read = []
    row = FiniteGroup.row
    monkeypatch.setattr(FiniteGroup, "row", lambda self, i: read.append(i) or row(self, i))
    table = support_norm_table(d) if d.family == "sn" else trivial_norm_table(d)
    assert report_tuple(verify_norm_axioms(table)) == (True, [], G.n ** 2, G.n)
    assert read == list(members)


def test_passing_axiom_check_on_a_subgroup_reads_class_representative_rows_only(monkeypatch):
    # the cl table of S6 lives on A6: its classes under A6 come from the
    # subgroup's own generators, and (iii) needs only their representatives
    d = symmetric(6)
    table = commutator_length(d)
    G = domain_kernel(d, table.values)
    assert not G.full and G.n == 360
    members = G.classes()[1]
    read = []
    row = FiniteGroup.row
    monkeypatch.setattr(FiniteGroup, "row", lambda self, i: read.append(i) or row(self, i))
    assert report_tuple(verify_norm_axioms(table)) == (True, [], G.n ** 2, G.n)
    assert read == list(members)


@pytest.mark.parametrize("text", FAMILIES + ("an:3",))
def test_class_function_reports_match_oracle(text):
    # constant on classes and on inverses, positive off the identity: only
    # the triangle inequality can fail, and the class path decides it.
    # Seeded values, then 1 everywhere but 3 on one class and its inverse
    d = parse_descriptor(text)
    G = group_kernel(d)
    label, members = G.classes()
    rng = random.Random(f"class-axioms:{text}")
    by_class = [{r: 1 + random_fraction(rng, top) for r in members} for top in (1, 4, 8)]
    by_class += [{r: Fraction(3 if r in (s, label[G.inv[s]]) else 1) for r in members}
                 for s in members if s != G.one]
    passed = []
    for v in by_class:
        values = {g: ZERO if i == G.one else max(v[label[i]], v[label[G.inv[i]]])
                  for i, g in enumerate(G.elements)}
        table = NormTable(d, values, NormTableMeta(name="class-function"))
        passed.append(assert_axioms_agree(table, rng.choice((1, 3, 25)))[0])
    assert passed[0]  # values in [1, 2] are a norm
    assert (False in passed) is (text != "an:3")  # Z/3: every one is a norm


@pytest.mark.parametrize("text", FAMILIES)
def test_c_generates_matches_oracle(text):
    d = parse_descriptor(text)
    elems = enumerate_elements(d)
    rng = random.Random(f"cgen:{text}")
    derived = sorted(commutator_length(d).values, key=sort_key)
    candidates = [[identity(d)], [rng.choice(derived)], [rng.choice(elems)],
                  rng.sample(elems, 2), c_generating_set(d, rng)]
    answers = []
    for K in candidates:
        expected = len(oracle_bfs(d, oracle_conjugacy_closure(K, d))) == len(elems)
        assert c_generates(d, K) == expected
        answers.append(expected)
    assert answers[0] is False and answers[-1] is True


def test_not_c_generating_message():
    d = symmetric(4)
    with pytest.raises(NotCGeneratingError) as info:
        qk_norm(d, [perm_from_cycles(d, (1, 2, 3))])
    assert str(info.value) == (
        "K reaches only 12 of 24 elements of sn:4; unreached include "
        "(3 4), (2 3), (2 4), (1 2), (1 2 3 4)")


def test_one_kernel_per_call_above_the_table_bound(monkeypatch):
    # above TABLE_BOUND every group_kernel call builds a kernel afresh
    from cinorm import kernel
    monkeypatch.setattr(kernel, "TABLE_BOUND", 10)
    built = []
    init = FiniteGroup.__init__
    monkeypatch.setattr(FiniteGroup, "__init__",
                        lambda self, *a, **k: built.append(a[0]) or init(self, *a, **k))
    d = symmetric(4)
    for call in (lambda: qk_norm(d, [perm_from_cycles(d, (1, 2))]),
                 lambda: commutator_length(d),
                 lambda: coset_extension_qnorm(d)):
        built.clear()
        call()
        assert built == [d]


def test_extremal_domination_builds_one_kernel(monkeypatch):
    # q_K and lambda come from one conjugacy closure on one kernel
    from cinorm import kernel
    d = symmetric(4)
    K = [perm_from_cycles(d, (1, 2))]
    table = support_norm_table(d)
    monkeypatch.setattr(kernel, "TABLE_BOUND", 10)
    built = []
    init = FiniteGroup.__init__
    monkeypatch.setattr(FiniteGroup, "__init__",
                        lambda self, *a, **k: built.append(a[0]) or init(self, *a, **k))
    rep = check_extremal_domination(table, K)
    assert built == [d]
    assert rep.lam == 2 and rep.witness_checked == 24


def test_extremal_domination_keeps_the_not_c_generating_message():
    d = symmetric(4)
    with pytest.raises(NotCGeneratingError) as info:
        check_extremal_domination(support_norm_table(d), [perm_from_cycles(d, (1, 2, 3))])
    assert str(info.value) == (
        "K reaches only 12 of 24 elements of sn:4; unreached include "
        "(3 4), (2 3), (2 4), (1 2), (1 2 3 4)")


def test_qk_limit_guards_before_any_work():
    d = symmetric(6)
    with pytest.raises(GuardExceededError):
        qk_norm(d, [perm_from_cycles(d, (1, 2))], limit=100)
    with pytest.raises(GuardExceededError):
        commutator_length(d, limit=100)


# ---------------------------------------------------------------------------
# class-level BFS: level sizes against the elementwise levels


def level_counts(values):
    # the number of elements at each distance of (element, distance) pairs
    count = Counter(v for _, v in values)
    return [count[n] for n in range(len(count))]


@pytest.mark.parametrize("text", FAMILIES)
def test_level_sizes_match_the_elementwise_levels(text):
    d = parse_descriptor(text)
    G = group_kernel(d)
    rng = random.Random(f"levels:{text}")
    elems = enumerate_elements(d)
    sizes = G.level_sizes(commutator_indices(G))
    assert sizes == level_counts(oracle_cl_values(elems, d))
    assert commutator_length(d).meta.diameter == len(sizes) - 1
    # one random element, whose closure need not generate G
    K = [rng.choice(elems)]
    assert G.level_sizes(conjugacy_indices(G, K)) == level_counts(oracle_qk_values(d, K))
    K = c_generating_set(d, rng)  # relies on c_generates, so last
    sizes = G.level_sizes(conjugacy_indices(G, K))
    assert sizes == level_counts(oracle_qk_values(d, K))
    assert qk_norm(d, K).meta.diameter == len(sizes) - 1


@pytest.mark.parametrize("text,cycle", [("sn:7", (1, 2)), ("an:7", (1, 2, 3))])
def test_level_sizes_above_the_table_bound_match_the_elementwise_levels(text, cycle):
    d = parse_descriptor(text)
    G = group_kernel(d)
    assert G.n > TABLE_BOUND
    K = [perm_from_cycles(d, cycle)]
    table = qk_norm(d, K)
    sizes = G.level_sizes(conjugacy_indices(G, K))
    assert sizes == level_counts(oracle_qk_values(d, K)) == level_counts(table.values.items())
    assert table.meta.diameter == len(sizes) - 1
    if text == "sn:7":  # q_(1 2)(g) = n - c(g), c(g) the number of cycles
        cycles = Counter(7 - len(cycle_type(p)) for p in G.payloads)
        assert sizes == [cycles[k] for k in range(7)]
    # the commutators are A7 (test_commutators_of_sn_are_the_even_permutations),
    # and by Ore each element of A7 is one: the N^2 pool oracle is 25M products
    table = commutator_length(d)
    assert G.level_sizes(commutator_indices(G)) == [1, 2519] == level_counts(table.values.items())
    assert table.meta.diameter == 1


@pytest.mark.parametrize("n,gens", [(7, [(1, 2), (1, 2, 3, 4, 5)]),
                                    (8, [(1, 2), (3, 4), (1, 3, 2, 4)])])
def test_subgroup_level_sizes_match_the_elementwise_levels(n, gens):
    # Sym{1..5} in S7, and a dihedral group of order 8 in S8, on their own
    # kernels and classes
    d = symmetric(n)
    elements = subgroup_closure([perm_from_cycles(d, c) for c in gens])
    G = domain_kernel(d, elements)
    assert not G.full and G.n == (120 if n == 7 else 8)
    sizes = G.level_sizes(commutator_indices(G))
    table = commutator_length_over(elements, d)
    assert sizes == level_counts(oracle_cl_values(elements, d)) \
        == level_counts(table.values.items())
    assert table.meta.diameter == len(sizes) - 1


def test_level_sizes_refuse_steps_that_are_not_a_union_of_classes():
    d = symmetric(4)
    G = group_kernel(d)
    with pytest.raises(ValueError, match=r"^the class of \(1 2\) leaves the 1 steps$"):
        G.level_sizes([G.index_of(perm_from_cycles(d, (1, 2)))])
    # the first step whose class leaves the set is named
    transpositions = conjugacy_indices(G, [perm_from_cycles(d, (1, 2))])
    steps = transpositions + [G.index_of(perm_from_cycles(d, (1, 2, 3)))]
    with pytest.raises(ValueError, match=r"^the class of \(1 2 3\) leaves the 7 steps$"):
        G.level_sizes(steps)
    assert G.level_sizes(transpositions) == [1, 6, 11, 6]


def test_commutator_length_without_a_table_scans_one_level(monkeypatch):
    # A7: the class BFS makes #classes |S| products; the elementwise scan of
    # level 0 finds all of level 1 and the last level is not scanned (the
    # full scan made |S|^2, about 6.35M)
    d = parse_descriptor("an:7")
    G = group_kernel(d)  # above the bound each call builds its own kernel
    classes = len(G.classes()[1])
    count = counting_products(monkeypatch)
    table = commutator_length(d)
    steps = len(table.values)
    assert table.meta.diameter == 1
    assert len(count) <= G.n * (2 * len(group_generators(d)) + 1) + (classes + 1) * steps


# ---------------------------------------------------------------------------
# deterministic sweep: one seeded instance per family


@pytest.mark.parametrize("text", FAMILIES)
def test_tables_match_oracle(text):
    d = parse_descriptor(text)
    rng = random.Random(f"tables:{text}")
    K = c_generating_set(d, rng)
    assert list(qk_norm(d, K).values.items()) == oracle_qk_values(d, K)
    elems = enumerate_elements(d)
    assert list(commutator_length(d).values.items()) == oracle_cl_values(elems, d)
    assert conjugacy_closure(K, d) == oracle_conjugacy_closure(K, d)
    q = coset_extension_qnorm(d)
    table, reps, c_big = oracle_coset_extension(d)
    assert list(q.table.items()) == table
    assert q.notes["transversal"] == tuple(to_literal(r) for r in reps)
    assert q.c_add == 1 + c_big and q.notes["C"] == str(c_big)
    # a transversal given by the caller, and one with two reps in one coset
    derived = sorted(commutator_length(d).values, key=sort_key)
    other = [compose(derived[-1 - k % len(derived)], r) for k, r in enumerate(reps)][::-1]
    given = coset_extension_qnorm(d, other)
    table, _, c_big = oracle_coset_extension(d, other)
    assert list(given.table.items()) == table and given.notes["C"] == str(c_big)
    if len(derived) > 1:
        with pytest.raises(ValueError):
            oracle_coset_extension(d, [reps[0], compose(derived[1], reps[0])])
        with pytest.raises(ValueError):
            coset_extension_qnorm(d, [reps[0], compose(derived[1], reps[0])])
    out = quasinorm_to_norm(q, d)
    assert list(out.values.items()) == oracle_quasinorm_to_norm(q, d)


@pytest.mark.parametrize("text", FAMILIES)
def test_axiom_reports_match_oracle(text):
    d = parse_descriptor(text)
    rng = random.Random(f"axioms:{text}")
    for table in tables_for(d, rng):
        assert assert_axioms_agree(table)[0]  # valid tables pass
        for _ in range(3):
            assert_axioms_agree(tampered(table, rng), rng.choice((1, 3, 25)))


@pytest.mark.parametrize("text", FAMILIES)
def test_exact_quasimorphism_paths_match_oracle(text):
    d = parse_descriptor(text)
    rng = random.Random(f"qm:{text}")
    vals = {g: random_fraction(rng) - 2 for g in enumerate_elements(d)}
    q = QuasiMorphism(d, vals.__getitem__, name="random")
    est = defect(q, "exact")
    assert (est.value, est.sample_count) == oracle_defect(q)
    gens = tuple(rng.choice(enumerate_elements(d)) for _ in range(2))
    cs = commutator_sup(q, SubgroupSpec(gens), "exact", max_witnesses=4)
    assert (cs.value, cs.witnesses, cs.sample_count) == \
        oracle_commutator_sup(q, SubgroupSpec(gens), 4)


# ---------------------------------------------------------------------------
# hypothesis: seeded variations on every family

families = st.sampled_from(FAMILIES)
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=20, deadline=None)
@given(families, seeds, st.sampled_from((1, 2, 5, 25)))
def test_tampered_and_subset_reports_match_oracle(text, seed, max_violations):
    d = parse_descriptor(text)
    rng = random.Random(seed)
    table = rng.choice(tables_for(d, rng))
    assert_axioms_agree(tampered(table, rng), max_violations)


@settings(max_examples=20, deadline=None)
@given(families, seeds)
def test_subgroup_tables_match_oracle(text, seed):
    # cl_H and axioms on the closure of a seeded subgroup: a subset kernel
    d = parse_descriptor(text)
    rng = random.Random(seed)
    elems = enumerate_elements(d)
    closure = sorted(closure_of(SubgroupSpec((rng.choice(elems), rng.choice(elems)))),
                     key=sort_key)
    cl = commutator_length_over(closure, d, name="cl_H")
    assert list(cl.values.items()) == oracle_cl_values(closure, d)
    support = {g: Fraction(0 if g.is_identity() else rng.randint(1, 2)) for g in closure}
    table = NormTable(d, support, NormTableMeta(name="seeded"))
    assert_axioms_agree(table, rng.choice((1, 25)))


@settings(max_examples=20, deadline=None)
@given(families, seeds, st.integers(0, 6))
def test_quasimorphism_and_quasinorm_paths_match_oracle(text, seed, max_witnesses):
    d = parse_descriptor(text)
    rng = random.Random(seed)
    elems = enumerate_elements(d)
    vals = {g: random_fraction(rng, top=3) - 1 for g in elems}
    q = QuasiMorphism(d, vals.__getitem__, name="random")
    est = defect(q, "exact")
    assert (est.value, est.sample_count) == oracle_defect(q)
    h = SubgroupSpec(tuple(rng.choice(elems) for _ in range(rng.randint(1, 2))))
    cs = commutator_sup(q, h, "exact", max_witnesses=max_witnesses)
    assert (cs.value, cs.witnesses, cs.sample_count) == \
        oracle_commutator_sup(q, h, max_witnesses)
    qn = QuasiNormSpec(d, random_fraction(rng), random_fraction(rng),
                       table={g: abs(v) for g, v in vals.items()})
    out = quasinorm_to_norm(qn, d)
    assert list(out.values.items()) == oracle_quasinorm_to_norm(qn, d)
    assert out.meta == NormTableMeta(
        name="normed[q]", diameter=max(out.values.values()),
        notes={"added_constant": str(qn.c_add + qn.c_conj + 1)})


@settings(max_examples=20, deadline=None)
@given(families, seeds)
def test_subgroup_classes_match_oracle(text, seed):
    d = parse_descriptor(text)
    rng = random.Random(seed)
    elems = enumerate_elements(d)
    G = domain_kernel(d, closure_of(SubgroupSpec((rng.choice(elems), rng.choice(elems)))))
    label, members = G.classes()
    assert (list(label), members) == oracle_classes(G)
    assert commutator_indices(G) == oracle_commutator_indices(G)
    s = rng.randrange(G.n)
    assert G.conjugates([s]) == {conj(G, b, s) for b in range(G.n)}
