"""Shift-commutator decompositions: exact reconstruction is the whole
contract, so nearly every test multiplies factors back out."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from cinorm import (
    DescriptorMismatchError,
    Element,
    QuasiNormSpec,
    commutator_of,
    compose,
    enumerate_elements,
    fcomm_norm_bound,
    identity,
    invert,
    parse_descriptor,
    perm_from_cycles,
    power,
    quasinorm_to_norm,
    rearrange,
    seven_fcommutators,
    solve_rearrange_id,
    subgroups_commute,
    symmetric,
    trivial_norm_table,
    two_commutator_witness,
    two_fcommutators,
    verify_norm_axioms,
    wreath_environment,
    wreath_zn,
)
from cinorm import enumeration, fcommutator
from cinorm.enumeration import group_generators
from cinorm.fcommutator import FCommEnvironment, FCommutator
from cinorm.norms import NormTable, NormTableMeta

S3 = symmetric(3)
S3_ELEMS = None


def elems():
    global S3_ELEMS
    if S3_ELEMS is None:
        S3_ELEMS = enumerate_elements(S3)
    return S3_ELEMS


def test_environment_embedding_and_shift():
    env = wreath_environment(S3, capacity=2)
    g = perm_from_cycles(S3, (1, 2))
    for i in range(3):
        assert env.shifted(g, i) == env.embed(g, i)
    # shifted copies commute pairwise
    h = perm_from_cycles(S3, (1, 2, 3))
    a, b = env.shifted(g, 0), env.shifted(h, 1)
    assert compose(a, b) == compose(b, a)


@pytest.mark.parametrize("name", ["sn:3", "sn:4", "an:5"])
@pytest.mark.parametrize("ring", [2, 5, None])
def test_shifted_matches_conjugation_by_a_power_of_the_shift(name, ring):
    # F^i is built directly, mod the ring; the oracle is power(F, i).
    # ring None is the integer shift of wreath-z
    base = parse_descriptor(name)
    env = wreath_environment(base, capacity=1, ring=ring, infinite=ring is None)
    span = 2 * (ring or 5)
    gens = group_generators(base)
    for i in range(-span, span + 1):
        for h in gens:
            oracle = compose(compose(power(env.shift, i), env.embed(h)),
                             power(env.shift, -i))
            assert env.shifted(h, i) == oracle == env.embed(h, i)


def oracle_copies_commute(env):
    """Every pair of base elements at every pair of coordinates 0..capacity:
    the element sweep the generator check in wreath_environment replaced."""
    base = enumerate_elements(env.base)
    copies = [[env.shifted(g, i) for g in base] for i in range(env.capacity + 1)]
    return all(compose(x, y) == compose(y, x)
               for a, b in combinations(copies, 2) for x in a for y in b)


def environment_check_passes(base, capacity, ring):
    try:
        wreath_environment(base, capacity, ring=ring)
    except AssertionError:
        return False
    return True


@pytest.mark.parametrize("name", ["sn:3", "sn:4", "an:4", "an:5", "slp:2:3"])
@pytest.mark.parametrize("capacity", [1, 2, 3])
@pytest.mark.parametrize("collapse", [False, True])
def test_commuting_copies_check_against_element_sweep(name, capacity, collapse,
                                                      monkeypatch):
    # collapse maps coordinates i and i + 1 (i even) to one copy, so the
    # copies fail to commute and both checks must say so; environments are
    # kept per shape, so the store is emptied for the check to run again
    enumeration._store.cache_clear()
    if collapse:
        shifted = FCommEnvironment.shifted
        monkeypatch.setattr(FCommEnvironment, "shifted",
                            lambda env, h, i: shifted(env, h, i // 2))
    base = parse_descriptor(name)
    ring = capacity + 2
    ambient = wreath_zn(base, ring)
    env = FCommEnvironment(ambient, base, capacity, Element(ambient, ((), 1)))
    expected = oracle_copies_commute(env)
    assert expected is not collapse
    assert environment_check_passes(base, capacity, ring) is expected


@pytest.mark.parametrize("n", [3, 6])
def test_unshifted_copies_are_rejected(n, monkeypatch):
    # S6 has 720 elements, above the order at which the element sweep ran
    enumeration._store.cache_clear()
    monkeypatch.setattr(FCommEnvironment, "shifted",
                        lambda env, h, i: env.embed(h))
    with pytest.raises(AssertionError, match="coordinates 0 and 1 fail to commute"):
        wreath_environment(symmetric(n), capacity=2)


def test_componentwise_product_law():
    env = wreath_environment(S3, capacity=3, ring=4)
    rng = random.Random(0)
    for _ in range(100):
        fs = [rng.choice(elems()) for _ in range(4)]
        gs = [rng.choice(elems()) for _ in range(4)]
        lhs = compose(env.shifted_product(fs), env.shifted_product(gs)) \
            if hasattr(env, "shifted_product") else None
        spread_f = identity(env.ambient)
        spread_g = identity(env.ambient)
        spread_fg = identity(env.ambient)
        for i, (f, g) in enumerate(zip(fs, gs)):
            spread_f = compose(spread_f, env.shifted(f, i))
            spread_g = compose(spread_g, env.shifted(g, i))
            spread_fg = compose(spread_fg, env.shifted(compose(f, g), i))
        assert compose(spread_f, spread_g) == spread_fg


def test_solve_rearrange_trivial():
    env = wreath_environment(S3, capacity=2)
    one = identity(S3)
    sol, c = solve_rearrange_id(env, [one, one, one])
    assert sol.assembled.is_identity()
    assert env.value(c).is_identity()


def test_solve_rearrange_forced_pair():
    env = wreath_environment(S3, capacity=1)
    g = perm_from_cycles(S3, (1, 2, 3))
    sol, c = solve_rearrange_id(env, [g, invert(g)])
    assert sol.components == (g,)
    assert sol.assembled == env.embed(g)
    expected = compose(env.embed(g), env.shifted(invert(g), 1))
    assert env.value(c) == expected


def test_solve_rearrange_system_property():
    env = wreath_environment(S3, capacity=3, ring=4)
    rng = random.Random(9)
    for _ in range(300):
        gs = [rng.choice(elems()) for _ in range(3)]
        prod = identity(S3)
        for g in gs:
            prod = compose(prod, g)
        gs.append(invert(prod))
        sol, c = solve_rearrange_id(env, gs)
        # component k is the k-th partial product, literally
        running = identity(S3)
        for k, g in enumerate(gs[:-1]):
            running = compose(running, g)
            assert sol.components[k] == running
        assert env.value(c) == _spread_oracle(env, gs)


def _spread_oracle(env, gs):
    out = identity(env.ambient)
    F = env.shift
    for i, g in enumerate(gs):
        out = compose(out, compose(compose(power(F, i), env.embed(g)),
                                   power(invert(F), i)))
    return out


def test_solve_rearrange_rejects_bad_product():
    env = wreath_environment(S3, capacity=2)
    g = perm_from_cycles(S3, (1, 2))
    with pytest.raises(ValueError):
        solve_rearrange_id(env, [g, g, g])  # product is not the identity
    with pytest.raises(ValueError):
        solve_rearrange_id(env, [identity(S3)] * 5)  # capacity exceeded


def test_rearrange_exhaustive_pairs():
    env = wreath_environment(S3, capacity=2)
    for a in elems():
        for b in elems():
            c, residual = rearrange(env, [a, b])
            assert env.embed(compose(b, a)) == compose(env.value(c), residual)


def test_rearrange_single_and_trivial():
    env = wreath_environment(S3, capacity=2)
    g = perm_from_cycles(S3, (1, 3))
    c, residual = rearrange(env, [g])
    assert env.embed(g) == compose(env.value(c), residual)
    assert residual == env.shifted(g, 1)
    c0, r0 = rearrange(env, [identity(S3), identity(S3)])
    assert env.value(c0).is_identity() and r0.is_identity()


def test_two_fcommutators_exhaustive():
    env = wreath_environment(S3, capacity=2)
    for f in elems():
        for g in elems():
            dec = two_fcommutators(env, f, g)
            assert dec.verified
            assert len(dec.factors) == 2
            prod = compose(env.value(dec.factors[0]), env.value(dec.factors[1]))
            assert prod == env.embed(commutator_of(f, g))


def test_two_fcommutators_capacity_check():
    env = wreath_environment(S3, capacity=1)
    with pytest.raises(ValueError):
        two_fcommutators(env, elems()[1], elems()[2])


def test_seven_fcommutators_empty():
    env = wreath_environment(S3, capacity=2)
    dec = seven_fcommutators(env, [])
    assert dec.verified and dec.factors == () and dec.target.is_identity()


@pytest.mark.parametrize("m,ring", [(1, 3), (2, 3), (3, 4)])
def test_seven_fcommutators_seeded(m, ring):
    env = wreath_environment(S3, capacity=ring - 1, ring=ring)
    rng = random.Random(100 + m)
    for _ in range(40):
        pairs = [(rng.choice(elems()), rng.choice(elems())) for _ in range(m)]
        dec = seven_fcommutators(env, pairs)
        assert dec.verified
        assert len(dec.factors) <= 7
        prod = identity(env.ambient)
        for c in dec.factors:
            prod = compose(prod, env.value(c))
        assert prod == dec.target
        # audit trail is consistent
        assert commutator_of(dec.audit["phi"], dec.audit["psi"]) == dec.audit["theta"]


def test_inverse_closure_of_factors():
    env = wreath_environment(S3, capacity=2)
    rng = random.Random(5)
    for _ in range(30):
        dec = two_fcommutators(env, rng.choice(elems()), rng.choice(elems()))
        for c in dec.factors:
            inv = env.inverse_of(c)
            assert env.value(inv) == invert(env.value(c))


def test_two_commutator_witness():
    for m, ring in ((1, 3), (2, 3)):
        env = wreath_environment(S3, capacity=max(m, ring - 1), ring=ring)
        rng = random.Random(m)
        for _ in range(20):
            pairs = [(rng.choice(elems()), rng.choice(elems())) for _ in range(m)]
            wit = two_commutator_witness(env, pairs)
            assert wit.verified
            rebuilt = compose(commutator_of(*wit.first),
                              commutator_of(*wit.second))
            assert rebuilt == wit.target
    env = wreath_environment(S3, capacity=2)
    wit = two_commutator_witness(env, [])
    assert wit.verified and wit.target.is_identity()


# ---------------------------------------------------------------------------
# norm bounds on decompositions


def _support_style_table(d):
    """Lamp count plus shift indicator: exactly subadditive and symmetric but
    *not* conjugation-invariant (shifted elements change lamp count under
    conjugation), so it enters the bound checks via the quasi-norm pipeline."""
    from cinorm import enumerate_elements as enum
    vals = {}
    for g in enum(d):
        lamps, s = g.payload
        vals[g] = Fraction(len(lamps) + (1 if s else 0))
    return vals


def test_support_style_function_fails_invariance():
    d = wreath_zn(S3, 3)
    raw = NormTable(d, _support_style_table(d), NormTableMeta(name="raw-support"))
    rep = verify_norm_axioms(raw)
    assert not rep.passed
    assert any(axiom == "iv" for axiom, _ in rep.violations)


def test_fcomm_norm_bounds_hold():
    d = wreath_zn(S3, 3)
    env = wreath_environment(S3, capacity=2)
    assert env.ambient == d
    raw = _support_style_table(d)
    # the lamp count is exactly subadditive (supports merge), and every value
    # lies in [0, 4], so 0 and 4 are valid declared constants; spot-check them
    q = QuasiNormSpec(d, Fraction(0), Fraction(4), table=raw)
    rng0 = random.Random(1)
    elems_w = enumerate_elements(d)
    sample = [(rng0.choice(elems_w), rng0.choice(elems_w)) for _ in range(2000)]
    from cinorm import verify_quasinorm
    assert verify_quasinorm(q, sample).passed
    converted = quasinorm_to_norm(q, d)
    assert verify_norm_axioms(converted).passed
    trivial = trivial_norm_table(d)
    rng = random.Random(2)
    for _ in range(15):
        pairs = [(rng.choice(elems()), rng.choice(elems())) for _ in range(2)]
        dec = seven_fcommutators(env, pairs)
        for table in (trivial, converted):
            rep = fcomm_norm_bound(dec, env, table)
            assert rep.ok
            assert rep.target_value <= rep.target_bound


def test_fcomm_norm_bound_identity_target():
    env = wreath_environment(S3, capacity=2)
    dec = seven_fcommutators(env, [])
    rep = fcomm_norm_bound(dec, env, trivial_norm_table(env.ambient))
    assert rep.ok and rep.target_value == 0


def test_fcomm_norm_bound_refuses_a_table_of_the_base():
    # a table of S3 cannot measure elements of the wreath product
    env = wreath_environment(S3, capacity=2)
    g = perm_from_cycles(S3, (1, 2, 3))
    dec = seven_fcommutators(env, [(g, perm_from_cycles(S3, (1, 2)))])
    with pytest.raises(DescriptorMismatchError,
                       match=f"the norm table is on sn:3, not {env.ambient}"):
        fcomm_norm_bound(dec, env, trivial_norm_table(S3))


def test_fcomm_norm_bound_refuses_a_table_on_part_of_the_group(monkeypatch):
    # a table of three elements of wreath:sn:3:zn:3 raised a bare KeyError
    env = wreath_environment(S3, capacity=2)
    g = perm_from_cycles(S3, (1, 2, 3))
    dec = seven_fcommutators(env, [(g, perm_from_cycles(S3, (1, 2)))])
    whole = trivial_norm_table(env.ambient)
    part = NormTable(env.ambient, dict(list(whole.values.items())[:3]), whole.meta)

    def no_work(payload):
        raise AssertionError("a value was read before the table was checked")
    reader = fcommutator.payload_value_fn

    def checks_only(d, norm):
        reader(d, norm)  # the reader's checks run, and no value may be read
        return no_work
    monkeypatch.setattr(fcommutator, "payload_value_fn", checks_only)
    with pytest.raises(ValueError, match=r"^the norm table covers 3 elements, "
                                         rf"not all 648 of {env.ambient}$"):
        fcomm_norm_bound(dec, env, part)


@pytest.mark.parametrize("capacity", [1, 4, 9])
def test_copies_are_checked_against_copy_zero_only(capacity, monkeypatch):
    # copy j is copy 0 conjugated by F^j, so the pair (i, j) is the pair
    # (0, j - i) conjugated by F^i: capacity checks, not capacity (capacity + 1) / 2
    enumeration._store.cache_clear()
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return subgroups_commute(a, b)
    monkeypatch.setattr(fcommutator, "subgroups_commute", counting)
    env = wreath_environment(S3, capacity)
    assert len(calls) == capacity
    for j, (a, b) in enumerate(calls, 1):
        assert a.generators == tuple(env.shifted(g, 0) for g in group_generators(S3))
        assert b.generators == tuple(env.shifted(g, j) for g in group_generators(S3))


def test_warm_environment_is_the_kept_one(monkeypatch):
    # one environment per (capacity, resolved ring, infinite) shape of a
    # base, checked once; the arguments are still refused on every call
    enumeration._store.cache_clear()
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return subgroups_commute(a, b)
    monkeypatch.setattr(fcommutator, "subgroups_commute", counting)
    env = wreath_environment(S3, 2)
    assert len(calls) == 2
    assert wreath_environment(S3, 2) is env
    assert wreath_environment(S3, capacity=2, ring=3) is env  # the ring it resolves to
    assert len(calls) == 2
    wide, line = wreath_environment(S3, 2, ring=5), wreath_environment(S3, 2, infinite=True)
    assert len({id(env), id(wide), id(line)}) == 3 and len(calls) == 6
    assert (wide.ring, line.ring, line.ambient.family) == (5, 0, "wreath-z")
    assert wreath_environment(S3, 2, ring=1, infinite=True) is line  # ring unread on Z
    for _ in range(2):
        with pytest.raises(ValueError, match="capacity must be at least 1"):
            wreath_environment(S3, 0)
        with pytest.raises(ValueError, match="ring size 2 cannot host 2 shifted copies"):
            wreath_environment(S3, 2, ring=2)
    assert len(calls) == 6


def test_environment_on_an_infinite_base_is_built_each_call():
    # only finite groups keep state; a free base has no copies to check
    f2 = parse_descriptor("free:2")
    a, b = wreath_environment(f2, 2), wreath_environment(f2, 2)
    assert a == b and a is not b


# ---------------------------------------------------------------------------
# every self-check fires on a fault patched in: reconstruction never does
# on working code, so these checks would otherwise go unexercised


def test_inverse_check_catches_a_swapped_conjugator(monkeypatch):
    # Conj_(c h) in place of Conj_(h c): not the inverse's value here
    env = wreath_environment(S3, capacity=2)
    c = FCommutator(env.embed(perm_from_cycles(S3, (2, 3))),
                    env.embed(perm_from_cycles(S3, (1, 2))))
    assert env.value(env.inverse_of(c)) == invert(env.value(c))
    monkeypatch.setattr(fcommutator, "compose", lambda x, y: compose(y, x))
    with pytest.raises(AssertionError, match="^inverse representation failed to verify$"):
        env.inverse_of(c)


def test_rearrange_identity_check_catches_an_uninverted_phi(monkeypatch):
    # [F, phi] in place of [F, phi^-1]
    env = wreath_environment(S3, capacity=2)
    a, b = perm_from_cycles(S3, (2, 3)), perm_from_cycles(S3, (1, 2))
    gs = [a, b, invert(compose(a, b))]
    solve_rearrange_id(env, gs)
    monkeypatch.setattr(fcommutator, "invert", lambda x: x)
    with pytest.raises(AssertionError, match="^rearrangement identity failed to verify$"):
        solve_rearrange_id(env, gs)


def test_rearrange_split_check_catches_a_residual_at_coordinate_0(monkeypatch):
    # the residual spread from coordinate 0, not 1
    env = wreath_environment(S3, capacity=2)
    gs = [perm_from_cycles(S3, (1, 2)), perm_from_cycles(S3, (1, 2, 3))]
    rearrange(env, gs)
    spread = fcommutator._spread
    monkeypatch.setattr(fcommutator, "_spread", lambda env, gs, start=0: spread(env, gs))
    with pytest.raises(AssertionError, match="^rearrangement split failed to verify$"):
        rearrange(env, gs)


def test_residual_factorization_check_catches_an_uninverted_factor(monkeypatch):
    # X built from the commutator cx itself, not from its inverse
    env = wreath_environment(S3, capacity=2)
    pairs = [(perm_from_cycles(S3, (1, 2)), perm_from_cycles(S3, (1, 2, 3)))]
    assert seven_fcommutators(env, pairs).verified
    monkeypatch.setattr(FCommEnvironment, "inverse_of", lambda self, c: c)
    with pytest.raises(AssertionError, match="^residual factorization failed to verify$"):
        seven_fcommutators(env, pairs)


def test_componentwise_check_catches_commutators_taken_as_g_f(monkeypatch):
    # the pairs' commutators formed as [g, f], while [phi, psi] is formed
    # as [f, g] componentwise
    env = wreath_environment(S3, capacity=2)
    pairs = [(perm_from_cycles(S3, (1, 2)), perm_from_cycles(S3, (1, 2, 3)))]
    assert seven_fcommutators(env, pairs).verified

    def commutator(x, y):
        return commutator_of(y, x) if x.descriptor == S3 else commutator_of(x, y)
    monkeypatch.setattr(fcommutator, "commutator_of", commutator)
    with pytest.raises(AssertionError, match="^componentwise commutator identity failed$"):
        seven_fcommutators(env, pairs)
