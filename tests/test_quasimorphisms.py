"""Quasi-morphism machinery; frozen values were derived by hand from the
reduced-word combinatorics (no cancellation in the test words)."""

import dataclasses
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cinorm
from cinorm import (
    Element,
    QuasiMorphism,
    SubgroupSpec,
    alternating,
    bar,
    bar_defect_decomposition,
    bar_element,
    bar_extension,
    commutator_length,
    commutator_of,
    commutator_sup,
    compose,
    counting_qm,
    defect,
    enumerate_elements,
    exponent_sum_qm,
    free_group,
    free_word,
    homogenize,
    identity,
    invert,
    perm_from_cycles,
    power,
    product,
    product_element,
    scl_bounds,
    symmetric,
    verify_bar_splitting,
    verify_witness_additivity,
)
from cinorm import quasimorphisms
from cinorm.sampling import random_element, random_word

F2 = free_group(2)
AB = free_word(F2, (1, 2))


def check_homogeneity(q, samples, powers=(2, 3, 5)):
    """Spot-check ``q(g^n) = n q(g)`` on sample elements."""
    return all(q(power(g, n)) == n * q(g) for g in samples for n in powers)


def test_counting_values():
    q = counting_qm(AB)
    assert q(identity(F2)) == 0
    assert q(free_word(F2, (1, 2, 1, 2))) == 2
    assert q(free_word(F2, (-2, -1))) == -1
    assert q(invert(AB)) == -1
    assert q.notes["occurrences"] == "all overlapping"


def test_counting_rejects_bad_patterns():
    with pytest.raises(ValueError):
        counting_qm(identity(F2))
    with pytest.raises(ValueError):
        counting_qm(perm_from_cycles(symmetric(3), (1, 2)))


def test_homomorphism_defect_zero():
    q = exponent_sum_qm(F2)
    est = defect(q, "sampled", budget=400, seed=3)
    assert est.value == 0
    assert est.certified == "sampled_lower_bound"
    assert check_homogeneity(q, [free_word(F2, (1,)), free_word(F2, (1, 2))])


def test_defect_exact_on_finite_domain():
    s3 = symmetric(3)
    zero = QuasiMorphism(s3, lambda g: Fraction(0), kind="homomorphism",
                         homogeneous=True, name="zero")
    est = defect(zero, "exact")
    assert est.value == 0 and est.certified == "exact"


def test_homogeneous_on_finite_group_vanishes():
    # torsion forces any homogeneous quasi-morphism to vanish identically;
    # the zero function is the only sample and the check must accept it
    s3 = symmetric(3)
    zero = QuasiMorphism(s3, lambda g: Fraction(0), homogeneous=True)
    assert check_homogeneity(zero, enumerate_elements(s3))


def test_defect_sampled_reproducible_and_monotone():
    q = counting_qm(AB)
    a = defect(q, "sampled", budget=300, seed=11)
    b = defect(q, "sampled", budget=300, seed=11)
    c = defect(q, "sampled", budget=900, seed=11)
    assert a.value == b.value
    assert c.value >= a.value
    assert a.seed == 11 and a.sample_count == 300


def test_homogenize_intervals():
    q = exponent_sum_qm(F2)
    g = free_word(F2, (1, 1))
    iv = homogenize(q, g, 16, defect_upper=Fraction(0))
    assert iv.center == 2 and iv.radius == 0 and iv.certified
    # (abab)^64 contains 128 copies of the pattern and none of its inverse
    qc = counting_qm(AB)
    iv2 = homogenize(qc, free_word(F2, (1, 2, 1, 2)), 64, Fraction(6))
    assert iv2.center == 2 and iv2.radius == Fraction(6, 64)
    # torsion element: interval must straddle zero
    s3 = symmetric(3)
    one_if = QuasiMorphism(s3, lambda g: Fraction(0 if g.is_identity() else 1))
    r = perm_from_cycles(s3, (1, 2, 3))
    iv3 = homogenize(one_if, r, 9, defect_upper=Fraction(2))
    assert iv3.low <= 0 <= iv3.high


def test_homogenize_refuses_a_power_above_the_guard(monkeypatch):
    # [a, b]^n is cyclically reduced, so it has 4n letters; the guard is met
    # before the power is built
    q = counting_qm(AB)
    w = free_word(F2, (1, 2, -1, -2))
    guard = cinorm.ENUMERATION_GUARD
    n = guard // 4 + 1
    with pytest.raises(cinorm.GuardExceededError, match=f"{4 * n} letters.* {guard}$"):
        homogenize(q, w, n)
    with pytest.raises(cinorm.GuardExceededError):
        scl_bounds(w, q, Fraction(6), n=n)
    # the bound is on n |g|, inclusive
    monkeypatch.setattr(quasimorphisms, "ENUMERATION_GUARD", 40)
    assert homogenize(q, w, 10).center == 1
    with pytest.raises(cinorm.GuardExceededError, match="44 letters"):
        homogenize(q, w, 11)


def test_bar_extension_values_and_defect():
    q = counting_qm(AB)
    bF = bar(F2)
    rbar = bar_extension(q, bF)
    g = free_word(F2, (1, 2, 1))
    assert rbar(bar_element(bF, g, identity(F2), 0)) == q(g)
    rng = random.Random(8)
    for _ in range(500):
        h = random_element(bF, rng, size=7)
        f = random_element(bF, rng, size=7)
        row = bar_defect_decomposition(q, rbar, h, f)
        assert row.ok


def test_bar_extension_of_homomorphism_additive():
    q = exponent_sum_qm(F2)
    bF = bar(F2)
    rbar = bar_extension(q, bF)
    rng = random.Random(2)
    for _ in range(200):
        h = random_element(bF, rng, size=6)
        f = random_element(bF, rng, size=6)
        assert rbar(compose(h, f)) == rbar(h) + rbar(f)


def test_bar_splitting_cases():
    s5 = symmetric(5)
    b5 = bar(s5)
    g1 = perm_from_cycles(s5, (1, 2, 3, 4, 5))
    g2 = perm_from_cycles(s5, (1, 3))
    plain = bar_element(b5, g1, g2, 0)
    rep = verify_bar_splitting(plain, 20)
    assert rep.passed and rep.case == 0
    assert rep.w1.payload[0] == g1.payload and rep.w2.payload[1] == g2.payload
    swapped = bar_element(b5, g1, g2, 1)
    rep2 = verify_bar_splitting(swapped, 20)
    assert rep2.passed and rep2.case == 1
    assert rep2.w1.payload[0] == compose(g1, g2).payload
    assert rep2.w2.payload[1] == compose(g2, g1).payload
    assert verify_bar_splitting(identity(b5), 5).passed


def test_bar_splitting_failures_are_listed(monkeypatch):
    # products formed in the wrong order split the swapped pair as
    # (g2 g1, g1 g2): the powers agree only where (g1 g2)^j = (g2 g1)^j,
    # at the multiples of their order 6
    s5 = symmetric(5)
    w = bar_element(bar(s5), perm_from_cycles(s5, (1, 2, 3, 4, 5)),
                    perm_from_cycles(s5, (1, 3)), 1)
    real = quasimorphisms._payload_ops

    def swapped(d):
        mul, *rest = real(d)
        return (lambda a, b: mul(b, a), *rest)
    monkeypatch.setattr(quasimorphisms, "_payload_ops", swapped)
    rep = verify_bar_splitting(w, 20)
    assert not rep.passed and rep.failures == [j for j in range(1, 21) if j % 6]


def test_commutator_sup():
    zero = QuasiMorphism(F2, lambda g: Fraction(0), name="zero")
    est = commutator_sup(zero, mode="sampled", budget=100, seed=0)
    assert est.value == 0
    hom = exponent_sum_qm(F2)
    est2 = commutator_sup(hom, mode="sampled", budget=300, seed=0)
    assert est2.value == 0  # homomorphisms vanish on commutators
    q = counting_qm(AB)
    est3 = commutator_sup(q, mode="sampled", budget=600, seed=1, size=8)
    assert est3.value >= 1
    for x, y in est3.witnesses:
        assert q(commutator_of(x, y)) == est3.value
    s3 = symmetric(3)
    one_if = QuasiMorphism(s3, lambda g: Fraction(0 if g.is_identity() else 1))
    h = SubgroupSpec((perm_from_cycles(s3, (1, 2)), perm_from_cycles(s3, (1, 2, 3))))
    est4 = commutator_sup(one_if, h, mode="exact")
    assert est4.certified == "exact" and est4.value == 1


def _emb(P, i, e, n):
    comps = [identity(F2)] * n
    comps[i] = e
    return product_element(P, comps)


def test_witness_additivity():
    P = product(F2, F2)
    q = QuasiMorphism(P, lambda g: counting_qm(AB)(Element(F2, g.payload[0]))
                      + counting_qm(AB)(Element(F2, g.payload[1])), name="sum")
    factors = [SubgroupSpec((_emb(P, i, free_word(F2, (1,)), 2),
                             _emb(P, i, free_word(F2, (2,)), 2)))
               for i in range(2)]
    witnesses = [(_emb(P, 0, free_word(F2, (1,)), 2),
                  _emb(P, 0, free_word(F2, (2,)), 2)),
                 (_emb(P, 1, free_word(F2, (1, 2)), 2),
                  _emb(P, 1, free_word(F2, (2,)), 2))]
    rep = verify_witness_additivity(q, factors, witnesses)
    assert rep.ok
    assert rep.combined == sum(rep.factor_values)
    trivial_wit = [(identity(P), identity(P))] * 2
    rep0 = verify_witness_additivity(q, factors, trivial_wit)
    assert rep0.ok and rep0.combined == 0


def test_witness_additivity_rejects_noncommuting_factors():
    P = product(F2, F2)
    q = QuasiMorphism(P, lambda g: Fraction(0))
    bad = [SubgroupSpec((_emb(P, 0, free_word(F2, (1,)), 2),)),
           SubgroupSpec((_emb(P, 0, free_word(F2, (2,)), 2),))]
    with pytest.raises(ValueError):
        verify_witness_additivity(q, bad, [(identity(P), identity(P))] * 2)


def test_scl_bounds_commutator():
    q = counting_qm(AB)
    w = commutator_of(free_word(F2, (1,)), free_word(F2, (2,)))
    sb = scl_bounds(w, q, defect_upper=Fraction(6), n=64)
    # (1 - 6/64) / (4 * 6), by hand: D bounds the defect of q, and the
    # homogenization's defect is at most 2D
    assert sb.lower == Fraction(29, 768)
    assert sb.lower > 0  # certifies stably unbounded commutator length
    assert sb.upper is None
    assert sb.lower_provenance["defect_upper"] == "6"


def test_scl_bounds_with_a_declared_defect_of_zero():
    # D = 0 declares q a homomorphism (checked here on every pair of words
    # of length <= 3), so q(w) = 0 is the one consistent value, and there
    # Bavard's bound is 0
    q = exponent_sum_qm(F2)
    letters = (1, -1, 2, -2)
    words = {free_word(F2, w) for k in range(4) for w in itertools.product(letters, repeat=k)}
    assert all(q(compose(a, b)) == q(a) + q(b) for a in words for b in words)
    w = commutator_of(free_word(F2, (1,)), free_word(F2, (2,)))
    sb = scl_bounds(w, q, 0)
    assert q(w) == 0 and sb.lower == 0 and sb.upper is None
    assert sb.lower_provenance == {"qm": q.name, "defect_upper": "0/1", "n": 64}
    with pytest.raises(ValueError, match="^defect 0 makes q a homomorphism"):
        scl_bounds(free_word(F2, (1, 2, 1)), q, 0)


def test_scl_bounds_sharp_defect_stays_below_true_scl():
    # count[a b] has defect at most 3(k - 1) = 3 for its length-2 pattern,
    # q((a b A B)^64) = 64, and scl([a, b]) = 1/2 exactly in F2
    q = counting_qm(AB)
    w = commutator_of(free_word(F2, (1,)), free_word(F2, (2,)))
    sb = scl_bounds(w, q, defect_upper=Fraction(3), n=64)
    assert sb.lower == Fraction(61, 768)  # (1 - 3/64) / (4 * 3)
    assert sb.lower <= Fraction(1, 2)


def test_scl_bounds_check_catches_an_undivided_homogenization(monkeypatch):
    # with q(w^n) left undivided by n the certified lower bound passes the
    # upper bound of an oracle of cl([a, b]^k) = floor(k/2) + 1 in F2 (Culler)
    q = counting_qm(AB)
    w = commutator_of(free_word(F2, (1,)), free_word(F2, (2,)))

    def oracle(g):  # g = [a, b]^k, 4k letters
        return len(g.payload) // 8 + 1
    sb = scl_bounds(w, q, defect_upper=Fraction(6), n=64, cl_oracle=oracle)
    assert (sb.lower, sb.upper) == (Fraction(29, 768), Fraction(5, 8))
    real = quasimorphisms.homogenize

    def undivided(q, g, n, defect_upper=None):
        iv = real(q, g, n, defect_upper)
        return dataclasses.replace(iv, center=iv.center * n)
    monkeypatch.setattr(quasimorphisms, "homogenize", undivided)
    with pytest.raises(AssertionError, match="^certified lower bound exceeded the upper bound$"):
        scl_bounds(w, q, defect_upper=Fraction(6), n=64, cl_oracle=oracle)


def test_scl_bounds_trivial_qm():
    zero = QuasiMorphism(F2, lambda g: Fraction(0), name="zero")
    w = commutator_of(free_word(F2, (1,)), free_word(F2, (2,)))
    sb = scl_bounds(w, zero, defect_upper=Fraction(1), n=8)
    assert sb.lower == 0


def test_scl_bounds_finite_group_degenerate():
    a5 = alternating(5)
    cl = commutator_length(a5)
    asked = []

    def oracle(g):  # counts its calls: one per power, even when k improves
        asked.append(g)
        return int(cl.values[g])

    zero = QuasiMorphism(a5, lambda g: Fraction(0), name="zero")
    w = perm_from_cycles(a5, (1, 2, 3))
    powers = (1, 2, 3, 6)
    sb = scl_bounds(w, zero, defect_upper=Fraction(1), cl_oracle=oracle, powers=powers)
    assert sb.upper == 0  # torsion: cl(w^3)/3 = 0
    assert sb.lower == 0
    assert sb.upper_provenance == {"n": 3, "cl": "0"}
    assert asked == [power(w, k) for k in powers]


def test_scl_bounds_zero_defect_contradiction():
    q = counting_qm(AB)
    with pytest.raises(ValueError):
        scl_bounds(free_word(F2, (1, 2)), q, defect_upper=Fraction(0))


def test_certified_bound_check_survives_python_O():
    # an upper-bound oracle of 0 is below the certified 61/768 for [a, b];
    # the check must raise even when -O strips assert statements
    code = (
        "from fractions import Fraction\n"
        "from cinorm import commutator_of, counting_qm, free_group, free_word, scl_bounds\n"
        "F2 = free_group(2)\n"
        "w = commutator_of(free_word(F2, (1,)), free_word(F2, (2,)))\n"
        "scl_bounds(w, counting_qm(free_word(F2, (1, 2))), Fraction(3), n=64,\n"
        "           cl_oracle=lambda g: 0)\n")
    src = str(Path(cinorm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert "AssertionError: certified lower bound exceeded the upper bound" in run.stderr


@pytest.mark.parametrize("du", [Fraction(-1, 100), Fraction(-1)])
def test_negative_defect_upper_is_refused(du):
    # a defect is never negative; with D = -1/100 the "certified" lower bound
    # on scl([b, a]) came out as 6399/256, against the true value 1/2
    q = counting_qm(AB)
    w = commutator_of(free_word(F2, (-2,)), free_word(F2, (-1,)))
    with pytest.raises(ValueError, match="negative"):
        scl_bounds(w, q, du)
    with pytest.raises(ValueError, match="negative"):
        homogenize(q, w, 64, du)


# ---------------------------------------------------------------------------
# the integer payload path against the Element path


def element_path(q):
    """A copy of q built the way users build quasi-morphisms, so it
    evaluates through ``q.fn`` on Elements, not on q's payload count."""
    return QuasiMorphism(q.domain, q.fn, name=q.name)


def occurrences_by_slicing(word, pattern):
    k = len(pattern)
    return sum(1 for i in range(len(word) - k + 1) if word[i:i + k] == pattern)


PATTERNS = [(1,), (-2,), (1, 1), (1, 2), (1, 2, 1), (1, -2, -1), (1, 1, 1),
            (1, 2, 1, 2), (2, 1, -2, -1)]


@pytest.mark.parametrize("pat", PATTERNS, ids=str)
def test_counting_matches_slicing_count(pat):
    pattern = free_word(F2, pat)
    q = counting_qm(pattern)
    inv = invert(pattern).payload
    rng = random.Random(str(pat))
    words = [identity(F2)] + [random_word(F2, rng, n) for n in range(41)]
    # runs of one letter and of the pattern itself stress overlapping windows
    words += [free_word(F2, pat * m) for m in (1, 2, 5)] + [free_word(F2, (1,) * 12)]
    for w in words:
        expected = occurrences_by_slicing(w.payload, pat) - occurrences_by_slicing(w.payload, inv)
        assert q(w) == expected
        assert q.fn(w) == expected


def test_exponent_sum_matches_letter_sum():
    rng = random.Random(4)
    for gen in (1, 2):
        q = exponent_sum_qm(F2, gen)
        for n in range(30):
            w = random_word(F2, rng, n)
            assert q(w) == sum((x > 0) - (x < 0) for x in w.payload if abs(x) == gen)
            assert q(w) == element_path(q)(w)


@pytest.mark.parametrize("pat", [(1, 2), (1, 1), (1, 2, -1), (1, 2, 1, 2)], ids=str)
def test_sampled_estimates_match_element_path(pat):
    q = counting_qm(free_word(F2, pat))
    slow = element_path(q)
    for seed in range(10):
        fast_d = defect(q, "sampled", budget=120, seed=seed, size=10)
        slow_d = defect(slow, "sampled", budget=120, seed=seed, size=10)
        assert (fast_d.value, fast_d.certified, fast_d.sample_count, fast_d.seed) == (
            slow_d.value, slow_d.certified, slow_d.sample_count, slow_d.seed)
        fast_c = commutator_sup(q, mode="sampled", budget=120, seed=seed, size=6)
        slow_c = commutator_sup(slow, mode="sampled", budget=120, seed=seed, size=6)
        assert (fast_c.value, fast_c.witnesses, fast_c.sample_count, fast_c.seed) == (
            slow_c.value, slow_c.witnesses, slow_c.sample_count, slow_c.seed)
        assert type(fast_d.value) is Fraction and type(fast_c.value) is Fraction


def test_bar_extension_matches_element_path():
    bF = bar(F2)
    rng = random.Random(12)
    for pat in [(1, 2), (1, 1), (2, -1, 2)]:
        r = counting_qm(free_word(F2, pat))
        rbar, slow_bar = bar_extension(r, bF), bar_extension(element_path(r), bF)
        for _ in range(150):
            h = random_element(bF, rng, size=8)
            f = random_element(bF, rng, size=8)
            assert rbar(h) == slow_bar(h)
            fast = bar_defect_decomposition(r, rbar, h, f)
            slow = bar_defect_decomposition(element_path(r), slow_bar, h, f)
            assert (fast.lhs, fast.rhs, fast.ok) == (slow.lhs, slow.rhs, slow.ok)
            assert type(fast.lhs) is Fraction and type(fast.rhs) is Fraction


def test_payload_path_keeps_domain_errors():
    r = counting_qm(AB)
    F3 = free_group(3)
    rbar = bar_extension(r)
    h = random_element(bar(F2), random.Random(0))
    with pytest.raises(ValueError, match="is defined on"):
        r(free_word(F3, (1, 2)))
    with pytest.raises(ValueError, match="is defined on"):
        bar_defect_decomposition(r, bar_extension(counting_qm(free_word(F3, (1, 3)))), h, h)
    with pytest.raises(ValueError, match="is defined on"):
        bar_defect_decomposition(counting_qm(free_word(F3, (1, 3))), rbar, h, h)
    with pytest.raises(cinorm.DescriptorMismatchError):
        bar_defect_decomposition(r, rbar, h, random_element(bar(F3), random.Random(0)))


def test_user_quasimorphism_evaluates_through_fn():
    calls = []

    def fn(g):
        calls.append(g)
        return len(g.payload)  # an int: the call wraps it in a Fraction

    q = QuasiMorphism(F2, fn, name="length")
    w = free_word(F2, (1, 2, 2))
    assert q(w) == 3 and type(q(w)) is Fraction and calls == [w, w]
    calls.clear()
    est = defect(q, "sampled", budget=10, seed=0)
    assert len(calls) == 30 and type(est.value) is Fraction


# ---------------------------------------------------------------------------
# byte-search counting and payload draws against the earlier loops


def occurrences_by_windows(word, pattern):
    """The zip-window count: each length-k window of the word once."""
    k = len(pattern)
    return sum(1 for window in zip(*(word[i:] for i in range(k))) if window == pattern)


def _patterns(rank, rng):
    """Bordered patterns (a a, a b a, a b a b and their like on the top
    letters of the rank) and seeded reduced ones of length 1..4."""
    a, b = 1, min(2, rank)
    top = rank
    fixed = [(a,), (-top,), (a, a), (top, top), (-top, -top, -top), (-a, -a, -a, -a)]
    if rank > 1:
        fixed += [(a, b, a), (a, b, a, b), (top, -1, top), (-top, 1, -top, 1), (b, -a)]
    d = free_group(rank)
    return fixed + [random_word(d, rng, k).payload for k in (1, 2, 3, 4) for _ in range(3)]


@pytest.mark.parametrize("rank", [1, 2, 3, 127, 128, 2 ** 40], ids=str)
def test_counting_matches_window_oracle(rank):
    # ranks below 128 count by byte search, larger ones by zipped windows;
    # letters +-128 and above do not fit a signed byte, so only the window
    # path can count them
    d = free_group(rank)
    rng = random.Random(rank)
    words = [random_word(d, rng, n) for n in (0, 1, 2, 3, 5, 8, 13, 40, 120, 300)]
    for pat in _patterns(rank, rng):
        pattern = free_word(d, pat)
        inv = invert(pattern).payload
        count = quasimorphisms._signed_count(pattern.payload, inv, rank)
        # counting_qm names itself by the pattern's literal, which spells
        # letters up to z
        q = counting_qm(pattern) if max(map(abs, pat)) <= 26 else None
        # runs of the pattern, so that overlapping occurrences are many
        runs = [free_word(d, pat * m) for m in (1, 2, 7)] + [free_word(d, pat[:1] * 300)]
        for w in words + runs:
            expected = occurrences_by_windows(w.payload, pattern.payload) - \
                occurrences_by_windows(w.payload, inv)
            assert count(w.payload) == expected, (pat, w.payload)
            assert q is None or q(w) == expected


def test_counting_encodes_letters_below_rank_128_as_bytes():
    # the path is chosen from the rank: on free:127 a letter of free:128
    # cannot be encoded, which shows that the byte search ran
    q127 = counting_qm(free_word(free_group(127), (1, 2)))
    q128 = counting_qm(free_word(free_group(128), (1, 2)))
    with pytest.raises(OverflowError):
        q127._on_payload((128, 1, 2))
    assert q128._on_payload((128, 1, 2)) == 1


def reference_defect(q, budget, seed, size):
    """The sampled defect as a loop over Elements from random_element."""
    rng = random.Random(seed)
    best = 0
    for _ in range(budget):
        a = random_element(q.domain, rng, size=size)
        b = random_element(q.domain, rng, size=size)
        best = max(best, abs(q(compose(a, b)) - q(a) - q(b)))
    return best


def reference_sup(q, budget, seed, size, max_witnesses):
    rng = random.Random(seed)
    best, witnesses = 0, []
    for _ in range(budget):
        x = random_element(q.domain, rng, size=size)
        y = random_element(q.domain, rng, size=size)
        v = q(commutator_of(x, y))
        if v > best:
            best, witnesses = v, [(x, y)]
        elif v == best and v > 0 and len(witnesses) < max_witnesses:
            witnesses.append((x, y))
    return best, witnesses


@pytest.mark.parametrize("pat", [(1,), (1, 2), (1, 1), (1, 2, 1), (1, 2, 1, 2), (2, -1, -2)],
                         ids=str)
def test_sampled_estimates_match_element_loop(pat):
    q = counting_qm(free_word(F2, pat))
    for seed, size in itertools.product((0, 3, 11), (0, 2, 6, 12)):
        est = defect(q, "sampled", budget=60, seed=seed, size=size)
        assert est.value == reference_defect(q, 60, seed, size)
        assert (est.sample_count, est.seed) == (60, seed)
        for cap in (1, 5):
            sup = commutator_sup(q, mode="sampled", budget=60, seed=seed, size=size,
                                 max_witnesses=cap)
            value, witnesses = reference_sup(q, 60, seed, size, cap)
            assert (sup.value, sup.witnesses) == (value, witnesses)
            assert all(type(x) is Element and x.descriptor is F2
                       for pair in sup.witnesses for x in pair)


def test_negative_budget_is_refused():
    q = counting_qm(AB)
    with pytest.raises(ValueError, match="^budget -5 is negative$"):
        defect(q, "sampled", budget=-5)
    with pytest.raises(ValueError, match="^budget -1 is negative$"):
        commutator_sup(q, mode="sampled", budget=-1)
    # an empty budget is a lower bound of 0 from no samples
    assert defect(q, "sampled", budget=0).sample_count == 0
    assert commutator_sup(q, mode="sampled", budget=0).witnesses == []
    # the exact modes read no budget
    s3 = symmetric(3)
    zero = QuasiMorphism(s3, lambda g: Fraction(0))
    assert defect(zero, "exact", budget=-5).certified == "exact"
    spec = SubgroupSpec((perm_from_cycles(s3, (1, 2)),))
    assert commutator_sup(zero, spec, "exact", budget=-5).certified == "exact"


def test_bar_defect_values_each_coordinate_once():
    # rbar built by bar_extension sums r's payload function, so the
    # decomposition values h1, h2, f1, f2 and hf's two coordinates once each;
    # any other rbar is valued whole
    calls = []
    count = counting_qm(AB)._on_payload
    r = quasimorphisms._payload_qm(F2, lambda p: calls.append(p) or count(p))
    rbar = bar_extension(r)
    assert rbar._summand is r._on_payload and element_path(rbar)._summand is None
    rng = random.Random(5)
    for _ in range(20):
        h, f = random_element(bar(F2), rng, size=6), random_element(bar(F2), rng, size=6)
        calls.clear()
        row = bar_defect_decomposition(r, rbar, h, f)
        hf = compose(h, f)
        assert sorted(calls) == sorted([*h.payload[:2], *f.payload[:2], *hf.payload[:2]])
        assert row.lhs == abs(rbar(hf) - rbar(h) - rbar(f))
