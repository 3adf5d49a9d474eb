"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check here is zero-tolerance (exact integers and rationals); the time
budgets are asserted as stated.  Frozen expected values come from the
independent oracles in the sibling test modules.
"""

import json
import random
import time
from fractions import Fraction

from cinorm import (
    Element,
    SubgroupSpec,
    affz_element,
    alternating,
    bar,
    bar_defect_decomposition,
    bar_element,
    bar_extension,
    commutator_length,
    commutator_length_over,
    commutator_of,
    compose,
    conjugacy_closure,
    conjugate_of,
    counting_qm,
    closure_of,
    displacement_energy,
    elementary,
    enumerate_elements,
    free_group,
    free_word,
    identity,
    invert,
    packing_number,
    perm_from_cycles,
    power,
    product,
    product_element,
    qk_norm,
    seven_fcommutators,
    sl_z,
    solve_rearrange_id,
    stabilization_upper,
    support_norm,
    support_norm_table,
    symmetric,
    trivial_norm_table,
    two_commutator_witness,
    verify_bar_splitting,
    verify_master_inequalities,
    verify_norm_axioms,
    verify_witness_additivity,
    wreath_environment,
    wreath_zn,
    z2_infinity,
    QuasiMorphism,
)
from cinorm.sampling import random_element


class criterion:
    """Times a block, asserts its budget and prints the pass/fail line."""

    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {self.name}: {status} "
              f"({elapsed:.2f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)")
        return False


def test_01_elementary_commutator_identity():
    with criterion(1, "elementary-commutator identity", 5):
        for n, (i, j, k) in ((3, (1, 2, 3)), (4, (1, 2, 3)), (4, (2, 3, 4))):
            d = sl_z(n)
            e_ij = elementary(d, i, j)
            for step in (1, -1):
                gen_jk = elementary(d, j, k, step)
                gen_ik = elementary(d, i, k, step)
                pow_jk = identity(d)
                pow_ik = identity(d)
                for p in range(1001):
                    assert pow_ik == commutator_of(e_ij, pow_jk)
                    if p % 125 == 0:  # cross-check the square-and-multiply path
                        assert pow_ik == power(elementary(d, i, k), p * step)
                    pow_jk = compose(pow_jk, gen_jk)
                    pow_ik = compose(pow_ik, gen_ik)


def test_02_seven_fcommutator_theorem():
    with criterion(2, "seven-factor decomposition + 2-commutator witness", 10):
        rng = random.Random(42)
        base = symmetric(3)
        elems = enumerate_elements(base)
        for trial in range(100):
            m = trial % 3 + 1
            env = wreath_environment(base, capacity=m + 1)
            pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(m)]
            dec = seven_fcommutators(env, pairs)
            assert dec.verified and len(dec.factors) <= 7
            prod = identity(env.ambient)
            for c in dec.factors:
                prod = compose(prod, env.value(c))
            assert prod == dec.target
            wit = two_commutator_witness(env, pairs)
            assert wit.verified
            assert compose(commutator_of(*wit.first),
                           commutator_of(*wit.second)) == wit.target


def test_03_rearrangement_system():
    with criterion(3, "telescoping rearrangement system", 30):
        rng = random.Random(7)
        base = symmetric(3)
        elems = enumerate_elements(base)
        envs = {m: wreath_environment(base, capacity=m) for m in (1, 2, 3)}
        for trial in range(1000):
            m = trial % 3 + 1
            env = envs[m]
            gs = [rng.choice(elems) for _ in range(m)]
            prod = identity(base)
            for g in gs:
                prod = compose(prod, g)
            gs.append(invert(prod))
            sol, c = solve_rearrange_id(env, gs)
            spread = identity(env.ambient)
            for idx, g in enumerate(gs):
                spread = compose(spread, env.shifted(g, idx))
            assert env.value(c) == spread
            running = identity(base)
            for k, g in enumerate(gs[:-1]):
                running = compose(running, g)
                assert sol.components[k] == running


def test_04_displacement_inequalities_s9():
    with criterion(4, "displacement inequalities on S9", 60):
        d = symmetric(9)
        h = SubgroupSpec((perm_from_cycles(d, (1, 2)),
                          perm_from_cycles(d, (1, 2, 3))), label="Sym{1,2,3}")
        e1 = displacement_energy(d, h, 1, support_norm)
        assert e1.value == 6
        closure = closure_of(h)
        cl_h = commutator_length_over(closure, d, name="cl_H")
        derived = set(cl_h.values)
        for x in derived:  # every element of H', the identity included
            assert support_norm(x) <= 4 * e1.value
        rep = verify_master_inequalities(d, h, 1, support_norm, energy=e1)
        assert rep.ok
        # the chain covers every (f, g) in H x H with the found minimizer
        assert len(rep.chain_rows) == len(closure) ** 2 + len(closure)
        assert all(r.ok for r in rep.chain_rows)


def test_05_packing_numbers():
    with criterion(5, "packing number p(S6, Sym{1,2,3}) = 2", 120):
        d6 = symmetric(6)
        h6 = SubgroupSpec((perm_from_cycles(d6, (1, 2)),
                           perm_from_cycles(d6, (1, 2, 3))))
        r6 = packing_number(d6, h6)
        assert r6.p == 2 and r6.exhausted
    with criterion(5, "packing number p(S9, Sym{1,2,3}) = 3", 120):
        d9 = symmetric(9)
        h9 = SubgroupSpec((perm_from_cycles(d9, (1, 2)),
                           perm_from_cycles(d9, (1, 2, 3))))
        r9 = packing_number(d9, h9)
        assert r9.p == 3 and r9.exhausted


def test_06_qk_norm_axioms_and_oracle():
    with criterion(6, "BFS word metric on A5 + commutator length", 5):
        d = alternating(5)
        K = [perm_from_cycles(d, (1, 2, 3, 4, 5))]
        table = qk_norm(d, K)
        assert verify_norm_axioms(table).passed
        # independent oracle: iterated set products of the conjugacy closure
        closure = conjugacy_closure(K, d)
        expected = {identity(d): 0}
        level = {identity(d)}
        n = 0
        while len(expected) < 60:
            n += 1
            level = {compose(g, c) for g in level for c in closure}
            for g in level:
                expected.setdefault(g, n)
        assert table.values == {g: Fraction(v) for g, v in expected.items()}
        cl = commutator_length(d)
        assert cl.meta.diameter == 1
        assert all(v == (0 if g.is_identity() else 1)
                   for g, v in cl.values.items())


def test_07_affz_and_bar_identities():
    with criterion(7, "affine conjugation + swap-cover splitting", 5):
        t = affz_element(0, 1)
        for n in range(1, 101):
            assert conjugate_of(t, affz_element(-n, 0)) == \
                compose(t, affz_element(2 * n, 0))
        s5 = symmetric(5)
        b5 = bar(s5)
        rng = random.Random(13)
        for _ in range(10):
            g1 = random_element(s5, rng)
            g2 = random_element(s5, rng)
            f1 = random_element(s5, rng)
            f2 = random_element(s5, rng)
            h = bar_element(b5, g1, g2, 1)
            f = bar_element(b5, f1, f2, 0)
            assert compose(h, f) == bar_element(
                b5, compose(g1, f2), compose(g2, f1), 1)
        for _ in range(20):
            w = random_element(b5, rng)
            assert verify_bar_splitting(w, 20).passed


def test_08_bar_defect_decomposition():
    with criterion(8, "pointwise defect decomposition in the swap cover", 30):
        rng = random.Random(1)
        f2 = free_group(2)
        bF = bar(f2)
        r = counting_qm(free_word(f2, (1, 2)))
        rbar = bar_extension(r, bF)
        for _ in range(10_000):
            h = random_element(bF, rng, size=8)
            f = random_element(bF, rng, size=8)
            assert bar_defect_decomposition(r, rbar, h, f).ok


def test_09_witness_additivity_product_of_free_groups():
    with criterion(9, "commutator witness additivity in F2 x F2 x F2", 10):
        rng = random.Random(5)
        f2 = free_group(2)
        P = product(f2, f2, f2)
        count = counting_qm(free_word(f2, (1, 2)))
        q = QuasiMorphism(P, lambda g: sum((count(Element(f2, c)) for c in g.payload),
                                           Fraction(0)), name="sum")

        def emb(i, e):
            comps = [identity(f2)] * 3
            comps[i] = e
            return product_element(P, comps)

        factors = [SubgroupSpec((emb(i, free_word(f2, (1,))),
                                 emb(i, free_word(f2, (2,)))))
                   for i in range(3)]
        for _ in range(1000):
            witnesses = [(emb(i, random_element(f2, rng, size=6)),
                          emb(i, random_element(f2, rng, size=6)))
                         for i in range(3)]
            rep = verify_witness_additivity(q, factors, witnesses)
            assert rep.ok
            assert rep.combined == sum(rep.factor_values)


def test_10_stabilization_properties():
    with criterion(10, "stabilization: torsion zero and antitone", 10):
        rng = random.Random(3)
        cases = []
        s5 = symmetric(5)
        sup5 = support_norm_table(s5)
        cases += [(sup5, random_element(s5, rng)) for _ in range(15)]
        a5 = alternating(5)
        qk5 = qk_norm(a5, [perm_from_cycles(a5, (1, 2, 3, 4, 5))])
        cases += [(qk5, random_element(a5, rng)) for _ in range(15)]
        w3 = wreath_zn(symmetric(3), 3)
        triv = trivial_norm_table(w3)
        cases += [(triv, random_element(w3, rng)) for _ in range(15)]
        b3 = bar(symmetric(3))
        trivb = trivial_norm_table(b3)
        cases += [(trivb, random_element(b3, rng)) for _ in range(15)]
        cases += [(support_norm, random_element(z2_infinity(), rng))
                  for _ in range(15)]
        torsion_seen = 0
        for norm, g in cases:
            if g.is_identity():
                continue
            est = stabilization_upper(norm, g, 64)
            assert est.exact_zero and est.upper == 0
            torsion_seen += 1
        assert torsion_seen >= 50

        def one_if(g):
            return Fraction(0 if g.is_identity() else 1)
        z = affz_element(1, 0)
        uppers = [stabilization_upper(one_if, z, n).upper
                  for n in (1, 2, 4, 8, 16, 32, 64)]
        assert all(a >= b for a, b in zip(uppers, uppers[1:]))
        assert uppers[-1] == Fraction(1, 64)


def test_11_determinism_across_threads(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CINORM_CACHE_DIR", str(tmp_path / "cache"))
    from cinorm.cli import main
    with criterion(11, "byte-identical reports across 1 and 4 threads", 120):
        for suite in ("qk-a5", "rearrange-id"):
            blobs = []
            for threads in ("1", "4"):
                out = tmp_path / f"{suite}-{threads}.json"
                assert main(["verify", "--suite", suite, "--seed", "0",
                             "--threads", threads, "--out", str(out)]) == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1]
            json.loads(blobs[0])  # well-formed
