"""Seeded job lists for the three workloads, each job with its own check.

A job is one thing a cinorm user runs: a library call, a CLI command or a
verification suite.  ``run`` does the work through the layer namespace ``L``
and is timed; ``check`` then confirms the answer with other public functions
and true mathematical facts (never a recorded copy of an earlier answer), and
raises ``CheckFailed`` when the answer is wrong.

Job parameters are drawn from ``random.Random`` seeded with the workload seed
and round number; the *shape* of a run (how many jobs of each kind on each
group) does not depend on the seed.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import cinorm as C
from cinorm import sampling
from cinorm.cli import ExperimentConfig
from cinorm.serialize import parse_fraction


class CheckFailed(AssertionError):
    """A job's answer contradicts a known fact."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Job:
    kind: str
    group: str
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], None]
    props: set = field(default_factory=set)  # "cli", "s9", "cache_repeat"
    key: Any = None  # cache key identity, for the repeated-key property


# ---------------------------------------------------------------------------
# shared helpers


def _d(text: str):
    return C.parse_descriptor(text)


def _support(g) -> Fraction:
    return Fraction(C.moved_points(g))


def support_qm(d) -> C.QuasiMorphism:
    """Moved points as a quasi-morphism on a permutation group."""
    return C.QuasiMorphism(d, _support, name="support")


def _trivial(g) -> Fraction:
    return Fraction(0 if g.is_identity() else 1)


def _is_odd(images) -> bool:
    seen, cycles = set(), 0
    for i in range(len(images)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = images[i]
    return (len(images) - cycles) % 2 == 1


def _odd_perm(d, rng):
    g = sampling.random_permutation(d, rng)
    if not _is_odd(g.payload):
        g = C.compose(g, C.perm_from_cycles(d, (1, 2)))
    return g


def _nontrivial(d, rng):
    """A seeded non-identity element; for matrices also off the diagonal,
    hence outside the centre."""
    while True:
        g = sampling.random_element(d, rng)
        if not g.is_identity() and (d.family != "slp" or not _diagonal(g)):
            return g


def _diagonal(g) -> bool:
    p = g.payload
    return all(p[i][j] == 0 for i in range(len(p)) for j in range(len(p)) if i != j)


def cgen_set(group: str, rng) -> tuple:
    """A seeded set that generates the group as a normal subgroup.

    Odd permutations normally generate S_n; A5, A6 and SL(3,2) are simple;
    SL(2,p) has only the centre as a proper normal subgroup; the product and
    swap cover of S3 need one odd element in each coordinate (and the swap).
    """
    d = _d(group)
    if d.family == "sn":
        return (_odd_perm(d, rng),)
    if d.family in ("an", "slp"):
        return (_nontrivial(d, rng),)
    s3 = C.symmetric(3)
    one = C.identity(s3)
    if d.family == "product":
        return (C.product_element(d, (_odd_perm(s3, rng), one)),
                C.product_element(d, (one, _odd_perm(s3, rng))))
    return (C.bar_element(d, _odd_perm(s3, rng), one, 0),
            C.bar_element(d, sampling.random_permutation(s3, rng),
                          sampling.random_permutation(s3, rng), 1))


def check_table(L, d, table, size: int) -> None:
    """Size, zero at the identity, and symmetry under ``invert``."""
    vals = table.values
    expect(len(vals) == size, f"table has {len(vals)} entries, expected {size}")
    expect(vals[L.elements.identity(d)] == 0, "value at the identity is not 0")
    inv = L.elements.invert
    expect(all(vals[inv(g)] == v for g, v in vals.items()),
           "values are not symmetric under invert")


def commute_pairwise(L, specs) -> bool:
    return all(L.displacement.subgroups_commute(specs[i], specs[j])
               for i in range(len(specs)) for j in range(i + 1, len(specs)))


def conj_spec(L, h, w):
    return C.SubgroupSpec(tuple(L.elements.conjugate_of(g, w) for g in h.generators))


def sym3(d, pts) -> C.SubgroupSpec:
    a, b, c = pts
    return C.SubgroupSpec((C.perm_from_cycles(d, (a, b)),
                           C.perm_from_cycles(d, (a, b, c))),
                          label="Sym{%d,%d,%d}" % (a, b, c))


def suite_job(name: str, group: str, seed: int) -> Job:
    cfg = ExperimentConfig(seed=seed)

    def run(L, ctx):
        return L.cli.run_suite(name, cfg, console=io.StringIO())

    def check(L, ctx, out):
        code, report = out
        expect(code == 0 and report["passed"], f"suite {name} failed")
        expect(all(row["ok"] for row in report["checks"]), f"suite {name} has a failing row")
    return Job(f"suite:{name}", group, run, check)


def cli_job(kind: str, group: str, argv: list[str], check_report) -> Job:
    def run(L, ctx):
        out = ctx.out_path()
        code = L.cli.main(argv + ["--out", str(out)])
        return code, out

    def check(L, ctx, res):
        code, out = res
        expect(code == 0, f"cinorm {' '.join(argv)} exited with {code}")
        check_report(L, json.loads(out.read_text()))
    return Job(kind, group, run, check, props={"cli"})


# ---------------------------------------------------------------------------
# tables: finite groups of order 24..360


TABLE_GROUPS = ("sn:4", "sn:5", "an:5", "an:6", "slp:2:5", "slp:2:7",
                "slp:3:2", "bar:sn:3", "product:sn:3,sn:3")
#: Groups small enough (order <= 120) for the O(N^2) jobs.
SMALL = ("sn:4", "sn:5", "an:5", "slp:2:5", "bar:sn:3", "product:sn:3,sn:3")
#: Order of the abelianization, so |derived subgroup| = |G| / value.
ABELIANIZATION = {"sn:4": 2, "sn:5": 2, "an:5": 1, "slp:2:5": 1,
                  "bar:sn:3": 4, "product:sn:3,sn:3": 4}
CACHE_GROUPS = ("sn:5", "an:5", "slp:2:5", "an:6")
#: The CLI splits --k at ";", so product and bar literals cannot be passed.
CLI_QK_GROUPS = ("slp:3:2", "sn:4", "slp:2:7", "an:6")
CLI_NV = (("sn:4", "support"), ("an:5", "trivial"), ("sn:4", "trivial"),
          ("an:5", "support"))


def qk_job(group: str, K: tuple, paper: bool = False) -> Job:
    d = _d(group)
    size = C.order(d)

    def run(L, ctx):
        return L.norms.qk_norm(d, K)

    def check(L, ctx, t):
        check_table(L, d, t, size)
        expect(all(t.values[k] == 1 for k in K if not k.is_identity()),
               "a member of K does not have norm 1")
        if paper:
            expect(t.meta.diameter == 3, "A5 q_K diameter for K=(1 2 3 4 5) is not 3")
    return Job("qk_norm", group, run, check)


def cl_job(group: str) -> Job:
    d = _d(group)
    size = C.order(d) // ABELIANIZATION[group]

    def run(L, ctx):
        return L.norms.commutator_length(d)

    def check(L, ctx, t):
        check_table(L, d, t, size)
        if group == "an:5":
            expect(t.meta.diameter == 1, "cl(A5) is not 1")
    return Job("commutator_length", group, run, check)


def axioms_job(group: str, norm: str) -> Job:
    d = _d(group)
    size = C.order(d)

    def run(L, ctx):
        table = getattr(L.norms, f"{norm}_norm_table")(d)
        return L.norms.verify_norm_axioms(table)

    def check(L, ctx, rep):
        expect(rep.passed, f"{norm} norm fails the norm axioms")
        expect(rep.pairs_checked == size * size, "not every pair was checked")
    return Job(f"verify_norm_axioms:{norm}", group, run, check)


def qnorm_job(group: str) -> Job:
    d = _d(group)
    size = C.order(d)

    def run(L, ctx):
        q = L.norms.coset_extension_qnorm(d)
        return L.norms.quasinorm_to_norm(q, d)

    def check(L, ctx, t):
        check_table(L, d, t, size)
        expect(L.norms.verify_norm_axioms(t).passed,
               "quasinorm_to_norm output is not a norm")
    return Job("quasinorm_to_norm", group, run, check)


def defect_job(group: str) -> Job:
    """Exact defect of a non-negative, symmetric function vanishing at 1 is
    exactly twice its maximum (the pair a, a^-1 attains it)."""
    d = _d(group)

    def run(L, ctx):
        if d.family == "bar":
            q = L.quasimorphisms.bar_extension(support_qm(d.base))
        else:
            q = support_qm(d)
        return q, L.quasimorphisms.defect(q, "exact")

    def check(L, ctx, res):
        q, est = res
        elems = L.enumeration.enumerate_elements(d)
        expect(est.value == 2 * max(q(g) for g in elems), "exact defect is not 2 max q")
        expect(est.sample_count == len(elems) ** 2, "not every pair was checked")
    return Job("defect:exact", group, run, check)


def csup_job(group: str, gens: tuple, rng) -> Job:
    d = _d(group)
    q = support_qm(d)
    h = C.SubgroupSpec(gens)
    probe = rng.random()

    def run(L, ctx):
        return L.quasimorphisms.commutator_sup(q, h, "exact")

    def check(L, ctx, est):
        comm = L.elements.commutator_of
        elems = sorted(L.enumeration.subgroup_closure(gens), key=C.sort_key)
        expect(est.sample_count == len(elems) ** 2, "not every pair was checked")
        expect(est.value <= max(q(g) for g in elems), "sup exceeds q on the closure")
        pick = random.Random(probe)
        for _ in range(5):
            x, y = pick.choice(elems), pick.choice(elems)
            expect(q(comm(x, y)) <= est.value, "a commutator beats the supremum")
        expect(all(q(comm(x, y)) == est.value for x, y in est.witnesses),
               "a witness does not attain the supremum")
    return Job("commutator_sup:exact", group, run, check)


def cache_job(group: str, K: tuple) -> Job:
    d = _d(group)
    lits = tuple(sorted(C.to_literal(k) for k in K))
    size = C.order(d)

    def run(L, ctx):
        key = L.cache.cache_key(group, "q_K", lits)
        payload = L.cache.cache_get(key)
        if payload is None:
            table = L.norms.qk_norm(d, K)
            payload = L.serialize.norm_table_payload(table)
            L.cache.cache_put(key, payload)
        else:
            table = L.serialize.norm_table_from_payload(payload)
        return payload, L.serialize.norm_table_to_json(table)

    def check(L, ctx, res):
        payload, text = res
        expect(json.loads(text) == payload, "table does not round-trip through JSON")
        rows = dict(payload["values"])
        expect(len(rows) == size, "cached table has the wrong size")
        expect(rows[L.literals.to_literal(L.elements.identity(d))] == "0/1",
               "cached table is not 0 at the identity")
    return Job("cache_round_trip", group, run, check, key=(group, lits))


def closure_job(group: str, gens: tuple, rng) -> Job:
    d = _d(group)
    size = C.order(d)
    probe = rng.random()

    def run(L, ctx):
        return L.enumeration.subgroup_closure(gens)

    def check(L, ctx, sub):
        expect(size % len(sub) == 0, "closure order does not divide |G|")
        expect(L.elements.identity(d) in sub, "closure misses the identity")
        elems = sorted(sub, key=C.sort_key)
        pick = random.Random(probe)
        for _ in range(10):
            x, y = pick.choice(elems), pick.choice(elems)
            expect(L.elements.compose(x, L.elements.invert(y)) in sub,
                   "closure is not closed")
    return Job("subgroup_closure", group, run, check)


def enumerate_job(group: str) -> Job:
    d = _d(group)
    size = C.order(d)

    def run(L, ctx):
        return L.enumeration.enumerate_elements(d)

    def check(L, ctx, elems):
        expect(len(elems) == size and len(set(elems)) == size,
               "enumeration is not |G| distinct elements")
    return Job("enumerate_elements", group, run, check)


def cli_qk_job(group: str, K: tuple) -> Job:
    d = _d(group)
    lits = tuple(sorted(C.to_literal(k) for k in K))
    size = C.order(d)

    def check(L, payload):
        rows = dict(payload["values"])
        expect(len(rows) == size, "qk table has the wrong size")
        expect(rows[L.literals.to_literal(L.elements.identity(d))] == "0/1",
               "qk table is not 0 at the identity")
        expect(all(rows[k] == "1/1" for k in lits), "a member of K does not have norm 1")
    job = cli_job("cli:qk", group, ["qk", "--group", group, "--k", "; ".join(lits)], check)
    job.key = (group, lits)
    return job


def cli_norm_verify_job(group: str, norm: str) -> Job:
    size = C.order(_d(group))

    def check(L, report):
        expect(report["passed"], "norm-verify reports a violation")
        expect(report["pairs_checked"] == size * size, "not every pair was checked")
    return cli_job("cli:norm-verify", group,
                   ["norm-verify", "--group", group, "--norm", norm], check)


def tables_round(seed: int, r: int, used: set) -> list[Job]:
    rng = random.Random(f"tables:{seed}:{r}")
    a5 = _d("an:5")
    jobs = [qk_job("an:5", (C.perm_from_cycles(a5, (1, 2, 3, 4, 5)),), paper=True)]
    for g in TABLE_GROUPS:
        jobs += [qk_job(g, cgen_set(g, rng)) for _ in range(2)]
    jobs += [cl_job(g) for g in SMALL]
    jobs += [axioms_job(g, "trivial") for g in SMALL]
    jobs += [axioms_job(g, "support") for g in ("sn:4", "sn:5", "an:5")]
    jobs += [qnorm_job(g) for g in SMALL if g != "slp:2:5"]
    jobs += [defect_job(g) for g in ("sn:4", "sn:5", "an:5", "bar:sn:3")]
    for g in ("sn:4", "sn:5", "an:5"):
        d = _d(g)
        gens = tuple(sampling.random_permutation(d, rng)
                     for _ in range(rng.randint(1, 2)))
        jobs.append(csup_job(g, gens, rng))

    def fresh_key(g):
        for _ in range(100):
            K = cgen_set(g, rng)
            key = (g, tuple(sorted(C.to_literal(k) for k in K)))
            if key not in used:
                break
        used.add(key)
        return K
    # each cache key is used by exactly two jobs, so half of them hit
    for g in CACHE_GROUPS:
        K = fresh_key(g)
        jobs += [cache_job(g, K), cache_job(g, K)]
    g = CLI_QK_GROUPS[r % len(CLI_QK_GROUPS)]
    jobs.append(cli_qk_job(g, fresh_key(g)))
    jobs.append(cli_norm_verify_job(*CLI_NV[r % len(CLI_NV)]))
    for i in range(3):
        g = TABLE_GROUPS[(3 * r + i) % len(TABLE_GROUPS)]
        jobs.append(enumerate_job(g))
        g = TABLE_GROUPS[(3 * r + i + 4) % len(TABLE_GROUPS)]
        jobs.append(closure_job(g, tuple(_nontrivial(_d(g), rng)
                                         for _ in range(rng.randint(1, 2))), rng))
    jobs += [suite_job("qk-a5", "an:5", seed), suite_job("stabilization", "sn:5", seed)]
    return jobs


# ---------------------------------------------------------------------------
# scans: displacement, disjunction and packing on S7/S8/S9


def energy_job(n: int, pts, m: int, norm: str) -> Job:
    """H = Sym(A) with |A| = 3: conjugates Sym(B) commute with it exactly when
    B is disjoint from A, so a strong m-displacer exists iff 3(m+1) <= n, and
    it moves at least the 3(m+1) points of A, phi(A), ..., phi^m(A)."""
    d = C.symmetric(n)
    h = sym3(d, pts)
    exists = 3 * (m + 1) <= n
    expected = Fraction(3 * (m + 1) if norm == "support" else 1)

    def run(L, ctx):
        value = C.support_norm if norm == "support" else L.norms.trivial_norm_table(d)
        return L.displacement.displacement_energy(d, h, m, value)

    def check(L, ctx, e):
        expect((e.value is not None) == exists, "displacer existence is wrong")
        if exists:
            expect(e.value == expected, f"e_{m} is {e.value}, expected {expected}")
            pw = [L.elements.power(e.minimizer, k) for k in range(1, m + 1)]
            expect(commute_pairwise(L, [h] + [conj_spec(L, h, w) for w in pw]),
                   "minimizer fails the commutation re-check")
    job = Job(f"displacement_energy:m{m}:{norm}", f"sn:{n}", run, check)
    if n == 9:
        job.props.add("s9")
    return job


def strong_job(n: int, pts, m: int) -> Job:
    d = C.symmetric(n)
    h = sym3(d, pts)

    def run(L, ctx):
        return L.displacement.find_strong_displacer(d, h, m)

    def check(L, ctx, rep):
        expect(rep.found == (3 * (m + 1) <= n), "displacer existence is wrong")
        if rep.found:
            w = rep.witnesses
            expect(all(w[k] == L.elements.power(w[0], k + 1) for k in range(m)),
                   "witnesses are not the powers of one element")
            expect(commute_pairwise(L, [h] + [conj_spec(L, h, x) for x in w]),
                   "witnesses fail the commutation re-check")
    job = Job(f"find_strong_displacer:m{m}", f"sn:{n}", run, check)
    if n == 9:
        job.props.add("s9")
    return job


def disjunction_job(n: int, pts, pts2) -> Job:
    """Conjugating <3-cycle on B> to commute with Sym(A) means moving B off A;
    the cheapest way swaps each point of A and B with a free point."""
    d = C.symmetric(n)
    h1 = sym3(d, pts)
    h2 = C.SubgroupSpec((C.perm_from_cycles(d, pts2),))
    expected = 2 * len(set(pts) & set(pts2))

    def run(L, ctx):
        return L.displacement.disjunction_energy(d, h1, h2, C.support_norm)

    def check(L, ctx, e):
        expect(e.value == expected, f"disjunction energy {e.value}, expected {expected}")
        expect(C.support_norm(e.minimizer) == e.value, "minimizer value mismatch")
        expect(L.displacement.subgroups_commute(h1, conj_spec(L, h2, e.minimizer)),
               "minimizer fails the commutation re-check")
    return Job("disjunction_energy", f"sn:{n}", run, check)


def packing_job(n: int, pts) -> Job:
    """Conjugates of Sym(A) commute iff disjoint, so p = floor(n / 3)."""
    d = C.symmetric(n)
    h = sym3(d, pts)

    def run(L, ctx):
        return L.displacement.packing_number(d, h)

    def check(L, ctx, res):
        expect(len(L.enumeration.subgroup_closure(h.generators)) == 6, "|Sym(A)| is not 6")
        expect(res.p == n // 3 and res.exhausted, f"p = {res.p}, expected {n // 3}")
        specs = [h] + [conj_spec(L, h, w) for w in res.certificate.witnesses]
        expect(len(specs) == res.p and commute_pairwise(L, specs),
               "packing witnesses fail the commutation re-check")
    job = Job("packing_number", f"sn:{n}", run, check)
    if n == 9:
        job.props.add("s9")
    return job


def master_job(n: int, pts) -> Job:
    d = C.symmetric(n)
    h = sym3(d, pts)

    def run(L, ctx):
        return L.displacement.verify_master_inequalities(d, h, 1, C.support_norm)

    def check(L, ctx, rep):
        expect(rep.ok and rep.rows, "master inequalities fail")
        e = rep.energy
        expect(e.value == 6, f"e_1 = {e.value}, expected 6")
        expect(L.displacement.subgroups_commute(h, conj_spec(L, h, e.minimizer)),
               "minimizer fails the commutation re-check")
    job = Job("verify_master_inequalities", f"sn:{n}", run, check)
    if n == 9:
        job.props.add("s9")
    return job


def _h_literal(pts) -> str:
    a, b, c = pts
    return f"({a} {b});({a} {b} {c})"


def cli_packing_job(n: int, pts) -> Job:
    d = C.symmetric(n)
    h = sym3(d, pts)

    def check(L, report):
        expect(report["p"] == n // 3 and report["exhausted"], "packing p is wrong")
        ws = [L.literals.from_literal(d, w) for w in report["witnesses"]]
        expect(commute_pairwise(L, [h] + [conj_spec(L, h, w) for w in ws]),
               "packing witnesses fail the commutation re-check")
    return cli_job("cli:packing", f"sn:{n}",
                   ["packing", "--group", f"sn:{n}", "--h", _h_literal(pts)], check)


def cli_energy_job(n: int, pts) -> Job:
    def check(L, report):
        for e in report["energies"]:
            m = e["m"]
            want = f"{3 * (m + 1)}/1" if 3 * (m + 1) <= n else "infinite"
            expect(e["value"] == want, f"e_{m} = {e['value']}, expected {want}")
    return cli_job("cli:energy", f"sn:{n}",
                   ["energy", "--group", f"sn:{n}", "--h", _h_literal(pts),
                    "--m", "2", "--norm", "support"], check)


def scans_round(seed: int, r: int) -> list[Job]:
    """Every job draws its own subgroup, so scan costs average out.  On S8
    only full scans run (no displacer exists, or packing scans everything)."""
    rng = random.Random(f"scans:{seed}:{r}")

    def pts(n):
        return tuple(rng.sample(range(1, n + 1), 3))
    jobs = []
    for _ in range(3):
        jobs += [energy_job(7, pts(7), 1, "support"), energy_job(7, pts(7), 2, "support"),
                 energy_job(7, pts(7), 1, "trivial"), energy_job(7, pts(7), 2, "trivial"),
                 strong_job(7, pts(7), 1), strong_job(7, pts(7), 2),
                 disjunction_job(7, pts(7), pts(7)), packing_job(7, pts(7)),
                 master_job(7, pts(7))]
    jobs += [packing_job(8, pts(8)), energy_job(8, pts(8), 2, "support"),
             energy_job(8, pts(8), 2, "trivial"), strong_job(8, pts(8), 2)]
    jobs += [packing_job(6, (1, 2, 3)), cli_packing_job(7, pts(7)),
             cli_energy_job(7, pts(7))]
    return jobs


def scans_once(seed: int) -> list[Job]:
    rng = random.Random(f"scans:{seed}:once")
    paper = (1, 2, 3)
    return [packing_job(9, paper), master_job(9, paper),
            strong_job(9, tuple(rng.sample(range(1, 10), 3)), 2)]


# ---------------------------------------------------------------------------
# words: free-group quasi-morphisms, wreath shift-commutators, SL(n, Z)


F2 = C.free_group(2)


def _pattern(rng):
    return sampling.random_word(F2, rng, rng.randint(2, 3))


def brooks_bound(pattern) -> Fraction:
    """Defect bound 3(k-1) for the overlapping counting quasi-morphism of a
    length-k pattern: cancellation splits ab at three junctions, each
    changing the signed count by at most k-1."""
    return Fraction(3 * (len(pattern.payload) - 1))


def qm_defect_job(pattern, seed: int) -> Job:
    bound = brooks_bound(pattern)

    def run(L, ctx):
        q = L.quasimorphisms.counting_qm(pattern)
        return L.quasimorphisms.defect(q, "sampled", budget=400, seed=seed, size=12)

    def check(L, ctx, est):
        expect(0 <= est.value <= bound, f"sampled defect {est.value} exceeds {bound}")
        expect(est.certified == "sampled_lower_bound" and est.sample_count == 400,
               "sampled defect is mislabelled")
    return Job("defect:sampled", "free:2", run, check)


def qm_csup_job(pattern, seed: int) -> Job:
    bound = 3 * brooks_bound(pattern)

    def run(L, ctx):
        q = L.quasimorphisms.counting_qm(pattern)
        return q, L.quasimorphisms.commutator_sup(q, None, "sampled", budget=300,
                                                  seed=seed, size=8)

    def check(L, ctx, res):
        q, est = res
        expect(0 <= est.value <= bound, f"commutator sup {est.value} exceeds 3D")
        expect(all(q(L.elements.commutator_of(x, y)) == est.value
                   for x, y in est.witnesses), "a witness does not attain the sup")
    return Job("commutator_sup:sampled", "free:2", run, check)


def homog_job(pattern, g, h, n: int) -> Job:
    """Both certified intervals contain the homogenization, which is
    conjugation invariant, so the intervals of g and h g h^-1 overlap."""
    bound = brooks_bound(pattern)

    def run(L, ctx):
        q = L.quasimorphisms.counting_qm(pattern)
        return (L.quasimorphisms.homogenize(q, g, n, bound),
                L.quasimorphisms.homogenize(q, L.elements.conjugate_of(g, h), n, bound))

    def check(L, ctx, res):
        a, b = res
        expect(a.certified and b.certified, "interval not certified")
        expect(max(a.low, b.low) <= min(a.high, b.high),
               "intervals of conjugate elements are disjoint")
    return Job("homogenize", "free:2", run, check)


def scl_job(pattern, x, y) -> Job:
    bound = brooks_bound(pattern)

    def run(L, ctx):
        q = L.quasimorphisms.counting_qm(pattern)
        return L.quasimorphisms.scl_bounds(L.elements.commutator_of(x, y), q, bound, n=32)

    def check(L, ctx, sb):
        expect(sb.lower is not None and 0 <= sb.lower <= Fraction(1, 2),
               f"scl lower bound {sb.lower} exceeds 1/2 for a commutator")
    return Job("scl_bounds", "free:2", run, check)


def _ambient(base, capacity: int, infinite: bool):
    return C.wreath_z(base) if infinite else C.wreath_zn(base, capacity + 1)


def _target(L, amb, pairs):
    """embed([f_m, g_m] ... [f_1, g_1]) recomputed from elements alone."""
    base = pairs[0][0].descriptor
    t = C.identity(base)
    for f, g in reversed(pairs):
        t = L.elements.compose(t, L.elements.commutator_of(f, g))
    return L.elements.wreath_element(amb, {0: t})


def wreath_env_job(base, capacity: int, infinite: bool, x, y) -> Job:
    amb = _ambient(base, capacity, infinite)

    def run(L, ctx):
        return L.fcommutator.wreath_environment(base, capacity, infinite=infinite)

    def check(L, ctx, env):
        expect(env.ambient == amb and env.capacity == capacity, "wrong environment")
        e = L.elements
        X = e.wreath_element(amb, {0: x})
        for j in range(1, capacity + 1):
            Y = e.conjugate_of(e.wreath_element(amb, {0: y}), e.power(env.shift, j))
            expect(e.compose(X, Y) == e.compose(Y, X), "shifted copies do not commute")
    return Job("wreath_environment", str(amb), run, check)


def fcomm_job(base, pairs, infinite: bool, kind: str) -> Job:
    """kind: seven (decomposition), two (two-commutator witness) or bound
    (decomposition plus its norm bound under the trivial norm)."""
    capacity = max(len(pairs), 2)
    amb = _ambient(base, capacity, infinite)

    def run(L, ctx):
        env = L.fcommutator.wreath_environment(base, capacity, infinite=infinite)
        if kind == "two":
            return env, L.fcommutator.two_commutator_witness(env, pairs)
        dec = L.fcommutator.seven_fcommutators(env, pairs)
        if kind == "bound":
            return env, (dec, L.fcommutator.fcomm_norm_bound(dec, env, _trivial))
        return env, dec

    def check(L, ctx, res):
        env, out = res
        e = L.elements
        target = _target(L, amb, pairs)
        if kind == "two":
            expect(out.target == target, "witness target is wrong")
            expect(e.compose(e.commutator_of(*out.first), e.commutator_of(*out.second))
                   == target, "two commutators do not multiply to the target")
            return
        dec = out[0] if kind == "bound" else out
        expect(dec.target == target and len(dec.factors) <= 7,
               "decomposition has the wrong target or more than 7 factors")
        prod = e.identity(amb)
        for c in dec.factors:
            prod = e.compose(prod, e.conjugate_of(e.commutator_of(env.shift, c.argument),
                                                  c.conjugator))
        expect(prod == target, "factor product does not equal the target")
        if kind == "bound":
            expect(out[1].ok, "shift-commutator norm bound fails for the trivial norm")
    names = {"seven": "seven_fcommutators", "two": "two_commutator_witness",
             "bound": "fcomm_norm_bound"}
    return Job(names[kind], str(amb), run, check)


def slz_job(n: int, ijk, pqs) -> Job:
    """[e_ij(p), e_jk(q)] = e_ik(pq) for distinct i, j, k."""
    d = C.sl_z(n)
    i, j, k = ijk

    def run(L, ctx):
        e = L.elements
        return [e.commutator_of(e.elementary(d, i, j, p), e.elementary(d, j, k, q))
                for p, q in pqs]

    def check(L, ctx, comms):
        expect(all(c == L.elements.elementary(d, i, k, p * q)
                   for c, (p, q) in zip(comms, pqs)), "elementary commutator identity fails")
    return Job("slz_commutators", f"slz:{n}", run, check)


LITERAL_GROUPS = ("free:2", "wreath:sn:3:zn:3", "slz:3", "bar:sn:5",
                  "product:sn:3,free:2", "aff-z", "z2inf")


def literals_job(elems) -> Job:
    def run(L, ctx):
        lits = [L.literals.to_literal(g) for g in elems]
        return [L.literals.from_literal(g.descriptor, s) for g, s in zip(elems, lits)]

    def check(L, ctx, back):
        expect(back == elems, "literal round trip changed an element")
    return Job("literal_round_trip", "mixed", run, check)


def cli_fcomm_job(base: str, m: int, seed: int) -> Job:
    def check(L, report):
        amb = C.parse_descriptor(report["ambient"])
        e = L.elements
        prod = e.identity(amb)
        for f in report["factors"]:
            prod = e.compose(prod, L.literals.from_literal(amb, f["value"]))
        expect(report["verified"] and report["factor_count"] <= 7, "fcomm not verified")
        expect(prod == L.literals.from_literal(amb, report["target"]),
               "factor values do not multiply to the target")
    return cli_job("cli:fcomm", f"wreath:{base}:zn:{max(m, 2) + 1}",
                   ["fcomm", "--base", base, "--m", str(m), "--seed", str(seed)], check)


def cli_scl_job(pattern, x, y) -> Job:
    word = C.to_literal(C.commutator_of(x, y))

    def check(L, report):
        lower = parse_fraction(report["lower"])
        expect(0 <= lower <= Fraction(1, 2), f"scl lower bound {lower} exceeds 1/2")
    return cli_job("cli:qm-scl-bounds", "free:2",
                   ["qm", "scl-bounds", "--pattern", C.to_literal(pattern),
                    "--word", word, "--defect-upper", str(brooks_bound(pattern)),
                    "--n-max", "32"], check)


def words_round(seed: int, r: int) -> list[Job]:
    """Groups, pair counts and capacities follow the round number, so the
    shape is the same for every seed; words, pairs and patterns are seeded."""
    rng = random.Random(f"words:{seed}:{r}")

    def word(lo, hi):
        return sampling.random_word(F2, rng, rng.randint(lo, hi))

    def perm_pairs(base, m):
        return [(sampling.random_permutation(base, rng),
                 sampling.random_permutation(base, rng)) for _ in range(m)]
    jobs = []
    for _ in range(2):
        jobs += [qm_defect_job(_pattern(rng), rng.randrange(10**6)),
                 qm_csup_job(_pattern(rng), rng.randrange(10**6)),
                 homog_job(_pattern(rng), word(16, 256), word(4, 16), rng.choice((16, 32))),
                 scl_job(_pattern(rng), word(4, 64), word(4, 64))]
    bases = [C.symmetric(3), C.symmetric(4), C.alternating(5)]
    for i, base in enumerate(bases[1:]):
        x, y = perm_pairs(base, 1)[0]
        jobs.append(wreath_env_job(base, 2 + (r + i) % 2, (r + i) % 2 == 0, x, y))
    for i, base in enumerate(bases):
        jobs.append(fcomm_job(base, perm_pairs(base, 1 + (r + i) % 3),
                              (r + i) % 2 == 1, "seven"))
    for i, base in enumerate(bases[:2]):
        jobs.append(fcomm_job(base, perm_pairs(base, 1 + (r + i + 1) % 3),
                              (r + i) % 2 == 0, "two"))
    base = bases[r % 3]
    jobs.append(fcomm_job(base, perm_pairs(base, 1 + r % 3), r % 2 == 0, "bound"))
    for i in range(2):
        n = 3 + (r + i) % 3
        pqs = [(rng.choice((-1, 1)) * rng.randint(1, 60),
                rng.choice((-1, 1)) * rng.randint(1, 60)) for _ in range(20)]
        jobs.append(slz_job(n, tuple(rng.sample(range(1, n + 1), 3)), pqs))
    for _ in range(2):
        jobs.append(literals_job([sampling.random_element(_d(rng.choice(LITERAL_GROUPS)),
                                                          rng, size=rng.randint(4, 32))
                                  for _ in range(30)]))
    jobs.append(cli_fcomm_job(("sn:3", "sn:4")[r % 2], 1 + r % 3, rng.randrange(10**6)))
    jobs.append(cli_scl_job(_pattern(rng), word(4, 64), word(4, 64)))
    return jobs


def words_once(seed: int) -> list[Job]:
    jobs = [suite_job(name, group, seed) for name, group in (
        ("elementary-sl", "slz:4"), ("aff-z", "aff-z"), ("rearrange-id", "wreath:sn:3:zn:3"),
        ("bar-splitting", "bar:sn:5"), ("bar-defect", "bar:free:2"),
        ("witness-additivity", "product:free:2,free:2,free:2"))]

    def check(L, report):
        expect(report["passed"] and all(row["ok"] for row in report["checks"]),
               "seven-fcomm suite failed")
    jobs.append(cli_job("cli:verify-seven-fcomm", "wreath:sn:3:zn:3",
                        ["verify", "--suite", "seven-fcomm", "--seed", str(seed)], check))
    return jobs


# ---------------------------------------------------------------------------
# assembling a run


#: Loop time of one round and of the once-per-run jobs at reference speed
#: (see ``Speed`` in run.py); they set how many rounds fill a run.
NOMINAL_S = {"tables": (3.9, 0.0), "scans": (3.0, 7.1), "words": (0.34, 5.0)}


def rounds_for(workload: str, seconds: float) -> int:
    per_round, once = NOMINAL_S[workload]
    return max(1, round((seconds - once) / per_round))


def build(workload: str, seed: int, seconds: float) -> list[Job]:
    """The seeded job list of one run: ``rounds_for`` shuffled rounds, with
    the once-per-run jobs (paper instances too costly to repeat) spread in."""
    n = rounds_for(workload, seconds)
    rng = random.Random(f"{workload}:{seed}:order")
    used: set = set()
    rounds = []
    for r in range(n):
        if workload == "tables":
            jobs = tables_round(seed, r, used)
        elif workload == "scans":
            jobs = scans_round(seed, r)
        else:
            jobs = words_round(seed, r)
        rng.shuffle(jobs)
        rounds.append(jobs)
    once = scans_once(seed) if workload == "scans" else \
        words_once(seed) if workload == "words" else []
    for job in once:
        rounds[rng.randrange(n)].append(job)
    jobs = [j for rnd in rounds for j in rnd]
    seen = set()
    for j in jobs:
        if j.key is not None:
            if j.key in seen:
                j.props.add("cache_repeat")
            seen.add(j.key)
    return jobs
