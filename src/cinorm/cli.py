"""Command-line interface: norm tables, packing/energy reports, decomposition
emission, verification suites and the on-disk cache.

Report files are deterministic: identical configuration (including seed and
regardless of thread count) produces byte-identical bytes.  Per-check wall
clock goes to the console only, never into a report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from pathlib import Path
from typing import Callable

from ._version import __version__
from . import cache as cache_mod
from . import descriptors as gd
from .descriptors import parse_descriptor
from .displacement import (
    displacement_energy,
    packing_number,
    verify_master_inequalities,
)
from .elements import (
    Element,
    affz_element,
    commutator_of,
    compose,
    conjugate_of,
    elementary,
    free_word,
    identity,
    invert,
)
from .enumeration import SubgroupSpec, enumerate_elements
from .errors import GuardExceededError
from .fcommutator import (
    seven_fcommutators,
    solve_rearrange_id,
    two_commutator_witness,
    wreath_environment,
)
from .kernel import conjugacy_closure
from .literals import _split_top, from_literal, to_literal
from .norms import (
    commutator_length,
    qk_norm,
    refuse_foreign_table,
    support_norm,
    support_norm_table,
    trivial_norm,
    trivial_norm_table,
    verify_norm_axioms,
)
from .quasimorphisms import (
    bar_defect_decomposition,
    bar_extension,
    counting_qm,
    defect,
    homogenize,
    scl_bounds,
    verify_bar_splitting,
    verify_witness_additivity,
    QuasiMorphism,
)
from .sampling import random_element, random_permutation
from .serialize import dumps, fraction_str, norm_table_payload, payload_to_tsv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


@dataclass
class ExperimentConfig:
    seed: int = 0
    threads: int = 1

    def echo(self) -> dict:
        """The report's config block.  No suite reads the keys besides
        ``seed``: they are constants that keep reports byte-identical to
        those of versions whose ``verify`` took more options."""
        return {"seed": self.seed, "budget": 1000, "n_max": 32, "m": 2,
                "group": None, "elements": None, "format": "json"}


Check = tuple[str, Callable[[], tuple[bool, dict, dict | None]]]


# ---------------------------------------------------------------------------
# verification suites


def _suite_elementary_sl(cfg: ExperimentConfig) -> list[Check]:
    cases = [(3, 1, 2, 3), (4, 1, 2, 3), (4, 2, 3, 4)]

    def make(n: int, i: int, j: int, k: int) -> Check:
        def run():
            d = gd.sl_z(n)
            e_ij = elementary(d, i, j)
            checked = 0
            for step in (1, -1):
                gen_jk = elementary(d, j, k, step)
                gen_ik = elementary(d, i, k, step)
                pow_jk = identity(d)
                pow_ik = identity(d)
                for p in range(1001):
                    if pow_ik != commutator_of(e_ij, pow_jk):
                        return False, {"checked": checked}, {
                            "p": p * step, "lhs": to_literal(pow_ik)}
                    checked += 1
                    pow_jk = compose(pow_jk, gen_jk)
                    pow_ik = compose(pow_ik, gen_ik)
            return True, {"checked": checked}, None
        return f"slz{n}:e{i}{k}=[e{i}{j},e{j}{k}^p]", run

    return [make(*case) for case in cases]


def _suite_aff_z(cfg: ExperimentConfig) -> list[Check]:
    def conjugation():
        t = affz_element(0, 1)
        for n in range(1, 101):
            lhs = conjugate_of(t, affz_element(-n, 0))
            rhs = compose(t, affz_element(2 * n, 0))
            if lhs != rhs:
                return False, {}, {"n": n, "lhs": to_literal(lhs)}
        return True, {"checked": 100}, None

    def commutators():
        t = affz_element(0, 1)
        for n in range(1, 101):
            if commutator_of(t, affz_element(n, 0)) != affz_element(-2 * n, 0):
                return False, {}, {"n": n}
        return True, {"checked": 100}, None

    def presentation():
        t = affz_element(0, 1)
        z = affz_element(1, 0)
        ok = compose(t, t).is_identity() and \
            compose(t, z) == compose(invert(z), t)
        return ok, {}, None if ok else {"relation": "t^2 or tz=z^-1 t"}

    return [("affz:conjugation", conjugation),
            ("affz:commutator", commutators),
            ("affz:presentation", presentation)]


def _suite_seven_fcomm(cfg: ExperimentConfig) -> list[Check]:
    def run():
        rng = random.Random(cfg.seed)
        base = gd.symmetric(3)
        elems = enumerate_elements(base)
        counts = {1: 0, 2: 0, 3: 0}
        for trial in range(100):
            m = trial % 3 + 1
            env = wreath_environment(base, capacity=m + 1)
            pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(m)]
            dec = seven_fcommutators(env, pairs)
            wit = two_commutator_witness(env, pairs)
            if not (dec.verified and len(dec.factors) <= 7 and wit.verified):
                return False, {"trial": trial}, {
                    "m": m, "pairs": [(to_literal(f), to_literal(g))
                                      for f, g in pairs]}
            counts[m] += 1
        return True, {"trials": 100, "per_m": counts}, None

    return [("seven-fcomm:100-seeded", run)]


def _rearrange_fails(gs: list[Element]) -> int | None:
    """Close ``g_1 .. g_m`` with the inverse of their product, solve the
    rearrangement at capacity m and return the first index k whose
    component is not ``g_1 ... g_(k+1)``, or None."""
    base = gs[0].descriptor
    env = wreath_environment(base, capacity=len(gs))
    prod = identity(base)
    for g in gs:
        prod = compose(prod, g)
    sol, _ = solve_rearrange_id(env, gs + [invert(prod)])
    running = identity(base)
    for k, g in enumerate(gs):
        running = compose(running, g)
        if sol.components[k] != running:
            return k
    return None


def _suite_rearrange_id(cfg: ExperimentConfig) -> list[Check]:
    def run():
        rng = random.Random(cfg.seed)
        elems = enumerate_elements(gd.symmetric(3))
        for trial in range(1000):
            k = _rearrange_fails([rng.choice(elems) for _ in range(trial % 3 + 1)])
            if k is not None:
                return False, {"trial": trial}, {"k": k}
        return True, {"trials": 1000}, None

    return [("rearrange:1000-seeded", run)]


def _suite_rearrange_id_all(cfg: ExperimentConfig) -> list[Check]:
    def run():
        elems = enumerate_elements(gd.symmetric(3))
        inputs = 0
        for m in (1, 2, 3):
            for gs in iter_product(elems, repeat=m):
                k = _rearrange_fails(list(gs))
                if k is not None:
                    return False, {"inputs": inputs}, {
                        "gs": [to_literal(g) for g in gs], "k": k}
                inputs += 1
        return True, {"inputs": inputs}, None

    return [("rearrange:all-m1-3", run)]


def _suite_qk_a5(cfg: ExperimentConfig) -> list[Check]:
    def axioms():
        d = gd.alternating(5)
        table = qk_norm(d, [from_literal(d, "(1 2 3 4 5)")])
        rep = verify_norm_axioms(table)
        return rep.passed, {"pairs": rep.pairs_checked}, None if rep.passed else {
            "violations": [(a, [to_literal(x) for x in w])
                           for a, w in rep.violations[:3]]}

    def oracle():
        d = gd.alternating(5)
        table = qk_norm(d, [from_literal(d, "(1 2 3 4 5)")])
        closure = conjugacy_closure([from_literal(d, "(1 2 3 4 5)")], d)
        # independent oracle: iterated set products of the closure
        expected = {identity(d): 0}
        level = {identity(d)}
        n = 0
        while len(expected) < 60:
            n += 1
            level = {compose(g, c) for g in level for c in closure}
            for g in level:
                expected.setdefault(g, n)
        ok = all(table.values[g] == v for g, v in expected.items()) \
            and len(table.values) == 60
        return ok, {"elements": 60, "diameter": fraction_str(table.meta.diameter)}, None

    def cl_a5():
        d = gd.alternating(5)
        table = commutator_length(d)
        ok = len(table.values) == 60 and table.meta.diameter == 1 and all(
            v == (0 if g.is_identity() else 1) for g, v in table.values.items())
        return ok, {"cld": fraction_str(table.meta.diameter)}, None

    return [("qk-a5:axioms", axioms), ("qk-a5:oracle", oracle),
            ("qk-a5:cl-diameter", cl_a5)]


def _suite_bar_splitting(cfg: ExperimentConfig) -> list[Check]:
    def run():
        rng = random.Random(cfg.seed)
        d = gd.bar(gd.symmetric(5))
        for trial in range(20):
            w = random_element(d, rng)
            rep = verify_bar_splitting(w, 20)
            if not rep.passed:
                return False, {"trial": trial}, {
                    "w": to_literal(w), "failures": rep.failures}
        return True, {"trials": 20, "k": 20}, None

    return [("bar:power-splitting", run)]


def _suite_bar_defect(cfg: ExperimentConfig) -> list[Check]:
    def run():
        rng = random.Random(cfg.seed)
        f2 = gd.free_group(2)
        d = gd.bar(f2)
        r = counting_qm(free_word(f2, (1, 2)))
        rbar = bar_extension(r, d)
        for trial in range(10_000):
            h = random_element(d, rng, size=8)
            f = random_element(d, rng, size=8)
            row = bar_defect_decomposition(r, rbar, h, f)
            if not row.ok:
                return False, {"trial": trial}, {
                    "h": to_literal(h), "f": to_literal(f),
                    "lhs": fraction_str(row.lhs), "rhs": fraction_str(row.rhs)}
        return True, {"trials": 10_000}, None

    return [("bar:defect-decomposition", run)]


def _suite_witness_additivity(cfg: ExperimentConfig) -> list[Check]:
    def run():
        rng = random.Random(cfg.seed)
        f2 = gd.free_group(2)
        P = gd.product(f2, f2, f2)
        from .elements import product_element

        def emb(i: int, e: Element) -> Element:
            comps = [identity(f2)] * 3
            comps[i] = e
            return product_element(P, comps)

        count = counting_qm(free_word(f2, (1, 2)))
        q = QuasiMorphism(P, lambda g: sum((count(Element(f2, c)) for c in g.payload),
                                           Fraction(0)),
                          name="sum-count")
        factors = [SubgroupSpec((emb(i, free_word(f2, (1,))),
                                 emb(i, free_word(f2, (2,))))) for i in range(3)]
        for trial in range(1000):
            witnesses = [(emb(i, random_element(f2, rng, size=6)),
                          emb(i, random_element(f2, rng, size=6)))
                         for i in range(3)]
            rep = verify_witness_additivity(q, factors, witnesses)
            if not rep.ok:
                return False, {"trial": trial}, {
                    "combined": fraction_str(rep.combined),
                    "parts": [fraction_str(v) for v in rep.factor_values]}
        return True, {"trials": 1000}, None

    return [("additivity:combined-witness", run)]


def _suite_stabilization(cfg: ExperimentConfig) -> list[Check]:
    from .norms import stabilization_upper

    def torsion_zero():
        rng = random.Random(cfg.seed)
        s5 = gd.symmetric(5)
        cases = [(support_norm, random_permutation(s5, rng)) for _ in range(10)]
        w3 = gd.wreath_zn(gd.symmetric(3), 3)
        cases += [(trivial_norm, random_element(w3, rng)) for _ in range(10)]
        cases += [(support_norm, random_element(gd.z2_infinity(), rng))
                  for _ in range(10)]
        checked = 0
        for norm, g in cases:
            if g.is_identity():
                continue
            est = stabilization_upper(norm, g, 64)
            if not (est.exact_zero and est.upper == 0):
                return False, {}, {"element": to_literal(g)}
            checked += 1
        return True, {"torsion_cases": checked}, None

    def antitone():
        z = affz_element(1, 0)
        prev = None
        for n_max in (1, 2, 4, 8, 16, 32):
            est = stabilization_upper(trivial_norm, z, n_max)
            if prev is not None and est.upper > prev:
                return False, {}, {"n_max": n_max}
            prev = est.upper
        return True, {"final_upper": fraction_str(prev)}, None

    return [("stabilization:torsion-zero", torsion_zero),
            ("stabilization:antitone", antitone)]


def _suite_displacement_s9(cfg: ExperimentConfig) -> list[Check]:
    def run():
        d = gd.symmetric(9)
        h = SubgroupSpec((from_literal(d, "(1 2)"), from_literal(d, "(1 2 3)")),
                         label="Sym{1,2,3}")
        energy = displacement_energy(d, h, 1, support_norm)
        rep = verify_master_inequalities(d, h, 1, support_norm, energy=energy)
        detail = {
            "e_1": fraction_str(energy.value),
            "minimizer": to_literal(energy.minimizer),
            "rows": len(rep.rows), "chain": len(rep.chain_rows),
        }
        if not rep.ok:
            bad = [r for r in rep.rows + rep.chain_rows if not r.ok][:3]
            return False, detail, {"failing": [(r.label, r.witness) for r in bad]}
        return True, detail, None

    return [("displacement-s9:master", run)]


def _make_packing_suite(n: int, expected_p: int) -> Callable[[ExperimentConfig], list[Check]]:
    def suite(cfg: ExperimentConfig) -> list[Check]:
        def run():
            d = gd.symmetric(n)
            h = SubgroupSpec((from_literal(d, "(1 2)"), from_literal(d, "(1 2 3)")),
                             label="Sym{1,2,3}")
            res = packing_number(d, h)
            detail = {"p": res.p, "exhausted": res.exhausted,
                      "witnesses": [to_literal(w)
                                    for w in res.certificate.witnesses]}
            ok = res.p == expected_p and res.exhausted
            return ok, detail, None if ok else detail
        return [(f"packing-s{n}:p={expected_p}", run)]
    return suite


def _suite_negative_control(cfg: ExperimentConfig) -> list[Check]:
    # intentionally failing check, used to exercise failure reporting
    def run():
        d = gd.symmetric(3)
        g = from_literal(d, "(1 2)")
        return False, {"note": "intentional failure"}, {
            "group": str(d), "element": to_literal(g)}
    return [("negative-control:always-fails", run)]


SUITES: dict[str, Callable[[ExperimentConfig], list[Check]]] = {
    "elementary-sl": _suite_elementary_sl,
    "aff-z": _suite_aff_z,
    "seven-fcomm": _suite_seven_fcomm,
    "rearrange-id": _suite_rearrange_id,
    "rearrange-id-all": _suite_rearrange_id_all,
    "qk-a5": _suite_qk_a5,
    "bar-splitting": _suite_bar_splitting,
    "bar-defect": _suite_bar_defect,
    "witness-additivity": _suite_witness_additivity,
    "stabilization": _suite_stabilization,
    "displacement-s9": _suite_displacement_s9,
    "packing-s6": _make_packing_suite(6, 2),
    "packing-s9": _make_packing_suite(9, 3),
    "negative-control": _suite_negative_control,
}


def run_suite(name: str, cfg: ExperimentConfig,
              console=None) -> tuple[int, dict]:
    """Execute one suite, print per-check timing to the console (standard
    output when None, looked up at call time) and return (exit code,
    deterministic report dict)."""
    if console is None:
        console = sys.stdout
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    checks = SUITES[name](cfg)

    def execute(check: Check):
        check_name, thunk = check
        t0 = time.perf_counter()
        ok, detail, witness = thunk()
        return check_name, ok, detail, witness, time.perf_counter() - t0

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(execute, checks))
    else:
        outcomes = [execute(c) for c in checks]
    outcomes.sort(key=lambda o: o[0])
    rows = []
    passed = True
    for check_name, ok, detail, witness, elapsed in outcomes:
        passed = passed and ok
        print(f"[{name}] {check_name}: {'ok' if ok else 'FAIL'} "
              f"({elapsed:.3f}s)", file=console)
        row = {"name": check_name, "ok": ok, "detail": detail}
        if witness is not None:
            row["witness"] = witness
        rows.append(row)
    report = {
        "suite": name,
        "tool_version": __version__,
        "config": cfg.echo(),
        "checks": rows,
        "passed": passed,
    }
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), report


# ---------------------------------------------------------------------------
# table emission and element parsing helpers


def _emit(text: str, out: str | None) -> None:
    """The one writer of every command's output, a table, report or line:
    to the file ``out``, or stdout."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_elements(d, text: str) -> list[Element]:
    return [from_literal(d, part.strip()) for part in _split_top(text, ";") if part.strip()]


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction, got {text!r}") from None


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: the tree of ten subcommands costs about a
    # millisecond, and parse_args leaves it unchanged
    parser = argparse.ArgumentParser(
        prog="cinorm",
        description="exact conjugation-invariant norm computations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--group": dict(required=True),
        "--k": dict(required=True, help="semicolon-separated element literals"),
        "--h": dict(required=True, dest="subgroup",
                    help="semicolon-separated subgroup generators"),
        "--norm": dict(choices=("trivial", "support")),
        "--base": dict(default="sn:3"),
        "--pattern": dict(default="a b"),
        "--word": dict(default="a b A B"),
        "--defect-upper": dict(type=_fraction),
        "--suite": dict(required=True),
        "--seed": dict(type=int, default=0),
        "--budget": dict(type=_positive_int, default=1000),
        "--n-max": dict(type=_positive_int, default=32),
        "--m": dict(type=_positive_int, default=2),
        "--threads": dict(type=_positive_int, default=1),
        "--out": dict(),
        "--format": dict(dest="fmt", choices=("json", "tsv"), default="json"),
    }

    def command(name: str, summary: str, flags: str, actions=(), **defaults):
        """A subcommand taking only ``flags``, the options its branch of
        :func:`_dispatch` reads; without ``--out`` or ``--format`` its
        output goes to stdout as JSON or text."""
        p = sub.add_parser(name, help=summary)
        if actions:
            p.add_argument("action", choices=actions)
        for flag in flags.split():
            p.add_argument(flag, **options[flag])
        p.set_defaults(out=None, fmt="json", **defaults)

    command("qk", "conjugation-generated norm table", "--group --k --out --format")
    command("cl", "commutator length table", "--group --out --format")
    command("cld", "commutator length diameter", "--group")
    command("norm-verify", "verify norm axioms exhaustively", "--group --norm --out",
            norm="trivial")
    command("packing", "algebraic packing number", "--group --h --out")
    command("energy", "displacement energy", "--group --h --norm --m --out")
    command("fcomm", "seeded shift-commutator decomposition", "--base --seed --m --out")
    command("qm", "quasi-morphism reports",
            "--pattern --word --defect-upper --seed --budget --n-max --out",
            actions=("defect", "homogenize", "scl-bounds"))
    command("verify", "run a verification suite", "--suite --seed --threads --out")
    command("cache", "cache maintenance", "", actions=("stats", "clear"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except GuardExceededError as exc:
        print(f"resource guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, KeyError, OSError) as exc:  # OSError: --out or the cache
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command
    code = EXIT_OK
    # --group, then --h: each parse refuses before the command computes
    d = parse_descriptor(args.group) if "group" in args else None
    h = SubgroupSpec(tuple(_parse_elements(d, args.subgroup))) if "subgroup" in args else None

    if cmd == "cl":
        output = norm_table_payload(commutator_length(d))

    elif cmd == "qk":
        members = _parse_elements(d, args.k)
        lits = tuple(sorted(to_literal(k) for k in members))
        key = cache_mod.cache_key(str(d), "q_K", lits)
        output = cache_mod.cache_get(key)
        if output is None:
            output = norm_table_payload(qk_norm(d, members))
            try:
                cache_mod.cache_put(key, output)
            except OSError as exc:  # the cache only saves time: keep the table
                print(f"warning: table not cached: {exc}", file=sys.stderr)

    elif cmd == "cld":
        output = fraction_str(commutator_length(d).meta.diameter) + "\n"

    elif cmd == "norm-verify":
        table = trivial_norm_table(d) if args.norm == "trivial" \
            else support_norm_table(d)
        rep = verify_norm_axioms(table)
        output = {
            "group": str(d), "norm": args.norm, "passed": rep.passed,
            "pairs_checked": rep.pairs_checked,
            "violations": [
                {"axiom": a, "witness": [to_literal(x) for x in w]}
                for a, w in rep.violations],
        }
        code = EXIT_OK if rep.passed else EXIT_CHECK_FAILED

    elif cmd == "packing":
        res = packing_number(d, h)
        output = {
            "group": str(d), "p": res.p, "exhausted": res.exhausted,
            "degenerate": res.degenerate,
            "witnesses": [] if res.certificate is None else
            [to_literal(w) for w in res.certificate.witnesses],
        }

    elif cmd == "energy":
        norm = trivial_norm if args.norm == "trivial" else support_norm
        if args.norm is None:  # the default, support, is undefined off sn/an
            try:
                refuse_foreign_table(d, norm)
            except ValueError as exc:
                raise ValueError(f"{exc}; --norm defaults to support, "
                                 f"so pass --norm trivial") from None
        energies = []
        for m in range(1, args.m + 1):
            e = displacement_energy(d, h, m, norm)
            energies.append({
                "m": m,
                "value": "infinite" if e.value is None else fraction_str(e.value),
                "minimizer": None if e.minimizer is None else to_literal(e.minimizer),
            })
        output = {"group": str(d), "energies": energies}

    elif cmd == "fcomm":
        base = parse_descriptor(args.base)
        rng = random.Random(args.seed)
        elems = enumerate_elements(base)
        env = wreath_environment(base, capacity=max(args.m, 2))
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(args.m)]
        dec = seven_fcommutators(env, pairs)
        output = {
            "ambient": str(env.ambient),
            "seed": args.seed,
            "target": to_literal(dec.target),
            "factors": [{"f": to_literal(c.conjugator),
                         "h": to_literal(c.argument),
                         "value": to_literal(env.value(c))}
                        for c in dec.factors],
            "factor_count": len(dec.factors),
            "verified": dec.verified,
            "audit": {k: to_literal(v) for k, v in dec.audit.items()},
        }
        code = EXIT_OK if dec.verified else EXIT_CHECK_FAILED

    elif cmd == "qm":
        f2 = gd.free_group(2)
        pattern = from_literal(f2, args.pattern)
        q = counting_qm(pattern)
        word = from_literal(f2, args.word)
        if args.action == "defect":
            est = defect(q, "sampled", budget=args.budget, seed=args.seed)
            output = {"pattern": to_literal(pattern),
                      "value": fraction_str(est.value),
                      "certified": est.certified,
                      "budget": est.sample_count, "seed": est.seed,
                      "convention": q.notes["occurrences"]}
        elif args.action == "homogenize":
            iv = homogenize(q, word, args.n_max, args.defect_upper)
            output = {"word": to_literal(word), "n": iv.n,
                      "center": fraction_str(iv.center),
                      "radius": None if iv.radius is None else fraction_str(iv.radius),
                      "certified": iv.certified}
        else:
            if args.defect_upper is None:
                raise ValueError("scl-bounds needs --defect-upper")
            sb = scl_bounds(word, q, args.defect_upper, n=args.n_max)
            output = {"word": to_literal(word),
                      "lower": fraction_str(sb.lower),
                      "provenance": sb.lower_provenance}
        output["seed"] = args.seed

    elif cmd == "verify":
        code, output = run_suite(args.suite, ExperimentConfig(args.seed, args.threads))

    elif args.action == "stats":  # cache: argparse refuses any other command
        output = json.dumps(cache_mod.cache_stats(), sort_keys=True) + "\n"
    else:
        output = f"evicted {cache_mod.cache_clear()} entries\n"

    if isinstance(output, dict):
        output = payload_to_tsv(output) if args.fmt == "tsv" else dumps(output)
    _emit(output, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
