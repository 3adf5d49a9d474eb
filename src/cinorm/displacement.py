"""Displaceability, algebraic packing numbers and displacement energies in
finite groups, with exhaustive verification of the associated norm
inequalities.

Scans run over raw payloads in lexicographic order, so every reported witness
or minimizer is the least valid one and reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import descriptors as gd
from .descriptors import PERMUTATION_FAMILIES, GroupDescriptor
from .elements import (
    Element,
    _compose_payload,
    _invert_payload,
    _perm_parity,
    commutator_of,
    compose,
    invert,
    sort_key,
)
from .enumeration import SubgroupSpec, closure_of, enumerate_elements
from .errors import GuardExceededError, InfiniteGroupError
from .literals import to_literal
from .norms import NormLike, commutator_length, commutator_length_over, norm_value_fn

#: Ambient-order guard for packing searches.
PACKING_GUARD = 1_000_000
#: Ambient-order guard for energy scans.
ENERGY_GUARD = 10_000_000


@dataclass(frozen=True)
class DisplacementReport:
    subgroup: SubgroupSpec
    m: int
    mode: str  # "weak" | "strong"
    witnesses: tuple[Element, ...]
    found: bool


@dataclass(frozen=True)
class PackingResult:
    p: int | None  # None for the abelian degenerate case (unbounded)
    certificate: DisplacementReport | None
    exhausted: bool
    degenerate: bool = False


@dataclass(frozen=True)
class EnergyResult:
    m: int
    value: Fraction | None  # None means +infinity: no strong m-displacer
    minimizer: Element | None


def subgroups_commute(a: SubgroupSpec, b: SubgroupSpec) -> bool:
    """Elementwise commutation of two subgroups, decided on generator pairs."""
    if a.descriptor != b.descriptor:
        raise ValueError("subgroups live in different ambient groups")
    return all(compose(x, y) == compose(y, x)
               for x in a.generators for y in b.generators)


def is_abelian_subgroup(h: SubgroupSpec) -> bool:
    return subgroups_commute(h, h)


# ---------------------------------------------------------------------------
# payload-level scan machinery


def _payload_ops(d: GroupDescriptor):
    if d.family in PERMUTATION_FAMILIES:
        def mul(a, b):
            return tuple(map(a.__getitem__, b))

        def inv(a):
            out = [0] * len(a)
            for i, j in enumerate(a):
                out[j] = i
            return tuple(out)
        return mul, inv
    return (lambda a, b: _compose_payload(d, a, b),
            lambda a: _invert_payload(d, a))


def _iter_payloads(d: GroupDescriptor, limit: int):
    size = gd.order(d)
    if size is None:
        raise InfiniteGroupError(f"{d} is infinite")
    if size > limit:
        raise GuardExceededError(f"|{d}| = {size} exceeds the scan guard {limit}")
    if d.family == "sn":
        return permutations(range(d.n))
    if d.family == "an":
        return (p for p in permutations(range(d.n)) if not _perm_parity(p))
    return (e.payload for e in enumerate_elements(d, limit))


def _strongly_displaces(mul, inv, phi, gens, m: int) -> bool:
    # pairwise commutation of Conj_{phi^i}(H) reduces to H vs Conj_{phi^k}(H)
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


def find_strong_displacer(d: GroupDescriptor, h: SubgroupSpec, m: int,
                          limit: int = ENERGY_GUARD) -> DisplacementReport:
    """Lexicographically first element whose powers ``phi^1..phi^m`` displace
    the subgroup, by full deterministic scan."""
    mul, inv = _payload_ops(d)
    gens = tuple(g.payload for g in h.generators)
    for phi in _iter_payloads(d, limit):
        if _strongly_displaces(mul, inv, phi, gens, m):
            e = Element(d, phi)
            witnesses = tuple(e ** k for k in range(1, m + 1))
            _assert_witnesses(h, h, witnesses)
            return DisplacementReport(h, m, "strong", witnesses, True)
    return DisplacementReport(h, m, "strong", (), False)


def _assert_witnesses(fixed: SubgroupSpec, moved: SubgroupSpec,
                      witnesses: tuple[Element, ...]) -> None:
    """Re-check a search result with the public predicate: ``fixed`` and the
    conjugates ``w moved w^-1`` of ``moved`` must pairwise commute."""
    specs = [fixed] + [
        SubgroupSpec(tuple(compose(compose(w, g), invert(w)) for g in moved.generators))
        for w in witnesses]
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            if not subgroups_commute(specs[i], specs[j]):
                raise AssertionError("witness failed the subgroup commutation re-check")


def displacement_energy(d: GroupDescriptor, h: SubgroupSpec, m: int,
                        norm: NormLike, limit: int = ENERGY_GUARD) -> EnergyResult:
    """Exact minimum of the norm over all strong m-displacers of the
    subgroup; the minimizer is the least one in payload order."""
    mul, inv = _payload_ops(d)
    gens = tuple(g.payload for g in h.generators)
    value = norm_value_fn(norm)
    positive = _min_positive(d, norm)
    best: Fraction | None = None
    best_phi = None
    for phi in _iter_payloads(d, limit):
        v = Fraction(value(Element(d, phi)))
        if best is not None and v >= best:
            continue
        if _strongly_displaces(mul, inv, phi, gens, m):
            best, best_phi = v, phi
            if best == 0 or (positive is not None and best == positive):
                break
    if best_phi is None:
        return EnergyResult(m, None, None)
    minimizer = Element(d, best_phi)
    _assert_witnesses(h, h, tuple(minimizer ** k for k in range(1, m + 1)))
    return EnergyResult(m, best, minimizer)


def _min_positive(d: GroupDescriptor, norm: NormLike) -> Fraction | None:
    # smallest positive value, used to stop scans once unbeatable
    from .norms import NormTable
    if isinstance(norm, NormTable):
        vals = [v for v in norm.values.values() if v > 0]
        return min(vals) if vals else None
    return None


def disjunction_energy(d: GroupDescriptor, h1: SubgroupSpec, h2: SubgroupSpec,
                       norm: NormLike, limit: int = ENERGY_GUARD) -> EnergyResult:
    """Exact minimum norm over elements conjugating ``h2`` to commute with
    ``h1``."""
    mul, inv = _payload_ops(d)
    gens1 = tuple(g.payload for g in h1.generators)
    gens2 = tuple(g.payload for g in h2.generators)
    value = norm_value_fn(norm)
    positive = _min_positive(d, norm)
    best: Fraction | None = None
    best_phi = None
    for phi in _iter_payloads(d, limit):
        v = Fraction(value(Element(d, phi)))
        if best is not None and v >= best:
            continue
        pwi = inv(phi)
        ok = True
        for g in gens2:
            c = mul(mul(phi, g), pwi)
            for h in gens1:
                if mul(c, h) != mul(h, c):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best, best_phi = v, phi
            if best == 0 or (positive is not None and best == positive):
                break
    if best_phi is None:
        return EnergyResult(1, None, None)
    minimizer = Element(d, best_phi)
    _assert_witnesses(h1, h2, (minimizer,))
    return EnergyResult(1, best, minimizer)


# ---------------------------------------------------------------------------
# packing numbers


def packing_number(d: GroupDescriptor, h: SubgroupSpec, m_cap: int = 16,
                   limit: int = PACKING_GUARD) -> PackingResult:
    """Largest number of pairwise-commuting conjugates of the subgroup
    (including itself), via the commutation graph on distinct conjugates.

    Enumerating distinct conjugate subgroups first collapses the search over
    conjugator tuples to a clique search; the scan over conjugators is still
    full, so ``exhausted`` is True whenever no guard tripped.
    """
    if is_abelian_subgroup(h):
        return PackingResult(None, None, True, degenerate=True)
    mul, inv = _payload_ops(d)
    closure = [g.payload for g in closure_of(h)]
    gens = tuple(g.payload for g in h.generators)

    reps: dict[frozenset, tuple] = {}
    conj_gens: list[tuple] = []
    order_seen: list[tuple] = []
    for phi in _iter_payloads(d, limit):
        pwi = inv(phi)
        key = frozenset(mul(mul(phi, x), pwi) for x in closure)
        if key not in reps:
            reps[key] = phi
            order_seen.append(phi)
            conj_gens.append(tuple(mul(mul(phi, g), pwi) for g in gens))
    n = len(order_seen)
    if n > 20000:
        raise GuardExceededError(f"{n} conjugate subgroups exceed the clique guard")

    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if all(mul(x, y) == mul(y, x)
                   for x in conj_gens[i] for y in conj_gens[j]):
                neighbors[i].add(j)
                neighbors[j].add(i)

    # identity is the lexicographically least conjugator, so vertex 0 is H
    best = [0]
    cap = m_cap + 1

    def grow(clique: list[int], cand: list[int]) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = list(clique)
        if len(clique) >= cap:
            return
        for idx, v in enumerate(cand):
            if len(clique) + len(cand) - idx <= len(best):
                break
            grow(clique + [v],
                 [u for u in cand[idx + 1:] if u in neighbors[v]])

    grow([0], sorted(neighbors[0]))
    p = len(best)
    witnesses = tuple(Element(d, order_seen[v]) for v in best[1:])
    report = DisplacementReport(h, p - 1, "weak", witnesses, p > 1)
    _assert_witnesses(h, h, witnesses)
    return PackingResult(p, report, exhausted=p < cap)


# ---------------------------------------------------------------------------
# the master norm inequalities


@dataclass
class InequalityRow:
    label: str
    witness: tuple[str, ...]
    lhs: Fraction
    rhs: Fraction
    ok: bool


@dataclass
class MasterReport:
    energy: EnergyResult
    rows: list[InequalityRow]
    chain_rows: list[InequalityRow]
    ambient_cl_checked: bool
    ok: bool


def verify_master_inequalities(d: GroupDescriptor, h: SubgroupSpec, m: int,
                               norm: NormLike, *,
                               ambient_cl_limit: int = 800,
                               energy: EnergyResult | None = None) -> MasterReport:
    """Pointwise check of the displacement inequalities on a finite group.

    For every x in the subgroup's derived part whose commutator length inside
    the subgroup is m: ``v(x) <= 4 e_1`` when m = 1 (plus the pointwise chain
    ``v([f,g]) <= 2 v([f,phi]) <= 4 v(phi)`` for the found minimizer), and
    ``v(x) <= 14 e_m`` for m >= 2.  Ambient commutator length <= 2 is checked
    when the ambient group is small enough to brute-force.
    """
    value = norm_value_fn(norm)
    closure = sorted(closure_of(h), key=sort_key)
    cl_h = commutator_length_over(closure, d, name="cl_H")
    e = energy if energy is not None else displacement_energy(d, h, m, norm)
    rows: list[InequalityRow] = []
    chain: list[InequalityRow] = []

    ambient_cl = None
    size = gd.order(d)
    if size is not None and size <= ambient_cl_limit:
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


def verify_disjunction_inequality(d: GroupDescriptor, h1: SubgroupSpec,
                                  h2: SubgroupSpec, norm: NormLike,
                                  energy: EnergyResult | None = None) -> MasterReport:
    """Check ``v([x1, x2]) <= 4 e(H1, H2)`` for all pairs from the two
    subgroup closures."""
    value = norm_value_fn(norm)
    e = energy if energy is not None else disjunction_energy(d, h1, h2, norm)
    rows: list[InequalityRow] = []
    if e.value is not None:
        for x1 in sorted(closure_of(h1), key=sort_key):
            for x2 in sorted(closure_of(h2), key=sort_key):
                lhs = Fraction(value(commutator_of(x1, x2)))
                rhs = 4 * e.value
                rows.append(InequalityRow(
                    "v([x1,x2]) <= 4 e(H1,H2)",
                    (to_literal(x1), to_literal(x2)), lhs, rhs, lhs <= rhs))
    ok = all(r.ok for r in rows)
    return MasterReport(e, rows, [], False, ok)
