"""Construction, exact BFS computation and axiomatic verification of
conjugation-invariant norms, pseudo-norms and quasi-norms on the supported
group families.

All values are exact rationals; there is no floating point anywhere in a
table, so every verification below is a zero-tolerance check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import ne, sub
from typing import Any, Callable, Iterable

from . import descriptors as gd
from .descriptors import GroupDescriptor, PERMUTATION_FAMILIES
from .elements import (
    Element,
    _payload_ops,
    compose,
    conjugate_of,
    identity,
    invert,
    moved_points,
    sort_key,
)
from .enumeration import _checked_order, enumerate_elements, kept, subgroup_closure
from .errors import DescriptorMismatchError, NotCGeneratingError
from .kernel import (
    FiniteGroup,
    commutator_indices,
    conjugacy_indices,
    domain_kernel,
    group_kernel,
    scaled,
)
from .literals import to_literal

ZERO = Fraction(0)


@dataclass
class NormTableMeta:
    name: str
    diameter: Fraction | None = None  # None marks unbounded / not applicable
    fine: bool = False
    discrete: bool = True
    generator_set: tuple[str, ...] = ()
    notes: dict = field(default_factory=dict)


@dataclass
class NormTable:
    """Exact map from every element of a finite group to a rational value."""

    descriptor: GroupDescriptor
    values: dict[Element, Fraction]
    meta: NormTableMeta

    def domain(self) -> list[Element]:
        return sorted(self.values, key=sort_key)


NormLike = NormTable | Callable[[Element], Fraction]


def norm_value_fn(norm: NormLike) -> Callable[[Element], Fraction]:
    """Uniform accessor: tables for finite groups, callables for windowed
    infinite-family norms."""
    if isinstance(norm, NormTable):
        return norm.values.__getitem__
    return norm


def refuse_foreign_table(d: GroupDescriptor, norm: "NormLike | QuasiNormSpec") -> None:
    """Raise :class:`DescriptorMismatchError` when ``norm`` is a table or a
    quasi-norm of a group other than ``d``."""
    if isinstance(norm, (NormTable, QuasiNormSpec)) and norm.descriptor != d:
        kind = "norm table" if isinstance(norm, NormTable) else "quasi-norm"
        raise DescriptorMismatchError(f"the {kind} is on {norm.descriptor}, not {d}")


def payload_value_fn(d: GroupDescriptor, norm: NormLike) -> Callable[[Any], Any]:
    """``norm`` as a function of the raw payloads of ``d``, with the same
    exact values: the moved-point count (an int) for :func:`support_norm` on
    ``sn``/``an``, ``int(p != one)`` for :func:`trivial_norm` on every
    family, and the norm of ``Element(d, payload)`` for tables and every
    other callable, so those raise as and when they did.  A table of another
    group, or one that does not cover all of G, is refused."""
    refuse_foreign_table(d, norm)
    # only a table needs |G|; an order of 10^30 or more is named by its group
    if isinstance(norm, NormTable):
        size = gd._order_within(d, 10 ** 30)
        if len(norm.values) != size and gd.finite(d):
            whole = "" if size is None else f"{size} "
            raise ValueError(f"the norm table covers {len(norm.values)} elements, "
                             f"not all {whole}of {d}")
    one = _payload_ops(d)[2]
    if norm is support_norm and d.family in PERMUTATION_FAMILIES:
        return lambda p: sum(map(ne, p, one))
    if norm is trivial_norm:
        return lambda p: int(p != one)
    value = norm_value_fn(norm)
    return lambda p: value(Element(d, p))


# ---------------------------------------------------------------------------
# axiom verification


@dataclass
class AxiomReport:
    passed: bool
    violations: list[tuple[str, tuple[Element, ...]]]
    pairs_checked: int
    domain_size: int


def verify_norm_axioms(table: NormTable, max_violations: int = 25) -> AxiomReport:
    """Exhaustively check all five norm axioms on the table's domain.

    Reports violations instead of raising; a domain that holds an element
    but not its inverse raises ``ValueError`` naming both.  For tables on a
    subgroup the conjugators range over that subgroup, and a passing check
    reads only the rows of its class representatives.  Pairs ``(f, g)`` run
    in domain order and each row stops at its first violation;
    ``pairs_checked`` counts the pair that stopped it, N^2 on a pass.
    """
    vals = table.values
    G = domain_kernel(table.descriptor, vals)
    elems, inv, mul = G.elements, G.inv, G.mul
    iv, _ = scaled(vals[g] for g in elems)
    violations: list[tuple[str, tuple[Element, ...]]] = []

    def record(axiom: str, *witness: int) -> bool:
        violations.append((axiom, tuple(elems[i] for i in witness)))
        return len(violations) >= max_violations

    one = G.one
    if one >= 0 and iv[one] != 0 and record("i", one):
        return AxiomReport(False, violations, 0, G.n)
    full = True
    for g in range(G.n):
        if inv[g] < 0:
            raise ValueError(f"the table's domain holds {to_literal(elems[g])} "
                             f"but not its inverse {to_literal(invert(elems[g]))}")
        if iv[g] != iv[inv[g]]:
            full = not record("ii", g)
            if not full:
                break
        if g != one and iv[g] <= 0:
            full = not record("v", g)
            if not full:
                break
    if not violations and G.generators() is not None and _axioms_hold_by_class(G, iv):
        return AxiomReport(True, violations, G.n * G.n, G.n)
    pairs = 0
    if full:
        for f in range(G.n):
            row = G.row(f)
            vf = iv[f]
            for g, fg in enumerate(row):
                pairs += 1
                if fg < 0:
                    axiom = "domain"
                elif iv[fg] > vf + iv[g]:
                    axiom = "iii"
                else:
                    # f g f^-1 = f (f g^-1)^-1, read from f's row alone
                    x = row[inv[g]]
                    conj = row[inv[x]] if x >= 0 and inv[x] >= 0 else mul(fg, inv[f])
                    if conj >= 0 and iv[conj] == iv[g]:
                        continue
                    axiom = "iv"
                full = not record(axiom, f, g)
                break
            if not full:
                break
    return AxiomReport(not violations, violations, pairs, G.n)


def _axioms_hold_by_class(G: FiniteGroup, iv: list[int]) -> bool:
    # axiom iv: values constant on the classes of a subgroup domain, its
    # orbits under conjugation by its own generators.  Then (iii) needs f
    # only over class representatives, as (h f h^-1, g) satisfies it exactly
    # when (f, h^-1 g h) does: iv[f g] - iv[g] <= iv[f] for every g
    label, members = G.classes()
    if list(map(iv.__getitem__, label)) != iv:
        return False
    return all(max(map(sub, map(iv.__getitem__, G.row(f)), iv)) <= iv[f]
               for f in members)


# ---------------------------------------------------------------------------
# conjugation-generated norms


def _cgen(d: GroupDescriptor, K: Iterable[Element], limit: int | None
          ) -> tuple[FiniteGroup, tuple[Element, ...], list[int]]:
    # the kernel, the sorted members of K and the indices of their closure
    members = tuple(sorted(set(K), key=sort_key))
    if not members:
        raise ValueError("conjugation-generating set must be non-empty")
    G = group_kernel(d, limit)
    return G, members, conjugacy_indices(G, members)


def _bfs_values(G: FiniteGroup, steps: list[int]) -> tuple[dict[Element, Fraction], Fraction]:
    # distances from the identity of a closed kernel by right multiplication
    # with the steps in index order, one Fraction per level, in discovery
    # order, and the diameter.  The scan of level n stops once it has found
    # level n+1's size (FiniteGroup.level_sizes), so the last is not scanned
    sizes = G.level_sizes(steps)
    seen = bytearray(G.n)
    seen[G.one] = 1
    frontier, values, elems = [G.one], {}, G.elements
    for n, want in enumerate(sizes[1:] + [0]):
        values.update(dict.fromkeys(map(elems.__getitem__, frontier), Fraction(n)))
        nxt: list[int] = []
        for g in frontier:
            if len(nxt) == want:
                break
            for h in G.products(g, steps):
                if not seen[h]:
                    seen[h] = 1
                    nxt.append(h)
        frontier = nxt
    return values, Fraction(len(sizes) - 1)


def c_generates(d: GroupDescriptor, K: Iterable[Element]) -> bool:
    """Whether the conjugates of ``K`` generate the finite group ``d``."""
    G, _, closure = _cgen(d, K, None)
    return sum(G.level_sizes(closure)) == G.n


def _qk_values(G: FiniteGroup, closure: list[int]
               ) -> tuple[dict[Element, Fraction], Fraction]:
    # q_K over the kernel and its diameter, refused unless the closure
    # generates the group
    values, diameter = _bfs_values(G, closure)
    if len(values) != G.n:
        missing = [g for g in G.elements if g not in values]
        sample = ", ".join(to_literal(g) for g in missing[:5])
        raise NotCGeneratingError(
            f"K reaches only {len(values)} of {G.n} elements of {G.descriptor}; "
            f"unreached include {sample}")
    return values, diameter


def qk_norm(d: GroupDescriptor, K: Iterable[Element],
            limit: int | None = None) -> NormTable:
    """Minimal number of conjugates of ``K``-members (or their inverses)
    multiplying to each element: breadth-first distance from the identity
    over the conjugacy closure of ``K``.  ``limit`` guards the group order."""
    G, members, closure = _cgen(d, K, limit)
    values, diameter = _qk_values(G, closure)
    meta = NormTableMeta(
        name="q_K[" + "; ".join(to_literal(k) for k in members) + "]",
        diameter=diameter,
        generator_set=tuple(to_literal(k) for k in members),
    )
    return NormTable(d, values, meta)


def _commutator_length(G: FiniteGroup, name: str) -> NormTable:
    values, diameter = _bfs_values(G, commutator_indices(G))
    meta = NormTableMeta(name=name, diameter=diameter)
    return NormTable(G.descriptor, values, meta)


def commutator_length_over(elements: Iterable[Element], d: GroupDescriptor,
                           name: str = "cl") -> NormTable:
    """Commutator length on the derived subgroup of the given subgroup:
    breadth-first search over its simple commutators, on its own kernel."""
    return _commutator_length(domain_kernel(d, elements), name)


def commutator_length(d: GroupDescriptor, limit: int | None = None) -> NormTable:
    """Commutator length on the derived subgroup of a finite group; the
    table's diameter is the commutator length diameter."""
    return _commutator_length(group_kernel(d, limit), "cl")


# ---------------------------------------------------------------------------
# concrete norms


def trivial_norm(g: Element) -> Fraction:
    """1 on every non-identity element."""
    return Fraction(0 if g.is_identity() else 1)


def trivial_norm_table(d: GroupDescriptor, limit: int | None = None) -> NormTable:
    """:func:`trivial_norm` on every element."""
    return _whole_group_table(d, limit, _trivial_values, "trivial")


def _trivial_values(d: GroupDescriptor, elements: list[Element]) -> tuple[dict, Fraction]:
    one, zero = Fraction(1), Fraction(0)
    values = dict.fromkeys(elements, one)
    values[identity(d)] = zero
    return values, one if len(values) > 1 else zero  # the trivial group has only 0


def support_norm(g: Element) -> Fraction:
    """Moved points of a permutation, or the number of set bits of a binary
    word (its word length)."""
    f = g.descriptor.family
    if f in PERMUTATION_FAMILIES:
        return Fraction(moved_points(g))
    if f == "z2inf":
        return Fraction(sum(g.payload))
    raise ValueError(f"support norm undefined for family {f!r}")


def support_norm_table(d: GroupDescriptor, limit: int | None = None) -> NormTable:
    return _whole_group_table(d, limit, _support_values, "support")


def _support_values(d: GroupDescriptor, elements: list[Element]) -> tuple[dict, Fraction]:
    # one shared Fraction per count of moved points; raises off sn/an
    moved, counts = payload_value_fn(d, support_norm), [Fraction(k) for k in range(d.n + 1)]
    values = {g: counts[moved(g.payload)] for g in elements}
    return values, max(values.values())


def _whole_group_table(d: GroupDescriptor, limit: int | None, build: Callable,
                       name: str) -> NormTable:
    """The table ``name`` of ``build(d, elements)`` (values and diameter) over
    all of ``d``: kept after the guard on ``limit``, copied per call."""
    _checked_order(d, limit)
    values, diameter = kept(d, build, lambda: build(d, enumerate_elements(d, limit)))
    return NormTable(d, dict(values), NormTableMeta(name=name, diameter=diameter))


# ---------------------------------------------------------------------------
# generator filtration norm on abelian models


def generator_filtration_norm(g: Element, generators: Iterable[Element]) -> int:
    """Smallest k with ``g`` in the span of the first k generators.

    Unbounded as a norm when the family's generator list is infinite.
    """
    gens = list(generators)
    if g.is_identity():
        return 0
    d = g.descriptor
    if not gd.is_abelian(d):
        raise ValueError("filtration norm is defined on abelian models only")
    for k in range(1, len(gens) + 1):
        if _in_abelian_span(g, gens[:k]):
            return k
    raise ValueError("element lies outside the span of the generator list")


def _in_abelian_span(g: Element, gens: list[Element]) -> bool:
    d = g.descriptor
    if d.family == "z2inf":
        # GF(2) linear basis over int masks, keyed by leading bit
        pivots: dict[int, int] = {}
        for x in gens:
            b = _bit_mask(x)
            while b:
                h = b.bit_length() - 1
                if h in pivots:
                    b ^= pivots[h]
                else:
                    pivots[h] = b
                    break
        t = _bit_mask(g)
        while t:
            h = t.bit_length() - 1
            if h not in pivots:
                return False
            t ^= pivots[h]
        return True
    if _is_free_abelian(d):
        return _lattice_contains([_exponent_vector(x) for x in gens],
                                 _exponent_vector(g))
    if gd.finite(d):
        return g in subgroup_closure(gens)
    raise ValueError(f"span membership is undecidable for {d}")


def _bit_mask(g: Element) -> int:
    return sum(b << i for i, b in enumerate(g.payload))


def _is_free_abelian(d: GroupDescriptor) -> bool:
    if d.family == "free":
        return d.n == 1
    return d.family == "product" and all(_is_free_abelian(p) for p in d.parts)


def _exponent_vector(g: Element) -> tuple[int, ...]:
    d = g.descriptor
    if d.family == "free":
        return (sum(1 if x > 0 else -1 for x in g.payload),)
    out: list[int] = []
    for pd, c in zip(d.parts, g.payload):
        out.extend(_exponent_vector(Element(pd, c)))
    return tuple(out)


def _lattice_contains(rows: list[tuple[int, ...]], target: tuple[int, ...]) -> bool:
    """Integer row-span membership via gcd echelon reduction."""
    work = [list(r) for r in rows if any(r)]
    t = list(target)
    cols = len(t)
    r = 0
    echelon: list[list[int]] = []
    for c in range(cols):
        while True:
            nz = [i for i in range(r, len(work)) if work[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(work[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                q = work[i][c] // work[i0][c]
                if q:
                    work[i] = [x - q * y for x, y in zip(work[i], work[i0])]
        nz = [i for i in range(r, len(work)) if work[i][c] != 0]
        if not nz:
            continue
        work[r], work[nz[0]] = work[nz[0]], work[r]
        echelon.append(work[r])
        r += 1
    for row in echelon:
        c = next(i for i, v in enumerate(row) if v != 0)
        if t[c] % row[c] != 0:
            return False
        q = t[c] // row[c]
        t = [x - q * y for x, y in zip(t, row)]
    return not any(t)


# ---------------------------------------------------------------------------
# quasi-norms


@dataclass
class QuasiNormSpec:
    """A quasi-subadditive, quasi-conjugation-invariant function with its
    declared constants.  ``table`` for finite groups, ``fn`` for windowed
    verification on infinite families."""

    descriptor: GroupDescriptor
    c_add: Fraction
    c_conj: Fraction
    table: dict[Element, Fraction] | None = None
    fn: Callable[[Element], Fraction] | None = None
    name: str = "q"
    notes: dict = field(default_factory=dict)

    def value(self, g: Element) -> Fraction:
        if self.table is not None:
            return self.table[g]
        return Fraction(self.fn(g))


@dataclass
class QuasiNormReport:
    passed: bool
    max_subadd_slack: Fraction
    max_conj_gap: Fraction           # sup |q(b^-1 a b) - q(a)|, checked
    max_conj_gap_alt: Fraction       # sup |q(b^-1 a b) - q(b)|, reported only
    violations: list[tuple[str, tuple[Element, ...]]]
    pairs_checked: int


def verify_quasinorm(q: QuasiNormSpec, pairs: Iterable[tuple[Element, Element]],
                     max_violations: int = 25) -> QuasiNormReport:
    """Check quasi-subadditivity and quasi-conjugation-invariance exactly on
    the supplied pairs.

    The conjugation axiom is checked in the form ``|q(b^-1 a b) - q(a)|``;
    the variant comparing against ``q(b)`` is measured and reported but not
    graded, since only the first form is what the conversion construction
    needs.
    """
    slack_add = ZERO
    gap = ZERO
    gap_alt = ZERO
    violations: list[tuple[str, tuple[Element, ...]]] = []
    count = 0
    for a, b in pairs:
        count += 1
        qa, qb = q.value(a), q.value(b)
        s = q.value(compose(a, b)) - qa - qb
        slack_add = max(slack_add, s)
        if s > q.c_add and len(violations) < max_violations:
            violations.append(("subadditivity", (a, b)))
        conj = conjugate_of(a, invert(b))
        qc = q.value(conj)
        g = abs(qc - qa)
        gap = max(gap, g)
        if g > q.c_conj and len(violations) < max_violations:
            violations.append(("conjugation", (a, b)))
        gap_alt = max(gap_alt, abs(qc - qb))
    return QuasiNormReport(not violations, slack_add, gap, gap_alt,
                           violations, count)


def quasinorm_to_norm(q: QuasiNormSpec, d: GroupDescriptor,
                      limit: int | None = None) -> NormTable:
    """Convert a quasi-norm into a genuine norm on a finite group:
    symmetrize with the inverse, replace by the maximum over the conjugacy
    class, then add ``c_add + c_conj + 1`` to every non-identity value.  A
    quasi-norm on another group is refused."""
    refuse_foreign_table(d, q)
    G = group_kernel(d, limit)
    elems = G.elements
    if q.table is not None:
        covered = sum(map(q.table.__contains__, elems))
        if covered != G.n:
            raise ValueError(f"the quasi-norm table covers {covered} elements, "
                             f"not all {G.n} of {d}")
    sym, den = scaled(max(q.value(a), q.value(elems[G.inv[i]]))
                      for i, a in enumerate(elems))
    label, members = G.classes()
    conj_sup = {r: max(map(sym.__getitem__, cls)) for r, cls in members.items()}
    const = q.c_add + q.c_conj + 1
    values = {g: (ZERO if i == G.one else Fraction(conj_sup[label[i]], den) + const)
              for i, g in enumerate(elems)}
    meta = NormTableMeta(
        name=f"normed[{q.name}]",
        diameter=max(values.values()),
        notes={"added_constant": str(const)},
    )
    return NormTable(d, values, meta)


def pullback_qnorm(q: QuasiNormSpec, epi: Callable[[Element], Element],
                   domain: GroupDescriptor,
                   spot_samples: Iterable[tuple[Element, Element]] = ()) -> QuasiNormSpec:
    """Pull a quasi-norm back along a homomorphism onto the target group.

    The homomorphism property is spot-verified on the supplied sample pairs.
    """
    for a, b in spot_samples:
        if epi(compose(a, b)) != compose(epi(a), epi(b)):
            raise ValueError("map is not a homomorphism on the sample pairs")
    return QuasiNormSpec(domain, q.c_add, q.c_conj,
                         fn=lambda g: q.value(epi(g)),
                         name=f"pullback[{q.name}]")


def coset_extension_qnorm(d: GroupDescriptor,
                          reps: list[Element] | None = None,
                          limit: int | None = None) -> QuasiNormSpec:
    """Extend commutator length from the derived subgroup across a finite-index
    transversal: ``q(hs) = cl(h)``.

    Representatives default to the least canonical form per coset.  The
    additivity constant is ``1 + C`` with C the worst commutator length of the
    derived part of a representative product; conjugation moves the value by
    at most 1 because it multiplies the derived part by one commutator.
    """
    if d.family == "aff-z":
        def value(g: Element) -> Fraction:
            a, _ = g.payload
            return Fraction(0 if a - (a % 2) == 0 else 1)
        return QuasiNormSpec(
            d, c_add=Fraction(2), c_conj=Fraction(1), fn=value,
            name="coset-extension",
            notes={"C": "1", "transversal": ("1", "z^1", "t", "z^1 t")})
    G = group_kernel(d, limit)
    cl = _commutator_length(G, "cl")
    elems, inv = G.elements, G.inv
    cl_of = [cl.values.get(g) for g in elems]
    derived = [i for i, v in enumerate(cl_of) if v is not None]
    # label each right coset D g of the derived subgroup D by its least element
    coset = [-1] * G.n
    for g in range(G.n):
        if coset[g] < 0:
            for h in derived:
                coset[G.mul(h, g)] = g
    if reps is None:
        rep_idx = [g for g in range(G.n) if coset[g] == g]
        reps = [elems[g] for g in rep_idx]
    else:
        rep_idx = [G.index_of(r) for r in reps]
        if len({coset[r] for r in rep_idx}) != len(reps) or \
                len(reps) * len(derived) != G.n:
            raise ValueError("representative list is not a transversal")
    rep_of = {coset[r]: r for r in rep_idx}

    def derived_part(g: int) -> Fraction:
        return cl_of[G.mul(g, inv[rep_of[coset[g]]])]

    table = {elems[g]: derived_part(g) for g in range(G.n)}
    c_big = max(derived_part(G.mul(s1, s2)) for s1 in rep_idx for s2 in rep_idx)
    return QuasiNormSpec(
        d, c_add=1 + c_big, c_conj=Fraction(1), table=table,
        name="coset-extension",
        notes={"C": str(c_big),
               "transversal": tuple(to_literal(r) for r in reps)})


# ---------------------------------------------------------------------------
# stabilization and domination


@dataclass
class StabilizationEstimate:
    element: Element
    upper: Fraction
    exact_zero: bool
    n_max: int


def stabilization_upper(norm: NormLike, f: Element, n_max: int) -> StabilizationEstimate:
    """Certified upper bound for the stabilized norm ``lim v(f^n)/n``.

    The sequence ``v(f^n)`` is subadditive, so the limit equals the infimum
    and any prefix minimum of ``v(f^n)/n`` is a true upper bound; it hits 0
    exactly when a power of ``f`` is the identity within the horizon.  An
    empty horizon bounds nothing, so ``n_max < 1`` is refused, and so is a
    table of a group other than that of ``f`` or a table that misses a
    power of ``f`` within the horizon."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    refuse_foreign_table(f.descriptor, norm)
    value = norm_value_fn(norm)
    table = norm.values if isinstance(norm, NormTable) else None
    best: Fraction | None = None
    cur = f
    for n in range(1, n_max + 1):
        if cur.is_identity():
            return StabilizationEstimate(f, ZERO, True, n_max)
        if table is not None and cur not in table:
            raise ValueError(f"f^{n} = {to_literal(cur)} is outside the domain "
                             f"of the norm table ({len(table)} elements)")
        v = Fraction(value(cur)) / n
        if best is None or v < best:
            best = v
        cur = compose(cur, f)
    return StabilizationEstimate(f, best, False, n_max)


@dataclass
class DominationReport:
    norm_name: str
    lam: Fraction
    witness_checked: int


def check_extremal_domination(q: NormTable, K: Iterable[Element]) -> DominationReport:
    """Verify the extremal property of conjugation-generated norms: any norm
    bounded on K is dominated by ``lambda * q_K`` with lambda its maximum on
    the conjugacy closure of K."""
    G, _, closure = _cgen(q.descriptor, K, None)
    base, _ = _qk_values(G, closure)
    lam = max(q.values[G.elements[c]] for c in closure)
    checked = 0
    for g, v in q.values.items():
        if v > lam * base[g]:
            raise AssertionError(
                f"domination failed at {to_literal(g)}: {v} > {lam} * {base[g]}")
        checked += 1
    return DominationReport(q.meta.name, lam, checked)
