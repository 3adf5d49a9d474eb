"""Exhaustive enumeration, closures and derived data for finite families.

Enumeration order is lexicographic on canonical payloads, so every listing,
witness and coset representative in the library is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product as iter_product
from typing import Any, Callable, Hashable, Iterable

from . import descriptors as gd
from .descriptors import GroupDescriptor
from .elements import (
    Element,
    _payload_ops,
    _perm_parity,
    bar_element,
    compose,
    elementary,
    identity,
    mod_matrix,
    perm_from_cycles,
    product_element,
    sort_key,
    wreath_element,
)
from .errors import DescriptorMismatchError, GuardExceededError, InfiniteGroupError

#: Default ceiling on exhaustive element counts.
ENUMERATION_GUARD = 10_000_000
#: Groups kept per process by :func:`kept`, each evicted with all its state.
_CACHE_SIZE = 16
#: Largest order whose state is kept, 8! = 40 320: a list of S8's
#: permutations costs about 6.5 MB (``kernel.TABLE_BOUND`` caps kept tables).
_KEPT_ORDER = 40_320


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup given by generators inside one ambient group."""

    generators: tuple[Element, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("subgroup needs at least one generator")
        d = self.generators[0].descriptor
        if any(g.descriptor != d for g in self.generators):
            raise DescriptorMismatchError("subgroup generators must share one descriptor")

    @property
    def descriptor(self) -> GroupDescriptor:
        return self.generators[0].descriptor


def subgroups_commute(a: SubgroupSpec, b: SubgroupSpec) -> bool:
    """Elementwise commutation of two subgroups, decided on generator pairs."""
    if a.descriptor != b.descriptor:
        raise DescriptorMismatchError("subgroups live in different ambient groups")
    return all(compose(x, y) == compose(y, x)
               for x in a.generators for y in b.generators)


def _checked_order(d: GroupDescriptor, limit: int | None) -> int:
    """|d|, or a refusal above the guard, compared by
    :func:`~cinorm.descriptors._order_within` and written by
    :func:`~cinorm.descriptors._order_text`."""
    guard = ENUMERATION_GUARD if limit is None else limit
    size = gd._order_within(d, guard)
    if size is not None:
        return size
    if not gd.finite(d):
        raise InfiniteGroupError(f"{d} is infinite")
    raise GuardExceededError(f"|{d}| {gd._order_text(d)} exceeds the guard {guard}")


def kept(d: GroupDescriptor, key: Hashable, make: Callable[[], Any]) -> Any:
    """``make()``, built once per ``key`` for a group of order at most
    :data:`_KEPT_ORDER` and evicted with all else kept for it, or afresh for
    any other group.  A ``make`` that raises keeps nothing."""
    if gd._order_within(d, _KEPT_ORDER) is None:
        return make()
    store = _store(d)
    return store[key] if key in store else store.setdefault(key, make())


@lru_cache(maxsize=_CACHE_SIZE)
def _store(d: GroupDescriptor) -> dict:
    return {}


def enumerate_elements(d: GroupDescriptor, limit: int | None = None) -> list[Element]:
    """All elements of a finite group, each exactly once, in payload order:
    each call a new list, enumerated once per process and :func:`kept`."""
    size = _checked_order(d, limit)
    return list(kept(d, "elements", lambda: tuple(_enumerate(d, size, size))))


def _enumerate(d: GroupDescriptor, size: int, limit: int | None) -> list[Element]:
    f = d.family
    if f == "sn":
        elems = [Element(d, p) for p in permutations(range(d.n))]
    elif f == "an":
        elems = [Element(d, p) for p in permutations(range(d.n))
                 if not _perm_parity(p)]
    elif f == "slp":
        elems = sorted(subgroup_closure(group_generators(d), limit=size), key=sort_key)
    elif f in ("wreath-zn", "bar", "product"):
        lists = [[e.payload for e in enumerate_elements(p, limit)]
                 for p in (d.parts if f == "product" else (d.base,))]
        if f == "product":
            payloads = iter_product(*lists)
        elif f == "bar":
            payloads = iter_product(lists[0], lists[0], (0, 1))
        else:
            one = _payload_ops(d.base)[2]
            payloads = ((tuple((i, g) for i, g in enumerate(combo) if g != one), shift)
                        for shift in range(d.n)
                        for combo in iter_product(lists[0], repeat=d.n))
        elems = [Element(d, p) for p in sorted(payloads)]
    else:
        raise InfiniteGroupError(f"{d} cannot be enumerated")
    if len(elems) != size:
        raise AssertionError(f"enumerated {len(elems)} elements of {d}, not {size}")
    return elems


def group_generators(d: GroupDescriptor) -> tuple[Element, ...]:
    """A small generating set of a finite group, in a fixed order.

    ``an`` (n >= 3) takes (1 2 3) with the n-cycle (1 2 ... n) for n odd, or
    the (n-1)-cycle (2 3 ... n) for n even; ``slp`` takes e_12(1) with C, the
    permutation matrix of e_i -> e_(i-1) (indices mod n) whose (1, n) entry
    carries the cycle's sign (-1)^(n-1), so that det C = 1.  Both generate:

    * *A_n.*  For n odd, conjugating (1 2 3) by the powers of (1 2 ... n)
      gives every (i i+1 i+2), and these generate A_n.  For n even,
      conjugating it by the powers of (2 3 ... n) gives every (1 i i+1), and
      (1 i+1 i) (1 2 i) (1 i+1 i)^-1 = (1 2 i+1)^-1 gives by induction every
      (1 2 i), which generate A_n.
    * *SL(n, p).*  For n = 2, C = [[0, -1], [1, 0]] and e_12(1) generate
      SL(2, Z), and reduction mod p maps SL(2, Z) onto SL(2, p).  For
      n >= 3, conjugating e_12(1) by the powers of C gives e_(i,i+1)(+-1)
      for every i < n and e_(n,1)(+-1); the commutators
      [e_ij(a), e_jk(b)] = e_ik(ab), i != k, then give every elementary
      matrix, and the elementary matrices generate SL(n, p).

    No output depends on which generating set is chosen: enumeration is
    sorted; a kernel row is a product, whatever Schreier tree built it;
    class labels are least indices; q_K and cl step sets are conjugacy
    closures, so their BFS order is fixed by the step set alone; scan
    results are least (value, payload) over cosets, by the class lemma of
    :mod:`~cinorm.displacement`; :func:`derived_subgroup` returns a set, and
    :func:`~cinorm.fcommutator.wreath_environment` only checks that copies
    commute."""
    f = d.family
    if f == "sn":
        gens = [perm_from_cycles(d, c, one_based=False)
                for c in ((0, 1), range(d.n)) if d.n >= 2]
    elif f == "an":
        gens = [perm_from_cycles(d, c, one_based=False)
                for c in ((0, 1, 2), range(1 - d.n % 2, d.n)) if d.n >= 3]
    elif f == "slp":
        n = d.n
        gens = [elementary(d, 1, 2), mod_matrix(d, [
            [(-1) ** (n - 1) if (i, j) == (0, n - 1) else int(j == i - 1) for j in range(n)]
            for i in range(n)])]
    elif f in ("wreath-zn", "bar", "product"):
        parts = d.parts or (d.base,)
        ones = [identity(p) for p in parts]
        embedded = [ones[:i] + [g] + ones[i + 1:]
                    for i, p in enumerate(parts) for g in group_generators(p)]
        if f == "wreath-zn":  # lamp generators at 0, and the shift
            gens = [wreath_element(d, {0: g}) for (g,) in embedded]
            gens.append(wreath_element(d, {}, 1))
        elif f == "bar":  # first-coordinate generators, and the swap
            gens = [bar_element(d, g, ones[0]) for (g,) in embedded]
            gens.append(bar_element(d, ones[0], ones[0], 1))
        else:
            gens = [product_element(d, comps) for comps in embedded]
    else:
        raise InfiniteGroupError(f"{d} has no finite generating set")
    gens = [g for g in dict.fromkeys(gens) if not g.is_identity()]
    return tuple(gens) or (identity(d),)


def subgroup_closure(generators: Iterable[Element],
                     limit: int = ENUMERATION_GUARD) -> set[Element]:
    """Subgroup generated by the elements; raises once ``limit`` is passed."""
    gens = list(generators)
    if not gens:
        raise ValueError("closure needs at least one generator")
    d = gens[0].descriptor
    if any(g.descriptor != d for g in gens):
        raise DescriptorMismatchError("closure generators must share one descriptor")
    mul, _, one, _ = _payload_ops(d)
    elems, used = {one}, []
    for g in gens:
        if g.payload not in elems:
            _extend_closure(elems, used, g.payload, mul, limit)
    return {Element(d, p) for p in elems}


def _extend_closure(elems: set, gens: list, g, mul, limit: int) -> None:
    """Add ``g`` to ``gens`` and grow ``elems`` (payloads holding the identity
    and closed under right multiplication by ``gens``) to stay closed: in a
    finite group, the subgroup generated.  Raises once ``limit`` is passed."""
    gens.append(g)
    frontier, step = list(elems), (g,)
    while frontier:
        nxt = []
        for x in frontier:
            for s in step:
                y = mul(x, s)
                if y not in elems:
                    if len(elems) >= limit:
                        raise GuardExceededError(
                            f"subgroup closure exceeded {limit} elements")
                    elems.add(y)
                    nxt.append(y)
        frontier, step = nxt, gens


def closure_of(spec: SubgroupSpec, limit: int = ENUMERATION_GUARD) -> set[Element]:
    return subgroup_closure(spec.generators, limit)


def derived_subgroup(d: GroupDescriptor, limit: int | None = None) -> set[Element]:
    """G' as the normal closure of the commutators of :func:`group_generators`
    (true of any generating set), grown on payloads: each new normal generator
    g queues ``s g s^-1`` for every generator s, so the closure ends normal
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, 2005)."""
    # generators before the guard, so an infinite group still names the part
    # that has no finite generating set
    gens = [g.payload for g in group_generators(d)]
    size = _checked_order(d, limit)
    mul, inv, one, conj = _payload_ops(d)
    steps = [(s, inv(s)) for s in gens]
    elems, used = {one}, []
    queue = [mul(mul(s, t), mul(s_inv, t_inv)) for s, s_inv in steps for t, t_inv in steps]
    while queue:
        g = queue.pop()
        if g not in elems:
            _extend_closure(elems, used, g, mul, size)
            queue.extend(conj(s, g, s_inv) for s, s_inv in steps)
    return {Element(d, p) for p in elems}


def abelianization_order(d: GroupDescriptor, limit: int | None = None) -> int | None:
    """Order of the abelian quotient; ``None`` means infinite.

    Finite families divide the order by that of :func:`derived_subgroup`;
    infinite families carry the analytic answer of their presentation.
    """
    f = d.family
    if f in ("free", "z2inf", "wreath-z"):
        return None
    if f == "aff-z":
        return 4
    if f == "slz":
        return 12 if d.n == 2 else 1
    if f == "product":
        total = 1
        for part in d.parts:
            o = abelianization_order(part, limit)
            if o is None:
                return None
            total *= o
        return total
    if not gd.finite(d):
        raise InfiniteGroupError(f"no analytic abelianization for {d}")
    return _checked_order(d, limit) // len(derived_subgroup(d, limit))


def in_class_g(d: GroupDescriptor) -> bool:
    """Whether the abelian quotient of the group is finite: true of every
    finite group, with nothing enumerated, and of a product exactly when it
    is of each part."""
    if d.family == "product":
        return all(map(in_class_g, d.parts))
    return gd.finite(d) or abelianization_order(d) is not None
