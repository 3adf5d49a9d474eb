"""Exhaustive enumeration, closures and derived data for finite families.

Enumeration order is lexicographic on canonical payloads, so every listing,
witness and coset representative in the library is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations, product as iter_product
from typing import Iterable

from . import descriptors as gd
from .descriptors import GroupDescriptor
from .elements import (
    Element,
    _compose_payload,
    _identity_payload,
    _perm_parity,
    bar_element,
    commutator_of,
    elementary,
    identity,
    perm_from_cycles,
    product_element,
    sort_key,
    wreath_element,
)
from .errors import DescriptorMismatchError, GuardExceededError, InfiniteGroupError

#: Default ceiling on exhaustive element counts.
ENUMERATION_GUARD = 10_000_000


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
            raise ValueError("subgroup generators must share one descriptor")

    @property
    def descriptor(self) -> GroupDescriptor:
        return self.generators[0].descriptor


def _checked_order(d: GroupDescriptor, limit: int | None) -> int:
    size = gd.order(d)
    if size is None:
        raise InfiniteGroupError(f"{d} is infinite")
    guard = ENUMERATION_GUARD if limit is None else limit
    if size > guard:
        raise GuardExceededError(f"|{d}| = {size} exceeds the guard {guard}")
    return size


def enumerate_elements(d: GroupDescriptor, limit: int | None = None) -> list[Element]:
    """All elements of a finite group, each exactly once, in payload order."""
    size = _checked_order(d, limit)
    f = d.family
    if f == "sn":
        elems = [Element(d, p) for p in permutations(range(d.n))]
    elif f == "an":
        elems = [Element(d, p) for p in permutations(range(d.n))
                 if not _perm_parity(p)]
    elif f == "slp":
        elems = sorted(subgroup_closure(group_generators(d), limit=size), key=sort_key)
    elif f == "wreath-zn":
        base_elems = enumerate_elements(d.base, limit)
        elems = []
        for shift in range(d.n):
            for combo in iter_product(base_elems, repeat=d.n):
                lamps = tuple((i, g) for i, g in enumerate(combo)
                              if not g.is_identity())
                elems.append(Element(d, (lamps, shift)))
        elems.sort(key=sort_key)
    elif f == "bar":
        base_elems = enumerate_elements(d.base, limit)
        elems = [Element(d, (g1, g2, e))
                 for e in (0, 1) for g1 in base_elems for g2 in base_elems]
        elems.sort(key=sort_key)
    elif f == "product":
        part_lists = [enumerate_elements(p, limit) for p in d.parts]
        elems = [Element(d, combo) for combo in iter_product(*part_lists)]
        elems.sort(key=sort_key)
    else:
        raise InfiniteGroupError(f"{d} cannot be enumerated")
    assert len(elems) == size
    return elems


def group_generators(d: GroupDescriptor) -> tuple[Element, ...]:
    """A small generating set of a finite group, in a fixed order."""
    f = d.family
    if f == "sn":
        gens = [perm_from_cycles(d, c, one_based=False)
                for c in ((0, 1), range(d.n)) if d.n >= 2]
    elif f == "an":
        gens = [perm_from_cycles(d, (0, 1, i), one_based=False) for i in range(2, d.n)]
    elif f == "slp":
        gens = [elementary(d, i, j, s) for i in range(1, d.n + 1)
                for j in range(1, d.n + 1) if i != j for s in (1, d.p - 1)]
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
    elems, used, mul = {_identity_payload(d)}, [], partial(_compose_payload, d)
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


def conjugacy_closure(base: Iterable[Element], d: GroupDescriptor,
                      limit: int | None = None) -> set[Element]:
    """All conjugates of ``base`` and its inverses; closed under conjugation."""
    from .kernel import conjugacy_indices, group_kernel  # built on enumeration
    G = group_kernel(d, limit)
    return {G.elements[i] for i in conjugacy_indices(G, base)}


def commutator_pool(elements: Iterable[Element]) -> set[Element]:
    """The set of simple commutators ``[a, b]`` over all pairs of elements
    of a finite subgroup."""
    from .kernel import commutator_indices, domain_kernel
    elems = list(elements)
    if not elems:
        return set()
    G = domain_kernel(elems[0].descriptor, elems)
    return {G.elements[i] for i in commutator_indices(G)}


def derived_subgroup(d: GroupDescriptor, limit: int | None = None) -> set[Element]:
    """G' as the normal closure of the commutators of :func:`group_generators`
    (true of any generating set), without the N^2 commutator pool."""
    gens = group_generators(d)
    return subgroup_closure(conjugacy_closure(
        [commutator_of(s, t) for s in gens for t in gens], d, limit))


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
    size = gd.order(d)
    if size is None:
        raise InfiniteGroupError(f"no analytic abelianization for {d}")
    return size // len(derived_subgroup(d, limit))


def in_class_g(d: GroupDescriptor) -> bool:
    """Whether the abelian quotient of the group is finite."""
    return abelianization_order(d) is not None
