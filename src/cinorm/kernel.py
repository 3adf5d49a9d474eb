"""Indexed finite-group kernel: the O(N^2) verifiers run on integer indices.

A :class:`FiniteGroup` numbers the elements of a finite group (or of a subset
of one) in canonical ``sort_key`` order, so index order is payload order and
every least witness found by an index scan is the least element.  It holds a
payload -> index dict, an inverse array and the rows of the Cayley table,
``row(i)[j]`` being the index of ``elements[i] * elements[j]`` (the indexing
of Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, 2005,
ch. 4).

Rows are built on first use and kept only for orders up to
:data:`TABLE_BOUND`, so the table costs at most 16 MiB; above it every row is
recomputed from payload products and memory stays O(N).  On a subset, a
product or inverse that leaves the subset is -1.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from typing import Iterable

from . import descriptors as gd
from .descriptors import GroupDescriptor
from .elements import (
    Element,
    _compose_payload,
    _identity_payload,
    _invert_payload,
    sort_key,
)
from .enumeration import _checked_order, enumerate_elements
from .errors import DescriptorMismatchError

#: Largest order whose Cayley-table rows are kept: 2048^2 four-byte indices.
TABLE_BOUND = 2048
#: Whole-group kernels (of order at most TABLE_BOUND) kept per process.
_CACHE_SIZE = 16


class FiniteGroup:
    """Elements of one group in ``sort_key`` order, addressed by index."""

    def __init__(self, d: GroupDescriptor, elements: list[Element], full: bool):
        self.descriptor = d
        self.elements = elements
        self.payloads = [e.payload for e in elements]
        self.index = {p: i for i, p in enumerate(self.payloads)}
        self.n = len(elements)
        self.full = full
        self._mul = partial(_compose_payload, d)
        get = self.index.get
        self.inv = array("i", [get(_invert_payload(d, p), -1) for p in self.payloads])
        self.one = get(_identity_payload(d), -1)
        self._rows: list[array | None] | None = \
            [None] * self.n if self.n <= TABLE_BOUND else None

    def index_of(self, e: Element) -> int:
        if e.descriptor != self.descriptor:
            raise DescriptorMismatchError(f"{e} is not an element of {self.descriptor}")
        return self.index[e.payload]

    def products(self, i: int, js: Iterable[int]) -> list[int]:
        """Indices of ``elements[i] * elements[j]`` for each j of ``js``; the
        row is read when built, never built."""
        r = self._rows[i] if self._rows is not None else None
        if r is not None:
            return [r[j] for j in js]
        a, mul, get, p = self.payloads[i], self._mul, self.index.get, self.payloads
        return [get(mul(a, p[j]), -1) for j in js]

    def row(self, i: int) -> array:
        """Indices of ``elements[i] * elements[j]`` for every j."""
        rows = self._rows
        if rows is not None and rows[i] is not None:
            return rows[i]
        r = array("i", self.products(i, range(self.n)))
        if rows is not None:
            rows[i] = r  # threads racing here store equal rows, so no lock
        return r

    def mul(self, i: int, j: int) -> int:
        """Index of one product; a row is read when built, never built."""
        rows = self._rows
        if rows is not None and rows[i] is not None:
            return rows[i][j]
        return self.index.get(self._mul(self.payloads[i], self.payloads[j]), -1)

    def conj(self, b: int, a: int) -> int:
        """Index of ``b a b^-1``; ``b`` must have its inverse in the set."""
        ab = self.mul(b, a)
        return -1 if ab < 0 else self.mul(ab, self.inv[b])

    def conjugates(self, seeds: Iterable[int]) -> set[int]:
        """Indices of ``b s b^-1`` for every b and every seed s."""
        seeds, conj = list(seeds), self.conj
        return {conj(b, s) for b in range(self.n) for s in seeds}

    def commutators(self, x: int) -> list[int]:
        """Indices of ``[x, y] = x y x^-1 y^-1`` for every y, in a closed set."""
        xy, xiyi, inv, mul = self.row(x), self.row(self.inv[x]), self.inv, self.mul
        return [mul(xy[y], xiyi[inv[y]]) for y in range(self.n)]

    def require_closed(self) -> None:
        """Raise unless the set is closed under products and inverses."""
        if self.full:
            return
        if -1 in self.inv or any(-1 in self.row(i) for i in range(self.n)):
            raise ValueError(f"the {self.n} elements are not a subgroup of {self.descriptor}")


@lru_cache(maxsize=_CACHE_SIZE)
def _cached_group(d: GroupDescriptor) -> FiniteGroup:
    return FiniteGroup(d, enumerate_elements(d, TABLE_BOUND), full=True)


def group_kernel(d: GroupDescriptor, limit: int | None = None) -> FiniteGroup:
    """The kernel of a whole finite group, after the enumeration guard.
    Groups with a kept table are cached; larger ones are rebuilt per call,
    so no more than O(N) memory outlives a call."""
    size = _checked_order(d, limit)
    if size <= TABLE_BOUND:
        return _cached_group(d)
    return FiniteGroup(d, enumerate_elements(d, size), full=True)


def domain_kernel(d: GroupDescriptor, elements: Iterable[Element]) -> FiniteGroup:
    """The kernel of the given distinct elements of ``d``: the cached group
    kernel when they are a whole group with a kept table, else a kernel
    built from them."""
    elems = list(elements)
    full = len(elems) == gd.order(d)
    if full and len(elems) <= TABLE_BOUND:
        return _cached_group(d)
    return FiniteGroup(d, sorted(elems, key=sort_key), full)


def scaled(values: Iterable) -> tuple[list[int], int]:
    """Exact rationals as integers over their common denominator, so inner
    loops compare and add ints instead of fractions."""
    fracs = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in fracs))
    return [v.numerator * (den // v.denominator) for v in fracs], den


def conjugacy_indices(G: FiniteGroup, base: Iterable[Element]) -> list[int]:
    """Sorted indices of the conjugates of ``base`` and of its inverses."""
    seeds = {G.index_of(b) for b in base}
    return sorted(G.conjugates(seeds | {G.inv[s] for s in seeds}))


def commutator_indices(G: FiniteGroup) -> list[int]:
    """Sorted indices of the simple commutators ``x y x^-1 y^-1``."""
    G.require_closed()
    out: set[int] = set()
    for x in range(G.n):
        out.update(G.commutators(x))
    return sorted(out)
