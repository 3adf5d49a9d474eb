"""Indexed finite-group kernel: the O(N^2) verifiers run on integer indices.

A :class:`FiniteGroup` numbers the elements of a finite group (or of a subset
of one) in canonical ``sort_key`` order, so index order is payload order and
every least witness found by an index scan is the least element.  It holds a
payload -> index dict, an inverse array and the Cayley table, ``row(i)[j]``
being the index of ``elements[i] * elements[j]`` (the indexing of Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 4).

A kernel of order N up to :data:`TABLE_BOUND` (a table of at most 16 MiB)
builds its whole table at the first product asked of it.  A whole group
makes N |gens| payload products: the left multiplications ``lambda_x`` by
the generators x of :func:`~cinorm.enumeration.group_generators`, then along
a breadth-first Schreier tree g_i = x_i g_parent(i) from the identity,
``row(i)`` is ``lambda_{x_i}`` gathered over ``row(parent(i))``.  A subset
kernel has no generators and makes N^2 payload products: its callers read
every row anyway, but a failing axiom check stops after a few.  Larger
kernels make every product from payloads and keep O(N) memory.  On a
subset, a product or inverse that leaves the subset is -1.

The conjugacy classes are labelled once per kernel, each index by the least
index of its class: orbits under conjugation by the generators on a whole
group (2N |gens| table reads, or payload conjugations above the bound), by
every member on a closed subset.  Conjugacy closures are unions of classes,
and the commutator set is the union of the classes of r c, over each class
representative r and each c in the class of r^-1: N products, not N^2.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable

from . import descriptors as gd
from .descriptors import GroupDescriptor
from .elements import (
    Element,
    _payload_ops,
    sort_key,
)
from .enumeration import _checked_order, enumerate_elements, group_generators, kept
from .errors import DescriptorMismatchError

#: Largest order whose Cayley table is built (2048^2 four-byte indices) and
#: whose whole-group kernel is :func:`~cinorm.enumeration.kept`.
TABLE_BOUND = 2048


class FiniteGroup:
    """Elements of one group in ``sort_key`` order, addressed by index."""

    def __init__(self, d: GroupDescriptor, elements: list[Element], full: bool):
        self.descriptor = d
        self.elements = elements
        self.payloads = [e.payload for e in elements]
        self.index = {p: i for i, p in enumerate(self.payloads)}
        self.n = len(elements)
        self.full = full
        self._mul, inv, one, self._conj = _payload_ops(d)
        get = self.index.get
        self.inv = array("i", [get(x, -1) for x in map(inv, self.payloads)])
        self.one = get(one, -1)
        self._rows: list[array] | None = None  # the whole table, once built
        self._classes: tuple[array, dict[int, list[int]]] | None = None

    def index_of(self, e: Element) -> int:
        if e.descriptor != self.descriptor:
            raise DescriptorMismatchError(f"{e} is not an element of {self.descriptor}")
        return self.index[e.payload]

    def _table(self) -> list[array] | None:
        # built at first use in one assignment: racers see all of it or none;
        # no comprehension here, as its closure cells would cost every call
        if self._rows is None and self.n <= TABLE_BOUND:
            self._rows = self._build()
        return self._rows

    def _build(self) -> list[array]:
        """The Cayley table: N^2 payload products on a subset, N |gens| on a
        group, along a Schreier tree g_i = x g_p: ``row(i)[k] = lambda_x[row(p)[k]]``."""
        index, mul, p, n = self.index, self._mul, self.payloads, self.n
        if not self.full:
            return [array("i", [index.get(mul(a, b), -1) for b in p]) for a in p]
        lams = [[index[mul(x.payload, q)] for q in p]
                for x in group_generators(self.descriptor)]
        rows: list[array | None] = [None] * n
        rows[self.one] = array("i", range(n))
        frontier = [self.one]
        while frontier:
            nxt = []
            for i in frontier:
                for lam in lams:
                    j = lam[i]
                    if rows[j] is None:
                        rows[j] = array("i", itemgetter(*rows[i])(lam))
                        nxt.append(j)
            frontier = nxt
        if None in rows:  # not an assert: the check must survive python -O
            raise AssertionError(f"the generators of {self.descriptor} reach "
                                 f"{n - rows.count(None)} of {n} elements")
        return rows

    def products(self, i: int, js: Iterable[int]) -> list[int]:
        """Indices of ``elements[i] * elements[j]`` for each j of ``js``, read
        from the table, or payload products above :data:`TABLE_BOUND`."""
        rows = self._table()
        if rows is not None:
            r = rows[i]
            return [r[j] for j in js]
        a, mul, get, p = self.payloads[i], self._mul, self.index.get, self.payloads
        return [get(mul(a, p[j]), -1) for j in js]

    def row(self, i: int) -> array:
        """Indices of ``elements[i] * elements[j]`` for every j."""
        rows = self._table()
        return rows[i] if rows is not None else array("i", self.products(i, range(self.n)))

    def mul(self, i: int, j: int) -> int:
        """Index of one product, read from the table if there is one."""
        rows = self._table()
        return rows[i][j] if rows is not None else \
            self.index.get(self._mul(self.payloads[i], self.payloads[j]), -1)

    def conj(self, b: int, a: int) -> int:
        """Index of ``b a b^-1``; ``b`` must have its inverse in the set."""
        ab = self.mul(b, a)
        return -1 if ab < 0 else self.mul(ab, self.inv[b])

    def classes(self) -> tuple[array, dict[int, list[int]]]:
        """The conjugacy classes, once per kernel: each index's label, the
        least index of its class, and each class's members in index order,
        keyed by label.  A subset must be closed; see :meth:`_label_classes`."""
        if self._classes is None:  # one assignment, as for the table
            self._classes = self._label_classes()
        return self._classes

    def _label_classes(self) -> tuple[array, dict[int, list[int]]]:
        """Orbits under conjugation: by ``group_generators(d)`` on a whole
        group, 2N |gens| table reads or N |gens| payload conjugations above
        :data:`TABLE_BOUND`; by every member on a subset."""
        n = self.n
        label = array("i", [-1]) * n
        members: dict[int, list[int]] = {}
        if not self.full:
            self.require_closed()
            conj = self.conj
            for i in range(n):
                if label[i] < 0:
                    members[i] = cls = sorted({conj(b, i) for b in range(n)})
                    for c in cls:
                        label[c] = i
            return label, members
        moves = [self._conjugation_by(self.index[x.payload])
                 for x in group_generators(self.descriptor)]
        for i in range(n):
            if label[i] < 0:
                label[i] = i
                cls = [i]
                for a in cls:  # grows as the orbit is found
                    for move in moves:
                        b = move[a]
                        if label[b] < 0:
                            label[b] = i
                            cls.append(b)
                cls.sort()
                members[i] = cls
        return label, members

    def _conjugation_by(self, x: int) -> list[int]:
        """Indices of ``x a x^-1`` for every a: 2N table reads, or N payload
        conjugations above :data:`TABLE_BOUND`."""
        rows, xi = self._table(), self.inv[x]
        if rows is not None:
            return [rows[xa][xi] for xa in rows[x]]
        s, s_inv, conj, index = self.payloads[x], self.payloads[xi], self._conj, self.index
        return [index[conj(s, a, s_inv)] for a in self.payloads]

    def conjugates(self, seeds: Iterable[int]) -> set[int]:
        """Indices of ``b s b^-1`` for every b and every seed s, in a closed
        set: the union of the seeds' classes."""
        label, members = self.classes()
        return {c for r in {label[s] for s in seeds} for c in members[r]}

    def commutators(self, x: int) -> list[int]:
        """Indices of ``[x, y] = (x y)(x^-1 y^-1)`` for every y, in a closed set."""
        xy, xiyi = self.row(x), self.row(self.inv[x])
        pairs = zip(xy, map(xiyi.__getitem__, self.inv))
        rows = self._table()
        if rows is not None:
            return [rows[a][b] for a, b in pairs]
        return [self.mul(a, b) for a, b in pairs]

    def require_closed(self) -> None:
        """Raise unless the set has the identity and is closed under * and ^-1."""
        if self.full:
            return
        if self.one < 0 or -1 in self.inv or any(-1 in self.row(i) for i in range(self.n)):
            raise ValueError(f"the {self.n} elements are not a subgroup of {self.descriptor}")


def group_kernel(d: GroupDescriptor, limit: int | None = None) -> FiniteGroup:
    """The kernel of a whole finite group, after the enumeration guard:
    :func:`~cinorm.enumeration.kept` up to :data:`TABLE_BOUND`, else rebuilt
    per call, so no more than the kept element list outlives a call."""
    size = _checked_order(d, limit)

    def make() -> FiniteGroup:
        return FiniteGroup(d, enumerate_elements(d, size), full=True)
    return kept(d, "kernel", make) if size <= TABLE_BOUND else make()


def domain_kernel(d: GroupDescriptor, elements: Iterable[Element]) -> FiniteGroup:
    """The kernel of the given elements of ``d``, repeats dropped: the kept
    :func:`group_kernel` of a whole group of order at most :data:`TABLE_BOUND`,
    else a kernel built from them.  An element of another group is refused."""
    elems = list(dict.fromkeys(elements))
    for e in elems:
        if e.descriptor is not d:
            raise DescriptorMismatchError(f"{e} is not an element of {d}")
    full = len(elems) == gd.order(d)
    if full and len(elems) <= TABLE_BOUND:
        return group_kernel(d)
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


def conjugacy_closure(base: Iterable[Element], d: GroupDescriptor,
                      limit: int | None = None) -> set[Element]:
    """All conjugates of ``base`` and its inverses; closed under conjugation."""
    G = group_kernel(d, limit)
    return {G.elements[i] for i in conjugacy_indices(G, base)}


def commutator_indices(G: FiniteGroup) -> list[int]:
    """Sorted indices of the simple commutators ``x y x^-1 y^-1``: the classes
    of ``r c`` over each class representative r and each c in the class of
    r^-1, as [r, y] = r (y r^-1 y^-1) and [g r g^-1, y] = g [r, g^-1 y g] g^-1.
    That is N products in all, not N^2."""
    G.require_closed()
    label, members = G.classes()
    hit: set[int] = set()
    for r in members:
        hit.update(map(label.__getitem__, G.products(r, members[label[G.inv[r]]])))
    return sorted(c for r in hit for c in members[r])
