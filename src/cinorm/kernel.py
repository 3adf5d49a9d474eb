"""Indexed finite-group kernel: the O(N^2) verifiers run on integer indices.

A :class:`FiniteGroup` numbers the elements of a finite group (or of a subset
of one) in canonical ``sort_key`` order, so index order is payload order and
every least witness found by an index scan is the least element.  It holds a
payload -> index dict, an inverse array and the Cayley table, ``row(i)[j]``
being the index of ``elements[i] * elements[j]`` (the indexing of Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 4).

A subgroup's kernel has generators (:meth:`FiniteGroup.generators`): those
of :func:`~cinorm.enumeration.group_generators` on a whole group, and on a
subset each element, in index order, outside the subgroup generated by those
before it; on a subset that is not a subgroup they are ``None``.  A subgroup
kernel of order N up to :data:`TABLE_BOUND` (a table of at most 16 MiB)
builds its whole table at the first product asked of it, with N |gens|
payload products: the left multiplications ``lambda_x`` by the generators x,
then along a breadth-first Schreier tree g_i = x_i g_parent(i) from the
identity, ``row(i)`` is ``lambda_{x_i}`` gathered over ``row(parent(i))``.
Larger kernels, and subsets that are not subgroups, make every product from
payloads and keep O(N) memory.  On a subset, a product or inverse that
leaves the subset is -1.

The conjugacy classes of a subgroup are labelled once per kernel, each index
by the least index of its class: orbits under conjugation by the generators
(2N |gens| table reads, or payload conjugations above the bound).  Conjugacy
closures are unions of classes, and the commutator set is the union of the
classes of r c, over each class representative r and each c in the class of
r^-1: N products, not N^2.

Breadth-first search over a union of classes S (a conjugacy closure, or the
commutator set) runs level by level over classes.  Level n+1 is L_n S minus
the earlier levels, and C S, for a class C of representative r, is the union
of the classes of r s over s in S, as g r g^-1 s = g (r g^-1 s g) g^-1.  By
induction from the class {1} every level is a union of classes, so
:meth:`FiniteGroup.level_sizes` finds each level's size with #classes |S|
products.  An elementwise search that scans level n in a fixed order may stop
as soon as it has found that many new elements: every later candidate lies
in level n+1 or an earlier one and is already seen, so the values and the
order of discovery are those of the full scan, and the last level is not
scanned at all.
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
from .enumeration import (
    _checked_order,
    _extend_closure,
    enumerate_elements,
    group_generators,
    kept,
)
from .errors import DescriptorMismatchError, GuardExceededError
from .literals import to_literal

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
        self._gens: tuple[list[int] | None] | None = None  # (generators(),), once found
        self._rows: list[array] | None = None  # the whole table, once built
        self._classes: tuple[array, dict[int, list[int]]] | None = None

    def index_of(self, e: Element) -> int:
        if e.descriptor != self.descriptor:
            raise DescriptorMismatchError(f"{e} is not an element of {self.descriptor}")
        return self.index[e.payload]

    def generators(self) -> list[int] | None:
        """Indices of generators of the set, found once per kernel, or
        ``None`` if it is not a subgroup: ``group_generators(d)`` on a whole
        group; on a subset each element, in index order, outside the
        subgroup generated by those before it."""
        if self._gens is None:
            gens: list[int] | None = None
            if self.full:
                gens = [self.index[x.payload] for x in group_generators(self.descriptor)]
            elif self.one >= 0:
                # the closure holds every member and at most N elements, so
                # it is the set, or it leaves the set and passes N
                elems, used, gens = {self.payloads[self.one]}, [], []
                try:
                    for i, p in enumerate(self.payloads):
                        if p not in elems:
                            _extend_closure(elems, used, p, self._mul, self.n)
                            gens.append(i)
                except GuardExceededError:
                    gens = None
            self._gens = (gens,)  # one assignment, as for the table
        return self._gens[0]

    def _table(self) -> list[array] | None:
        # built at first use in one assignment: racers see all of it or none;
        # no comprehension here, as its closure cells would cost every call
        if self._rows is None and self.n <= TABLE_BOUND and self.generators() is not None:
            self._rows = self._build()
        return self._rows

    def _build(self) -> list[array]:
        """The Cayley table, N |gens| payload products along a Schreier tree
        g_i = x g_p: ``row(i)[k] = lambda_x[row(p)[k]]``."""
        index, mul, p, n = self.index, self._mul, self.payloads, self.n
        lams = [[index[mul(p[x], q)] for q in p] for x in self.generators()]
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
        from the table, or payload products without one."""
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

    def classes(self) -> tuple[array, dict[int, list[int]]]:
        """The conjugacy classes, once per kernel: each index's label, the
        least index of its class, and each class's members in index order,
        keyed by label.  The set must be a subgroup; see :meth:`_label_classes`."""
        if self._classes is None:  # one assignment, as for the table
            self._classes = self._label_classes()
        return self._classes

    def _label_classes(self) -> tuple[array, dict[int, list[int]]]:
        """Orbits under conjugation by :meth:`generators`: 2N |gens| table
        reads, or N |gens| payload conjugations above :data:`TABLE_BOUND`."""
        self.require_closed()
        n = self.n
        label = array("i", [-1]) * n
        members: dict[int, list[int]] = {}
        moves = [self._conjugation_by(x) for x in self.generators()]
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

    def level_sizes(self, steps: list[int]) -> list[int]:
        """Sizes of the levels of the breadth-first search from the identity
        by right multiplication with ``steps``, level 0 first, over the
        classes: #classes |steps| products, not N |steps|.  ``steps`` must be
        a union of classes, or ``ValueError`` names the first step whose
        class leaves it."""
        label, members = self.classes()
        inside, checked = set(steps), set()
        for s in steps:
            r = label[s]
            if r not in checked:
                checked.add(r)
                if not inside.issuperset(members[r]):
                    raise ValueError(f"the class of {to_literal(self.elements[s])} "
                                     f"leaves the {len(inside)} steps")
        level = {label[self.one]}
        seen, sizes = set(level), [1]
        while True:
            nxt: set[int] = set()
            for r in level:
                nxt.update(map(label.__getitem__, self.products(r, steps)))
            level = nxt - seen
            if not level:
                return sizes
            seen |= level
            sizes.append(sum(len(members[r]) for r in level))

    def commutators(self, x: int) -> list[int]:
        """Indices of ``[x, y] = (x y)(x^-1 y^-1)`` for every y, in a closed set."""
        xy, xiyi = self.row(x), self.row(self.inv[x])
        pairs = zip(xy, map(xiyi.__getitem__, self.inv))
        rows = self._table()
        if rows is not None:
            return [rows[a][b] for a, b in pairs]
        return [self.mul(a, b) for a, b in pairs]

    def require_closed(self) -> None:
        """Raise unless the set is a subgroup: see :meth:`generators`."""
        if self.generators() is None:
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
    full = len(elems) == gd._order_within(d, len(elems))
    if full and len(elems) <= TABLE_BOUND:
        return group_kernel(d)
    return FiniteGroup(d, sorted(elems, key=sort_key), full)


def scaled(values: Iterable) -> tuple[list[int], int]:
    """Exact rationals as integers over their common denominator, so inner
    loops compare and add ints instead of fractions.

    Tables hold few distinct values, often shared objects, so each distinct
    value object is converted once, keyed by ``id``: ``vals`` holds every
    value until the call returns, so no id is reused for another object.  A
    value of type exactly ``Fraction`` is taken as it is."""
    vals = list(values)
    ids = list(map(id, vals))
    fracs = {k: v if type(v) is Fraction else Fraction(v)
             for k, v in dict(zip(ids, vals)).items()}
    den = lcm(*(v.denominator for v in fracs.values()))
    ints = {k: v.numerator * (den // v.denominator) for k, v in fracs.items()}
    return list(map(ints.__getitem__, ids)), den


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
    That is N products in all, not N^2.  The set must be a subgroup."""
    label, members = G.classes()
    hit: set[int] = set()
    for r in members:
        hit.update(map(label.__getitem__, G.products(r, members[label[G.inv[r]]])))
    return sorted(c for r in hit for c in members[r])
