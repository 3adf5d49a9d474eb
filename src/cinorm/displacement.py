"""Displaceability, algebraic packing numbers and displacement energies in
finite groups, with exhaustive verification of the associated norm
inequalities.

Norm values and the powers phi^k (k >= 2) aside, the searches see a
conjugator phi only through ``phi H phi^-1``, which is constant on the coset
``phi N`` of ``N = N_G(H)``.  So they run by orbit-stabilizer
(:func:`_conjugates`) over the ``|G : N|`` distinct conjugates and search
only the cosets that can hold a witness.  Each search keeps the least
(value, payload) it meets in ``sort_key`` order and packing lists each
conjugate by its least conjugator, so every witness or minimizer is the one
a full payload-order scan of G finds, and reruns are bit-identical.

Orbit key.  On ``sn``/``an`` :func:`_conjugates` names each conjugate K by
O(K), the set of its non-trivial point orbits.  (a) O(K) depends on K
alone, not on its generators: the orbit of p is {k(p) : k in K}.  (b)
O(s K s^-1) = s O(K), each orbit mapped pointwise by s, since s k s^-1
sends s(p) to s(k(p)).  (c) Let the orbit-stabilizer search run on names,
so that its chain is the stabilizer S of O(H) in G (known order, below),
and let every generator g of the chain's level 0, which generate S,
normalize H (g h g^-1 in H for each generator h of H).  Then S = N, and
distinct conjugates have distinct names.  Proof: S <= N, since its
generators normalize H; N <= S by (a) and (b).  So |orbit of O(H)| =
|G : S| = |G : N|, the number of conjugates, and by (b) t H t^-1 ->
O(t H t^-1) maps the conjugates onto the names, so it is a bijection.  The
BFS on names is then step for step the one keyed by element sets, since a
name is met anew exactly when its conjugate is: same transversal, action
and tree.  The check runs once, on the finished chain, and when a
generator fails it, S is not N and the search runs again on element sets.
Finishing the search on names first trips no guard that the other would
not: there are no more names than conjugates, so a name BFS that trips the
clique guard means the element-set BFS trips it with the same count.  Failure is common: the
conjugates of <(1 2 3 4)> in S5 have 5 orbit sets and 15 element sets.

Known order.  The BFS finds L names, so the stabilizer S of H's name has
order |G|/L (orbit-stabilizer).  Every Schreier generator lies in S, so
once the chain's order is |G|/L it is S, and every later Schreier generator
lies in it already: adding it changes no level of the chain.  So
:func:`_normalizer_chain` stops there, and the chain, the transversal, action
and tree, and every witness are those of the search that adds every
Schreier generator.  If the edges run out first, the chain holds every
Schreier generator, so it is S by Schreier's lemma as long as the
generators of G generate G; if they miss part of it, the check
``|orbit| |N| = |G|`` fails as before.  The chain is S either way, so the orbit key's check passes on its level-0
generators exactly when it passes on every Schreier generator the chain
took.  For Sym{1,2,3} in S9 the chain is complete after 20 of the 85
Schreier generators, with 7 at level 0, and for Sym{1..6} in S12 after 26
of 925, with 9.

Class lemma.  The orbit of H's conjugates, the generators' action on it
and the commutation graph depend only on H's conjugacy class, so one search
serves the class (:func:`_find_class`), and a subgroup is a point of it.
(a) The check.  Let S(K) be the stabilizer of the name of K.  For t in G,
S(name(t H t^-1)) = S(t name(H)) = t S t^-1 by (b) of the orbit key, and
N(t H t^-1) = t N t^-1; so S = N for H exactly when it holds for every
conjugate of H, and the orbit key's check, run once on the chain of the
class's first subgroup H_0, covers every conjugate: S(name(t H_0 t^-1)) =
t S t^-1 = t N t^-1 = N(t H_0 t^-1).  A class whose H_0 fails the check is
searched again on element sets and only then kept.  (b) A point of the
class.  The name BFS from H_0 (:func:`_name_search`) forms the transversal
t[x] and the tree as it meets the names, and H_x = t[x] H_0 t[x]^-1.  For
H = H_j the conjugators taking H to H_x are t[x] t[j]^-1 N, with N =
N_G(H) = t[j] N_0 t[j]^-1, so H needs only its class, j, t[j]^-1 and the
chain of N.  :func:`_normalizer_chain` grows it from the Schreier
generators of N_0, each conjugated by t[j]; they generate N, so the chain
has the group and the base of the one the search from H builds, and so the
same level orbits, though its transversal elements may differ.  Nothing
moves.  Every result is a least (value, payload) over cosets t N, and these
are sets.  Take any representative s v (v in N_k) of a node and any chain
of N with base 0..n-1: the walk meets the same subtrees in the same order,
since children are ordered by the image of k and v permutes the N_k-orbit
of k; the orbit bound of s v is that of s, since v maps each N_k-orbit onto
itself; the prefix reads only the images of 0..k-1, and the floor bound
nothing; and a leaf batch s N_cut is a set.  So every witness, minimizer
and clique choice (keyed by unique least conjugators) is unchanged, and the
walk of a coset, given the best found before it, meets the same nodes.  The
cosets are met in class order, which for H_0 is its own search's order,
so H_0's bounded nodes, leaves and power tests are those of that search.
(c) The graph.  Conjugation by t maps the commutation graph onto itself, so it is
built once on the class from H_0's commuting list (below,
:meth:`_Class.near`), and H's commuting conjugates are the neighbourhood
of j.

Kept search.  The classes are kept with G in ``enumeration.kept``, under
``"classes"``, each built once and indexed by the hash of every
conjugate's name: its element set (as payloads) when the class was searched
on element sets, its orbit key name otherwise.  H's class is looked up by
the hash of H's element set, then by that of H's name, and a candidate
``H_j`` must have H's element set: hashes may collide, and names do (Sym(A)
and <(a b c)> both name {A}).  Else the class is searched.  A search that
raises, or whose orbit key check fails, keeps nothing.  Each subgroup asked
is kept as its point of its class under ``("conjugates", E)``, E its
element set: the class, j, t[j]^-1 and, once a walk reads it, the chain of
N.  The commuting list of a pair of different subgroups is kept under
``("commuting", E_fixed, class)``: the class points whose conjugate
commutes with ``fixed``, tested on H_0's generators, so every conjugate of
``moved`` shares it.  The key determines the result: the names, the BFS
and the chain are built from E and ``group_generators(d)`` alone (the orbit
key's ``normalizes`` asks whether g normalizes H, which does not depend on
the generators it is tested on), and whether ``H_x`` commutes with
``fixed`` depends on the two subgroups, not on their generators.  So a
second call on H, with any generators, repeats no search, and a conjugate
of a kept class runs no name BFS and, for its own commuting list, no
commuting test.  A chain is built when a walk first reads it, so a search
that the clique bound ends builds none.  The order guard runs on every call
before the lookup, the clique guard is checked again on a kept class, with
the message of the search, ``|orbit| |N| = |G|`` is checked whenever a
chain is built, and every walk and re-check still runs per call.  Kept
objects are shared, so nothing changes them but the chain and graph they
build once: the class's fields and the commuting lists are tuples, and no
caller writes to the chain or its levels.  The store holds, for groups of
order at most 8!, one class (its transversal, action and tree, the hashes
of its names and its graph) per class met, one point per subgroup asked,
and one commuting list per fixed subgroup and class asked, and evicts them
with the rest of their group's state.

The conjugates form a commutation graph, which conjugation by any element
maps onto itself.  So only H_0 is tested against the conjugates, which
gives its neighbourhood N(0); the neighbourhood of a conjugate reached from
its BFS parent by the generator s is s N(parent), read off the generators'
action on the class points (a Schreier vector).  A clique through H = H_j
only meets N(j), so packing needs least conjugators there alone.

N is held as a chain whose levels are walked the same way for every
family.  For ``sn`` and ``an`` it is a stabilizer chain with base 0, 1, ...,
n-1 (:class:`_StabChain`, deterministic Schreier-Sims; Seress, *Permutation
Group Algorithms*, 2003, ch. 4), and payload order is the lexicographic order
of image tuples.  An element of t N is t u_0 u_1 ... with u_k from the
transversal of level k, and the deeper factors fix 0..k, so the choice of u_k
fixes the image of k: ``(t u_0 ... u_k)(k)``.  Walking the levels
depth-first, children in increasing order of that image, lists t N in
payload order; the least element of t N is the first leaf, a greedy descent.
Every other family holds N as its payload closure (:class:`_FlatChain`), a
chain of one level whose leaves are all of N.  The searches walk every
coset that can hold a witness (:func:`_least_leaf`) and prune a subtree when
(lower bound, prefix) exceeds (best value, best prefix): each leaf below it
has a value at least the bound and a payload that starts with the prefix.
The few deepest levels are multiplied out once, and their leaves keyed
together; with one level that is all of N and nothing is pruned.

Support bound.  Let s be a node of the walk of t N whose images of 0..k-1
are set, and N_k the pointwise stabilizer of 0..k-1 in N; the leaves below
s are the s v with v in N_k.  Each of them moves at least ``#{x : s(x) not
in N_k x}`` points (the orbit bound).  Proof: if s v fixes x, then
y = s^-1(x) is v(x), so s(y) = x lies in N_k y; and s^-1 is injective, so
s v fixes at most #{y : s(y) in N_k y} points.  For x < k the orbit is
{x}, so such an x counts exactly when s(x) != x.  N_k is the group G_k
that ``gens[k]`` generates: G_0 = N, since the residue of every Schreier
generator not yet in the chain joins ``gens[0]``, and G_(k+1) is the
stabilizer of k in G_k (:class:`_StabChain`).  So N_k = U_k N_(k+1), and
its orbits are those of N_(k+1) joined by x ~ u(x) for u in U_k; they are
labelled once per search, from the bottom of the chain up
(:func:`_orbit_bound`).

Floor bound.  Every other norm is bounded below by a constant c under
every prefix, with c = 1 for the trivial norm, c the least value off the
identity, clamped at 0, for a table, and c = 0 for any other callable
(:func:`~cinorm.norms._floor`, which answers None for the support norm:
take the orbit bound).  ``norms`` alone reads a table's rule: a
whole-group table whose values are unread counts as the rule it
tabulates, so the trivial table takes c = 1 and the support table the
orbit bound, with the same values.  Valid: every leaf but the identity has
a value at least the least value off the identity, which is c when c > 0.
The identity's prefix 0..k-1 is the least prefix of depth k, so a node
under it is pruned only when c exceeds the best value v, and then the best
is the identity itself: any other leaf has a value at least c.  No leaf
beats the identity at v < c, so pruning drops only subtrees whose leaves
could not become the best, and the best at each node walked is that of a
walk bounded by 0.  Refusals: a walk refuses a leaf batch holding a
negative value.  If a table has a negative value off the identity, c = 0
and the bound is the zero bound every table had, so the walk is the same.
Otherwise only the identity's value can be negative, and the identity's
batch is met whenever its coset is walked: a node over the identity's
prefix is pruned only once the best is the identity, which that batch
must have set first, and a negative value there is refused when the batch
is met.  So a table is refused exactly where the zero bound refuses it.

Clique bound.  If H is non-abelian and phi is a strong m-displacer of H, the
m+1 conjugates phi^k H phi^-k (k = 0..m) form an (m+1)-clique through H.
Proof: conjugating by phi^-i takes the pair (i, j), i < j, to the pair
(0, j-i), and phi^(j-i) H phi^-(j-i) commutes with H; two of them are equal
only if H commutes with itself.  So when N(0) holds no m-clique, e_m(H) is
infinite and no coset is expanded.

Power lemma.  For permutations, ``phi^k H phi^-k`` depends only on the
images under phi^k of supp H, the union of the supports of H's generators.
Proof: for a generator g and a point y, ``phi^k g phi^-k`` sends
``phi^k(y)`` to ``phi^k(g(y))`` and fixes ``phi^k(y)`` for y off supp g,
so it is determined by phi^k on supp g; the generators' conjugates
generate ``phi^k H phi^-k``.  So on ``sn``/``an`` the m >= 2 test of the powers
phi^2..phi^m is a function of the images of supp H under them, and is
memoized on those images (:func:`_power_memo`): the full test runs once per
distinct key, and the memo holds at most one entry per leaf tested (at most
9 * 8 * 7 = 504 for m = 2 and |supp H| = 3 in S9).  This is the property
pruning of Leon (J. Symbolic Comput. 12, 1991) at the leaves.

Bytes images.  On ``sn``/``an`` the stabilizer chain (:class:`_StabChain`)
and the walk (:func:`_least_leaf`) hold each element as ``bytes(p)``, its
image tuple, so every product is one C call.  (a) Products: a.b sends i to
a[b[i]] (``elements._gather``), so a.b is ``b.translate(a + pad)`` with
``pad = bytes(range(n, 256))``, which makes ``a + pad`` a full translation
table.  The chain keeps the inverse of each transversal element u as the
table ``bytes.maketrans(u, one)``, which sends u[i] to i, so u^-1 g is one
``translate`` of g.  (b) Order: bytes compare lexicographically by their
values, as image tuples do, so payload order, every key ``(value, leaf)``
and every prefix test are unchanged.  (c) The power memo's key: with
``tab = phi + pad``, ``supp.translate(tab)`` is phi(supp H), and
translating again gives phi^2(supp H) and so on; the key concatenates
phi^2(supp H) .. phi^m(supp H), each |supp H| bytes long, so equal keys
are exactly equal image lists.  (d) Points 0..255 alone fit in a byte, so
a degree above 256 is refused, after the order guard and before any
search.  Encoding happens only at the edges: the chain sifts each Schreier
generator it is given to bytes, so its levels are walked as they are;
cosets enter the walk and the best leaf leaves it as tuples; and the orbit
key's check decodes the chain's level-0 generators.  The value and
power-memo callables read bytes (a bytes never equals a tuple, so the
trivial value compares with an encoded identity), the floor bound reads
nothing, and the power test itself runs on tuples at each memo miss.  So
the chain's levels are those it grows on tuples, encoded, and the walk
meets the same nodes, leaves, memo hits and witnesses as on tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, repeat
from math import prod
from operator import ne

from . import descriptors as gd
from .descriptors import PERMUTATION_FAMILIES, GroupDescriptor
from .elements import (
    Element,
    _payload_ops,
    conjugate_of,
    sort_key,
)
from .enumeration import (
    SubgroupSpec,
    _checked_order,
    _extend_closure,
    closure_of,
    group_generators,
    kept,
    subgroups_commute,
)
from .errors import DescriptorMismatchError, GuardExceededError
from .kernel import domain_kernel
from .literals import to_literal
from .norms import (
    NormLike,
    _commutator_length,
    _floor,
    commutator_length,
    payload_value_fn,
)

#: Ambient-order guard for packing searches.
PACKING_GUARD = 1_000_000
#: Ambient-order guard for energy scans.
ENERGY_GUARD = 10_000_000
#: Most distinct conjugate subgroups a packing search builds its graph on.
CLIQUE_GUARD = 20_000
#: Most elements of N multiplied out for the deepest levels of a coset walk.
LEAF_BATCH = 16
#: Largest ambient order on which the master inequalities also check
#: ``cl_G(x) <= 2``, by a whole commutator length table of G: S6 (720) is in;
#: S7 (5040) is out.  S7's table takes 56-107 ms, warm or cold, against
#: 0.47-0.86 ms for the whole S7 master check of Sym{1,2,3} (5 processes, 2
#: shared cores, Python 3.11.7), and S7 is above the kernel's ``TABLE_BOUND``
#: of 2048, so its kernel is not kept and each check would build it again.
AMBIENT_CL_LIMIT = 800


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


def is_abelian_subgroup(h: SubgroupSpec) -> bool:
    return subgroups_commute(h, h)


# ---------------------------------------------------------------------------
# orbit-stabilizer search over the conjugates of a subgroup


class _StabChain:
    """Stabilizer chain with base 0, 1, ..., n-1 of a group of permutations,
    grown by deterministic Schreier-Sims in Knuth's incremental form (Knuth,
    "Efficient representation of perm groups", Combinatorica 11, 1991;
    Seress, 2003, §4.2), on bytes images (module docstring).

    Level k holds generators ``gens[k]`` of a group G_k that fixes 0..k-1,
    and ``reps[k][b]``, an element of G_k taking k to b, for each b in the
    orbit of k, each as its bytes image u, with ``reps_inv[k][b]``, the
    translation table ``bytes.maketrans(u, one)`` of its inverse, so that
    u^-1 g is ``g.translate(reps_inv[k][b])``.  Each generator added to
    level k + 1 is a Schreier generator of level k or differs from one by
    elements of G_(k+1), and every Schreier generator of level k is sifted
    into level k + 1, so G_(k+1) is the stabilizer of k in G_k and ``|G_0|``
    is the product of the orbit lengths."""

    def __init__(self, d: GroupDescriptor):
        self.n, self.one, self.pad = d.n, bytes(range(d.n)), bytes(range(d.n, 256))
        self.gens: list[list[bytes]] = [[] for _ in range(d.n)]
        self.reps: list[dict] = [{k: self.one} for k in range(d.n)]
        self.reps_inv: list[dict] = [{k: bytes(range(256))} for k in range(d.n)]

    def sift(self, g, k: int = 0) -> tuple[int, bytes]:
        """``(j, r)``: g, a permutation (tuple or bytes image) that fixes
        0..k-1, stripped by the transversals of levels k, k+1, ... down to
        the first level j whose orbit lacks r(j), as a bytes image; ``j = n``
        (and r is the identity) when g is in G_k."""
        g = bytes(g)  # a bytes image is returned as it is
        for j in range(k, self.n):
            b = g[j]
            if b != j:
                u_inv = self.reps_inv[j].get(b)
                if u_inv is None:
                    return j, g
                g = g.translate(u_inv)
        return self.n, g

    def add(self, g, k: int = 0) -> None:
        """Make g, which fixes 0..k-1, a member of G_k."""
        j, r = self.sift(g, k)
        if j < self.n:
            self._extend(k, r)

    def _extend(self, k: int, g: bytes) -> None:
        gens, reps, reps_inv = self.gens[k], self.reps[k], self.reps_inv[k]
        gens.append(g)
        # the pairs (b, s) not met before: each old point with g, then each
        # new point with every generator
        todo = [(b, g) for b in reps]
        for b, s in todo:  # todo grows while it is walked
            w = reps[b].translate(s + self.pad)  # s reps[b]
            u_inv = reps_inv.get(w[k])
            if u_inv is None:
                reps[w[k]] = w
                reps_inv[w[k]] = bytes.maketrans(w, self.one)
                todo += [(w[k], x) for x in gens]
            else:
                self.add(w.translate(u_inv), k + 1)

    def order(self) -> int:
        return prod(len(reps) for reps in self.reps)

    def levels(self) -> list[tuple[dict, int]]:
        """``(reps, fixed)`` for each level whose orbit is not a point, top
        down: below that level's choice, the images of 0..fixed-1 are set."""
        ks = [k for k, reps in enumerate(self.reps) if len(reps) > 1]
        return [(self.reps[k], nxt) for k, nxt in zip(ks, ks[1:] + [self.n])]


class _FlatChain:
    """N as its payload closure, grown by each generator added: a chain of
    one level, whose leaves are all of N."""

    def __init__(self, d: GroupDescriptor, limit: int):
        self.mul, _, one, _ = _payload_ops(d)
        self.elements, self.gens, self.limit = {one}, [], limit

    def add(self, g) -> None:
        if g not in self.elements:
            _extend_closure(self.elements, self.gens, g, self.mul, self.limit)

    def order(self) -> int:
        return len(self.elements)

    def levels(self) -> list[tuple[dict, int]]:
        return [(dict(enumerate(self.elements)), 0)]


@dataclass(eq=False, slots=True)
class _Class:
    """A conjugacy class of subgroups, kept once with its group (class
    lemma, module docstring): the orbit of the first subgroup H_0 asked,
    ``H_x = t[x] H_0 t[x]^-1`` at each point x, numbered as the name BFS
    from H_0 met them, with the generators' action on the points and its
    tree, the point of each conjugate by the hash of its name, and the
    commutation graph on the points, built when first asked for."""
    d: GroupDescriptor
    size: int  # |G|
    steps: tuple  # (s, s^-1) for each generator s of G
    trans: tuple  # t[x], with t[0] = 1
    action: tuple  # action[s][x] = y where s H_x s^-1 = H_y
    tree: tuple  # tree[x] = (parent, s): H_x = s H_parent s^-1, for x >= 1
    where: dict
    root: SubgroupSpec  # H_0
    order: int  # |H_0|
    _nbr: list | None = None

    def holds(self, j: int, elements: frozenset) -> bool:
        """Whether ``H_j`` has the element set ``elements``: it has as many
        elements, and holds the conjugates of H_0's generators."""
        return len(elements) == self.order and _conjugates_into(
            self.d, self.root, elements, self.trans[j])

    def commuting(self, fixed: SubgroupSpec) -> tuple[int, ...]:
        """The points x whose ``H_x`` commutes with ``fixed``, in class
        order, decided on H_0's generators."""
        commutes, inv = _commuter(self.d, fixed, self.root), _payload_ops(self.d)[1]
        return tuple(x for x, t in enumerate(self.trans) if commutes(t, inv(t)))

    def near(self, x: int) -> frozenset:
        """The neighbourhood of x in the commutation graph, from H_0's
        commuting list: conjugation by a generator s is an automorphism of
        the graph that takes ``H_parent`` to ``H_x``, so ``N(x) = s
        N(parent)``.  Each ``N(x)`` is mapped down the tree when first
        asked for."""
        nbr = self._nbr
        if nbr is None:
            nbr = self._nbr = [None] * len(self.trans)
            nbr[0] = frozenset(self.commuting(self.root))
        path = [x]
        while nbr[path[-1]] is None:
            path.append(self.tree[path[-1]][0])
        for k in reversed(path[:-1]):
            parent, s = self.tree[k]
            act = self.action[s]
            nbr[k] = frozenset([act[y] for y in nbr[parent]])
        return nbr[x]


@dataclass(eq=False, slots=True)
class _Orbit:
    """A subgroup H = H_j as the point j of its class.  The conjugators
    taking H to ``H_x`` are the coset ``t[x] t[j]^-1 N`` (:meth:`coset`),
    where ``N = N_G(H) = t[j] N_0 t[j]^-1``, and the chain of N is built
    when first read (:func:`_normalizer_chain`)."""
    cls: _Class
    j: int  # H's point of the class
    t_inv: tuple  # t[j]^-1
    _chain: _StabChain | _FlatChain | None = None
    _levels: list | None = None

    @property
    def chain(self) -> _StabChain | _FlatChain:
        if self._chain is None:
            self._chain = _normalizer_chain(self)
        return self._chain

    @property
    def levels(self) -> list:
        """The chain's levels as :func:`_least_leaf` walks them, built once."""
        if self._levels is None:
            self._levels = self.chain.levels()
        return self._levels

    def coset(self, x: int):
        """``t[x] t[j]^-1``, which takes H to ``H_x``."""
        t = self.cls.trans[x]
        return _payload_ops(self.cls.d)[0](t, self.t_inv) if self.j else t


def _conjugates(d: GroupDescriptor, h: SubgroupSpec, limit: int,
                cap: int | None = None) -> _Orbit:
    """Orbit-stabilizer for H under conjugation (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 4 and §4.1): H's
    point of its conjugacy class, whose orbit holds the transversal and the
    action of each generator on the points with the BFS tree (a Schreier
    vector), and the chain of the normalizer N (a stabilizer chain for
    ``sn``/``an``, one level holding the payload closure otherwise), built
    when first read.  ``cap`` bounds the number of conjugates.

    The class is searched once and kept with G (class lemma, module
    docstring), and H's point is kept per subgroup, so both are shared: no
    caller may change them, the chain or its levels."""
    return _kept_conjugates(d, h, limit, cap)[0]


def _payloads(h: SubgroupSpec) -> frozenset:
    """The element set of H, as payloads: the key of its kept point."""
    return frozenset(g.payload for g in closure_of(h))


def _refuse_clique(count: int, cap: int | None) -> None:
    if cap is not None and count > cap:
        raise GuardExceededError(f"{cap + 1} conjugate subgroups reached, "
                                 f"above the clique guard {cap}")


def _refuse_foreign(d: GroupDescriptor, *subgroups: SubgroupSpec) -> None:
    """Refuse a subgroup of a group other than ``d``."""
    for h in subgroups:
        if h.descriptor != d:
            raise DescriptorMismatchError(f"the subgroup lives in {h.descriptor}, not {d}")


def _kept_conjugates(d: GroupDescriptor, h: SubgroupSpec, limit: int, cap: int | None):
    """``(orbit, elements)``: :func:`_conjugates`, and H's element set."""
    _refuse_foreign(d, h)
    size = _checked_order(d, limit)
    if d.family in PERMUTATION_FAMILIES and d.n > 256:
        raise GuardExceededError(f"{d} has degree {d.n}, above the 256 points "
                                 f"a bytes image holds")
    elements = _payloads(h)
    orb = kept(d, ("conjugates", elements), lambda: _find_class(d, size, h, elements, cap))
    _refuse_clique(len(orb.cls.trans), cap)  # the class may be kept by an uncapped search
    return orb, elements


def _find_class(d: GroupDescriptor, size: int, h: SubgroupSpec, elements: frozenset,
                cap: int | None) -> _Orbit:
    """H as the point j of its kept class, with ``H = H_j``.  The class is
    looked up by the hash of H's element set, then by the hash of H's orbit
    key name, where the candidate ``H_j`` must have H's element set (hashes
    may collide, and so do names: Sym(A) and <(a b c)> both name {A}); else
    a new class is searched from H = H_0, and kept only once its search
    succeeds."""
    classes = kept(d, "classes", list)
    inv, one = _payload_ops(d)[1:3]

    def find(key: int) -> _Orbit | None:
        for cls in classes:
            j = cls.where.get(key)
            if j is not None and cls.holds(j, elements):
                return _Orbit(cls, j, inv(cls.trans[j]))
        return None

    def search(name, act) -> _Orbit:
        return _Orbit(_Class(d, size, *_name_search(d, name, act, cap), h, len(elements)), 0, one)
    hit = find(hash(elements))
    if hit is not None:
        return hit
    orb = None
    if d.family in PERMUTATION_FAMILIES:
        name, act, normalizes = _orbit_key(d, h, elements)
        hit = find(hash(name))
        if hit is not None:
            return hit
        orb = search(name, act)
        # conjugates share their orbits; the chain holds bytes images
        if not all(map(normalizes, map(tuple, orb.chain.gens[0]))):
            orb = None
    if orb is None:
        orb = search(*_exact_key(d, elements)[:2])
    classes.append(orb.cls)
    return orb


def _conjugates_into(d: GroupDescriptor, h: SubgroupSpec, elements: frozenset, t) -> bool:
    """Whether ``t g t^-1`` lies in ``elements`` for each generator g of H."""
    _, inv, _, conj = _payload_ops(d)
    t_inv = inv(t)
    return all(conj(t, g.payload, t_inv) in elements for g in h.generators)


def _exact_key(d: GroupDescriptor, elements: frozenset):
    """``(name, act, None)``: H named by its element set, which conjugation
    by s maps element by element."""
    conj = _payload_ops(d)[3]

    def act(name: frozenset, s, s_inv) -> frozenset:
        return frozenset([conj(s, x, s_inv) for x in name])
    return elements, act, None


def _orbit_key(d: GroupDescriptor, h: SubgroupSpec, elements: frozenset):
    """``(name, act, normalizes)``: H named by its non-trivial point orbits,
    which conjugation by s maps by s, and the test that g normalizes H, on
    H's generators against its element set."""
    orbits = {frozenset([x[p] for x in elements]) for p in range(d.n)}

    def act(name: frozenset, s, s_inv) -> frozenset:
        return frozenset([frozenset(map(s.__getitem__, o)) for o in name])
    normalizes = partial(_conjugates_into, d, h, elements)
    return frozenset(o for o in orbits if len(o) > 1), act, normalizes


def _name_search(d: GroupDescriptor, name, act, cap: int | None):
    """The BFS over the names of H's conjugates: ``act(name, s, s^-1)``
    names the conjugate by s of the one named.  ``(steps, trans, action,
    tree, where)``: (s, s^-1) for each generator s of G, the transversal
    ``t[k] = s t[parent]``, formed as each name is met, the generators'
    action on the points, numbered in the order the names are met, the BFS
    tree, and the point of each name by its hash."""
    mul, inv, one, _ = _payload_ops(d)
    steps = tuple((s.payload, inv(s.payload)) for s in group_generators(d))
    names, where, trans, tree = [name], {name: 0}, [one], [None]
    action: list[list[int]] = [[] for _ in steps]
    for i, x in enumerate(names):  # names grows while it is walked: a BFS
        for si, (s, s_inv) in enumerate(steps):
            k = act(x, s, s_inv)
            j = where.get(k)
            if j is None:
                _refuse_clique(len(names) + 1, cap)
                j = where[k] = len(names)
                names.append(k)
                trans.append(mul(s, trans[i]))
                tree.append((i, si))
            action[si].append(j)
    return (steps, tuple(trans), tuple(map(tuple, action)), tuple(tree),
            {hash(k): j for k, j in where.items()})


def _normalizer_chain(orb: _Orbit) -> _StabChain | _FlatChain:
    """The chain of ``N = N_G(H_j)``, grown, in the class's BFS order, by
    the Schreier generator ``t[y]^-1 s t[x]`` of ``N_0`` of each edge ``s
    H_x s^-1 = H_y`` but those of the tree, conjugated by ``t[j]`` (for H_0,
    ``t[0] = 1``), until it has the order ``|G| / |orbit|`` (known order,
    module docstring), and checked: ``|orbit| |N| = |G|``."""
    cls = orb.cls
    d, size, steps, trans, tree = cls.d, cls.size, cls.steps, cls.trans, cls.tree
    mul, inv, _, conj = _payload_ops(d)

    def edges():
        for x, t in enumerate(trans):
            for si, ((s, _), act) in enumerate(zip(steps, cls.action)):
                y = act[x]
                if tree[y] != (x, si):  # not the edge that found H_y
                    yield y, s, t
    chain = _StabChain(d) if d.family in PERMUTATION_FAMILIES else _FlatChain(d, size)
    for y, s, t in edges():
        if len(trans) * chain.order() == size:
            break
        g = mul(inv(trans[y]), mul(s, t))
        chain.add(conj(trans[orb.j], g, orb.t_inv) if orb.j else g)
    if len(trans) * chain.order() != size:
        raise AssertionError(f"orbit-stabilizer count {len(trans)} * "
                             f"{chain.order()} is not |{d}| = {size}")
    return chain


def _commuter(d: GroupDescriptor, fixed: SubgroupSpec, moved: SubgroupSpec):
    """``commutes(t, t^-1)``: whether ``t moved t^-1`` commutes with
    ``fixed``, decided on generators."""
    mul, _, _, conj = _payload_ops(d)
    moved_gens = tuple(g.payload for g in moved.generators)
    fixed_gens = tuple(g.payload for g in fixed.generators)

    def commutes(t, ti) -> bool:
        for g in moved_gens:
            c = conj(t, g, ti)
            for x in fixed_gens:
                if mul(c, x) != mul(x, c):
                    return False
        return True
    return commutes


def _max_clique(near, start: int, cap: int, key=None) -> list[int]:
    """A largest clique through the vertex ``start`` of at most ``cap``
    vertices, found by branch and bound over its neighbours in ``key``
    order; the first largest one in that order wins."""
    best = [start]

    def grow(clique: list[int], cand: list[int]) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = list(clique)
        if len(clique) >= cap:
            return
        for idx, v in enumerate(cand):
            if len(clique) + len(cand) - idx <= len(best):
                break
            adjacent = near(v)
            grow(clique + [v], [u for u in cand[idx + 1:] if u in adjacent])

    grow([start], sorted(near(start), key=key))
    return best


def _orbit_bound(n: int, levels: list):
    """The orbit bound (module docstring) of a walk down ``levels``: for a
    node s whose images of 0..k-1 are set, the number of points x with
    ``s(x)`` outside the N_k-orbit of x.  ``labels[k][x]`` names the N_k-orbit
    of x by one of its points, grown from the bottom of the chain: N_k is
    U_k N_(k+1), so its orbits join those of N_(k+1) by x ~ u(x), u in U_k,
    and k is the least point of the orbit that keys U_k.  The walk bounds
    only nodes below the top level's choice, so that level is not read, and
    on a one-level chain (any payload) nothing is."""
    label = list(range(n))
    labels = [tuple(label)] * (n + 1)
    for reps, _ in reversed(levels[1:]):
        for u in reps.values():
            for x, y in enumerate(u):
                a, b = label[x], label[y]
                if a != b:
                    label = [a if z == b else z for z in label]
        k = min(reps)
        labels[:k + 1] = [tuple(label)] * (k + 1)

    def bound(s: tuple, k: int) -> int:
        lab = labels[k]
        return sum(map(ne, map(lab.__getitem__, s), lab))
    return bound


def _power_memo(test, moved: SubgroupSpec, m: int):
    """``accept(phi)`` of a bytes image phi (module docstring): ``test`` of
    the powers phi^2..phi^m, asked of phi as a tuple once per distinct key,
    the images of supp H under phi^2, ..., phi^m (power lemma, module
    docstring), each one translate of the last by phi."""
    supp = bytes(sorted({i for g in moved.generators
                         for i, x in enumerate(g.payload) if i != x}))
    pad = bytes(range(moved.descriptor.n, 256))
    memo: dict[bytes, bool] = {}

    def accept(phi: bytes) -> bool:
        tab, key = phi + pad, b""
        img = supp.translate(tab)
        for _ in range(1, m):
            img = img.translate(tab)
            key += img
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = test(tuple(phi))
        return hit
    return accept


def _least_leaf(d: GroupDescriptor, cosets: list, levels: list, value, bound, accept):
    """Least ``(value(s), s)`` over the payloads s of the cosets ``t N`` (t
    in ``cosets``) with ``accept(s)``, or None; without ``value`` every value
    is 0, and payloads compare in tuple order, which is ``sort_key`` order in
    every family.  Each coset is walked depth-first down
    ``levels``, children in increasing order of the image they fix, so
    subtrees are met in payload order; one is pruned when ``(bound,
    prefix) > (best value, best prefix)``.  The deepest levels, at most
    :data:`LEAF_BATCH` elements in all (or the last level alone), are
    multiplied out once: each node above them keys its leaves at once, and
    ``accept`` is asked of them in key order, only while the key is below
    the best.  Every bound but the support norm's assumes values >= 0, so
    a negative value among the leaves is refused (floor bound, module
    docstring).

    On ``sn``/``an`` the walk runs on bytes images (module docstring), so
    every product is one C call: the cosets are encoded here, ``levels``
    are the chain's own bytes images, ``value``, ``bound`` and ``accept``
    read bytes, and the best leaf is returned as a tuple."""
    if d.family in PERMUTATION_FAMILIES:
        pad = bytes(range(d.n, 256))
        cosets, one = map(bytes, cosets), bytes(range(d.n))

        def left(s, xs):  # s x for each x in xs
            return map(bytes.translate, xs, repeat(s + pad))
    else:
        mul, _, one, _ = _payload_ops(d)

        def left(s, xs):
            return map(mul, repeat(s), xs)
    best = None
    cut = max(len(levels) - 1, 0)
    while cut > 0 and prod(len(reps) for reps, _ in levels[cut - 1:]) <= LEAF_BATCH:
        cut -= 1
    tails = list(levels[-1][0].values()) if levels else [one]
    for reps, _ in reversed(levels[cut:-1]):
        tails = [p for u in reps.values() for p in left(u, tails)]

    def settle(s) -> None:
        nonlocal best
        leaves = list(left(s, tails))
        keys = sorted(zip(repeat(0) if value is None else map(value, leaves), leaves))
        if keys[0][0] < 0:
            raise ValueError(f"norm value {keys[0][0]} < 0 on "
                             f"{to_literal(Element(d, tuple(keys[0][1])))}")
        for key in keys:
            if best is not None and key >= best:
                return
            if accept is None or accept(key[1]):
                best = key
                return

    def walk(s, depth: int) -> None:
        if depth == cut:
            settle(s)
            return
        reps, fixed = levels[depth]
        for c in left(s, [reps[b] for b in sorted(reps, key=s.__getitem__)]):
            if best is None or (bound(c, fixed), c[:fixed]) <= (best[0], best[1][:fixed]):
                walk(c, depth + 1)

    for t in cosets:
        walk(t, 0)
    # tuple() decodes a bytes image, and returns any other payload, a tuple, as it is
    return best if best is None else (best[0], tuple(best[1]))


def _least_displacer(d: GroupDescriptor, fixed: SubgroupSpec, moved: SubgroupSpec,
                     m: int, norm: NormLike | None, limit: int) -> EnergyResult:
    """Least ``(value, payload order)`` over the ``phi`` for which every
    ``phi^k moved phi^-k`` (k = 1..m) commutes with ``fixed``; without
    ``norm`` the payload order alone decides.  Commutation is decided on
    generators, and the result is re-checked.  A strong m-displacer of a
    non-abelian H needs an (m+1)-clique through H in the commutation graph,
    so without one no coset is searched.

    Values are the exact payload values of
    :func:`~cinorm.norms.payload_value_fn`.  The commuting cosets are walked
    down the chain of N by one :func:`_least_leaf` call, with the orbit
    bound for :func:`~cinorm.norms.support_norm` (and an unread table of
    it) and the constant floor bound for every other norm; for m >= 2 the powers
    are tested only on leaves below the best so far, once per key of the
    power lemma on ``sn``/``an``.
    H's commuting list with itself is its neighbourhood in its class's
    graph, that of a pair of different subgroups is kept per class, and the
    chain is built only past the clique bound."""
    if m < 1:
        raise ValueError(f"m = {m}: a displacer needs m >= 1")
    _refuse_foreign(d, fixed)
    # bytes images, but for a degree that _kept_conjugates refuses past the order guard
    perm = d.family in PERMUTATION_FAMILIES and d.n <= 256
    value = None if norm is None else payload_value_fn(d, norm, perm)
    orb, elements = _kept_conjugates(d, moved, limit, None)
    cls = orb.cls
    mul, inv, _, _ = _payload_ops(d)
    commutes = _commuter(d, fixed, moved)
    # phi moved phi^-1 is H_x for every phi in the coset t[x] t[j]^-1 N
    fixed_elements = elements if fixed is moved else _payloads(fixed)
    if fixed_elements == elements:
        near = cls.near(orb.j)
    else:
        near = kept(d, ("commuting", fixed_elements, cls), lambda: cls.commuting(fixed))
    if fixed is moved and m >= 2 and not is_abelian_subgroup(fixed):
        if len(_max_clique(cls.near, orb.j, m + 1)) <= m:
            return EnergyResult(m, None, None)

    def powers_commute(phi) -> bool:
        phi_inv = inv(phi)
        pw, pwi = phi, phi_inv
        for _ in range(2, m + 1):
            pw, pwi = mul(phi, pw), mul(pwi, phi_inv)
            if not commutes(pw, pwi):
                return False
        return True

    c = _floor(d, norm)
    bound = _orbit_bound(d.n, orb.levels) if c is None else lambda s, k: c
    accept = None
    if m >= 2:
        accept = _power_memo(powers_commute, moved, m) if perm else powers_commute
    best = _least_leaf(d, list(map(orb.coset, sorted(near))), orb.levels, value, bound, accept)
    if best is None:
        return EnergyResult(m, None, None)
    minimizer = Element(d, best[1])
    _assert_witnesses(fixed, moved, tuple(minimizer ** k for k in range(1, m + 1)))
    return EnergyResult(m, Fraction(best[0]), minimizer)


def find_strong_displacer(d: GroupDescriptor, h: SubgroupSpec, m: int,
                          limit: int = ENERGY_GUARD) -> DisplacementReport:
    """Least element, in payload order, whose powers ``phi^1..phi^m``
    displace the subgroup."""
    e = _least_displacer(d, h, h, m, None, limit).minimizer
    witnesses = () if e is None else tuple(e ** k for k in range(1, m + 1))
    return DisplacementReport(h, m, "strong", witnesses, e is not None)


def _assert_witnesses(fixed: SubgroupSpec, moved: SubgroupSpec,
                      witnesses: tuple[Element, ...]) -> None:
    """Re-check a search result with the public predicate: each conjugate
    ``w moved w^-1`` of ``moved`` must commute with ``fixed``, and when
    ``fixed`` is ``moved`` (packing, strong displacement) with each other."""
    conjugates = [
        SubgroupSpec(tuple(conjugate_of(g, w) for g in moved.generators))
        for w in witnesses]
    pairs = [(fixed, c) for c in conjugates]
    if fixed is moved:
        pairs += combinations(conjugates, 2)
    if not all(subgroups_commute(a, b) for a, b in pairs):
        raise AssertionError("witness failed the subgroup commutation re-check")


def displacement_energy(d: GroupDescriptor, h: SubgroupSpec, m: int,
                        norm: NormLike, limit: int = ENERGY_GUARD) -> EnergyResult:
    """Exact minimum of the norm over all strong m-displacers of the
    subgroup; the minimizer is the least one in payload order."""
    return _least_displacer(d, h, h, m, norm, limit)


def disjunction_energy(d: GroupDescriptor, h1: SubgroupSpec, h2: SubgroupSpec,
                       norm: NormLike, limit: int = ENERGY_GUARD) -> EnergyResult:
    """Exact minimum norm over elements conjugating ``h2`` to commute with
    ``h1``; the minimizer is the least one in payload order."""
    return _least_displacer(d, h1, h2, 1, norm, limit)


# ---------------------------------------------------------------------------
# packing numbers


def packing_number(d: GroupDescriptor, h: SubgroupSpec,
                   limit: int = PACKING_GUARD) -> PackingResult:
    """Largest number of pairwise-commuting conjugates of the subgroup
    (including itself), via the commutation graph on distinct conjugates.

    The distinct conjugates are the orbit points of :func:`_conjugates`;
    each is listed by, and reported with, its least conjugator (the least
    element of its coset ``t N``), so the clique search sees them in the
    order of a payload-order scan of the group.  At most
    :data:`CLIQUE_GUARD` conjugates are built.  ``exhausted`` is True
    whenever no guard tripped.
    """
    if h.descriptor == d and is_abelian_subgroup(h):  # else _conjugates refuses h
        return PackingResult(None, None, True, degenerate=True)
    orb = _conjugates(d, h, limit, CLIQUE_GUARD)
    near = sorted(orb.cls.near(orb.j))
    # the clique search meets only H's vertex j and its neighbours
    least = {x: _least_leaf(d, [orb.coset(x)], orb.levels, None, lambda s, k: 0, None)
             for x in near}
    best = _max_clique(orb.cls.near, orb.j, len(near) + 1, key=least.__getitem__)
    p = len(best)
    witnesses = tuple(Element(d, least[v][1]) for v in best[1:])
    report = DisplacementReport(h, p - 1, "weak", witnesses, p > 1)
    _assert_witnesses(h, h, witnesses)
    return PackingResult(p, report, exhausted=True)


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


def _energy(d: GroupDescriptor, norm: NormLike, fixed: SubgroupSpec, moved: SubgroupSpec,
            m: int, energy: EnergyResult | None):
    """``(e, value)`` for an inequality verifier: ``energy``, or when it is
    None the least displacer of ``moved`` against ``fixed`` (e_m of H when
    they are one subgroup H, else e(H1, H2) with m = 1); and the
    norm's exact values on payloads, each element valued once per call.
    Refused in this order: the norm (:func:`~cinorm.norms.payload_value_fn`),
    a subgroup of another group, and a supplied energy of another m.  A
    finite supplied energy is re-checked as a computed one is: its minimizer
    is an element of ``d``, has its value, and its powers ``phi^1..phi^m``
    pass :func:`_assert_witnesses`."""
    pvalue = payload_value_fn(d, norm)
    _refuse_foreign(d, fixed, moved)
    value = cache(lambda p: Fraction(pvalue(p)))
    if energy is None:
        return _least_displacer(d, fixed, moved, m, norm, ENERGY_GUARD), value
    if energy.m != m:
        raise ValueError(f"the energy is e_{energy.m}, not e_{m}")
    if energy.value is None:
        return energy, value
    phi = energy.minimizer
    if phi is not None and phi.descriptor != d:
        raise DescriptorMismatchError(f"the energy's minimizer lives in {phi.descriptor}, "
                                      f"not {d}")
    if phi is None or value(phi.payload) != energy.value:
        raise ValueError(f"the energy {energy.value} is not the value of its minimizer "
                         f"{None if phi is None else to_literal(phi)}")
    try:
        _assert_witnesses(fixed, moved, tuple(phi ** k for k in range(1, m + 1)))
    except AssertionError:
        raise ValueError(f"the energy's minimizer {to_literal(phi)} does not "
                         f"displace the subgroup") from None
    return energy, value


def verify_master_inequalities(d: GroupDescriptor, h: SubgroupSpec, m: int,
                               norm: NormLike, *,
                               energy: EnergyResult | None = None) -> MasterReport:
    """Pointwise check of the displacement inequalities on a finite group.

    For every x in the subgroup's derived part whose commutator length inside
    the subgroup is m: ``v(x) <= 4 e_1`` when m = 1 (plus the pointwise chain
    ``v([f,g]) <= 2 v([f,phi]) <= 4 v(phi)`` for the found minimizer), and
    ``v(x) <= 14 e_m`` for m >= 2.  Ambient commutator length <= 2 is checked
    when the ambient order is at most :data:`AMBIENT_CL_LIMIT`.  A supplied
    ``energy`` must be e_m, and a finite one is re-checked.  One kernel of H
    gives cl_H and every [f, g] of the chain.
    """
    e, value = _energy(d, norm, h, h, m, energy)
    K = domain_kernel(d, closure_of(h))  # H in sort_key order
    cl_h = _commutator_length(K, "cl_H")
    rows: list[InequalityRow] = []
    chain: list[InequalityRow] = []

    within = gd._order_within(d, AMBIENT_CL_LIMIT) is not None
    ambient_cl = commutator_length(d) if within else None

    lit = list(map(to_literal, K.elements))
    factor = 4 if m == 1 else 14
    for i, x in enumerate(K.elements):
        if cl_h.values.get(x) != m:
            continue
        if e.value is not None:
            lhs = value(K.payloads[i])
            rhs = factor * e.value
            rows.append(InequalityRow(
                f"v(x) <= {factor} e_{m}", (lit[i],), lhs, rhs, lhs <= rhs))
        if ambient_cl is not None:
            lhs = ambient_cl.values[x]
            rows.append(InequalityRow(
                "cl_ambient(x) <= 2", (lit[i],), lhs, Fraction(2), lhs <= 2))

    if m == 1 and e.value is not None and e.minimizer is not None:
        mul, inv, _, conj = _payload_ops(d)
        phi = e.minimizer.payload
        phi_inv, vphi = inv(phi), value(phi)
        for i, f in enumerate(K.payloads):
            part = 2 * value(mul(conj(f, phi, K.payloads[K.inv[i]]), phi_inv))
            for j, c in enumerate(K.commutators(i)):
                lhs = value(K.payloads[c])
                chain.append(InequalityRow(
                    "v([f,g]) <= 2 v([f,phi])", (lit[i], lit[j]), lhs, part, lhs <= part))
            chain.append(InequalityRow(
                "2 v([f,phi]) <= 4 v(phi)", (lit[i],), part, 4 * vphi, part <= 4 * vphi))

    return MasterReport(e, rows, chain, within, all(r.ok for r in rows + chain))


def verify_disjunction_inequality(d: GroupDescriptor, h1: SubgroupSpec,
                                  h2: SubgroupSpec, norm: NormLike,
                                  energy: EnergyResult | None = None) -> MasterReport:
    """Check ``v([x1, x2]) <= 4 e(H1, H2)`` for all pairs from the two
    subgroup closures.  A supplied ``energy`` must be e_1, and a finite one
    is re-checked: its minimizer conjugates ``h2`` to commute with ``h1``."""
    e, value = _energy(d, norm, h1, h2, 1, energy)
    rows: list[InequalityRow] = []
    if e.value is not None:
        mul, inv, _, conj = _payload_ops(d)
        ones, twos = ([(to_literal(x), x.payload, inv(x.payload))
                       for x in sorted(closure_of(s), key=sort_key)] for s in (h1, h2))
        rhs = 4 * e.value
        for l1, a, a_inv in ones:
            for l2, b, b_inv in twos:
                lhs = value(mul(conj(a, b, a_inv), b_inv))
                rows.append(InequalityRow(
                    "v([x1,x2]) <= 4 e(H1,H2)", (l1, l2), lhs, rhs, lhs <= rhs))
    return MasterReport(e, rows, [], False, all(r.ok for r in rows))
