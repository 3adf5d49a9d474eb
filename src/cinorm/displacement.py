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
:func:`_orbit_search` stops there, and the chain, the transversal, action
and tree, and every witness are those of the search that adds every
Schreier generator.  If the edges run out first, the chain holds every
Schreier generator, so it is S by Schreier's lemma as long as the
generators of G generate G; if they miss part of it, the check
``|orbit| |N| = |G|`` fails as before.  The chain is S either way, so the orbit key's check passes on its level-0
generators exactly when it passes on every Schreier generator the chain
took.  For Sym{1,2,3} in S9 the chain is complete after 20 of the 85
Schreier generators, with 7 at level 0, and for Sym{1..6} in S12 after 26
of 925, with 9.

The conjugates form a commutation graph, which conjugation by any element
maps onto itself.  So only H is tested against the conjugates, which gives
its neighbourhood N(0); the neighbourhood of a conjugate reached from its BFS
parent by the generator s is s N(parent), read off the generators' action on
the orbit points (a Schreier vector).  A clique through H only meets N(0),
so packing needs least conjugators there alone.

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
(:func:`_orbit_bound`).  The trivial norm is bounded below by 1 under a
prefix other than the identity's, whose leaves are all non-identity; every
other norm is bounded below by 0.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import prod
from operator import ne
from typing import NamedTuple

from . import descriptors as gd
from .descriptors import PERMUTATION_FAMILIES, GroupDescriptor
from .elements import (
    Element,
    _payload_ops,
    commutator_of,
    conjugate_of,
    sort_key,
)
from .enumeration import (
    SubgroupSpec,
    _checked_order,
    _extend_closure,
    closure_of,
    group_generators,
    subgroups_commute,
)
from .errors import DescriptorMismatchError, GuardExceededError
from .literals import to_literal
from .norms import (
    NormLike,
    commutator_length,
    commutator_length_over,
    norm_value_fn,
    payload_value_fn,
    refuse_foreign_table,
    support_norm,
    trivial_norm,
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
#: S7 (5040) is out.  Its commutator set costs only |G| payload products, but
#: above the kernel's ``TABLE_BOUND`` of 2048 the breadth-first search over
#: its 2520 commutators makes about 12.7M, some 10 s.
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
    """Stabilizer chain with base 0, 1, ..., n-1 of a group of permutations
    (image tuples), grown by deterministic Schreier-Sims in Knuth's
    incremental form (Knuth, "Efficient representation of perm groups",
    Combinatorica 11, 1991; Seress, 2003, §4.2).

    Level k holds generators ``gens[k]`` of a group G_k that fixes 0..k-1,
    and ``reps[k][b]``, an element of G_k taking k to b, for each b in the
    orbit of k.  Each generator added to level k + 1 is a Schreier
    generator of level k or differs from one by elements of G_(k+1), and
    every Schreier generator of level k is sifted into level k + 1, so
    G_(k+1) is the stabilizer of k in G_k and ``|G_0|`` is the product of
    the orbit lengths."""

    def __init__(self, d: GroupDescriptor):
        _, self.inv, one, _ = _payload_ops(d)
        self.n = d.n
        self.gens: list[list[tuple]] = [[] for _ in range(d.n)]
        self.reps: list[dict] = [{k: one} for k in range(d.n)]
        self.reps_inv: list[dict] = [{k: one} for k in range(d.n)]

    def sift(self, g: tuple, k: int = 0) -> tuple[int, tuple]:
        """``(j, r)``: g, which fixes 0..k-1, stripped by the transversals of
        levels k, k+1, ... down to the first level j whose orbit lacks r(j);
        ``j = n`` (and r is the identity) when g is in G_k."""
        for j in range(k, self.n):
            b = g[j]
            if b != j:
                u_inv = self.reps_inv[j].get(b)
                if u_inv is None:
                    return j, g
                g = tuple(map(u_inv.__getitem__, g))
        return self.n, g

    def add(self, g: tuple, k: int = 0) -> None:
        """Make g, which fixes 0..k-1, a member of G_k."""
        j, r = self.sift(g, k)
        if j < self.n:
            self._extend(k, r)

    def _extend(self, k: int, g: tuple) -> None:
        gens, reps, reps_inv = self.gens[k], self.reps[k], self.reps_inv[k]
        gens.append(g)
        # the pairs (b, s) not met before: each old point with g, then each
        # new point with every generator
        todo = [(b, g) for b in reps]
        for b, s in todo:  # todo grows while it is walked
            w = tuple(map(s.__getitem__, reps[b]))
            u_inv = reps_inv.get(w[k])
            if u_inv is None:
                reps[w[k]] = w
                reps_inv[w[k]] = self.inv(w)
                todo += [(w[k], x) for x in gens]
            else:
                self.add(tuple(map(u_inv.__getitem__, w)), k + 1)

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


class _Orbit(NamedTuple):
    """The conjugates ``H_i = t[i] H t[i]^-1`` of H (``H_0 = H``), in BFS
    order from H under conjugation by the generators of G."""
    trans: list  # t[i], with t[0] = 1; the conjugators of H_i are t[i] N
    trans_inv: list
    chain: _StabChain | _FlatChain  # N = N_G(H)
    action: list[list[int]]  # action[s][i] = j where s H_i s^-1 = H_j
    tree: list  # tree[i] = (parent, s): H_i = s H_parent s^-1, for i >= 1

    def commuting(self, commutes) -> list[int]:
        """The i with ``commutes(t[i], t[i]^-1)``, in orbit order."""
        return [i for i, (t, ti) in enumerate(zip(self.trans, self.trans_inv))
                if commutes(t, ti)]


def _conjugates(d: GroupDescriptor, h: SubgroupSpec, limit: int,
                cap: int | None = None) -> _Orbit:
    """Orbit-stabilizer for H under conjugation (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 4 and §4.1): the
    transversal and its inverses, the chain of the normalizer N grown by the
    Schreier generators ``t[j]^-1 s t[i]`` until it has order
    ``|G| / |orbit|`` (known order, module docstring; a stabilizer chain for
    ``sn``/``an``, one level holding the payload closure otherwise), and the
    action of each generator on the orbit points with the BFS tree (a
    Schreier vector).  ``cap`` bounds the number of conjugates.

    On ``sn``/``an`` the conjugates are first named by their point orbits,
    and the finished chain's level-0 generators are checked to normalize H
    (orbit key, module docstring); when one does not, the search runs again
    named by the conjugates' element sets."""
    if h.descriptor != d:
        raise DescriptorMismatchError(f"the subgroup lives in {h.descriptor}, not {d}")
    size = _checked_order(d, limit)
    elements = frozenset(g.payload for g in closure_of(h))
    orb = None
    if d.family in PERMUTATION_FAMILIES:
        orb = _orbit_search(d, size, *_orbit_key(d, h, elements), cap)
    if orb is None:  # two conjugates share their point orbits
        orb = _orbit_search(d, size, *_exact_key(d, elements), cap)
    if len(orb.trans) * orb.chain.order() != size:
        raise AssertionError(f"orbit-stabilizer count {len(orb.trans)} * "
                             f"{orb.chain.order()} is not |{d}| = {size}")
    return orb


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
    _, inv, _, conj = _payload_ops(d)
    gens = [g.payload for g in h.generators]
    orbits = {frozenset([x[p] for x in elements]) for p in range(d.n)}

    def act(name: frozenset, s, s_inv) -> frozenset:
        return frozenset([frozenset(map(s.__getitem__, o)) for o in name])

    def normalizes(g) -> bool:
        g_inv = inv(g)
        return all(conj(g, x, g_inv) in elements for x in gens)
    return frozenset(o for o in orbits if len(o) > 1), act, normalizes


def _orbit_search(d: GroupDescriptor, size: int, name, act, normalizes,
                  cap: int | None) -> _Orbit | None:
    """The search of :func:`_conjugates` over the names of H's conjugates, in
    two phases.  First the BFS: ``act(name, s, s^-1)`` names the conjugate
    by s of the one named, and each non-tree edge is recorded, not yet
    formed.  Then, in BFS order, the Schreier generator of each edge joins
    the chain, until the chain reaches the order ``size / |orbit|`` (known
    order, module docstring).  None when ``normalizes`` is given and fails
    on a generator of the chain's level 0."""
    mul, inv, one, _ = _payload_ops(d)
    steps = [(s.payload, inv(s.payload)) for s in group_generators(d)]
    names = [name]
    where = {name: 0}
    trans, trans_inv, tree = [one], [one], [None]
    action: list[list[int]] = [[] for _ in steps]
    edges = []  # (j, s, t): the Schreier generator t[j]^-1 s t, unformed
    for i, t in enumerate(trans):  # trans grows while it is walked: a BFS
        for si, (s, s_inv) in enumerate(steps):
            k = act(names[i], s, s_inv)
            j = where.get(k)
            if j is None:
                if cap is not None and len(names) >= cap:
                    raise GuardExceededError(
                        f"{len(names) + 1} conjugate subgroups reached, "
                        f"above the clique guard {cap}")
                j = where[k] = len(names)
                names.append(k)
                trans.append(mul(s, t))
                trans_inv.append(mul(trans_inv[i], s_inv))
                tree.append((i, si))
            else:
                edges.append((j, s, t))
            action[si].append(j)
    chain = _StabChain(d) if d.family in PERMUTATION_FAMILIES else _FlatChain(d, size)
    for j, s, t in edges:
        if len(trans) * chain.order() == size:
            break
        chain.add(mul(trans_inv[j], mul(s, t)))
    if normalizes is not None and not all(map(normalizes, chain.gens[0])):
        return None
    return _Orbit(trans, trans_inv, chain, action, tree)


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


def _commutation_graph(orb: _Orbit, near0: list[int]):
    """Neighbourhoods in the commutation graph on the conjugates, from the
    one of H: conjugation by a generator s is an automorphism of the graph
    that takes ``H_parent`` to ``H_j``, so ``N(j) = s N(parent)``.  Each
    ``N(j)`` is mapped down the BFS tree when first asked for."""
    nbr: list = [None] * len(orb.trans)
    nbr[0] = frozenset(near0)

    def near(j: int) -> frozenset:
        path = [j]
        while nbr[path[-1]] is None:
            path.append(orb.tree[path[-1]][0])
        for k in reversed(path[:-1]):
            parent, s = orb.tree[k]
            act = orb.action[s]
            nbr[k] = frozenset([act[x] for x in nbr[parent]])
        return nbr[j]
    return near


def _max_clique(near, cap: int, key=None) -> list[int]:
    """A largest clique through vertex 0 of at most ``cap`` vertices, found
    by branch and bound over its neighbours in ``key`` order; the first
    largest one in that order wins."""
    best = [0]

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

    grow([0], sorted(near(0), key=key))
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


def _zero_bound(s: tuple, k: int) -> int:
    return 0


def _trivial_bound(d: GroupDescriptor):
    """The bound of :func:`~cinorm.norms.trivial_norm`: 1 under a prefix
    other than the identity's, whose leaves are all non-identity, else 0."""
    one = _payload_ops(d)[2]
    return lambda s, k: int(s[:k] != one[:k])


def _power_memo(test, moved: SubgroupSpec, m: int):
    """``test(phi)`` of the powers phi^2..phi^m, asked once per distinct
    key: the images of supp H under phi^2, ..., phi^m (power lemma, module
    docstring).  Permutation payloads only."""
    supp = sorted({i for g in moved.generators for i, x in enumerate(g.payload) if i != x})
    memo: dict[tuple, bool] = {}

    def accept(phi) -> bool:
        get, key = phi.__getitem__, ()
        img = tuple(map(get, supp))
        for _ in range(1, m):
            img = tuple(map(get, img))
            key += img
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = test(phi)
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
    a negative value among the leaves is refused."""
    mul, _, one, _ = _payload_ops(d)
    best = None
    cut = max(len(levels) - 1, 0)
    while cut > 0 and prod(len(reps) for reps, _ in levels[cut - 1:]) <= LEAF_BATCH:
        cut -= 1
    tails = list(levels[-1][0].values()) if levels else [one]
    for reps, _ in reversed(levels[cut:-1]):
        tails = [mul(u, x) for u in reps.values() for x in tails]

    def settle(s) -> None:
        nonlocal best
        leaves = [mul(s, x) for x in tails]
        keys = sorted(zip(repeat(0) if value is None else map(value, leaves), leaves))
        if keys[0][0] < 0:
            raise ValueError(f"norm value {keys[0][0]} < 0 on "
                             f"{to_literal(Element(d, keys[0][1]))}")
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
        for b in sorted(reps, key=s.__getitem__):
            c = mul(s, reps[b])
            if best is None or (bound(c, fixed), c[:fixed]) <= (best[0], best[1][:fixed]):
                walk(c, depth + 1)

    for t in cosets:
        walk(t, 0)
    return best


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
    bound for :func:`~cinorm.norms.support_norm`, the trivial bound for
    :func:`~cinorm.norms.trivial_norm` and 0 for every other norm; for
    m >= 2 the powers are tested only on leaves below the best so far, once
    per key of the power lemma on ``sn``/``an``."""
    if m < 1:
        raise ValueError(f"m = {m}: a displacer needs m >= 1")
    if fixed.descriptor != d:
        raise DescriptorMismatchError(f"the subgroup lives in {fixed.descriptor}, not {d}")
    value = None if norm is None else payload_value_fn(d, norm)
    orb = _conjugates(d, moved, limit)
    mul, inv, _, _ = _payload_ops(d)
    commutes = _commuter(d, fixed, moved)
    # phi moved phi^-1 is t moved t^-1 for every phi in the coset t N
    near0 = orb.commuting(commutes)
    if fixed is moved and m >= 2 and not is_abelian_subgroup(fixed):
        if len(_max_clique(_commutation_graph(orb, near0), m + 1)) <= m:
            return EnergyResult(m, None, None)

    def powers_commute(phi) -> bool:
        phi_inv = inv(phi)
        pw, pwi = phi, phi_inv
        for _ in range(2, m + 1):
            pw, pwi = mul(phi, pw), mul(pwi, phi_inv)
            if not commutes(pw, pwi):
                return False
        return True

    levels = orb.chain.levels()
    if norm is support_norm:
        bound = _orbit_bound(d.n, levels)
    elif norm is trivial_norm:
        bound = _trivial_bound(d)
    else:
        bound = _zero_bound
    accept = None
    if m >= 2:
        accept = powers_commute
        if d.family in PERMUTATION_FAMILIES:
            accept = _power_memo(powers_commute, moved, m)
    best = _least_leaf(d, [orb.trans[i] for i in near0], levels, value, bound, accept)
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
    orb = _conjugates(d, h, limit, cap=CLIQUE_GUARD)
    near0 = orb.commuting(_commuter(d, h, h))
    # the clique search meets only H's vertex 0 and its neighbours
    levels = orb.chain.levels()
    least = {i: _least_leaf(d, [orb.trans[i]], levels, None, _zero_bound, None)
             for i in near0}
    best = _max_clique(_commutation_graph(orb, near0), len(near0) + 1, key=least.__getitem__)
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


def _refuse_foreign(d: GroupDescriptor, norm: NormLike, *subgroups: SubgroupSpec) -> None:
    """Refuse a norm table or a subgroup of a group other than ``d``."""
    refuse_foreign_table(d, norm)
    for h in subgroups:
        if h.descriptor != d:
            raise DescriptorMismatchError(f"the subgroup lives in {h.descriptor}, not {d}")


def _check_energy(e: EnergyResult, m: int, value, fixed: SubgroupSpec,
                  moved: SubgroupSpec) -> None:
    """Refuse a supplied energy of another m, and re-check a finite one as a
    computed one is: its minimizer has its value, and the minimizer's powers
    ``phi^1..phi^m`` pass :func:`_assert_witnesses`."""
    if e.m != m:
        raise ValueError(f"the energy is e_{e.m}, not e_{m}")
    if e.value is None:
        return
    phi = e.minimizer
    if phi is None or Fraction(value(phi)) != e.value:
        raise ValueError(f"the energy {e.value} is not the value of its minimizer "
                         f"{None if phi is None else to_literal(phi)}")
    try:
        _assert_witnesses(fixed, moved, tuple(phi ** k for k in range(1, m + 1)))
    except AssertionError:
        raise ValueError(f"the energy's minimizer {to_literal(phi)} does not "
                         f"displace the subgroup") from None


def verify_master_inequalities(d: GroupDescriptor, h: SubgroupSpec, m: int,
                               norm: NormLike, *,
                               energy: EnergyResult | None = None) -> MasterReport:
    """Pointwise check of the displacement inequalities on a finite group.

    For every x in the subgroup's derived part whose commutator length inside
    the subgroup is m: ``v(x) <= 4 e_1`` when m = 1 (plus the pointwise chain
    ``v([f,g]) <= 2 v([f,phi]) <= 4 v(phi)`` for the found minimizer), and
    ``v(x) <= 14 e_m`` for m >= 2.  Ambient commutator length <= 2 is checked
    when the ambient order is at most :data:`AMBIENT_CL_LIMIT`.  A supplied
    ``energy`` must be e_m, and a finite one is re-checked.
    """
    _refuse_foreign(d, norm, h)
    value = norm_value_fn(norm)
    if energy is not None:
        _check_energy(energy, m, value, h, h)
    closure = sorted(closure_of(h), key=sort_key)
    cl_h = commutator_length_over(closure, d, name="cl_H")
    e = energy if energy is not None else displacement_energy(d, h, m, norm)
    rows: list[InequalityRow] = []
    chain: list[InequalityRow] = []

    ambient_cl = None
    if gd._order_within(d, AMBIENT_CL_LIMIT) is not None:
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
    subgroup closures.  A supplied ``energy`` must be e_1, and a finite one
    is re-checked: its minimizer conjugates ``h2`` to commute with ``h1``."""
    _refuse_foreign(d, norm, h1, h2)
    value = norm_value_fn(norm)
    if energy is not None:
        _check_energy(energy, 1, value, h1, h2)
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
