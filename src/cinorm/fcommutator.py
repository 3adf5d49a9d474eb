"""Constructive decomposition of products of commutators into conjugated
shift-commutators inside wreath products.

The stage is a wreath product of a base group by a cyclic (or integer) shift
``F``.  Conjugating the coordinate-0 copy of the base by powers of ``F``
yields pairwise-commuting copies, and products of the form
``prod_i Conj_{F^i}(g_i)`` multiply componentwise.  Everything below is
verified by exact multiplication at construction time; a decomposition that
fails to reconstruct its target raises instead of returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .descriptors import GroupDescriptor, finite, wreath_z, wreath_zn
from .elements import (
    Element,
    commutator_of,
    compose,
    conjugate_of,
    identity,
    invert,
)
from .enumeration import SubgroupSpec, group_generators, kept, subgroups_commute
from .norms import NormLike, payload_value_fn


@dataclass(frozen=True)
class FCommEnvironment:
    """Ambient wreath product with its shift F (no lamps, shift 1) and the
    number of shifted copies of the base that are guaranteed to commute
    pairwise."""

    ambient: GroupDescriptor
    base: GroupDescriptor
    capacity: int
    shift: Element

    @property
    def ring(self) -> int:
        """The number of coordinates on ``wreath-zn``, 0 on ``wreath-z``."""
        return self.ambient.n if self.ambient.family == "wreath-zn" else 0

    def embed(self, h: Element, coordinate: int = 0) -> Element:
        """The base element placed at one coordinate of the wreath product."""
        if h.descriptor is not self.base:
            raise ValueError("embed expects a base-group element")
        if self.ring:
            coordinate %= self.ring
        if h.is_identity():
            return identity(self.ambient)
        return Element(self.ambient, (((coordinate, h.payload),), 0))

    def shifted(self, h: Element, i: int) -> Element:
        """``Conj_{F^i}`` of the coordinate-0 embedding, by actual conjugation
        with F^i built directly: no lamps and shift i, mod the ring."""
        return conjugate_of(self.embed(h),
                            Element(self.ambient, ((), i % self.ring if self.ring else i)))

    def value(self, c: "FCommutator") -> Element:
        """The element the pair represents: ``Conj_conjugator([F, argument])``."""
        return conjugate_of(commutator_of(self.shift, c.argument), c.conjugator)

    def inverse_of(self, c: "FCommutator") -> "FCommutator":
        """A same-shaped representation of the inverse value.

        ``[F,h]^-1 = Conj_h([F, h^-1])``, so conjugators just accumulate.
        """
        inv = FCommutator(compose(c.conjugator, c.argument), invert(c.argument))
        if self.value(inv) != invert(self.value(c)):
            raise AssertionError("inverse representation failed to verify")
        return inv


def wreath_environment(base: GroupDescriptor, capacity: int,
                       ring: int | None = None, infinite: bool = False) -> FCommEnvironment:
    """Build the standard environment: base wreath a shift with at least
    ``capacity + 1`` distinct coordinates (``ring`` may widen the finite ring).

    For every finite base, the copies at coordinates 0..capacity are checked
    to commute pairwise, on the shifted generators of the base: two subgroups
    commute elementwise iff their generators do.  Copy j is copy 0 conjugated
    by F^j, and conjugation by F^-i takes the pair (i, j) to (0, j - i), so
    checking copy 0 against copies 1..capacity checks every pair.

    The arguments are checked on every call; the environment is built and
    checked once per shape and then :func:`~cinorm.enumeration.kept` with
    the base's other state.
    """
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if infinite:
        ring = None
    else:
        ring = capacity + 1 if ring is None else ring
        if ring < capacity + 1:
            raise ValueError(f"ring size {ring} cannot host {capacity} shifted copies")
    return kept(base, ("wreath_environment", capacity, ring),
                lambda: _checked_environment(base, capacity, ring))


def _checked_environment(base: GroupDescriptor, capacity: int,
                         ring: int | None) -> FCommEnvironment:
    """The environment on ``wreath-zn`` of ``ring`` coordinates, or on
    ``wreath-z`` when ``ring`` is None, with its copies checked."""
    ambient = wreath_z(base) if ring is None else wreath_zn(base, ring)
    env = FCommEnvironment(ambient, base, capacity, Element(ambient, ((), 1)))
    if finite(base):
        gens = group_generators(base)
        copies = [SubgroupSpec(tuple(env.shifted(g, i) for g in gens))
                  for i in range(capacity + 1)]
        for j, b in enumerate(copies[1:], 1):
            if not subgroups_commute(copies[0], b):
                raise AssertionError(f"coordinates 0 and {j} fail to commute")
    return env


@dataclass(frozen=True)
class FCommutator:
    """A conjugated shift-commutator ``Conj_conjugator([F, argument])``."""

    conjugator: Element
    argument: Element


@dataclass(frozen=True)
class RearrangeSolution:
    """Partial products solving the telescoping system behind
    :func:`solve_rearrange_id`: component k is ``g_0 ... g_k``."""

    components: tuple[Element, ...]
    assembled: Element


@dataclass(frozen=True)
class FCommutatorDecomposition:
    target: Element
    factors: tuple[FCommutator, ...]
    verified: bool
    audit: dict = field(default_factory=dict, compare=False)


def _backward(d: GroupDescriptor, gs) -> Element:
    """The product ``g_m ... g_1`` of a list ``g_1 .. g_m`` in ``d``."""
    out = identity(d)
    for g in reversed(gs):
        out = compose(out, g)
    return out


def _spread(env: FCommEnvironment, gs, start: int = 0) -> Element:
    """``prod_i Conj_{F^(start+i)}(embed(g_i))`` by actual conjugation."""
    out = identity(env.ambient)
    for i, g in enumerate(gs):
        out = compose(out, env.shifted(g, start + i))
    return out


def solve_rearrange_id(env: FCommEnvironment, gs) -> tuple[RearrangeSolution, FCommutator]:
    """Given base elements ``g_0 .. g_m`` with trivial product, express
    ``prod_i Conj_{F^i}(g_i)`` as the single commutator ``[F, phi^-1]``.

    The assembled ``phi`` spreads the partial products ``g_0 ... g_k`` over
    coordinates ``0 .. m-1``; the defining telescoping identity is verified
    by exact multiplication.
    """
    gs = list(gs)
    m = len(gs) - 1
    if m < 0:
        raise ValueError("need at least one base element")
    if m > env.capacity:
        raise ValueError(f"tuple of length {m + 1} exceeds capacity {env.capacity}")
    if any(g.descriptor != env.base for g in gs):
        raise ValueError("tuple entries must be base-group elements")
    running = identity(env.base)
    components = []
    for g in gs:
        running = compose(running, g)
        components.append(running)
    if not running.is_identity():
        raise ValueError("tuple product must be the identity")
    components = components[:-1]  # the final partial product is trivial
    phi = _spread(env, components)
    c = FCommutator(identity(env.ambient), invert(phi))
    if env.value(c) != _spread(env, gs):
        raise AssertionError("rearrangement identity failed to verify")
    return RearrangeSolution(tuple(components), phi), c


def rearrange(env: FCommEnvironment, gs) -> tuple[FCommutator, Element]:
    """Express ``embed(g_m ... g_1)`` as one shift-commutator times the
    residual spread ``prod_{i=1..m} Conj_{F^i}(g_i)``."""
    gs = list(gs)
    g = _backward(env.base, gs)
    padded = [g] + [invert(x) for x in gs]
    _, c = solve_rearrange_id(env, padded)
    residual = _spread(env, gs, start=1)
    if env.embed(g) != compose(env.value(c), residual):
        raise AssertionError("rearrangement split failed to verify")
    return c, residual


def two_fcommutators(env: FCommEnvironment, f: Element, g: Element) -> FCommutatorDecomposition:
    """Write the embedded commutator ``[f, g]`` of two base elements as a
    product of exactly two shift-commutators (coordinates 0..2)."""
    if env.capacity < 2:
        raise ValueError("two-factor split needs capacity >= 2")
    _, c1 = solve_rearrange_id(env, [compose(f, g), invert(g), invert(f)])
    _, c2 = solve_rearrange_id(env, [compose(invert(f), invert(g)), g, f])
    target = env.embed(commutator_of(f, g))
    verified = compose(env.value(c1), env.value(c2)) == target
    return FCommutatorDecomposition(target, (c1, c2), verified)


def _conjugated(c: FCommutator, u: Element) -> FCommutator:
    return FCommutator(compose(u, c.conjugator), c.argument)


def seven_fcommutators(env: FCommEnvironment, pairs) -> FCommutatorDecomposition:
    """Decompose ``embed([f_m, g_m] ... [f_1, g_1])`` into at most seven
    shift-commutators.

    Needs capacity at least ``max(m, 2)``: the commutator split of the
    leading block uses two shifted copies regardless of ``m``.
    """
    pairs = list(pairs)
    m = len(pairs)
    if m == 0:
        return FCommutatorDecomposition(identity(env.ambient), (), True)
    if env.capacity < max(m, 2):
        raise ValueError(
            f"{m} pairs need capacity {max(m, 2)}, environment has {env.capacity}")
    comms = [commutator_of(f, g) for f, g in pairs]
    target = env.embed(_backward(env.base, comms))

    c0, theta = rearrange(env, comms)
    cx, phi = rearrange(env, [f for f, _ in pairs])
    cy, psi = rearrange(env, [g for _, g in pairs])

    f_base = _backward(env.base, [f for f, _ in pairs])
    g_base = _backward(env.base, [g for _, g in pairs])
    fa = env.embed(f_base)
    ga = env.embed(g_base)

    # phi = fa * X and psi = ga * Y with X, Y single shift-commutators
    x_fc = _conjugated(env.inverse_of(cx), invert(fa))
    y_fc = _conjugated(env.inverse_of(cy), invert(ga))
    if compose(fa, env.value(x_fc)) != phi or compose(ga, env.value(y_fc)) != psi:
        raise AssertionError("residual factorization failed to verify")
    if commutator_of(phi, psi) != theta:
        raise AssertionError("componentwise commutator identity failed")

    head = two_fcommutators(env, f_base, g_base)
    ga_fa = compose(ga, fa)
    tail = (
        _conjugated(x_fc, compose(ga_fa, invert(ga))),
        _conjugated(y_fc, ga_fa),
        _conjugated(env.inverse_of(x_fc), ga_fa),
        _conjugated(env.inverse_of(y_fc), ga),
    )
    factors = (c0, *head.factors, *tail)
    prod = identity(env.ambient)
    for c in factors:
        prod = compose(prod, env.value(c))
    verified = prod == target
    audit = {"theta": theta, "phi": phi, "psi": psi,
             "f": fa, "g": ga,
             "x": env.value(x_fc), "y": env.value(y_fc)}
    return FCommutatorDecomposition(target, factors, verified, audit)


@dataclass(frozen=True)
class TwoCommutatorWitness:
    """Two explicit ambient commutators whose product is the target, showing
    its ambient commutator length is at most two."""

    target: Element
    first: tuple[Element, Element]
    second: tuple[Element, Element]
    verified: bool


def two_commutator_witness(env: FCommEnvironment, pairs) -> TwoCommutatorWitness:
    pairs = list(pairs)
    m = len(pairs)
    one = identity(env.ambient)
    if m == 0:
        return TwoCommutatorWitness(one, (one, one), (one, one), True)
    if env.capacity < m:
        raise ValueError(f"{m} pairs exceed capacity {env.capacity}")
    comms = [commutator_of(f, g) for f, g in pairs]
    target = env.embed(_backward(env.base, comms))
    c0, _ = rearrange(env, comms)
    phi = _spread(env, [f for f, _ in pairs], start=1)
    psi = _spread(env, [g for _, g in pairs], start=1)
    first = (env.shift, c0.argument)
    second = (phi, psi)
    rebuilt = compose(commutator_of(*first), commutator_of(*second))
    return TwoCommutatorWitness(target, first, second, rebuilt == target)


@dataclass
class NormBoundReport:
    ok: bool
    factor_rows: list[tuple[Fraction, Fraction, bool]]
    target_value: Fraction
    target_bound: Fraction
    shift_value: Fraction


def fcomm_norm_bound(decomp: FCommutatorDecomposition, env: FCommEnvironment,
                     norm: NormLike) -> NormBoundReport:
    """Check that each factor's norm is at most twice the shift's norm and the
    target's norm at most fourteen times it, under any conjugation-invariant
    norm on the ambient group; the norm is read and refused as by
    :func:`~cinorm.norms.payload_value_fn`."""
    value = payload_value_fn(env.ambient, norm)
    vf = Fraction(value(env.shift.payload))
    rows = [(v, 2 * vf, v <= 2 * vf)
            for v in (Fraction(value(env.value(c).payload)) for c in decomp.factors)]
    tv = Fraction(value(decomp.target.payload))
    return NormBoundReport(all(r[2] for r in rows) and tv <= 14 * vf, rows, tv, 14 * vf, vf)
