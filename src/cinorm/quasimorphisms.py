"""Quasi-morphism machinery: defect estimation, homogenization with certified
error intervals, the swap-extension to the two-coordinate cover, commutator
suprema, witness-level additivity checks and stable-commutator-length bounds.

Certification discipline: sampled suprema are always labelled as lower
bounds; a certified scl lower bound requires a *declared* defect upper bound
and is never promoted from sampling.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from operator import countOf
from typing import Any, Callable, Sequence

from . import descriptors as gd
from .descriptors import GroupDescriptor
from .elements import (
    Element,
    _payload_ops,
    commutator_of,
    compose,
    identity,
    invert,
    power,
)
from .enumeration import ENUMERATION_GUARD, SubgroupSpec, closure_of, subgroups_commute
from .errors import DescriptorMismatchError, GuardExceededError, InfiniteGroupError
from .kernel import FiniteGroup, domain_kernel, group_kernel, scaled
from .literals import to_literal
from .sampling import random_payload

ZERO = Fraction(0)


@dataclass
class QuasiMorphism:
    """Rational-valued function with uniformly bounded additivity defect.

    Every quasi-morphism is evaluated on raw payloads of its domain, without
    the domain check: ``fn`` on the Element of the payload, or, for the
    library's integer-valued constructors, their int count itself."""

    domain: GroupDescriptor
    fn: Callable[[Element], Fraction]
    kind: str = "user"  # homomorphism | counting | bar_extension | user
    homogeneous: bool = False
    name: str = "qm"
    notes: dict = field(default_factory=dict)
    _on_payload: Callable[[Any], Any] = field(init=False, repr=False, compare=False)
    #: The payload function whose sum over the coordinates this is, set by
    #: :func:`bar_extension`.
    _summand: Callable[[Any], Any] | None = field(default=None, init=False, repr=False,
                                                  compare=False)

    def __post_init__(self) -> None:
        self._on_payload = lambda p: _fraction(self.fn(Element(self.domain, p)))

    def __call__(self, g: Element) -> Fraction:
        self._check(g)
        return _fraction(self._on_payload(g.payload))

    def _check(self, g: Element) -> None:
        if g.descriptor is not self.domain:
            raise DescriptorMismatchError(f"{self.name} is defined on {self.domain}, not {g.descriptor}")


def _fraction(v: Any) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def _payload_qm(domain: GroupDescriptor, count: Callable[[Any], Any],
                **kw) -> QuasiMorphism:
    """A quasi-morphism evaluated by ``count`` on raw payloads, and ``fn``
    its value as a Fraction on Elements."""
    q = QuasiMorphism(domain, lambda g: Fraction(count(g.payload)), **kw)
    q._on_payload = count
    return q


# ---------------------------------------------------------------------------
# counting quasi-morphisms on free groups


def _signed_count(pat: tuple, pat_inv: tuple, rank: int) -> Callable[[tuple], int]:
    """Occurrences of ``pat`` minus those of ``pat_inv`` in a word of a free
    group of rank ``rank``, overlaps included.

    Below rank 128 every letter fits one signed byte, so the word is encoded
    once and each pattern is found by ``bytes.find``, restarting one byte
    past each hit so that overlapping occurrences count; the encoding is
    injective, so a byte match is a letter match.  Larger ranks zip the
    word's k shifts, which yields each length-k window once."""
    if rank < 128:
        p, p_inv = array("b", pat).tobytes(), array("b", pat_inv).tobytes()

        def count(w: tuple) -> int:
            b = array("b", w).tobytes()
            n = 0
            i = b.find(p)
            while i >= 0:
                n += 1
                i = b.find(p, i + 1)
            i = b.find(p_inv)
            while i >= 0:
                n -= 1
                i = b.find(p_inv, i + 1)
            return n
        return count
    starts = range(len(pat))

    def count(w: tuple) -> int:
        shifts = [w[i:] for i in starts]
        return countOf(zip(*shifts), pat) - countOf(zip(*shifts), pat_inv)
    return count


def counting_qm(pattern: Element) -> QuasiMorphism:
    """Signed count of pattern occurrences in the reduced word: occurrences of
    the pattern minus occurrences of its inverse.  All overlapping occurrences
    count; the convention is recorded because defect values depend on it.
    The name is the pattern's literal, so a pattern with a letter past ``z``
    (of a rank above 26) is refused with ``ValueError``.
    """
    if pattern.descriptor.family != "free":
        raise ValueError("counting quasi-morphisms live on free groups")
    if not pattern.payload:
        raise ValueError("pattern must be non-empty")
    d = pattern.descriptor
    return _payload_qm(d, _signed_count(pattern.payload, invert(pattern).payload, d.n),
                       kind="counting", name=f"count[{to_literal(pattern)}]",
                       notes={"occurrences": "all overlapping"})


def exponent_sum_qm(d: GroupDescriptor, generator: int = 1) -> QuasiMorphism:
    """Exponent-sum homomorphism of one generator: a true homomorphism, hence
    a quasi-morphism with defect zero."""
    def count(w: tuple) -> int:
        return countOf(w, generator) - countOf(w, -generator)
    return _payload_qm(d, count, kind="homomorphism", homogeneous=True,
                       name=f"exp[{generator}]")


# ---------------------------------------------------------------------------
# defect


@dataclass
class DefectEstimate:
    value: Fraction
    certified: str  # exact | sampled_lower_bound | declared_upper_bound
    sample_count: int = 0
    seed: int | None = None


def defect(q: QuasiMorphism, mode: str = "exact", budget: int = 2000,
           seed: int = 0, size: int = 12) -> DefectEstimate:
    """Additivity defect ``sup |q(ab) - q(a) - q(b)|``.

    Exact mode enumerates all pairs of a finite domain; sampled mode draws
    ``budget`` seeded pairs and yields a true lower bound of the supremum,
    and refuses a negative budget.
    """
    if mode == "exact":
        if not gd.finite(q.domain):
            raise InfiniteGroupError("exact defect needs a finite domain")
        G = group_kernel(q.domain)
        vals, den = _scaled_on(q, G)
        best = 0
        for a in range(G.n):
            # |q(ab) - q(a) - q(b)| over the row, from the extremes of q(ab) - q(b)
            diffs = [vals[ab] - vb for ab, vb in zip(G.row(a), vals)]
            best = max(best, max(diffs) - vals[a], vals[a] - min(diffs))
        return DefectEstimate(Fraction(best, den), "exact", G.n ** 2, None)
    if mode != "sampled":
        raise ValueError(f"unknown defect mode {mode!r}")
    _refuse_negative(budget)
    rng = random.Random(seed)
    d, iq = q.domain, q._on_payload
    mul = _payload_ops(d)[0]
    best = 0
    for _ in range(budget):
        a = random_payload(d, rng, size)
        b = random_payload(d, rng, size)
        best = max(best, abs(iq(mul(a, b)) - iq(a) - iq(b)))
    return DefectEstimate(Fraction(best), "sampled_lower_bound", budget, seed)


def _scaled_on(q: QuasiMorphism, G: FiniteGroup) -> tuple[list[int], int]:
    """q over the kernel's elements, scaled: read on its payloads after one
    domain check, as every element of a kernel shares its descriptor."""
    q._check(G.elements[0])
    return scaled(map(q._on_payload, G.payloads))


def _refuse_negative(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"budget {budget} is negative")


# ---------------------------------------------------------------------------
# homogenization


@dataclass
class HomogenizationInterval:
    element: Element
    n: int
    center: Fraction
    radius: Fraction | None  # None marks a heuristic (uncertified) interval
    certified: bool

    @property
    def low(self) -> Fraction:
        return self.center - (self.radius or ZERO)

    @property
    def high(self) -> Fraction:
        return self.center + (self.radius or ZERO)


def homogenize(q: QuasiMorphism, g: Element, n: int,
               defect_upper: Fraction | None = None) -> HomogenizationInterval:
    """Estimate the homogenization limit by ``q(g^n)/n``.

    With a declared defect upper bound D the subadditivity argument pins the
    limit inside ``q(g^n)/n +- D/n``; without one the radius is heuristic.
    A defect is never negative, so a negative D is refused, and a free word
    g^n of more than ``ENUMERATION_GUARD`` letters is never built.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if defect_upper is not None and Fraction(defect_upper) < 0:
        raise ValueError(f"defect upper bound {defect_upper} is negative")
    letters = n * len(g.payload)
    if g.descriptor.family == "free" and letters > ENUMERATION_GUARD:
        raise GuardExceededError(f"g^{n} would have up to {letters} letters, above "
                                 f"the enumeration guard {ENUMERATION_GUARD}")
    center = q(power(g, n)) / n
    if defect_upper is None:
        return HomogenizationInterval(g, n, center, None, False)
    return HomogenizationInterval(g, n, center, Fraction(defect_upper) / n, True)


# ---------------------------------------------------------------------------
# the swap extension


def bar_extension(r: QuasiMorphism, bar_descriptor: GroupDescriptor | None = None) -> QuasiMorphism:
    """Extend a quasi-morphism to the two-coordinate swap cover by summing the
    normal form's coordinates."""
    bd = bar_descriptor if bar_descriptor is not None else gd.bar(r.domain)
    if bd.family != "bar" or bd.base != r.domain:
        raise ValueError("target descriptor must be the bar cover of the domain")

    base = r._on_payload
    q = _payload_qm(bd, lambda p: base(p[0]) + base(p[1]),
                    kind="bar_extension", name=f"bar[{r.name}]")
    q._summand = base
    return q


@dataclass
class DefectDecompositionRow:
    left: Element
    right: Element
    lhs: Fraction
    rhs: Fraction
    ok: bool


def bar_defect_decomposition(r: QuasiMorphism, rbar: QuasiMorphism,
                             h: Element, f: Element) -> DefectDecompositionRow:
    """Pointwise inequality bounding the extension's defect by the two
    component defects of the normal-form product, exact in rationals."""
    h1, h2, he = h.payload
    f1, f2, _ = f.payload
    if he:
        f1, f2 = f2, f1
    # q's domain checks, made once here since the payload path skips them
    hf = compose(h, f)
    rbar._check(hf)
    r._check(Element(h.descriptor.base, h1))
    # hf is (h1 f1, h2 f2) after the swap, so each of the six coordinates is
    # valued once, and the component defects read hf's coordinates
    x1, x2, _ = hf.payload
    v = r._on_payload
    a1, a2, b1, b2, c1, c2 = v(h1), v(h2), v(f1), v(f2), v(x1), v(x2)
    rhs = abs(c1 - a1 - b1) + abs(c2 - a2 - b2)
    if rbar._summand is v:  # rbar sums r over the coordinates
        lhs = abs(c1 + c2 - a1 - a2 - b1 - b2)
    else:
        vbar = rbar._on_payload
        lhs = abs(vbar(hf.payload) - vbar(h.payload) - vbar(f.payload))
    return DefectDecompositionRow(h, f, Fraction(lhs), Fraction(rhs), lhs <= rhs)


@dataclass
class SplittingReport:
    element: Element
    case: int  # 0: plain pair, 1: swap bit set
    w1: Element
    w2: Element
    checks: int
    passed: bool
    failures: list[int]


def verify_bar_splitting(w: Element, k: int) -> SplittingReport:
    """Verify the power-splitting identities in the swap cover by exact
    multiplication: ``w^j = w1^j w2^j`` for a plain pair, and
    ``w^(2j) = w1^j w2^j`` when the swap bit is set, for all j up to k."""
    d = w.descriptor
    if d.family != "bar":
        raise ValueError("splitting check needs a bar-family element")
    g1, g2, e = w.payload
    mul, _, one, _ = _payload_ops(d.base)
    if e:
        g1, g2 = mul(g1, g2), mul(g2, g1)
    w1 = Element(d, (g1, one, 0))
    w2 = Element(d, (one, g2, 0))
    failures = []
    for j in range(1, k + 1):
        lhs = power(w, j if e == 0 else 2 * j)
        rhs = compose(power(w1, j), power(w2, j))
        if lhs != rhs:
            failures.append(j)
    return SplittingReport(w, e, w1, w2, k, not failures, failures)


# ---------------------------------------------------------------------------
# commutator suprema and witness additivity


@dataclass
class CommutatorSupEstimate:
    value: Fraction
    witnesses: list[tuple[Element, Element]]
    certified: str  # exact | sampled_lower_bound
    sample_count: int = 0
    seed: int | None = None


def commutator_sup(q: QuasiMorphism, h: SubgroupSpec | None = None,
                   mode: str = "exact", budget: int = 2000, seed: int = 0,
                   size: int = 8, max_witnesses: int = 5) -> CommutatorSupEstimate:
    """Supremum of ``q([x, y])``.

    Exact over a finite subgroup closure; otherwise a seeded sampled lower
    bound over the whole domain from ``budget`` seeded pairs, where a
    negative budget is refused.
    """
    if mode == "exact":
        if h is None:
            raise ValueError("exact mode needs a subgroup")
        return _exact_commutator_sup(q, h, max_witnesses)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    _refuse_negative(budget)
    rng = random.Random(seed)
    d, iq = q.domain, q._on_payload
    mul, inv, _, _ = _payload_ops(d)
    best = 0
    pairs: list[tuple[Any, Any]] = []  # witness payloads
    for _ in range(budget):
        x = random_payload(d, rng, size)
        y = random_payload(d, rng, size)
        v = iq(mul(mul(x, y), mul(inv(x), inv(y))))  # q([x, y])
        if v > best:
            best = v
            pairs = [(x, y)]
        elif v == best and v > 0 and len(pairs) < max_witnesses:
            pairs.append((x, y))
    witnesses = [(Element(d, x), Element(d, y)) for x, y in pairs]
    return CommutatorSupEstimate(Fraction(best), witnesses, "sampled_lower_bound",
                                 budget, seed)


def _exact_commutator_sup(q: QuasiMorphism, h: SubgroupSpec,
                          max_witnesses: int) -> CommutatorSupEstimate:
    # the sup is over all pairs, clamped below at 0; witnesses are the first
    # pairs in (x, y) order that attain a positive sup, at least one of them
    G = domain_kernel(h.descriptor, closure_of(h))
    elems = G.elements
    vals, den = _scaled_on(q, G)
    cap = max(max_witnesses, 1)
    best, witnesses = 0, []
    for x in range(G.n):
        row = [vals[c] for c in G.commutators(x)]
        top = max(row)
        if top > best:
            best, witnesses = top, []
        if top == best > 0 and len(witnesses) < cap:
            witnesses += [(elems[x], elems[y]) for y, v in enumerate(row) if v == best]
    return CommutatorSupEstimate(Fraction(best, den), witnesses[:cap], "exact", G.n ** 2)


@dataclass
class WitnessAdditivityReport:
    combined: Fraction
    factor_values: list[Fraction]
    ok: bool
    commutation_checked: bool


def verify_witness_additivity(q: QuasiMorphism, factors: Sequence[SubgroupSpec],
                         witnesses: Sequence[tuple[Element, Element]]) -> WitnessAdditivityReport:
    """Check that commutator witnesses drawn from pairwise-commuting subgroups
    achieve exactly the sum of their individual values under ``q``.

    This certifies the lower-bound half of additivity of the commutator
    supremum over a commuting product; the upper half is a supremum over an
    unbounded set and is not certified here.
    """
    if len(factors) != len(witnesses):
        raise ValueError("one witness pair per factor is required")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if not subgroups_commute(factors[i], factors[j]):
                raise ValueError(f"factors {i} and {j} do not commute")
    x_all = identity(q.domain)
    y_all = identity(q.domain)
    parts = []
    for (x, y) in witnesses:
        x_all = compose(x_all, x)
        y_all = compose(y_all, y)
        parts.append(q(commutator_of(x, y)))
    combined = q(commutator_of(x_all, y_all))
    return WitnessAdditivityReport(combined, parts,
                                   combined == sum(parts, ZERO), True)


# ---------------------------------------------------------------------------
# scl bounds


@dataclass
class SclBounds:
    element: Element
    lower: Fraction | None
    lower_provenance: dict
    upper: Fraction | None
    upper_provenance: dict


def scl_bounds(w: Element, q: QuasiMorphism,
               defect_upper: Fraction | None = None, *, n: int = 64,
               cl_oracle: Callable[[Element], int] | None = None,
               powers: Sequence[int] = (1, 2, 4, 8)) -> SclBounds:
    """Certified-elementary bounds for the stable commutator length.

    Lower: Bavard duality gives ``scl(w) >= hq(w) / (2 D(hq))`` for the
    homogenization hq of q.  The declared ``defect_upper`` D bounds the
    defect of the non-homogeneous q, and D(hq) <= 2D (Calegari, *scl*, MSJ
    Memoirs 20, Lemma 2.58), so the certified bound is the low end of the
    homogenization interval divided by ``4 D`` (clamped at zero, which scl
    always satisfies).  Upper: the best ``cl(w^k)/k`` an oracle provides; on
    finite groups this degenerates to zero.
    """
    lower = None
    lower_prov: dict = {}
    if defect_upper is not None:
        defect_upper = Fraction(defect_upper)
        if defect_upper == 0:
            if q(w) != 0:
                raise ValueError(
                    "defect 0 makes q a homomorphism, so q(w) != 0 is inconsistent")
            lower = ZERO
            lower_prov = {"qm": q.name, "defect_upper": "0/1", "n": n}
        else:
            interval = homogenize(q, w, n, defect_upper)
            lower = max(ZERO, interval.low / (4 * defect_upper))
            lower_prov = {"qm": q.name,
                          "defect_upper": str(defect_upper),
                          "n": n, "certified": True}
    upper = None
    upper_prov: dict = {}
    if cl_oracle is not None:
        for k in powers:
            cl = cl_oracle(power(w, k))
            v = Fraction(cl, k)
            if upper is None or v < upper:
                upper = v
                upper_prov = {"n": k, "cl": str(Fraction(cl))}
    if lower is not None and upper is not None and lower > upper:
        raise AssertionError("certified lower bound exceeded the upper bound")
    return SclBounds(w, lower, lower_prov, upper, upper_prov)
