"""Canonical-form elements and exact arithmetic for all supported group families.

Every element is an immutable (descriptor, payload) pair.  Payloads are kept
canonical at all times -- words freely reduced, wreath supports sorted and
free of identity lamps, binary words without trailing zeros, matrices of
exact determinant one -- so structural equality and hashing decide group
equality, which is what makes set-based breadth-first searches exact.

Payload shapes:

* ``sn`` / ``an``   -- image tuple ``(g(0), ..., g(n-1))``; ``a*b`` acts as
  the function composition ``a after b``.
* ``free``          -- tuple of non-zero letters, letter ``+(i+1)`` is
  generator ``i`` and ``-(i+1)`` its inverse.
* ``aff-z``         -- pair ``(a, e)`` for the normal form ``z^a t^e``.
* ``z2inf``         -- 0/1 tuple with no trailing zeros.
* ``slz`` / ``slp`` -- tuple of row tuples (``slp`` entries reduced mod p).
* ``wreath-*``      -- ``(lamps, shift)`` with ``lamps`` a sorted tuple of
  ``(coordinate, base payload)`` pairs.
* ``bar``           -- ``(g1, g2, e)``, the normal form ``(g1, g2) t^e`` with
  ``g1``, ``g2`` base payloads.
* ``product``       -- tuple of component payloads.

Payloads are plain ints and tuples at every depth, never Elements, so
Python's tuple order is the payload order of every family.

The ``slz`` / ``slp`` inverse is the adjugate, and it is the one
determinant code: the matrix constructors read det A as (A adj A)[0][0],
the first row of A times the first column of its inverse, and a singular
matrix, which the inverse refuses, as det A = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import Any, Iterable, Mapping

from .descriptors import (
    MATRIX_FAMILIES,
    PERMUTATION_FAMILIES,
    WREATH_FAMILIES,
    GroupDescriptor,
)
from .errors import DescriptorMismatchError


@dataclass(frozen=True, slots=True, init=False)
class Element:
    descriptor: GroupDescriptor
    payload: Any

    def __init__(self, descriptor: GroupDescriptor, payload: Any) -> None:
        # the slots' member descriptors store past the frozen __setattr__,
        # as the generated __init__ does through object.__setattr__ by name
        _set_descriptor(self, descriptor)
        _set_payload(self, payload)

    def __hash__(self) -> int:
        # equal payloads of two groups (sn:3 and an:3) collide, and __eq__
        # still tells them apart
        return hash(self.payload)

    def __mul__(self, other: "Element") -> "Element":
        return compose(self, other)

    def __pow__(self, k: int) -> "Element":
        return power(self, k)

    def inverse(self) -> "Element":
        return invert(self)

    def is_identity(self) -> bool:
        return self.payload == _payload_ops(self.descriptor)[2]

    def __repr__(self) -> str:
        return f"Element({self.descriptor}, {self.payload!r})"


_set_descriptor = Element.descriptor.__set__
_set_payload = Element.payload.__set__


# ---------------------------------------------------------------------------
# core operations


def compose(a: Element, b: Element) -> Element:
    """Canonical product ``ab``."""
    d = a.descriptor
    if d is not b.descriptor:
        raise DescriptorMismatchError(f"cannot compose {d} with {b.descriptor}")
    return Element(d, _payload_ops(d)[0](a.payload, b.payload))


def invert(a: Element) -> Element:
    """Canonical inverse; ``compose(a, invert(a))`` is the identity."""
    d = a.descriptor
    return Element(d, _payload_ops(d)[1](a.payload))


def conjugate_of(g: Element, by: Element) -> Element:
    """``by . g . by^-1`` in canonical form."""
    d = by.descriptor
    if d is not g.descriptor:
        raise DescriptorMismatchError(f"cannot compose {d} with {g.descriptor}")
    _, inv, _, conj = _payload_ops(d)
    return Element(d, conj(by.payload, g.payload, inv(by.payload)))


def commutator_of(a: Element, b: Element) -> Element:
    """``a b a^-1 b^-1`` in canonical form, as ``(ab)(ba)^-1``: one inverse
    in place of two, and payloads are canonical, so the same payload."""
    return compose(compose(a, b), invert(compose(b, a)))


def power(a: Element, k: int) -> Element:
    """``a^k`` by squaring; negative exponents invert first."""
    if k < 0:
        return power(invert(a), -k)
    result = identity(a.descriptor)
    base = a
    while k:
        if k & 1:
            result = compose(result, base)
        k >>= 1
        # square only while bits remain: the last square would go unused
        if k:
            base = compose(base, base)
    return result


def identity(d: GroupDescriptor) -> Element:
    return Element(d, _payload_ops(d)[2])


def element_order(a: Element, cap: int = 1_000_000) -> int | None:
    """Multiplicative order of ``a``; ``None`` when not found within ``cap``."""
    cur = a
    for n in range(1, cap + 1):
        if cur.is_identity():
            return n
        cur = compose(cur, a)
    return None


def sort_key(e: Element):
    """Total order within one family: the payload itself, in tuple order;
    used for all deterministic tie-breaking (enumeration order, coset
    representatives, reported witnesses)."""
    return e.payload


# ---------------------------------------------------------------------------
# payload arithmetic
#
# Each group's payload product, inverse, identity and conjugation are bound
# once, on first use, and kept on its interned descriptor, so a product costs
# one attribute read: no family dispatch, no descriptor hash and no __eq__.
# Nested families bind their base's (or parts') operations with
# functools.partial over the module-level functions below.  A pickle or copy
# of a descriptor carries its fields alone, never this record.


def _payload_ops(d: GroupDescriptor) -> tuple:
    """``(mul, inv, one, conj)`` of ``d``'s raw payloads, bound on first
    use; ``conj(s, x, s_inv)`` is ``s x s^-1``."""
    try:
        return d._payload_ops
    except AttributeError:
        ops = _bind_ops(d)
        # outside the fields, past the frozen __setattr__; racing threads
        # build equal operations and the last store wins, so no lock
        object.__setattr__(d, "_payload_ops", ops)
        return ops


def _bind_ops(d: GroupDescriptor) -> tuple:
    f = d.family
    if f in PERMUTATION_FAMILIES:
        return _gather, _perm_inv, tuple(range(d.n)), _perm_conj
    if f == "free":
        mul, inv, one = _free_mul, _free_inv, ()
    elif f == "aff-z":
        mul, inv, one = _affz_mul, _affz_inv, (0, 0)
    elif f == "z2inf":
        mul, inv, one = _z2_mul, _z2_inv, ()
    elif f in MATRIX_FAMILIES:
        n = d.n
        mod = d.p if f == "slp" else 0
        mul = partial(_PRODUCTS.get(n, _mat_mul), mod)
        inv = partial(_ADJUGATES.get(n, _bareiss_adjugate), mod)
        one = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    elif f in WREATH_FAMILIES:
        base_mul, base_inv, base_one, _ = _payload_ops(d.base)
        ring = d.n if f == "wreath-zn" else 0
        mul = partial(_wreath_mul, ring, base_mul, base_one)
        inv, one = partial(_wreath_inv, ring, base_inv), ((), 0)
    elif f == "bar":
        base_mul, base_inv, base_one, _ = _payload_ops(d.base)
        mul, inv = partial(_bar_mul, base_mul), partial(_bar_inv, base_inv)
        one = (base_one, base_one, 0)
    else:
        muls, invs, one, _ = zip(*map(_payload_ops, d.parts))
        mul, inv = partial(_product_mul, muls), partial(_product_inv, invs)
    return mul, inv, one, partial(_mul_conj, mul)


def _mul_conj(mul, s, x, s_inv):
    return mul(mul(s, x), s_inv)


def _perm_conj(s, x, s_inv):
    # one gather relabels x by s: s x s^-1 sends s(i) to s(x(i))
    return tuple(map(s.__getitem__, map(x.__getitem__, s_inv)))


def _gather(a, b):
    return tuple(map(a.__getitem__, b))


def _perm_inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def _free_mul(a, b):
    # a and b are reduced words (every constructor normalizes), so letters
    # cancel only at the junction: drop the k cancelling pairs
    k = 0
    m = min(len(a), len(b))
    while k < m and a[-1 - k] == -b[k]:
        k += 1
    return a[:len(a) - k] + b[k:] if k else a + b


def _free_inv(a):
    return tuple(-x for x in reversed(a))


def _affz_mul(a, b):
    aa, ae = a
    ba, be = b
    return (aa + ba if ae == 0 else aa - ba, (ae + be) & 1)


def _affz_inv(a):
    aa, e = a
    return (-aa, 0) if e == 0 else (aa, 1)


def _z2_mul(a, b):
    la, lb = len(a), len(b)
    bits = [(a[i] if i < la else 0) ^ (b[i] if i < lb else 0)
            for i in range(max(la, lb))]
    while bits and bits[-1] == 0:
        bits.pop()
    return tuple(bits)


def _z2_inv(a):
    return a


def _wreath_mul(ring: int, mul, one, a, b):
    # ring 0 is the integer shift of wreath-z; b's lamps are merged one by
    # one, so a coordinate b repeats (as a raw payload in normalized may)
    # takes their product in b's order
    lamps_a, s = a
    lamps_b, u = b
    lamps = dict(lamps_a)
    for j, g in lamps_b:
        i = j + s if ring == 0 else (j + s) % ring
        cur = lamps.get(i)
        if cur is None:
            lamps[i] = g
        else:
            v = mul(cur, g)
            if v == one:
                del lamps[i]
            else:
                lamps[i] = v
    shift = s + u if ring == 0 else (s + u) % ring
    return (tuple(sorted(lamps.items())), shift)


def _wreath_inv(ring: int, inv, a):
    lamps, s = a
    out = {}
    for i, g in lamps:
        j = i - s if ring == 0 else (i - s) % ring
        out[j] = inv(g)
    return (tuple(sorted(out.items())), -s if ring == 0 else (-s) % ring)


def _bar_mul(mul, a, b):
    g1, g2, e = a
    f1, f2, fe = b
    if e:
        f1, f2 = f2, f1
    return (mul(g1, f1), mul(g2, f2), (e + fe) & 1)


def _bar_inv(inv, a):
    g1, g2, e = a
    if e:
        g1, g2 = g2, g1
    return (inv(g1), inv(g2), e)


def _product_mul(muls, a, b):
    return tuple([m(x, y) for m, x, y in zip(muls, a, b)])


def _product_inv(invs, a):
    return tuple([inv(x) for inv, x in zip(invs, a)])


def _mat_mul(mod: int, a, b):
    # n >= 5: row by column; the straight-line products below cover n <= 4
    cols = list(zip(*b))
    return _reduced(mod, tuple([tuple([sum(map(mul, row, col)) for col in cols])
                                for row in a]))


def _mat_mul2(mod: int, a, b):
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return _reduced(mod, ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
                          (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)))


def _mat_mul3(mod: int, a, b):
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return _reduced(mod, (
        (a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
         a00 * b02 + a01 * b12 + a02 * b22),
        (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
         a10 * b02 + a11 * b12 + a12 * b22),
        (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
         a20 * b02 + a21 * b12 + a22 * b22)))


def _mat_mul4(mod: int, a, b):
    (a00, a01, a02, a03), (a10, a11, a12, a13), \
        (a20, a21, a22, a23), (a30, a31, a32, a33) = a
    (b00, b01, b02, b03), (b10, b11, b12, b13), \
        (b20, b21, b22, b23), (b30, b31, b32, b33) = b
    return _reduced(mod, (
        (a00 * b00 + a01 * b10 + a02 * b20 + a03 * b30,
         a00 * b01 + a01 * b11 + a02 * b21 + a03 * b31,
         a00 * b02 + a01 * b12 + a02 * b22 + a03 * b32,
         a00 * b03 + a01 * b13 + a02 * b23 + a03 * b33),
        (a10 * b00 + a11 * b10 + a12 * b20 + a13 * b30,
         a10 * b01 + a11 * b11 + a12 * b21 + a13 * b31,
         a10 * b02 + a11 * b12 + a12 * b22 + a13 * b32,
         a10 * b03 + a11 * b13 + a12 * b23 + a13 * b33),
        (a20 * b00 + a21 * b10 + a22 * b20 + a23 * b30,
         a20 * b01 + a21 * b11 + a22 * b21 + a23 * b31,
         a20 * b02 + a21 * b12 + a22 * b22 + a23 * b32,
         a20 * b03 + a21 * b13 + a22 * b23 + a23 * b33),
        (a30 * b00 + a31 * b10 + a32 * b20 + a33 * b30,
         a30 * b01 + a31 * b11 + a32 * b21 + a33 * b31,
         a30 * b02 + a31 * b12 + a32 * b22 + a33 * b32,
         a30 * b03 + a31 * b13 + a32 * b23 + a33 * b33)))


def _reduced(mod: int, rows):
    # the one reduction mod p of every SL(n) product, inverse and constructor
    if mod:
        return tuple([tuple([x % mod for x in row]) for row in rows])
    return rows


def _singular():
    raise ValueError("singular matrix has no inverse")


def _adjugate2(mod: int, a):
    (a00, a01), (a10, a11) = a
    if a00 * a11 - a01 * a10 == 0:
        _singular()
    return _reduced(mod, ((a11, -a01), (-a10, a00)))


def _adjugate3(mod: int, a):
    # straight-line cofactors: entry (i, j) is the cofactor of a_ji
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    b00 = a11 * a22 - a12 * a21
    b10 = a12 * a20 - a10 * a22
    b20 = a10 * a21 - a11 * a20
    if a00 * b00 + a01 * b10 + a02 * b20 == 0:
        _singular()
    return _reduced(mod, (
        (b00, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11),
        (b10, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12),
        (b20, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10)))


def _adjugate4(mod: int, a):
    # Laplace expansion by complementary minors: the six 2x2 minors s_jk of
    # rows 0-1 and the six c_jk of rows 2-3 (columns j < k) give every 3x3
    # cofactor as three products, and det(a) as six
    (a00, a01, a02, a03), (a10, a11, a12, a13), \
        (a20, a21, a22, a23), (a30, a31, a32, a33) = a
    s01 = a00 * a11 - a01 * a10
    s02 = a00 * a12 - a02 * a10
    s03 = a00 * a13 - a03 * a10
    s12 = a01 * a12 - a02 * a11
    s13 = a01 * a13 - a03 * a11
    s23 = a02 * a13 - a03 * a12
    c01 = a20 * a31 - a21 * a30
    c02 = a20 * a32 - a22 * a30
    c03 = a20 * a33 - a23 * a30
    c12 = a21 * a32 - a22 * a31
    c13 = a21 * a33 - a23 * a31
    c23 = a22 * a33 - a23 * a32
    if s01 * c23 - s02 * c13 + s03 * c12 + s12 * c03 - s13 * c02 + s23 * c01 == 0:
        _singular()
    return _reduced(mod, (
        (a11 * c23 - a12 * c13 + a13 * c12, -a01 * c23 + a02 * c13 - a03 * c12,
         a31 * s23 - a32 * s13 + a33 * s12, -a21 * s23 + a22 * s13 - a23 * s12),
        (-a10 * c23 + a12 * c03 - a13 * c02, a00 * c23 - a02 * c03 + a03 * c02,
         -a30 * s23 + a32 * s03 - a33 * s02, a20 * s23 - a22 * s03 + a23 * s02),
        (a10 * c13 - a11 * c03 + a13 * c01, -a00 * c13 + a01 * c03 - a03 * c01,
         a30 * s13 - a31 * s03 + a33 * s01, -a20 * s13 + a21 * s03 - a23 * s01),
        (-a10 * c12 + a11 * c02 - a12 * c01, a00 * c12 - a01 * c02 + a02 * c01,
         -a30 * s12 + a31 * s02 - a32 * s01, a20 * s12 - a21 * s02 + a22 * s01)))


def _bareiss_adjugate(mod: int, a):
    # n >= 5: one fraction-free Gauss-Jordan pass (Bareiss) on [A | I]:
    # every division is exact, the left block ends as det(PA) I and the
    # right block as adj(PA) P = sign(P) adj(A), P the row swaps made for
    # zero pivots.
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                _singular()
        rk = m[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], rk)]
        prev = p
    return _reduced(mod, tuple([tuple([sign * x for x in row[n:]]) for row in m]))


_ADJUGATES = {2: _adjugate2, 3: _adjugate3, 4: _adjugate4}
_PRODUCTS = {2: _mat_mul2, 3: _mat_mul3, 4: _mat_mul4}


# ---------------------------------------------------------------------------
# validated constructors


def normalized(d: GroupDescriptor, payload):
    """Bring a raw ``slp``, ``slz``, ``free``, ``z2inf`` or ``wreath-*``
    payload into canonical form (idempotent by construction); the other
    families' payloads are canonical as built and pass through as tuples.
    A ``z2inf`` word and a wreath payload with its identity lamps dropped
    are read as their product with the identity, so that each family's
    canonical form is kept by its product alone."""
    f = d.family
    if f in MATRIX_FAMILIES:
        return _reduced(d.p if f == "slp" else 0,
                        tuple([tuple([int(x) for x in row]) for row in payload]))
    if f == "free":
        out: list[int] = []
        for x in payload:
            x = int(x)
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)
    if f == "z2inf":
        return _z2_mul([int(b) & 1 for b in payload], ())
    if f in WREATH_FAMILIES:
        lamps, shift = payload
        mul, _, one, _ = _payload_ops(d)
        base_one = _payload_ops(d.base)[2]
        lamps = [(int(i), g) for i, g in lamps]
        return mul(one, ([lamp for lamp in lamps if lamp[1] != base_one], int(shift)))
    return tuple(payload)


def permutation(d: GroupDescriptor, images: Iterable[int]) -> Element:
    """Permutation from its image tuple (0-based)."""
    if d.family not in PERMUTATION_FAMILIES:
        raise ValueError(f"{d} is not a permutation family")
    imgs = tuple(int(x) for x in images)
    if sorted(imgs) != list(range(d.n)):
        raise ValueError(f"not a permutation of 0..{d.n - 1}: {imgs}")
    if d.family == "an" and _perm_parity(imgs):
        raise ValueError("odd permutation is not in the alternating group")
    return Element(d, imgs)


def _perm_parity(images: tuple[int, ...]) -> int:
    seen = [False] * len(images)
    parity = 0
    for i in range(len(images)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def perm_from_cycles(d: GroupDescriptor, *cycles: Iterable[int],
                     one_based: bool = True) -> Element:
    """Permutation from disjoint cycles, 1-based points by default.  A point
    out of range or named twice, in one cycle or in two, is refused."""
    images = list(range(d.n))
    seen = set()
    off = 1 if one_based else 0
    for cycle in cycles:
        pts = [int(x) - off for x in cycle]
        for k, pt in enumerate(pts):
            if not 0 <= pt < d.n or pt in seen:
                raise ValueError(f"bad or overlapping cycle point {pt + off}")
            seen.add(pt)
            images[pt] = pts[(k + 1) % len(pts)]
    return permutation(d, images)


def free_word(d: GroupDescriptor, letters: Iterable[int]) -> Element:
    """Reduced word from signed letters: ``+(i+1)`` generator i, negative inverse."""
    if d.family != "free":
        raise ValueError(f"{d} is not a free group")
    letters = tuple(int(x) for x in letters)
    for x in letters:
        if x == 0 or abs(x) > d.n:
            raise ValueError(f"letter {x} outside rank-{d.n} alphabet")
    return Element(d, normalized(d, letters))


def affz_element(a: int, e: int = 0) -> Element:
    from .descriptors import aff_z
    return Element(aff_z(), (int(a), int(e) & 1))


def binary_word(bits: Iterable[int]) -> Element:
    from .descriptors import z2_infinity
    d = z2_infinity()
    return Element(d, normalized(d, tuple(bits)))


def int_matrix(d: GroupDescriptor, rows) -> Element:
    return _sl_matrix(d, rows, "slz")


def mod_matrix(d: GroupDescriptor, rows) -> Element:
    return _sl_matrix(d, rows, "slp")


def _sl_matrix(d: GroupDescriptor, rows, family: str) -> Element:
    """``rows`` as an element of ``d``, checked: ``d`` is of ``family``, the
    matrix is n x n, and its determinant is 1, read mod p on ``slp`` from
    the adjugate that the inverse returns."""
    modular = family == "slp"
    if d.family != family:
        raise ValueError(f"{d} is not {'a modular' if modular else 'an integer'} SL family")
    payload = normalized(d, rows)
    if len(payload) != d.n or any(len(r) != d.n for r in payload):
        raise ValueError(f"matrix is not {d.n}x{d.n}")
    try:  # det A = (A adj A)[0][0]; the inverse refuses a singular A
        det = sum(map(mul, payload[0], [row[0] for row in _payload_ops(d)[1](payload)]))
    except ValueError:
        det = 0
    if (det % d.p if modular else det) != 1:
        raise ValueError("matrix determinant is not 1" + " mod p" * modular)
    return Element(d, payload)


def elementary(d: GroupDescriptor, i: int, j: int, p: int = 1) -> Element:
    """Elementary matrix with entry ``p`` at 1-based position (i, j)."""
    if d.family not in MATRIX_FAMILIES:
        raise ValueError(f"{d} is not a matrix family")
    if i == j or not (1 <= i <= d.n and 1 <= j <= d.n):
        raise ValueError("elementary position must be off-diagonal and in range")
    # unipotent, so of determinant one: no check is needed
    return Element(d, normalized(d, [[p if (r, c) == (i - 1, j - 1) else r == c
                                      for c in range(d.n)] for r in range(d.n)]))


def wreath_element(d: GroupDescriptor, lamps: Mapping[int, Element] | Iterable,
                   shift: int = 0) -> Element:
    if d.family not in WREATH_FAMILIES:
        raise ValueError(f"{d} is not a wreath family")
    items = tuple(lamps.items() if isinstance(lamps, Mapping) else lamps)
    for _, g in items:
        if g.descriptor != d.base:
            raise DescriptorMismatchError("lamp element is not in the base group")
    return Element(d, normalized(d, ([(i, g.payload) for i, g in items], shift)))


def bar_element(d: GroupDescriptor, g1: Element, g2: Element, e: int = 0) -> Element:
    if d.family != "bar":
        raise ValueError(f"{d} is not a bar family")
    if g1.descriptor != d.base or g2.descriptor != d.base:
        raise DescriptorMismatchError("bar coordinates must lie in the base group")
    return Element(d, (g1.payload, g2.payload, int(e) & 1))


def product_element(d: GroupDescriptor, components: Iterable[Element]) -> Element:
    if d.family != "product":
        raise ValueError(f"{d} is not a product family")
    comps = tuple(components)
    if len(comps) != len(d.parts) or any(
            c.descriptor != p for c, p in zip(comps, d.parts)):
        raise DescriptorMismatchError("component descriptors do not match the product")
    return Element(d, tuple(c.payload for c in comps))


def moved_points(e: Element) -> int:
    """Number of non-fixed points of a permutation."""
    if e.descriptor.family not in PERMUTATION_FAMILIES:
        raise ValueError("moved_points needs a permutation payload")
    return sum(1 for i, x in enumerate(e.payload) if i != x)
