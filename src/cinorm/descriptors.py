"""Group family descriptors and the text grammar shared by the CLI and caches.

A descriptor names one concrete group (``sn:5``, ``wreath:sn:3:zn:3``, ...).
Finiteness, group order and abelianness are decidable from the descriptor
alone, which is what lets enumeration guards fire before any work is done.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field

_FAMILIES = frozenset({
    "sn", "an", "free", "wreath-z", "wreath-zn", "aff-z", "bar",
    "z2inf", "slz", "slp", "product",
})

PERMUTATION_FAMILIES = frozenset({"sn", "an"})
MATRIX_FAMILIES = frozenset({"slz", "slp"})
WREATH_FAMILIES = frozenset({"wreath-z", "wreath-zn"})


class _Interned(type):
    # every call of the class, dataclasses.replace and __reduce__ included,
    # returns the one live descriptor of its fields, atomically: two racing
    # copies would not compare equal.  base and parts key by identity.
    _live, _lock = weakref.WeakValueDictionary(), threading.Lock()

    def __call__(cls, family, n=0, p=0, base=None, parts=()):
        if family not in _FAMILIES:
            raise ValueError(f"unknown group family {family!r}")
        # the key compares by equality, so 3.0 or True would pass for 3 or 1
        # and take over that group for as long as it lives
        for name, v in (("n", n), ("p", p)):
            if type(v) is not int:
                raise ValueError(f"descriptor field {name} must be an int, not {v!r}")
        if base is not None and not isinstance(base, cls):
            raise ValueError(f"descriptor field base must be a GroupDescriptor, not {base!r}")
        if type(parts) is not tuple or not all(isinstance(x, cls) for x in parts):
            raise ValueError(f"descriptor field parts must hold GroupDescriptors, not {parts!r}")
        key = (family, n, p, base, parts)
        with cls._lock:
            d = cls._live.get(key)
            if d is None:
                d = cls._live[key] = super().__call__(*key)
            return d


@dataclass(frozen=True, eq=False)
class GroupDescriptor(metaclass=_Interned):
    """One concrete group family instance.

    ``n`` doubles as permutation degree, free rank, matrix dimension or
    wreath ring size depending on the family; ``p`` is the prime modulus
    for ``slp``.  Interned: one live object per field value, so equality
    and hash are identity, and a pickle or copy carries the fields alone.
    :mod:`cinorm.elements` keeps the payload operations of a group on it.
    """

    family: str
    n: int = 0
    p: int = 0
    base: "GroupDescriptor | None" = None
    parts: tuple["GroupDescriptor", ...] = field(default=())

    def __str__(self) -> str:
        return format_descriptor(self)

    def __reduce__(self):
        return GroupDescriptor, (self.family, self.n, self.p, self.base, self.parts)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def symmetric(n: int) -> GroupDescriptor:
    """Symmetric group on ``n`` points."""
    _require(n >= 1, "permutation families need n >= 1")
    return GroupDescriptor("sn", n=n)


def alternating(n: int) -> GroupDescriptor:
    """Alternating group on ``n`` points."""
    _require(n >= 1, "permutation families need n >= 1")
    return GroupDescriptor("an", n=n)


def free_group(rank: int) -> GroupDescriptor:
    """Free group of the given rank, elements stored as reduced words."""
    _require(rank >= 1, "free group needs rank >= 1")
    return GroupDescriptor("free", n=rank)


def wreath_z(base: GroupDescriptor) -> GroupDescriptor:
    """Restricted wreath product of ``base`` by the integer shift."""
    return GroupDescriptor("wreath-z", base=base)


def wreath_zn(base: GroupDescriptor, ring: int) -> GroupDescriptor:
    """Wreath product of ``base`` by the cyclic shift on ``ring`` coordinates."""
    _require(ring >= 2, "wreath ring size must be >= 2")
    return GroupDescriptor("wreath-zn", n=ring, base=base)


def aff_z() -> GroupDescriptor:
    """Extension of the integers by an involution ``t`` with ``t z t = z^-1``."""
    return GroupDescriptor("aff-z")


def bar(base: GroupDescriptor) -> GroupDescriptor:
    """(base x base) extended by an involution swapping the two coordinates."""
    return GroupDescriptor("bar", base=base)


def z2_infinity() -> GroupDescriptor:
    """Direct sum of countably many order-2 cyclic groups (binary words)."""
    return GroupDescriptor("z2inf")


def sl_z(n: int) -> GroupDescriptor:
    """Integer special linear group, exact arbitrary-precision entries."""
    _require(n >= 2, "SL needs dimension >= 2")
    return GroupDescriptor("slz", n=n)


def sl_mod(n: int, p: int) -> GroupDescriptor:
    """Special linear group over the prime field with ``p`` elements."""
    _require(n >= 2, "SL needs dimension >= 2")
    _require(_is_prime(p), "modulus must be prime")
    return GroupDescriptor("slp", n=n, p=p)


def product(*parts: GroupDescriptor) -> GroupDescriptor:
    """Direct product with componentwise arithmetic."""
    _require(len(parts) >= 1, "product needs at least one part")
    return GroupDescriptor("product", parts=tuple(parts))


def order(d: GroupDescriptor) -> int | None:
    """Group order, or ``None`` for infinite families."""
    f = d.family
    if f == "sn":
        return math.factorial(d.n)
    if f == "an":
        return 1 if d.n == 1 else math.factorial(d.n) // 2
    if f == "wreath-zn":
        b = order(d.base)
        return None if b is None else b ** d.n * d.n
    if f == "bar":
        b = order(d.base)
        return None if b is None else 2 * b * b
    if f == "slp":
        q = d.p
        total = q ** (d.n * (d.n - 1) // 2)
        for k in range(2, d.n + 1):
            total *= q ** k - 1
        return total
    if f == "product":
        total = 1
        for part in d.parts:
            o = order(part)
            if o is None:
                return None
            total *= o
        return total
    return None  # free, wreath-z, aff-z, z2inf, slz


def _log10_order(d: GroupDescriptor) -> float | None:
    """``log10`` of the group order as a float, or ``None`` for infinite
    families, without the order itself: ``lgamma`` for ``sn``/``an``, sums
    of logs otherwise.  Within about ``1e-14 * log10 |G|`` of the true value."""
    f = d.family
    if f in ("sn", "an"):
        log = math.lgamma(d.n + 1) / math.log(10)
        return log - math.log10(2) if f == "an" and d.n > 1 else log
    if f == "wreath-zn":
        b = _log10_order(d.base)
        return None if b is None else d.n * b + math.log10(d.n)
    if f == "bar":
        b = _log10_order(d.base)
        return None if b is None else math.log10(2) + 2 * b
    if f == "slp":
        q = d.p
        return d.n * (d.n - 1) // 2 * math.log10(q) + sum(
            math.log10(q ** k - 1) for k in range(2, d.n + 1))
    if f == "product":
        logs = [_log10_order(part) for part in d.parts]
        return None if None in logs else sum(logs)
    return None


def _order_within(d: GroupDescriptor, bound: int) -> int | None:
    """|d| when ``d`` is finite and |d| <= ``bound``, else ``None``.  Decided
    from :func:`_log10_order` before any order is computed: an order whose
    log10 passes ``bound``'s by more than the float's error is never
    computed, so a huge group costs its log alone."""
    log = _log10_order(d)
    if log is None or log - 1e-6 - 1e-12 * log > math.log10(max(bound, 1)):
        return None
    size = order(d)
    return size if size <= bound else None


def finite(d: GroupDescriptor) -> bool:
    return _log10_order(d) is not None


def is_abelian(d: GroupDescriptor) -> bool:
    f = d.family
    if f == "sn":
        return d.n <= 2
    if f == "an":
        return d.n <= 3
    if f == "free":
        return d.n <= 1
    if f == "z2inf":
        return True
    if f in WREATH_FAMILIES or f == "bar":
        return _order_within(d.base, 1) == 1
    if f == "product":
        return all(is_abelian(p) for p in d.parts)
    return False  # aff-z, slz, slp


def format_descriptor(d: GroupDescriptor) -> str:
    """Canonical descriptor text; inverse of :func:`parse_descriptor`."""
    f = d.family
    if f == "sn":
        return f"sn:{d.n}"
    if f == "an":
        return f"an:{d.n}"
    if f == "free":
        return f"free:{d.n}"
    if f == "aff-z":
        return "aff-z"
    if f == "z2inf":
        return "z2inf"
    if f == "slz":
        return f"slz:{d.n}"
    if f == "slp":
        return f"slp:{d.n}:{d.p}"
    if f == "bar":
        return f"bar:{_inner(d.base)}"
    if f == "wreath-z":
        return f"wreath:{_inner(d.base)}:z"
    if f == "wreath-zn":
        return f"wreath:{_inner(d.base)}:zn:{d.n}"
    return "product:" + ",".join(_inner(p) for p in d.parts)


def _inner(d: GroupDescriptor) -> str:
    # products are parenthesised when nested so commas stay unambiguous
    s = format_descriptor(d)
    return f"({s})" if d.family == "product" else s


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse the descriptor grammar, e.g. ``wreath:sn:3:zn:3`` or ``slp:2:5``."""
    s = text.strip()
    d, pos = _parse_at(s, 0)
    if pos != len(s):
        raise ValueError(f"trailing text in descriptor: {s[pos:]!r}")
    return d


def _parse_at(s: str, i: int) -> tuple[GroupDescriptor, int]:
    if i < len(s) and s[i] == "(":
        d, i = _parse_at(s, i + 1)
        if i >= len(s) or s[i] != ")":
            raise ValueError("unbalanced parenthesis in descriptor")
        return d, i + 1
    if s.startswith("aff-z", i):
        return aff_z(), i + 5
    if s.startswith("z2inf", i):
        return z2_infinity(), i + 5
    if s.startswith("sn:", i):
        n, i = _parse_int(s, i + 3)
        return symmetric(n), i
    if s.startswith("an:", i):
        n, i = _parse_int(s, i + 3)
        return alternating(n), i
    if s.startswith("free:", i):
        n, i = _parse_int(s, i + 5)
        return free_group(n), i
    if s.startswith("slz:", i):
        n, i = _parse_int(s, i + 4)
        return sl_z(n), i
    if s.startswith("slp:", i):
        n, i = _parse_int(s, i + 4)
        if not s.startswith(":", i):
            raise ValueError("slp descriptor needs a modulus: slp:<n>:<p>")
        p, i = _parse_int(s, i + 1)
        return sl_mod(n, p), i
    if s.startswith("bar:", i):
        b, i = _parse_at(s, i + 4)
        return bar(b), i
    if s.startswith("wreath:", i):
        b, i = _parse_at(s, i + 7)
        if s.startswith(":zn:", i):
            n, i = _parse_int(s, i + 4)
            return wreath_zn(b, n), i
        if s.startswith(":z", i):
            return wreath_z(b), i + 2
        raise ValueError("wreath descriptor needs :z or :zn:<N>")
    if s.startswith("product:", i):
        i += len("product:")
        parts = []
        while True:
            d, i = _parse_at(s, i)
            parts.append(d)
            if i < len(s) and s[i] == ",":
                i += 1
                continue
            break
        return product(*parts), i
    raise ValueError(f"cannot parse descriptor at {s[i:]!r}")


def _parse_int(s: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    if j == i:
        raise ValueError(f"expected integer at {s[i:]!r}")
    return int(s[i:j]), j
