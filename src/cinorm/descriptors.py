"""Group family descriptors and the text grammar shared by the CLI and caches.

A descriptor names one concrete group (``sn:5``, ``wreath:sn:3:zn:3``, ...).
Finiteness, group order and abelianness are decidable from the descriptor
alone: each group is sized once, when it is interned (:func:`_size`), which
is what lets enumeration guards fire before any work is done.
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
    # returns the one live descriptor of its fields, atomically (two racing
    # copies would not compare equal), sized before it is published and off
    # the fields that eq, hash and pickles read.  base and parts key by identity.
    _live, _lock = weakref.WeakValueDictionary(), threading.Lock()

    def __call__(cls, family, n=0, p=0, base=None, parts=()):
        if family not in _FAMILIES:
            raise ValueError(f"unknown group family {family!r}")
        # the key compares by equality, so 3.0 or True would pass for 3 or 1
        # and take over that group for as long as it lives
        for name, v in (("n", n), ("p", p)):
            if type(v) is not int:
                raise ValueError(f"descriptor field {name} must be an int, not {v!r}")
            if v < 0:
                raise ValueError(f"descriptor field {name} must be non-negative, not {v}")
        # a composite group is sized from its base, or its parts (at least one)
        if (base is not None or family in ("bar", "wreath-z", "wreath-zn")) \
                and not isinstance(base, cls):
            raise ValueError(f"descriptor field base must be a GroupDescriptor, not {base!r}")
        if type(parts) is not tuple or not all(isinstance(x, cls) for x in parts) \
                or (family == "product" and not parts):
            raise ValueError(f"descriptor field parts must hold GroupDescriptors, not {parts!r}")
        key = (family, n, p, base, parts)
        with cls._lock:
            d = cls._live.get(key)
            if d is None:
                d = super().__call__(*key)
                try:
                    size = _size(d)
                except OverflowError:  # an int field too large to convert
                    size = math.inf
                if size == math.inf:  # or a log past the largest float
                    field = {"bar": "base", "product": "parts"}.get(family, "n")
                    raise ValueError(f"descriptor field {field} is too large: the size "
                                     f"of this {family} group does not fit a float")
                object.__setattr__(d, "_size", size)
                cls._live[key] = d
            return d


@dataclass(frozen=True, eq=False)
class GroupDescriptor(metaclass=_Interned):
    """One concrete group family instance.

    ``n`` doubles as permutation degree, free rank, matrix dimension or
    wreath ring size depending on the family; ``p`` is the prime modulus
    for ``slp``.  Interned: one live object per field value, so equality
    and hash are identity, and a pickle or copy carries the fields alone:
    the size (``_size``) is stored off them, when the group is interned.
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


#: Miller-Rabin on the first 13 primes as bases decides primality exactly
#: below this bound (Sorenson and Webster, *Math. Comp.* 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Whether ``p`` is prime, by deterministic Miller-Rabin on
    :data:`_PRIME_BASES`: exact for ``p <`` :data:`_PRIME_BOUND`."""
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s t, t odd
    for a in _PRIME_BASES:  # a prime passes: a^t = 1, or a^(2^r t) = -1 for some r < s
        powers = [pow(a, (p - 1) >> s << r, p) for r in range(s)]
        if powers[0] != 1 and p - 1 not in powers:
            return False
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
    _require(p < _PRIME_BOUND, f"modulus must be below {_PRIME_BOUND}, "
                              "where its primality test is exact")
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
        return 1 if d.n <= 1 else math.factorial(d.n) // 2
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


def _size(d: GroupDescriptor) -> int | float | None:
    """``log10 |d|`` as a float, within about ``1e-14 * log10 |d|``
    (``lgamma`` for ``sn``/``an``, sums of logs otherwise), or in its place
    |d| itself wherever that log is below 29, so that every stored order is
    below 10^29 and costs little to compute, and where a zero field or part
    makes |d| 0; ``None`` for the infinite families.  A composite family
    reads the sizes its parts stored when they were interned."""
    f = d.family
    if f in ("sn", "an"):
        log = math.lgamma(d.n + 1) / math.log(10) - (math.log10(2) if f == "an" else 0)
    elif f == "slp":  # |SL(n, q)| = q^(n^2 - 1) prod_{k=2..n} (1 - q^-k) < q^(n^2 - 1)
        n, q = d.n, d.p
        if q < 2:
            return order(d)
        log_q = math.log10(q)
        # q^-k underflows to 0.0 for k > 1076, and log1p(-0.0) adds nothing
        log = (n * n - 1) * log_q + sum(
            math.log1p(-10 ** (-k * log_q)) for k in range(2, min(n, 1100) + 1)) / math.log(10)
    elif f in ("wreath-zn", "bar", "product"):
        sizes = [part._size for part in d.parts or (d.base,)]
        if None in sizes:
            return None
        if 0 in sizes or (f == "wreath-zn" and d.n == 0):
            return 0
        logs = [s if type(s) is float else math.log10(s) for s in sizes]
        if f == "wreath-zn":
            log = d.n * logs[0] + math.log10(d.n)
        else:
            log = sum(logs) + (math.log10(2) + logs[0] if f == "bar" else 0)
    else:
        return None
    return order(d) if log < 29 else log


#: Most digits of an order computed only to settle its digit count.
_EXACT_DIGITS = 100_000


def _slack(log: float) -> float:
    """The float error of a ``log10 |d|`` from :func:`_size`, with room."""
    return 1e-6 + 1e-12 * log


def _order_within(d: GroupDescriptor, bound: int) -> int | None:
    """|d| when ``d`` is finite and |d| <= ``bound``, else ``None``, read
    from the size stored at intern time (:func:`_size`).  A stored log
    refuses when it exceeds ``log10 bound`` beyond its float error;
    otherwise the exact order decides, so a huge group costs its log
    alone."""
    size = d._size
    if type(size) is float:
        if size - _slack(size) > math.log10(max(bound, 1)):
            return None
        size = order(d)
    return size if size is not None and size <= bound else None


def _order_text(d: GroupDescriptor) -> str:
    """|d| as a refusal writes it: "= N" below 10^30, else "has k digits
    and", with k read off the stored log when the float settles it, or off
    the exact order of at most :data:`_EXACT_DIGITS` digits, and "has about
    k digits and" above that."""
    size = d._size
    if type(size) is float:
        slack, k = _slack(size), int(size)
        if k >= 30 and slack < size - k < 1 - slack:  # the float settles k
            return f"has {k + 1} digits and"
        if size > _EXACT_DIGITS:
            return f"has about {k + 1} digits and"
        size = order(d)
    # exact below 10^30, else by digit count: int-to-str stops at 4 300 digits
    if size < 10 ** 30:
        return f"= {size}"
    log = math.log10(size)  # off by far less than 1e-6 at any order computed
    k = int(log)
    if log - k < 1e-6:  # too near a power of ten for the float to decide
        k -= 10 ** k > size
    return f"has {k + 1} digits and"


def finite(d: GroupDescriptor) -> bool:
    return d._size is not None


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


#: The leaf families and their constructors, with the count of the fields
#: (``n``, then ``p``) that their text gives after the name, ``:``-separated.
_LEAVES = {"aff-z": (aff_z, 0), "z2inf": (z2_infinity, 0), "sn": (symmetric, 1),
           "an": (alternating, 1), "free": (free_group, 1), "slz": (sl_z, 1),
           "slp": (sl_mod, 2)}
#: :data:`_LEAVES` by the start of each leaf's text: the name, and ":" if
#: fields follow it
_HEADS = {f + ":" * (leaf[1] > 0): leaf for f, leaf in _LEAVES.items()}


def format_descriptor(d: GroupDescriptor) -> str:
    """Canonical descriptor text; inverse of :func:`parse_descriptor`."""
    f = d.family
    if f in _LEAVES:
        return ":".join(map(str, (f, d.n, d.p)[:_LEAVES[f][1] + 1]))
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
    for head in _HEADS:
        if s.startswith(head, i):
            make, count = _HEADS[head]
            if not count:
                return make(), i + len(head)
            n, i = _parse_int(s, i + len(head))
            if count == 1:
                return make(n), i
            if not s.startswith(":", i):
                raise ValueError("slp descriptor needs a modulus: slp:<n>:<p>")
            p, i = _parse_int(s, i + 1)
            return make(n, p), i
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
    # ASCII digits only: str.isdigit also holds for "²", "٣" and "３"
    j = i
    while j < len(s) and "0" <= s[j] <= "9":
        j += 1
    if j == i:
        raise ValueError(f"expected integer at {s[i:]!r}")
    return int(s[i:j]), j
