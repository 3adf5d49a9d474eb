"""Seeded random element generation for suites and sampled estimates.

Everything here is a pure function of the supplied ``random.Random`` state,
so any report that records its seed is reproducible.
"""

from __future__ import annotations

from random import Random
from typing import Any

from .descriptors import (
    MATRIX_FAMILIES,
    PERMUTATION_FAMILIES,
    WREATH_FAMILIES,
    GroupDescriptor,
)
from .elements import (
    Element,
    _payload_ops,
    _perm_parity,
    affz_element,
    binary_word,
    elementary,
)


def random_permutation(d: GroupDescriptor, rng: Random) -> Element:
    return Element(d, _permutation(d, rng))


def _permutation(d: GroupDescriptor, rng: Random) -> tuple:
    images = list(range(d.n))
    rng.shuffle(images)
    if d.family == "an" and _perm_parity(tuple(images)) and d.n >= 2:
        images[0], images[1] = images[1], images[0]
    return tuple(images)


def random_word(d: GroupDescriptor, rng: Random, length: int) -> Element:
    """Uniform-ish reduced word of exactly the requested length.

    ``rng`` must be a ``random.Random``: each letter is drawn from its
    ``getrandbits`` stream exactly as ``randint(1, n) * choice((1, -1))``
    draws it on the running Python, with ``_randbelow``'s rejection loop
    inline, and a letter that would cancel the last one is drawn again.
    """
    return Element(d, _word(d, rng, length))


def _word(d: GroupDescriptor, rng: Random, length: int) -> tuple:
    if d.family != "free":
        raise ValueError(f"{d} is not a free group")
    n = d.n
    if n < 1:
        # getrandbits(0) is 0 and 0 >= 0, so the index loop would never end
        raise ValueError(f"{d} has no letters to draw")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    # letters are valid and never cancel, so the word is reduced as drawn
    letters: list[int] = []
    last = 0
    for _ in range(length):
        while True:
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            s = getrandbits(2)
            while s >= 2:
                s = getrandbits(2)
            # choice((1, -1)) picks -1 at index 1
            x = -1 - i if s else i + 1
            if x != -last:
                break
        letters.append(x)
        last = x
    return tuple(letters)


def random_element(d: GroupDescriptor, rng: Random, size: int = 8) -> Element:
    """One seeded element: :func:`random_payload` as an Element."""
    return Element(d, random_payload(d, rng, size))


def random_payload(d: GroupDescriptor, rng: Random, size: int = 8) -> Any:
    """The raw payload of one seeded element, drawn from the same stream as
    :func:`random_element` draws it; ``size`` caps word lengths and similar
    knobs."""
    f = d.family
    if f in PERMUTATION_FAMILIES:
        return _permutation(d, rng)
    if f == "free":
        # the length as randint(0, size) draws it from getrandbits on the
        # running Python, with _randbelow's rejection loop inline; a
        # negative size is refused first, since getrandbits(0) is 0 and the
        # loop would never end where randint raises
        if size < 0:
            raise ValueError(f"size {size} is negative")
        width = size + 1
        k = width.bit_length()
        length = rng.getrandbits(k)
        while length >= width:
            length = rng.getrandbits(k)
        return _word(d, rng, length)
    if f == "z2inf":
        return binary_word(rng.randint(0, 1) for _ in range(rng.randint(0, size))).payload
    if f == "aff-z":
        return affz_element(rng.randint(-size, size), rng.randint(0, 1)).payload
    if f in MATRIX_FAMILIES:
        mul, _, out, _ = _payload_ops(d)
        for _ in range(rng.randint(1, max(1, size // 2))):
            i = rng.randint(1, d.n)
            j = rng.randint(1, d.n - 1)
            j = j if j < i else j + 1
            out = mul(out, elementary(d, i, j, rng.choice((-2, -1, 1, 2))).payload)
        return out
    if f in WREATH_FAMILIES:
        ring = d.n if f == "wreath-zn" else size
        one = _payload_ops(d.base)[2]
        lamps = {}
        for i in range(ring):
            if rng.random() < 0.5:
                g = random_payload(d.base, rng, size)
                if g != one:
                    lamps[i] = g
        shift = rng.randrange(ring) if f == "wreath-zn" else rng.randint(-size, size)
        return (tuple(sorted(lamps.items())), shift)
    if f == "bar":
        return (random_payload(d.base, rng, size), random_payload(d.base, rng, size),
                rng.randint(0, 1))
    return tuple(random_payload(p, rng, size) for p in d.parts)
