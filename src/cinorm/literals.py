"""Element literal syntax used by the CLI, serialized tables and reports.

Syntax by family (``1`` is always accepted for the identity):

* permutations -- 1-based cycle notation, ``(1 2)(3 4 5)``, identity ``()``
* free words   -- letters ``a..z`` with capitals for inverses, ``a b A``
* aff-z        -- ``z^3 t``, ``z^-2``, ``t``
* z2inf        -- bit string ``10110`` (bit k is generator k+1)
* matrices     -- row-major nested lists ``[[1,2],[0,1]]``
* wreath       -- ``{0:(1 2); 2:(1 3)}s^1``
* bar          -- ``((1 2);(1 3))t`` with a trailing ``t`` for the swap bit
* product      -- ``((1 2);(2 3);a b)``
"""

from __future__ import annotations

import json
import re

from .descriptors import (
    MATRIX_FAMILIES,
    PERMUTATION_FAMILIES,
    WREATH_FAMILIES,
    GroupDescriptor,
)
from .elements import (
    Element,
    affz_element,
    bar_element,
    binary_word,
    free_word,
    identity,
    int_matrix,
    mod_matrix,
    perm_from_cycles,
    product_element,
    wreath_element,
)


def to_literal(e: Element) -> str:
    return _literal(e.descriptor, e.payload)


def _literal(d: GroupDescriptor, p) -> str:
    f = d.family
    if f in PERMUTATION_FAMILIES:
        return _perm_literal(p)
    if f == "free":
        if not p:
            return "1"
        return " ".join(_letter(x) for x in p)
    if f == "aff-z":
        a, t = p
        parts = []
        if a:
            parts.append(f"z^{a}")
        if t:
            parts.append("t")
        return " ".join(parts) if parts else "1"
    if f == "z2inf":
        return "".join(str(b) for b in p) if p else "0"
    if f in MATRIX_FAMILIES:
        return json.dumps([list(r) for r in p], separators=(",", ":"))
    if f in WREATH_FAMILIES:
        lamps, shift = p
        body = "; ".join(f"{i}:{_literal(d.base, g)}" for i, g in lamps)
        return "{" + body + "}" + f"s^{shift}"
    if f == "bar":
        g1, g2, t = p
        return f"({_literal(d.base, g1)};{_literal(d.base, g2)})" + ("t" if t else "")
    return "(" + ";".join(map(_literal, d.parts, p)) + ")"


def from_literal(d: GroupDescriptor, text: str) -> Element:
    s = text.strip()
    f = d.family
    # "1" is the generic identity literal, except where it reads as a payload
    if s == "1" and f not in MATRIX_FAMILIES and f != "z2inf":
        return identity(d)
    if f in PERMUTATION_FAMILIES:
        return _parse_perm(d, s)
    if f == "free":
        letters = []
        for tok in s.replace(" ", ""):
            if not tok.isalpha():
                raise ValueError(f"bad word letter {tok!r}")
            idx = ord(tok.lower()) - ord("a") + 1
            letters.append(idx if tok.islower() else -idx)
        return free_word(d, letters)
    if f == "aff-z":
        return _parse_affz(s)
    if f == "z2inf":
        if not re.fullmatch(r"[01]+", s):
            raise ValueError(f"bad binary word {s!r}")
        return binary_word(int(c) for c in s)
    if f in MATRIX_FAMILIES:
        rows = json.loads(s)
        if not (type(rows) is list and len(rows) == d.n and all(
                type(r) is list and len(r) == d.n and all(type(x) is int for x in r)
                for r in rows)):
            raise ValueError(f"bad matrix literal {s!r}: not {d.n} lists of {d.n} integers")
        return int_matrix(d, rows) if f == "slz" else mod_matrix(d, rows)
    if f in WREATH_FAMILIES:
        return _parse_wreath(d, s)
    if f == "bar":
        return _parse_bar(d, s)
    return _parse_product(d, s)


def _letter(x: int) -> str:
    c = chr(ord("a") + abs(x) - 1)
    return c if x > 0 else c.upper()


def _perm_literal(images: tuple[int, ...]) -> str:
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        if seen[i] or images[i] == i:
            seen[i] = True
            continue
        cycle = []
        j = i
        while not seen[j]:
            seen[j] = True
            cycle.append(j + 1)
            j = images[j]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) if out else "()"


def _parse_perm(d: GroupDescriptor, s: str) -> Element:
    if s == "()":
        return identity(d)
    if not re.fullmatch(r"(\([\d\s,]*\)\s*)+", s):
        raise ValueError(f"bad cycle notation {s!r}")
    return perm_from_cycles(d, *(re.findall(r"\d+", body)
                                 for body in re.findall(r"\(([\d\s,]*)\)", s)))


def _parse_affz(s: str) -> Element:
    a = 0
    e = 0
    for tok in s.split():
        if tok == "t":
            e ^= 1
        elif tok == "z":
            a += 1 if e == 0 else -1
        elif tok.startswith("z^"):
            k = int(tok[2:])
            a += k if e == 0 else -k
        else:
            raise ValueError(f"bad aff-z token {tok!r}")
    return affz_element(a, e)


def _split_top(s: str, sep: str) -> list[str]:
    # split at top nesting level only; literals may nest (){}[]
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_wreath(d: GroupDescriptor, s: str) -> Element:
    m = re.fullmatch(r"\{(.*)\}\s*(?:s\^(-?\d+))?", s, re.DOTALL)
    if not m:
        raise ValueError(f"bad wreath literal {s!r}")
    body, shift = m.group(1).strip(), int(m.group(2) or 0)
    lamps = []
    if body:
        for part in _split_top(body, ";"):
            idx_text, _, lit = part.partition(":")
            lamps.append((int(idx_text.strip()), from_literal(d.base, lit)))
    return wreath_element(d, lamps, shift)


def _parse_bar(d: GroupDescriptor, s: str) -> Element:
    m = re.fullmatch(r"\((.*)\)\s*(t?)", s, re.DOTALL)
    if not m:
        raise ValueError(f"bad bar literal {s!r}")
    halves = _split_top(m.group(1), ";")
    if len(halves) != 2:
        raise ValueError(f"bar literal needs two components: {s!r}")
    return bar_element(d, from_literal(d.base, halves[0]),
                       from_literal(d.base, halves[1]), 1 if m.group(2) else 0)


def _parse_product(d: GroupDescriptor, s: str) -> Element:
    m = re.fullmatch(r"\((.*)\)", s, re.DOTALL)
    if not m:
        raise ValueError(f"bad product literal {s!r}")
    parts = _split_top(m.group(1), ";")
    if len(parts) != len(d.parts):
        raise ValueError(f"product literal needs {len(d.parts)} components")
    return product_element(d, (from_literal(pd, t) for pd, t in zip(d.parts, parts)))
