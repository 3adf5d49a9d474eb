"""Deterministic JSON/TSV serialization for norm tables and reports.

All numeric output is an exact rational in ``p/q`` string form; rows are
sorted by element literal so identical tables always serialize to identical
bytes.

Each group's canonical literals are memoized both ways (element -> literal,
literal -> element) and :func:`~cinorm.enumeration.kept`.  The memo is
filled from misses, so only rows not written or read before go through
:func:`~cinorm.literals.to_literal` / :func:`~cinorm.literals.from_literal`,
and it holds at most |G| entries each way: a non-canonical spelling such as
``(2 1)`` enters as its canonical literal, and is parsed on every read.  A
table holding an element of another group is refused when written, since
its literal would be read back in the table's group.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .descriptors import GroupDescriptor, format_descriptor, parse_descriptor
from .elements import Element
from .enumeration import kept
from .errors import DescriptorMismatchError
from .literals import from_literal, to_literal
from .norms import NormTable, NormTableMeta


def fraction_str(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    num, slash, den = s.partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad fraction {s!r}") from None


def _literal_index(d: GroupDescriptor) -> tuple[dict[Element, str], dict[str, Element]]:
    """The literal memo of ``d``: element -> canonical literal and back."""
    return kept(d, "literals", lambda: ({}, {}))


def norm_table_payload(table: NormTable) -> dict:
    literals, elements = _literal_index(table.descriptor)
    literal = literals.get

    def miss(g: Element) -> str:
        if g.descriptor != table.descriptor:  # its literal would be read in the wrong group
            raise DescriptorMismatchError(
                f"{to_literal(g)} of {g.descriptor} in a norm table of {table.descriptor}")
        lit = to_literal(g)
        literals[g], elements[lit] = lit, g
        return lit
    rows = sorted((literal(g) or miss(g), fraction_str(v))
                  for g, v in table.values.items())
    meta = table.meta
    return {
        "group": format_descriptor(table.descriptor),
        "norm": meta.name,
        "values": [[lit, val] for lit, val in rows],
        "meta": {
            "diameter": "unbounded" if meta.diameter is None
            else fraction_str(meta.diameter),
            "fine": meta.fine,
            "discrete": meta.discrete,
            "generator_set": list(meta.generator_set),
        },
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def norm_table_to_json(table: NormTable) -> str:
    return dumps(norm_table_payload(table))


def norm_table_from_payload(payload: dict) -> NormTable:
    """The table a payload describes; malformed or repeated rows are refused."""
    d = parse_descriptor(payload["group"])
    literals, elements = _literal_index(d)
    element = elements.get

    def miss(lit: str) -> Element:
        g = from_literal(d, lit)
        canonical = literals.get(g) or to_literal(g)
        literals[g], elements[canonical] = canonical, g
        return g
    rows = payload["values"]
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"the table's values are not a list of rows: {rows!r}")
    fractions: dict[str, Fraction] = {}
    values = {}
    try:
        for i, (lit, v) in enumerate(rows):
            g = element(lit) or miss(lit)  # an Element is always true
            q = fractions.get(v)
            if q is None:
                q = fractions[v] = parse_fraction(v)
            values[g] = q
    except (TypeError, ValueError):  # i is bound before each row is unpacked
        if not isinstance(rows[i], (list, tuple)) or len(rows[i]) != 2:
            raise ValueError(f"row {i} is not a [literal, value] pair") from None
        raise
    if len(values) != len(rows):  # some element has two rows
        first = {}
        for i, (lit, _) in enumerate(rows):
            j, other = first.setdefault(element(lit) or miss(lit), (i, lit))
            if j != i:
                raise ValueError(f"rows {j} and {i} name one element of {d}: {other!r} and {lit!r}")
    meta_p = payload["meta"]
    meta = NormTableMeta(
        name=payload["norm"],
        diameter=None if meta_p["diameter"] == "unbounded"
        else parse_fraction(meta_p["diameter"]),
        fine=meta_p["fine"],
        discrete=meta_p["discrete"],
        generator_set=tuple(meta_p["generator_set"]),
    )
    return NormTable(d, values, meta)


def payload_to_tsv(payload: dict) -> str:
    """The rows of a table payload as TSV, in the payload's sorted order."""
    return "".join(f"{lit}\t{val}\n"
                   for lit, val in [("element", "value"), *payload["values"]])
