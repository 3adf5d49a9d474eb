"""Deterministic JSON/TSV serialization for norm tables and reports.

All numeric output is an exact rational in ``p/q`` string form; rows are
sorted by element literal so identical tables always serialize to identical
bytes.

The literals of every element of a group of order at most 40 320 are kept
per process, both ways, for the 16 most recently used groups, so writing and
reading a table looks each row up instead of formatting or parsing it.  A
literal the index does not hold (a larger or infinite group, or a
non-canonical spelling such as ``(2 1)``) goes through
:func:`~cinorm.literals.to_literal` / :func:`~cinorm.literals.from_literal`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from . import descriptors as gd
from . import enumeration
from .descriptors import GroupDescriptor, format_descriptor, parse_descriptor
from .elements import Element
from .enumeration import _CACHE_SIZE, enumerate_elements
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
    """Element -> literal and literal -> Element over all of ``d`` when its
    literals are kept, else two empty dicts."""
    size = gd.order(d)
    if size is None or size > enumeration._KEPT_ORDER:
        return {}, {}
    return _kept_literal_index(d)


@lru_cache(maxsize=_CACHE_SIZE)
def _kept_literal_index(d: GroupDescriptor) -> tuple[dict[Element, str], dict[str, Element]]:
    # canonical literals are distinct and parse back to their element, so the
    # two dicts are inverse to each other and agree with the slow path
    literals = {g: to_literal(g) for g in enumerate_elements(d)}
    return literals, {lit: g for g, lit in literals.items()}


def norm_table_payload(table: NormTable) -> dict:
    literal = _literal_index(table.descriptor)[0].get
    rows = sorted((literal(g) or to_literal(g), fraction_str(v))
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
    d = parse_descriptor(payload["group"])
    element = _literal_index(d)[1].get
    fractions: dict[str, Fraction] = {}
    values = {}
    for lit, v in payload["values"]:
        g = element(lit) or from_literal(d, lit)  # an Element is always true
        q = fractions.get(v)
        if q is None:
            q = fractions[v] = parse_fraction(v)
        values[g] = q
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
