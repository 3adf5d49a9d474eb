"""Deterministic JSON/TSV serialization for norm tables and reports.

All numeric output is an exact rational in ``p/q`` string form; rows are
sorted by element literal so identical tables always serialize to identical
bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .descriptors import format_descriptor, parse_descriptor
from .literals import from_literal, to_literal
from .norms import NormTable, NormTableMeta


def fraction_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def norm_table_payload(table: NormTable) -> dict:
    rows = sorted((to_literal(g), fraction_str(v))
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
    values = {from_literal(d, lit): parse_fraction(v)
              for lit, v in payload["values"]}
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
