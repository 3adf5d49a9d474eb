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
from functools import partial

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
    # one string per distinct value object: vals holds every value until the
    # rows are built, so no id is reused for another object
    elems, vals = list(table.values), list(table.values.values())
    ids = list(map(id, vals))
    text = {k: fraction_str(v) for k, v in dict(zip(ids, vals)).items()}
    rows = sorted(zip([literal(g) or miss(g) for g in elems], map(text.__getitem__, ids)))
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


def _field(obj: dict, key: str, kind: type = object, where: str = "the table payload"):
    """``obj[key]``, refused unless ``obj`` has it and it is a ``kind``."""
    if key not in obj:
        raise ValueError(f"{where} has no {key!r}")
    if not isinstance(obj[key], kind):
        raise ValueError(f"{where} has a {key!r} that is not a {kind.__name__}: {obj[key]!r}")
    return obj[key]


def norm_table_from_payload(payload: dict) -> NormTable:
    """The table a payload describes; a missing or mistyped key or meta
    field, and malformed or repeated rows, are refused."""
    d = parse_descriptor(_field(payload, "group", str))
    literals, elements = _literal_index(d)
    element = elements.get

    def miss(lit: str) -> Element:
        g = from_literal(d, lit)
        canonical = literals.get(g) or to_literal(g)
        literals[g], elements[canonical] = canonical, g
        return g
    rows = _field(payload, "values")
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
    except (AttributeError, TypeError, ValueError):  # i is bound before each row is unpacked
        row = rows[i]
        if not isinstance(row, (list, tuple)) or len(row) != 2 \
                or not all(isinstance(x, str) for x in row):
            raise ValueError(f"row {i} is not a [literal, value] pair") from None
        raise
    if len(values) != len(rows):  # some element has two rows
        first = {}
        for i, (lit, _) in enumerate(rows):
            j, other = first.setdefault(element(lit) or miss(lit), (i, lit))
            if j != i:
                raise ValueError(f"rows {j} and {i} name one element of {d}: {other!r} and {lit!r}")
    name, meta_p = _field(payload, "norm"), _field(payload, "meta", dict)
    field = partial(_field, meta_p, where="the table payload's meta")
    diameter = field("diameter", str)
    meta = NormTableMeta(
        name=name,
        diameter=None if diameter == "unbounded" else parse_fraction(diameter),
        fine=field("fine"),
        discrete=field("discrete"),
        generator_set=tuple(field("generator_set", list)),
    )
    return NormTable(d, values, meta)


def payload_to_tsv(payload: dict) -> str:
    """The rows of a table payload as TSV, in the payload's sorted order."""
    return "".join(f"{lit}\t{val}\n"
                   for lit, val in [("element", "value"), *payload["values"]])
