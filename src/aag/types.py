"""Attribute types, typed values, and result sets.

The six primary attribute kinds may appear on ring attributes. The remaining
kinds are internal: they only ever describe intermediate plan-step outputs
(filters, groupings, sorts, materialized row sets, ...).
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple


class AttributeType(str, enum.Enum):
    # primary kinds (allowed on ring attributes)
    ARITHMETIC = "arithmetic"
    CATEGORICAL = "categorical"
    DATETIME = "datetime"
    DOCUMENT = "document"
    IDENTIFIER = "identifier"
    METRIC = "metric"
    # internal kinds (plan-step outputs only)
    FILTER = "filter"
    GROUPING = "grouping"
    SORT = "sort"
    LIMIT = "limit"
    ROW_NUM = "row_num"
    ATTRIBUTE_COLLECTION = "attribute_collection"
    ENTITY = "entity"
    STRING = "string"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


PRIMARY_TYPES = frozenset(
    {
        AttributeType.ARITHMETIC,
        AttributeType.CATEGORICAL,
        AttributeType.DATETIME,
        AttributeType.DOCUMENT,
        AttributeType.IDENTIFIER,
        AttributeType.METRIC,
    }
)

# Kinds accepted where a signature asks for "any attribute-valued input".
# Row numbers are plain integers once computed, so they count as attribute
# values for collection and sorting purposes.
ATTRIBUTE_LIKE = PRIMARY_TYPES | {AttributeType.ROW_NUM}

TypeSet = frozenset  # of AttributeType


def typeset(*types: AttributeType) -> TypeSet:
    return frozenset(types)


_ISO_DATETIME = re.compile(
    r"^\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?)?$"
)


class Record:
    """A record of the fields named in ``_fields``, kept in ``__slots__``:
    shown by them, and equal only to a record of its own class with an
    equal ``_key`` (by default, the fields). Unlike a ``NamedTuple``, it
    never equals a tuple or a record of another class, so the kinds of
    plan arguments stay apart."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class DatetimeValue(Record):
    """A datetime literal, kept as its ISO-8601 source text."""

    __slots__ = _fields = ("iso",)

    def __init__(self, iso: str):
        self.iso = iso

    @staticmethod
    def matches(text: str) -> bool:
        return bool(_ISO_DATETIME.match(text))


class ColumnMeta(NamedTuple):
    """Metadata for one output column of a plan or query."""

    name: str
    types: TypeSet
    units: tuple[str, str] | str | None = None
    nicename: str | None = None


class ResultSet(NamedTuple):
    """Rows of plain scalars plus per-column metadata."""

    columns: list[ColumnMeta]
    rows: list[tuple]
