"""Attribute types, typed values, and result sets.

The six primary attribute kinds may appear on ring attributes. The remaining
kinds are internal: they only ever describe intermediate plan-step outputs
(filters, groupings, sorts, materialized row sets, ...).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


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


@dataclass(frozen=True)
class DatetimeValue:
    """A datetime literal, kept as its ISO-8601 source text."""

    iso: str

    @staticmethod
    def matches(text: str) -> bool:
        return bool(_ISO_DATETIME.match(text))


@dataclass(frozen=True)
class ColumnMeta:
    """Metadata for one output column of a plan or query."""

    name: str
    types: TypeSet
    units: tuple[str, str] | str | None = None
    nicename: str | None = None


@dataclass
class ResultSet:
    """Rows of plain scalars plus per-column metadata."""

    columns: list[ColumnMeta]
    rows: list[tuple]

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(name)
