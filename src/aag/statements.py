"""Turning query results into natural-language statements and tables.

A statement template is a format string plus bindings that pull values out of
a result set (by column index), out of request inputs, or from fixed
literals. Rendering is strict: a scalar binding against a result with the
wrong number of rows is an error, not a best-effort guess, because the
statements feed a language model that must not be handed ambiguous facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Any, Optional

from .errors import AagError
from .types import ColumnMeta, DatetimeValue, ResultSet


# ---------------------------------------------------------------------------
# value formatting


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return f"{value:,}" if abs(value) >= 10_000 else str(value)
    if isinstance(value, float):
        if not math.isfinite(value):  # e.g. a SUM past the largest double
            raise AagError(f"not a finite number: {value!r}")
        if value == int(value) and abs(value) < 1e15:
            # keep one decimal so numeric results read as measurements
            whole = _format_number(int(value))
            return f"{whole}.0"
        q = Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN)
        text = f"{q:,f}"
        if text.endswith("0") and "." in text and not text.endswith(".00"):
            text = text[:-1]
        if text.endswith(".00"):
            text = text[:-1]
        return text
    raise AagError(f"not a number: {value!r}")


def format_value(value: Any, units: Optional[tuple[str, str]] = None,
                 percent: bool = False) -> str:
    """Render a single value for prose.

    Integers get thousands separators from 10,000 up; floats are rounded to
    at most two decimals (half-even) and always keep at least one decimal
    place. Units are appended with singular/plural agreement; percent values
    take a bare ``%`` with no space.
    """
    if value is None:
        return "unknown"
    if isinstance(value, DatetimeValue):
        text = value.iso
        if text.endswith("T00:00:00"):
            text = text[: -len("T00:00:00")]
        return text
    if isinstance(value, str):
        return value
    text = _format_number(value)
    if percent or units == "%":
        return f"{text}%"
    if units:
        if isinstance(units, str):
            units = (units, units)
        magnitude = abs(value) if isinstance(value, (int, float)) else None
        word = units[0] if magnitude == 1 else units[1]
        return f"{text} {word}"
    return text


# ---------------------------------------------------------------------------
# statement templates


@dataclass(frozen=True)
class Binding:
    """One placeholder's data source.

    Exactly one of ``column`` / ``literal`` / ``input`` is set. ``word_map``
    translates the formatted value (e.g. a 0/1 flag into "was not"/"was");
    ``as_list`` collects the column across all rows into an "a, b, and c"
    phrase.
    """
    column: Optional[int] = None
    literal: Optional[str] = None
    input: Optional[str] = None
    word_map: Optional[dict[str, str]] = None
    as_list: bool = False
    bare: bool = False  # suppress units even if the column has them


@dataclass(frozen=True)
class StatementTemplate:
    template: str
    bindings: dict[str, Binding] = field(default_factory=dict)
    null_statement: Optional[str] = None


def binding_from_dict(doc: dict) -> Binding:
    return Binding(
        column=doc.get("column"),
        literal=doc.get("literal"),
        input=doc.get("input"),
        word_map=doc.get("map"),
        as_list=bool(doc.get("list", False)),
        bare=bool(doc.get("bare", False)),
    )


def statement_template_from_dict(doc: dict) -> StatementTemplate:
    if "template" not in doc:
        raise AagError("statement template needs a 'template' string")
    bindings = {name: binding_from_dict(b)
                for name, b in doc.get("bindings", {}).items()}
    return StatementTemplate(template=doc["template"], bindings=bindings,
                             null_statement=doc.get("null_statement"))


def join_phrase(items: list[str]) -> str:
    if not items:
        return ""
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return f"{items[0]} and {items[1]}"
    return ", ".join(items[:-1]) + f", and {items[-1]}"


def _column(result: ResultSet, index: int) -> ColumnMeta:
    if index < 0 or index >= len(result.columns):
        raise AagError(
            f"statement binding references column {index}, but the result "
            f"has {len(result.columns)} column(s)"
        )
    return result.columns[index]


def render_statement(template: StatementTemplate, result: ResultSet,
                     inputs: Optional[dict[str, str]] = None) -> str:
    """Fill a statement template from a result set.

    Scalar bindings require exactly one row. If any bound column holds a
    NULL, the template's ``null_statement`` is returned instead (an error if
    none was declared).
    """
    inputs = inputs or {}
    values: dict[str, str] = {}
    scalar_columns = [b for b in template.bindings.values()
                      if b.column is not None and not b.as_list]
    if scalar_columns and len(result.rows) != 1:
        raise AagError(
            f"statement expects exactly one result row, got {len(result.rows)}"
        )
    for name, b in template.bindings.items():
        if b.literal is not None:
            values[name] = b.literal
            continue
        if b.input is not None:
            if b.input not in inputs:
                raise AagError(f"statement binding {name!r} needs input {b.input!r}")
            values[name] = inputs[b.input]
            continue
        col = _column(result, b.column)
        units = None if b.bare else col.units
        if b.as_list:
            if not result.rows:
                raise AagError("cannot render a list from an empty result")
            parts = [format_value(row[b.column], units) for row in result.rows]
            values[name] = join_phrase(parts)
        else:
            raw = result.rows[0][b.column]
            if raw is None:
                if template.null_statement is not None:
                    return template.null_statement
                raise AagError(
                    f"statement binding {name!r} got a null value and the "
                    f"template declares no null_statement")
            text = format_value(raw, units)
            if b.word_map is not None:
                key = format_value(raw, None)
                if key not in b.word_map:
                    raise AagError(
                        f"statement binding {name!r}: no word mapping for "
                        f"{key!r}")
                text = b.word_map[key]
            values[name] = text
    try:
        return template.template.format(**values)
    except KeyError as e:
        raise AagError(f"statement template placeholder {e} has no binding") from e


# ---------------------------------------------------------------------------
# tables


def _header(col: ColumnMeta) -> str:
    name = (col.nicename or col.name).title()
    if col.units == "%":
        return f"{name} (%)"
    if col.units:
        units = col.units if isinstance(col.units, str) else col.units[1]
        return f"{name} ({units})"
    return name


def render_table(result: ResultSet, title: Optional[str] = None) -> str:
    """Render a result set as a Markdown pipe table (values unit-free)."""
    headers = [_header(c) for c in result.columns]
    lines = []
    if title:
        lines.append(title)
        lines.append("")
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in result.rows:
        cells = [format_value(v, None) for v in row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
