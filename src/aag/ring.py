"""Ring: a declarative semantic layer over a relational database.

A ring document maps tables and columns to entities and typed attributes,
declares the joins that connect tables, and names the relationships between
entities. Everything downstream (plan typing, compilation, the reference
evaluator, statement rendering) consults the ring rather than the database
schema directly.

Document format (``ring_schema_v1``)::

    {
      "version": "ring_schema_v1",
      "name": "...",
      "db": "sqlite://relative/path.db",
      "tables": [{"name": "wildfires", "primary_key": "id"}, ...],
      "joins": [{"name": "wildfire_state",
                 "left": "wildfires.state_id", "right": "states.id"}],
      "entities": [...],
      "relationships": [{"name": "wildfires_in_state",
                         "from": "Wildfire", "to": "State",
                         "join_path": ["wildfire_state"]}]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

from . import registry
from .errors import AagError
from .types import AttributeType, TypeSet

RING_FORMAT_VERSION = "ring_schema_v1"


@dataclass(frozen=True)
class TableDef:
    name: str
    primary_key: str


@dataclass(frozen=True)
class JoinDef:
    name: str
    left: str   # "table.column"
    right: str  # "table.column"


@dataclass(frozen=True)
class AttributeDef:
    name: str
    types: TypeSet
    nicename: str
    source: tuple[str, str] | None  # (table, column); None for derived
    units: tuple[str, str] | None = None
    derived: bool = False
    base_attribute: str | None = None  # for derived: name of the source attribute
    derivation: str | None = None      # for derived: aggregation op name


@dataclass(frozen=True)
class EntityDef:
    name: str
    nicename: tuple[str, str]
    primary_table: str
    attributes: tuple[AttributeDef, ...]

    def attribute(self, name: str) -> Optional[AttributeDef]:
        return self._attributes.get(name)

    @cached_property
    def _attributes(self) -> dict[str, AttributeDef]:
        # the first of duplicate names wins, as validation reports them
        return {a.name: a for a in reversed(self.attributes)}


@dataclass(frozen=True)
class RelationshipDef:
    name: str
    frm: str
    to: str
    join_path: tuple[str, ...]


@dataclass
class Ring:
    name: str
    db: str
    tables: tuple[TableDef, ...]
    joins: tuple[JoinDef, ...]
    entities: tuple[EntityDef, ...]
    relationships: tuple[RelationshipDef, ...]

    def table(self, name: str) -> Optional[TableDef]:
        return next((t for t in self.tables if t.name == name), None)

    def join(self, name: str) -> Optional[JoinDef]:
        return next((j for j in self.joins if j.name == name), None)

    def entity(self, name: str) -> Optional[EntityDef]:
        return self._entities.get(name)

    @cached_property
    def _entities(self) -> dict[str, EntityDef]:
        return {e.name: e for e in reversed(self.entities)}

    def attribute(self, entity: str, attr: str) -> Optional[AttributeDef]:
        e = self.entity(entity)
        return e.attribute(attr) if e else None

    def relationship_between(self, a: str, b: str) -> Optional[RelationshipDef]:
        for r in self.relationships:
            if {r.frm, r.to} == {a, b}:
                return r
        return None

    def db_path(self, base: Union[str, Path, None] = None) -> Path:
        if not self.db.startswith("sqlite://"):
            raise AagError(f"unsupported db url: {self.db!r}")
        rel = Path(self.db[len("sqlite://"):])
        if rel.is_absolute() or base is None:
            return rel
        return Path(base) / rel


# ---------------------------------------------------------------------------
# loading


_KINDS = {str: "a string", list: "a list", dict: "an object"}


def _typed(value, kind: type, path: str):
    """``value``, which the ring field at ``path`` must hold as a ``kind``."""
    if not isinstance(value, kind):
        raise AagError(f"{path} must be {_KINDS[kind]}, got {value!r}")
    return value


def _strings(obj: dict, path: str, *keys: str) -> list[str]:
    """The required string fields ``keys`` of the object at ``path``."""
    return [_typed(obj[key], str, f"{path}.{key}") for key in keys]


def _items(obj: dict, key: str, path: str = "", kind: type = dict) -> list:
    """(path, item) for each item of the optional list ``obj[key]``."""
    path = f"{path}.{key}" if path else key
    return [(f"{path}[{i}]", _typed(x, kind, f"{path}[{i}]"))
            for i, x in enumerate(_typed(obj.get(key, []), list, path))]


def _is_pair(raw) -> bool:
    return isinstance(raw, list) and len(raw) == 2 and all(
        isinstance(s, str) for s in raw)


def _parse_units(raw) -> tuple[str, str] | None:
    if raw is None:
        return None
    if isinstance(raw, str):
        return (raw, raw)
    if _is_pair(raw):
        return (raw[0], raw[1])
    raise AagError(f"units must be a string or [singular, plural] pair: {raw!r}")


def _parse_types(raw, where: str) -> TypeSet:
    if not isinstance(raw, list) or not raw:
        raise AagError(f"{where}: 'types' must be a non-empty list")
    out = set()
    for t in raw:
        try:
            out.add(AttributeType(t))
        except ValueError:
            raise AagError(f"{where}: unknown attribute kind {t!r}") from None
    return frozenset(out)


def _parse_attribute(raw: dict, path: str, entity: str) -> AttributeDef:
    name, = _strings(raw, path, "name")
    where = f"entities.{entity}.attributes.{name}"
    source = raw.get("source")
    if source is not None and not _is_pair(source):
        raise AagError(f"{where}: 'source' must be a [table, column] pair")
    for key in ("nicename", "base_attribute", "derivation"):
        if raw.get(key) is not None:
            _typed(raw[key], str, f"{path}.{key}")
    return AttributeDef(
        name=name,
        types=_parse_types(raw.get("types"), where),
        nicename=raw.get("nicename", name),
        source=None if source is None else (source[0], source[1]),
        units=_parse_units(raw.get("units")),
        derived=bool(raw.get("derived", False)),
        base_attribute=raw.get("base_attribute"),
        derivation=raw.get("derivation"),
    )


def ring_from_dict(doc: dict) -> Ring:
    """The ring in ``doc``, every field checked for its JSON type."""
    if not isinstance(doc, dict):
        raise AagError("ring document must be a JSON object")
    if doc.get("version") != RING_FORMAT_VERSION:
        raise AagError(
            f"unsupported ring version: {doc.get('version')!r} "
            f"(expected {RING_FORMAT_VERSION!r})"
        )
    try:
        tables = tuple(TableDef(*_strings(t, w, "name", "primary_key"))
                       for w, t in _items(doc, "tables"))
        joins = tuple(JoinDef(*_strings(j, w, "name", "left", "right"))
                      for w, j in _items(doc, "joins"))
        entities = []
        for w, e in _items(doc, "entities"):
            name, = _strings(e, w, "name")
            nn = e.get("nicename", name)
            nn = [nn, nn] if isinstance(nn, str) else nn
            if not _is_pair(nn):
                raise AagError(f"{w}.nicename must be a string or [singular, "
                               f"plural] pair, got {nn!r}")
            attrs = tuple(_parse_attribute(a, aw, name)
                          for aw, a in _items(e, "attributes", w))
            entities.append(EntityDef(name, (nn[0], nn[1]),
                                      *_strings(e, w, "primary_table"), attrs))
        rels = tuple(
            RelationshipDef(*_strings(r, w, "name", "from", "to"),
                            tuple(j for _, j in _items(r, "join_path", w, str)))
            for w, r in _items(doc, "relationships")
        )
    except KeyError as e:
        raise AagError(f"ring document is missing required field {e}") from e
    return Ring(
        name=_typed(doc.get("name", ""), str, "name"),
        db=_typed(doc.get("db", ""), str, "db"),
        tables=tables,
        joins=joins,
        entities=tuple(entities),
        relationships=rels,
    )


def load_ring(path: Union[str, Path], text: Optional[str] = None) -> Ring:
    """The ring document at ``path``, parsed from ``text`` when given."""
    text = Path(path).read_text() if text is None else text
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise AagError(f"invalid JSON in {path}: {e}") from e
    return ring_from_dict(doc)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    """One machine-readable invariant violation with a path to the offending field."""

    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.path}: {self.message}"


def _split_colref(ref: str) -> tuple[str, str] | None:
    parts = ref.split(".")
    return (parts[0], parts[1]) if len(parts) == 2 else None


def validate_ring(ring: Ring) -> list[Violation]:
    """Structural validation; returns a list of violations (empty if clean)."""
    out: list[Violation] = []
    table_names = [t.name for t in ring.tables]
    for name in {n for n in table_names if table_names.count(n) > 1}:
        out.append(Violation("DuplicateIdentifier", f"tables.{name}",
                             f"table {name!r} is defined more than once"))

    join_names = [j.name for j in ring.joins]
    for name in {n for n in join_names if join_names.count(n) > 1}:
        out.append(Violation("DuplicateIdentifier", f"joins.{name}",
                             f"join {name!r} is defined more than once"))
    for j in ring.joins:
        for side, ref in (("left", j.left), ("right", j.right)):
            col = _split_colref(ref)
            if col is None:
                out.append(Violation(
                    "BadColumnReference", f"joins.{j.name}.{side}",
                    f"{ref!r} is not of the form table.column"))
            elif ring.table(col[0]) is None:
                out.append(Violation(
                    "UnknownTable", f"joins.{j.name}.{side}",
                    f"join {j.name!r} references unknown table {col[0]!r}"))

    entity_names = [e.name for e in ring.entities]
    for name in {n for n in entity_names if entity_names.count(n) > 1}:
        out.append(Violation("DuplicateIdentifier", f"entities.{name}",
                             f"entity {name!r} is defined more than once"))
    for e in ring.entities:
        if ring.table(e.primary_table) is None:
            out.append(Violation(
                "UnknownTable", f"entities.{e.name}.primary_table",
                f"entity {e.name!r} has unknown primary table "
                f"{e.primary_table!r}"))
        attr_names = [a.name for a in e.attributes]
        for name in {n for n in attr_names if attr_names.count(n) > 1}:
            out.append(Violation(
                "DuplicateIdentifier", f"entities.{e.name}.attributes.{name}",
                f"attribute {name!r} is defined more than once"))
        for a in e.attributes:
            where = f"entities.{e.name}.attributes.{a.name}"
            if a.derived:
                if a.base_attribute is None or e.attribute(a.base_attribute) is None:
                    out.append(Violation(
                        "UnknownAttribute", f"{where}.base_attribute",
                        f"derived attribute {a.name!r} has no valid base"))
                if a.derivation not in registry.DERIVATION_AGGREGATIONS:
                    out.append(Violation(
                        "UnknownOperation", f"{where}.derivation",
                        f"{a.derivation!r} is not a derivable aggregation"))
                continue
            if a.source is None:
                out.append(Violation(
                    "MissingSource", f"{where}.source",
                    f"attribute {a.name!r} has no source column"))
            elif ring.table(a.source[0]) is None:
                out.append(Violation(
                    "UnknownTable", f"{where}.source",
                    f"attribute {a.name!r} sources unknown table "
                    f"{a.source[0]!r}"))

    rel_names = [r.name for r in ring.relationships]
    for name in {n for n in rel_names if rel_names.count(n) > 1}:
        out.append(Violation("DuplicateIdentifier", f"relationships.{name}",
                             f"relationship {name!r} is defined more than once"))
    for r in ring.relationships:
        where = f"relationships.{r.name}"
        for end, ent in (("from", r.frm), ("to", r.to)):
            if ring.entity(ent) is None:
                out.append(Violation(
                    "UnknownEntity", f"{where}.{end}",
                    f"relationship {r.name!r} references unknown entity "
                    f"{ent!r}"))
        if not r.join_path:
            out.append(Violation("BrokenJoinPath", f"{where}.join_path",
                                 f"relationship {r.name!r} has an empty join path"))
            continue
        tables: set[str] = set()
        ok = True
        for jn in r.join_path:
            j = ring.join(jn)
            if j is None:
                out.append(Violation(
                    "BrokenJoinPath", f"{where}.join_path",
                    f"relationship {r.name!r} references unknown join {jn!r}"))
                ok = False
                break
            for ref in (j.left, j.right):
                col = _split_colref(ref)
                if col:
                    tables.add(col[0])
        if ok and ring.entity(r.frm) and ring.entity(r.to):
            t_from = ring.entity(r.frm).primary_table
            t_to = ring.entity(r.to).primary_table
            if t_from not in tables or t_to not in tables:
                out.append(Violation(
                    "BrokenJoinPath", f"{where}.join_path",
                    f"join path of {r.name!r} does not connect "
                    f"{t_from!r} to {t_to!r}"))
    return out


# ---------------------------------------------------------------------------
# derived attributes


def derive_attributes(ring: Ring) -> Ring:
    """Extend each entity with aggregate attributes derived from its base ones.

    Numeric (arithmetic) attributes gain the full set of derivable
    aggregations; datetime attributes gain only order-based ones. The
    operation is idempotent: already-derived attributes are never derived
    from, and existing names are left alone.
    """
    new_entities = []
    for e in ring.entities:
        existing = {a.name for a in e.attributes}
        added: list[AttributeDef] = []
        for a in e.attributes:
            if a.derived:
                continue
            if AttributeType.ARITHMETIC in a.types:
                ops = registry.DERIVATION_AGGREGATIONS
            elif AttributeType.DATETIME in a.types:
                ops = ("max", "median", "min")
            else:
                continue
            for op in ops:
                sig = registry.get_signature(op)
                name = f"{sig.nicename} {a.nicename}".lower()
                if name in existing:
                    continue
                existing.add(name)
                units = (a.units if op in registry.UNIT_KEEPING_AGGREGATIONS
                         else None)
                added.append(AttributeDef(
                    name=name, types=sig.output, nicename=name, source=None,
                    units=units, derived=True, base_attribute=a.name,
                    derivation=op,
                ))
        new_entities.append(replace(e, attributes=e.attributes + tuple(added)))
    return replace(ring, entities=tuple(new_entities))
