"""Plan-to-SQL compilation and execution.

A plan is compiled region by region. Every materialization step ("return")
roots a region, and a region becomes one statement:

* a mid-plan materialization becomes its own statement, run as a TEMP table
  named ``m_`` plus 16 hex digits of the SHA-1 of its SQL (upstream names
  included) and parameters, so each plan of a report names it alike;
* a window rank inside a region is hoisted into its own CTE that copies the
  source's columns and appends the rank column;
* an aggregation whose input is itself a grouped aggregation is hoisted into
  a grouping CTE (keys + aggregate) that the outer region reads from.

Eager aggregation (Yan & Larson, VLDB 1995): when a region joins tables,
every aggregation reads one fact table T that no key or other column reads,
and each filter conjunct reads only T or no T column, then T is replaced by
its partials: T-only conjuncts and grouping by T's join columns in a
statement of its own, a TEMP table ``p_<hash>`` read under T's name.
``_AGGS`` says how each aggregation compiles, in one grouping level and
from partials. A holistic aggregation is held whole in its partial
(invariant grouping, Chaudhuri & Shim, VLDB 1994): an outer group that
joins exactly one partial row (``COUNT(*) = 1``) holds the same fact rows
as in one grouping level and reads it; any other group computes the
aggregation in one grouping level, in a subquery that aliases its own
tables and is correlated by a NULL-safe ``IS`` on each outer key. Such a
partial is built in one scan, and a T joined on its own primary key keeps
one grouping level. A decomposable aggregation is combined from any
number of partial rows per key (two-phase aggregation, Shatdal & Naughton,
SIGMOD 1995), so ``execute`` may build them in rowid blocks (``_blocks``),
so that each GROUP BY sort is small, on up to one connection per CPU
(``_build_in_blocks``). The blocks and their order depend only on T's rowid
span, so raw results are the same on any number of CPUs. ``reader`` begins
a report's read transaction on the thread's kept connection and reads the
database before any helper starts, so in rollback-journal mode no commit
lands mid-report. The connection and its TEMP tables outlive the report (a
recycler of intermediates, Ivanova et al., SIGMOD 2009). The invariant to
keep: a TEMP table is only ever read in the snapshot it was built from, so
``reader`` reopens the connection empty whenever that may not hold; when it
does so is user-visible and stated in docs/formats.md (the ``--verbose``
paragraph).

Analysis decides each region's shape (docs/formats.md, "Regions"); a region
reads a single-row materialization through scalar subqueries rather than a
join. Every literal is bound once into its statement's parameter list and
emitted as the numbered parameter ``?N`` (its 1-based position), so a
compiled text that appears more than once reuses the same numbers. A request
value (a ``Param``) is a marked slot of the list: ``CompiledQuery.bind`` fills
it with the plan's own value or another and renames each TEMP table from its
bound SQL and parameters. Median and string_agg are ordinary aggregates
registered by ``connect``.
"""

from __future__ import annotations

import hashlib
import math
import os
import sqlite3
import threading
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .constants import PERCENT_CHANGE_SCALE, STRING_AGG_SEPARATOR
from .errors import AagError, DbError
from .plans import Param, SqrPlan, StepRef, analyze_plan
from .registry import REGISTRY
from .ring import Ring
from .types import ColumnMeta, DatetimeValue, Record, ResultSet


class Subplan(NamedTuple):
    name: str          # m_<hash>, CTE name (sp1, ...) or "main"
    kind: str          # "materialization" | "window" | "group" | "terminal"


class CompiledQuery(Record):
    """A plan's SQL: ``sql`` and its ``params`` are the terminal statement.
    ``materializations`` holds (name, sql, params, blocks) of each TEMP
    table, upstream first; a partial that may be built in rowid blocks has
    ``blocks``: its fact table, its SQL restricted to rowids ?N+1..?N+2,
    and the count of the fact rows its filter keeps there, up to ?N+3, or
    None when it has no filter; any other table has None. ``shape`` is the
    query as compiled, with the ``Param`` slots that ``bind`` fills; it is
    neither shown nor compared."""

    _fields = ("sql", "params", "output_columns", "subplans",
               "materializations")
    __slots__ = _fields + ("shape",)

    def __init__(self, sql: str, params: list,
                 output_columns: list[ColumnMeta], subplans: list[Subplan],
                 materializations: list,
                 shape: Optional[CompiledQuery] = None):
        self.sql, self.params, self.output_columns = sql, params, output_columns
        self.subplans, self.materializations = subplans, materializations
        self.shape = shape

    def bind(self, values: Optional[dict] = None) -> CompiledQuery:
        """This query's shape with its ``Param`` slots filled from ``values``
        (by default, each slot's own value) and its TEMP tables named by
        their bound content, upstream first."""
        shape = self.shape or self
        names: dict[str, str] = {}

        def renamed(sql: str) -> str:
            for old, new in names.items():
                sql = sql.replace(old, new)
            return sql

        def bound(sql: str, params: list) -> tuple[str, list]:
            return renamed(sql), [
                p if not isinstance(p, Param) else _sql_value(
                    p.value if values is None else values[p.name])
                for p in params]

        mats = []
        for name, sql, params, blocks in shape.materializations:
            sql, params = bound(sql, params)
            if blocks:  # they read the same upstream tables
                fact, block, probe = blocks
                blocks = fact, renamed(block), probe and renamed(probe)
            names[name] = _table_name(name[:2], sql, params)
            mats.append((names[name], sql, params, blocks))
        return CompiledQuery(
            *bound(shape.sql, shape.params), shape.output_columns,
            [Subplan(names.get(s.name, s.name), s.kind) for s in shape.subplans],
            mats, shape)


class JoinResolution(NamedTuple):
    tables: list[str]        # table names, in FROM order
    conditions: list[tuple[str, str, str, str]]  # (a, x, b, y): a.x = b.y
    columns: dict[str, list[str]]  # table -> its columns the conditions use


def _q(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _sql_value(value):
    """A literal as it is bound: datetimes as their text, booleans as 0/1."""
    if isinstance(value, DatetimeValue):
        return value.iso
    return int(value) if isinstance(value, bool) else value


def _table_name(prefix: str, sql: str, params: list) -> str:
    return prefix + hashlib.sha1(repr((sql, params)).encode()).hexdigest()[:16]


def resolve_joins(ring: Ring, entities: list[str]) -> JoinResolution:
    """Connect the entities' primary tables through declared relationships."""
    first = ring.entity(entities[0])
    tables = [first.primary_table]
    conditions: list[tuple[str, str, str, str]] = []
    columns: dict[str, list[str]] = {}
    connected = [entities[0]]
    remaining = list(entities[1:])
    while remaining:
        hop = next(((b, rel) for a in connected for b in remaining
                    if (rel := ring.relationship_between(a, b)) is not None),
                   None)
        if hop is None:
            raise AagError(
                f"no relationship connects {remaining!r} to "
                f"{connected!r}")
        b, rel = hop
        for join_name in rel.join_path:
            j = ring.join(join_name)
            lt, lc = j.left.split(".")
            rt, rc = j.right.split(".")
            for t, c in ((lt, lc), (rt, rc)):
                if t not in tables:
                    tables.append(t)
                if c not in columns.setdefault(t, []):
                    columns[t].append(c)
            conditions.append((lt, lc, rt, rc))
        remaining.remove(b)
        connected.append(b)
    return JoinResolution(tables=tables, conditions=conditions,
                          columns=columns)


# ---------------------------------------------------------------------------

_INFIX = {"and": " AND ", "or": " OR ", "add": " + ", "subtract": " - ",
          "multiply": " * "}
_COMPARE = {"exact": "=", "greater_than": ">", "greater_than_eq": ">=",
            "less_than": "<", "less_than_eq": "<="}

# One row per aggregation (distributive, algebraic or holistic, after Gray et
# al., "Data Cube", 1997): its SQL in one grouping level over the value {v}
# (correlation's second value is {w}, and it reads only the rows where
# neither is NULL: {x} and {y}); the partial columns it is computed from per
# join key, over {v}, or None if none (a holistic one's one partial column
# holds it whole); and how those columns {0}, {1}, ... combine over a
# group's partial rows, or None where it takes no eager path.
_AGGS = {
    "average": ("AVG({v})", ("COUNT({v})", "SUM({v})"),
                "(CAST(SUM({1}) AS REAL) / SUM({0}))"),
    "correlation": (
        "(CASE WHEN COUNT({v}*{w}) < 2 THEN NULL ELSE "
        "(AVG({v}*{w}) - AVG({x})*AVG({y})) / NULLIF("
        "SQRT(MAX(AVG({x}*{x}) - AVG({x})*AVG({x}), 0.0)) * "
        "SQRT(MAX(AVG({y}*{y}) - AVG({y})*AVG({y}), 0.0)), 0.0) END)"
        .replace("{x}", "(CASE WHEN {w} IS NOT NULL THEN {v} END)")
        .replace("{y}", "(CASE WHEN {v} IS NOT NULL THEN {w} END)"),
        None, None),
    "count": ("COUNT({v})", ("COUNT({v})",), "COALESCE(SUM({0}), 0)"),
    "count_unique": ("COUNT(DISTINCT {v})", None, "MIN({0})"),
    "get_one": ("MIN({v})", ("MIN({v})",), "MIN({0})"),
    "max": ("MAX({v})", ("MAX({v})",), "MAX({0})"),
    "median": ("aag_median({v})", None, "MIN({0})"),
    "min": ("MIN({v})", ("MIN({v})",), "MIN({0})"),
    "standard_deviation": (
        "SQRT(MAX(AVG({v}*{v}) - AVG({v})*AVG({v}), 0.0))",
        ("COUNT({v})", "SUM({v})", "SUM({v}*{v})"),
        "SQRT(MAX((CAST(SUM({2}) AS REAL) / SUM({0})) - "
        "(CAST(SUM({1}) AS REAL) / SUM({0}))*(CAST(SUM({1}) AS REAL) / "
        "SUM({0})), 0.0))"),
    "string_agg": ("aag_string_agg({v})", None, "MIN({0})"),
    "sum": ("(SUM({v}) * 1.0)", ("SUM({v})",), "(SUM({0}) * 1.0)"),
}


class _Compiler:
    def __init__(self, ring: Ring, plan: SqrPlan):
        self.ring = ring
        self.plan = plan
        self.info = analyze_plan(ring, plan)
        self.ctes: list[tuple[str, str]] = []  # (name, sql)
        self.params: list = []
        self.subplans: list[Subplan] = []
        self._mats: dict = {}  # (name, sql, params, blocks) by label or name

    def bind(self, value) -> str:
        """Append a literal, or a request value's slot, to the statement's
        parameters; return its ``?N``."""
        self.params.append(value if isinstance(value, Param)
                           else _sql_value(value))
        return f"?{len(self.params)}"

    def _new_cte(self, sql: str, kind: str) -> str:
        name = f"sp{len(self.ctes) + 1}"
        self.ctes.append((name, sql))
        self.subplans.append(Subplan(name=name, kind=kind))
        return name

    def compile(self) -> CompiledQuery:
        terminal = self.plan.result
        if self.plan.steps[terminal].op != "return":
            raise AagError("plan must terminate in a materialization")
        sql = self._region_sql(terminal)
        self.subplans.append(Subplan(name="main", kind="terminal"))
        columns = [c for _, c in self.info[terminal].columns]
        return CompiledQuery(sql=sql, params=self.params,
                             output_columns=columns, subplans=self.subplans,
                             materializations=list(self._mats.values()))

    # -- region compilation --------------------------------------------------

    def _materialize(self, ret_label: str) -> str:
        """Compile the region to a statement with its own CTEs and
        parameters; return the table name its content gives it."""
        if ret_label not in self._mats:
            outer = self.ctes, self.params
            self.ctes, self.params = [], []
            sql, params = self._region_sql(ret_label), self.params
            self.ctes, self.params = outer
            name = self._add_table("m_", sql, params, ret_label)
            self.subplans.append(Subplan(name, "materialization"))
        return self._mats[ret_label][0]

    def _add_table(self, prefix: str, sql: str, params: list,
                   key=None, blocks=None) -> str:
        """Add a TEMP table's statement, once per ``key`` (default: its
        name); return the name its content gives it."""
        name = _table_name(prefix, sql, params)
        self._mats.setdefault(key or name, (name, sql, params, blocks))
        return name

    def _region_sql(self, ret_label: str) -> str:
        mats = {up: self._materialize(up)
                for up in self.info[ret_label].upstream}
        sql = _Region(self, ret_label, mats).build()
        pieces = [f"{name} AS (\n{cte_sql}\n)" for name, cte_sql in self.ctes]
        return ("WITH " + ",\n".join(pieces) + "\n" if pieces else "") + sql


class _Region:
    def __init__(self, comp: _Compiler, ret_label: str, mats: dict[str, str]):
        """``mats`` names the TEMP table of each upstream return."""
        self.c = comp
        self.ret = comp.info[ret_label]
        self.scalar_mats = {u: t for u, t in mats.items()
                            if comp.info[u].single_row}
        self.row_mats = {u: t for u, t in mats.items()
                         if u not in self.scalar_mats}
        self.aggs = [l for l in self.ret.collection_labels
                     if comp.plan.steps[l].op in _AGGS]
        self.holistic = any(_AGGS[comp.plan.steps[l].op][1] is None
                            for l in self.aggs)
        # label -> (alias, column) overrides installed by hoisted CTEs
        self.column_of: dict[str, tuple[str, str]] = {}
        self.row_alias: Optional[str] = None
        self.from_sql = ""
        self.where_sql = ""
        # eager aggregation: the fact table grouped by its join columns
        self.fact: Optional[str] = None
        self.conjuncts: list[tuple[str, bool]] = []  # (filter, reads fact)
        self.fact_where: list[str] = []
        self.partials: dict[str, str] = {}  # inner aggregate -> column
        self.partial_params: list = []
        self.alias: dict[str, str] = {}  # table -> its name in a fallback

    # -- FROM / WHERE -----------------------------------------------------------

    def _build_from(self) -> None:
        if self.ret.entities:
            res = self.joins = resolve_joins(self.c.ring, self.ret.entities)
            self.from_sql = "FROM " + ", ".join(_q(t) for t in res.tables)
            self.fact = self._eager_fact()
        elif self.row_mats:
            self.row_alias = next(iter(self.row_mats.values()))
            self.from_sql = f"FROM {self.row_alias}"
        else:
            self.from_sql = "FROM (SELECT 1)"

    def _build_where(self) -> None:
        parts = self._join_sql() if self.ret.entities else []
        if self.fact:
            for l, inner in self.conjuncts:
                if inner:
                    self.fact_where.append(self._in_partial(l))
                else:
                    parts.append(self.expr(l))
        elif self.ret.filter_label:
            parts.append(self.expr(self.ret.filter_label))
        self.where_sql = ("WHERE " + " AND ".join(parts)) if parts else ""

    def _col(self, table: str, column: str) -> str:
        return f"{_q(self.alias.get(table, table))}.{_q(column)}"

    def _join_sql(self) -> list[str]:
        return [f"{self._col(a, x)} = {self._col(b, y)}"
                for a, x, b, y in self.joins.conditions]

    # -- eager aggregation ------------------------------------------------------

    def _reads(self, label: str) -> set[str]:
        """The tables an expression reads; "" marks an aggregation in it."""
        si = self.c.info[label]
        if si.attribute is not None:
            return {self.c.ring.attribute(*si.attribute).source[0]}
        if si.source_return is not None:
            return set()
        if self.c.plan.steps[label].op in _AGGS:
            return {""}
        read: set[str] = set()
        for ref in self.c.plan.refs(label):
            read |= self._reads(ref)
        return read

    def _conjuncts(self, label: Optional[str]) -> list[str]:
        if label is None:
            return []
        step = self.c.plan.steps[label]
        if step.op == "and" and all(isinstance(a, StepRef) for a in step.args):
            return [c for a in step.args for c in self._conjuncts(a.label)]
        return [label]

    def _eager_fact(self) -> Optional[str]:
        """The one table every aggregation reads, when it can be grouped by
        its join columns before the join; None keeps one grouping level."""
        if len(self.joins.tables) < 2:
            return None
        read: set[str] = set()
        for l in self.aggs:
            if _AGGS[self.c.plan.steps[l].op][2] is None:
                return None
            read |= self._reads(self.c.info[l].value_label)
        if len(read) != 1 or "" in read:
            return None
        fact = read.pop()
        # grouped by its primary key, a partial row is one fact row, and
        # each outer group of more than one would take the fallback
        table = self.c.ring.table(fact)
        if self.holistic and table \
                and self.joins.columns[fact] == [table.primary_key]:
            return None
        for l in self.ret.collection_labels:
            if l not in self.aggs and self._reads(l) & {fact, ""}:
                return None
        for l in self._conjuncts(self.ret.filter_label):
            r = self._reads(l)
            if "" in r or (fact in r and len(r) > 1):
                return None
            self.conjuncts.append((l, fact in r))
        return fact

    def _in_partial(self, label: str) -> str:
        """Compile a fact table expression into the partials' statement."""
        outer, self.c.params = self.c.params, self.partial_params
        sql = self.expr(label)
        self.c.params = outer
        return sql

    def _combine(self, label: str, v: str) -> str:
        """The aggregation ``label`` of ``v`` over the join, from the fact
        table's partials."""
        one, partials, merge = _AGGS[self.c.plan.steps[label].op]
        # a partial column another aggregation reads too is computed once
        cols = [f"{_q(self.fact)}." + self.partials.setdefault(
            agg.format(v=v), f'"aag_p{len(self.partials) + 1}"')
            for agg in ((one,) if partials is None else partials)]
        if partials is None:
            # a group of one partial row holds the same fact rows either way
            return (f"CASE WHEN COUNT(*) = 1 THEN {merge.format(*cols)} "
                    f"ELSE {self._fallback(label)} END")
        return merge.format(*cols)

    def _fallback(self, label: str) -> str:
        """The aggregation ``label`` in one grouping level, as a subquery
        over the joined tables, each under an alias, restricted to the outer
        statement's group by a NULL-safe ``IS`` on each key."""
        keys = [l for l, _ in self.ret.columns if l not in self.aggs]
        outer = [self.expr(l) for l in keys]
        fact, self.fact = self.fact, None
        self.alias = {t: f"aag_t{i}" for i, t in
                      enumerate(self.joins.tables, 1)}
        where = self._join_sql()
        if self.ret.filter_label:
            where.append(self.expr(self.ret.filter_label))
        where += [f"{self.expr(l)} IS {o}" for l, o in zip(keys, outer)]
        agg = self._agg_expr(label)
        tables = ", ".join(f"{_q(t)} AS {_q(a)}"
                           for t, a in self.alias.items())
        self.fact, self.alias = fact, {}
        return f"(SELECT {agg} FROM {tables} WHERE {' AND '.join(where)})"

    def _eager_from(self) -> str:
        """FROM with the fact table's partials, grouped by its join columns
        into a TEMP table read under the fact table's name, so join
        conditions and outer clauses stay as they are."""
        fact = _q(self.fact)
        keys = {f"{fact}.{_q(c)}": _q(c)
                for c in self.joins.columns[self.fact]}
        cols = ", ".join(f"{e} AS {c}" for e, c in
                         [*keys.items(), *self.partials.items()])

        def select(where: list[str]) -> str:
            return (f"SELECT {cols}\nFROM {fact}"
                    + (f"\nWHERE {' AND '.join(where)}" if where else "")
                    + f"\nGROUP BY {', '.join(keys)}")
        params, blocks = self.partial_params, None
        n = len(params)
        # a holistic partial cannot be combined across blocks: one scan
        if not self.holistic:
            block = [*self.fact_where,
                     f"{fact}.rowid BETWEEN ?{n + 1} AND ?{n + 2}"]
            probe = (f"SELECT count(*) FROM (SELECT 1 FROM {fact}\nWHERE "
                     f"{' AND '.join(block)} LIMIT ?{n + 3})")
            blocks = (self.fact, select(block),
                      probe if self.fact_where else None)
        name = self.c._add_table("p_", select(self.fact_where), params,
                                 blocks=blocks)
        return "FROM " + ", ".join(f"{name} AS {fact}" if t == self.fact
                                   else _q(t) for t in self.joins.tables)

    # -- hoisted CTEs -------------------------------------------------------------

    def _hoist_windows(self) -> None:
        """Move window ranks into their own CTE over the row source."""
        ranks = [l for l in self.ret.region
                 if self.c.plan.steps[l].op == "row_number"]
        if not ranks:
            return
        src_label = next(iter(self.row_mats))
        src_cols = [c.name for _, c in self.c.info[src_label].columns]
        select = [f"{_q(c)}" for c in src_cols]
        for l in ranks:
            si = self.c.info[l]
            sort = self.c.info[si.value_label]
            way = "DESC" if sort.direction == "desc" else "ASC"
            keys = [f"{self.expr(k)} {way}" for k in sort.key_labels]
            # deterministic ranks: remaining columns break ties, ascending
            key_cols = {self.c.info[k].name for k in sort.key_labels}
            for c in src_cols:
                if c not in key_cols:
                    keys.append(f"{_q(c)} ASC")
            select.append(
                f"ROW_NUMBER() OVER (ORDER BY {', '.join(keys)}) AS "
                f"{_q(si.name)}")
        sql = f"SELECT {', '.join(select)}\nFROM {self.row_alias}"
        cte = self.c._new_cte(sql, "window")
        # the window CTE replaces the original row source
        self.row_alias = cte
        self.from_sql = f"FROM {cte}"
        for l in ranks:
            self.column_of[l] = (cte, self.c.info[l].name)

    def _hoist_nested_groups(self) -> None:
        """Aggregations over grouped aggregations read from a grouping CTE."""
        inner = self.ret.nested_label
        if inner is None:
            return
        inner_si = self.c.info[inner]
        keys = self.c.info[inner_si.grouping_label].key_labels
        select = []
        group = []
        for k in keys:
            ks = self.expr(k)
            select.append(f"{ks} AS {_q(self.c.info[k].name)}")
            group.append(ks)
        select.append(f"{self._agg_expr(inner)} AS {_q(inner_si.name)}")
        # the pre-aggregation filter belongs to the inner grouping
        sql = (f"SELECT {', '.join(select)}\n{self.from_sql}"
               + (f"\n{self.where_sql}" if self.where_sql else "")
               + f"\nGROUP BY {', '.join(group)}")
        cte = self.c._new_cte(sql, "group")
        # the grouping CTE becomes the region's row source
        self.row_alias = cte
        self.from_sql = f"FROM {cte}"
        self.column_of[inner] = (cte, inner_si.name)
        self.where_sql = ""

    # -- expressions ---------------------------------------------------------------

    def expr(self, label: str) -> str:
        if label in self.column_of:
            return _q(self.column_of[label][1])
        step = self.c.plan.steps[label]
        si = self.c.info[label]
        op = step.op

        if op == "retrieve_attribute":
            if si.attribute is not None:
                return self._col(*self.c.ring.attribute(*si.attribute).source)
            if si.source_return in self.scalar_mats:
                table = self.scalar_mats[si.source_return]
                return f"(SELECT {_q(si.source_column)} FROM {table})"
            return f"{_q(si.source_column)}"

        if op in _AGGS:
            return self._agg_expr(label)

        args = [self.expr(a.label) if isinstance(a, StepRef) else self.c.bind(a)
                for a in step.args]
        if op in _INFIX:
            return "(" + _INFIX[op].join(args) + ")"
        if op in _COMPARE:
            return f"({args[0]} {_COMPARE[op]} {args[1]})"
        if op == "not":
            return f"(NOT COALESCE({args[0]}, 0))"
        if op == "divide":
            acc = args[0]
            for a in args[1:]:
                acc = f"(CAST({acc} AS REAL) / NULLIF(CAST({a} AS REAL), 0.0))"
            return acc
        if op == "absolute_value":
            return f"ABS({args[0]})"
        if op == "square_root":
            return f"SQRT({args[0]})"
        if op == "percent_change":
            a, b = args
            return (f"(CASE WHEN {a} = 0 THEN NULL ELSE "
                    f"{PERCENT_CHANGE_SCALE!r} * ({b} - {a}) / "
                    f"CAST({a} AS REAL) END)")
        if op == "duration":
            return (f"CAST(ROUND((julianday({args[1]}) - julianday({args[0]}))"
                    f" * 86400.0) AS INTEGER)")
        raise AagError(f"cannot compile step {label!r} ({op})")

    def _agg_expr(self, label: str) -> str:
        if self.fact:
            return self._combine(
                label, self._in_partial(self.c.info[label].value_label))
        step = self.c.plan.steps[label]
        # the value inputs come first; a groupby follows them
        values = step.args[:REGISTRY[step.op].inputs[0].max_arity]
        return _AGGS[step.op][0].format(
            **{k: self.expr(a.label) for k, a in zip("vw", values)})

    # -- assembly ---------------------------------------------------------------

    def build(self) -> str:
        self._build_from()
        self._hoist_windows()
        self._build_where()
        self._hoist_nested_groups()

        ret = self.ret
        agg_labels = [l for l in self.aggs if l not in self.column_of]
        select_parts: list[str] = []
        group_exprs: list[str] = []
        for label, col in ret.columns:
            sql = self.expr(label)
            select_parts.append(f"{sql} AS {_q(col.name)}")
            if agg_labels and label not in agg_labels:
                group_exprs.append(sql)

        if self.fact:
            self.from_sql = self._eager_from()
        sql_lines = [f"SELECT {', '.join(select_parts)}", self.from_sql,
                     self.where_sql]
        if group_exprs:
            sql_lines.append(f"GROUP BY {', '.join(group_exprs)}")

        sql_lines.append(self._order_clause())
        if ret.limit_label:
            n = self.c.plan.steps[ret.limit_label].args[0]
            n = n if isinstance(n, Param) else int(n)
            sql_lines.append(f"LIMIT {self.c.bind(n)}")
        return "\n".join(l for l in sql_lines if l)

    def _order_clause(self) -> str:
        names = [col.name for _, col in self.ret.columns]
        terms, used = [], set()
        if self.ret.sort_label:
            s = self.c.info[self.ret.sort_label]
            way = "DESC" if s.direction == "desc" else "ASC"
            for k in s.key_labels:
                name = self.c.info[k].name
                # sort keys refer to output columns by their produced name
                if name in names:
                    used.add(name)
                    terms.append(f"{_q(name)} {way}")
        terms += [f"{_q(n)} ASC" for n in names if n not in used]
        return "ORDER BY " + ", ".join(terms)


# ---------------------------------------------------------------------------
# public entry points


def compile_plan(ring: Ring, plan: SqrPlan) -> CompiledQuery:
    """``plan``'s query, bound to its own values."""
    return _Compiler(ring, plan).compile().bind()


# rowids per block of a partial table's build: a block's GROUP BY sort fits
# in cache (on one connection, the 200,000-row partial took about 15% less
# time in 16,384-row blocks than in 100,000-row ranges, SQLite 3.40); a
# sparse span widens the blocks, doubling, to at most MAX_BLOCKS. A span of
# fewer than MIN_BLOCKS * BLOCK_ROWS rowids is read in one scan: over the
# three report types, blocks on one and on two connections were 4.5% and
# 12.5% slower than one scan at 50,000 rowids, 2.5% and 1.8% faster at 65,536.
# The same break-even holds for the rows a filter keeps, as only they are
# sorted: a year partial keeping 10% of 200,000 rows took 25.9 ms in one
# scan and 34.7 ms in blocks on two connections
BLOCK_ROWS = 16_384
MAX_BLOCKS = 64
MIN_BLOCKS = 4


def connect(db_path: Union[str, Path]) -> sqlite3.Connection:
    """Open ``db_path`` read-only with the aag functions, in a deferred read
    transaction: from its first read to ``close`` it sees one snapshot."""
    path = Path(db_path).absolute()
    if not path.is_file():
        raise DbError(f"database not found: {db_path}")
    try:
        conn = sqlite3.connect(path.as_uri() + "?mode=ro", uri=True,
                               isolation_level=None)
        conn.execute("BEGIN")
    except sqlite3.Error as e:
        raise DbError(f"cannot open database {db_path}: {e}") from e
    conn.create_function("SQRT", 1, _sqlite_sqrt)
    conn.create_aggregate("aag_median", 1, _Median)
    conn.create_aggregate("aag_string_agg", 1, _StringAgg)
    return conn


# TEMP tables a kept read connection may hold: distinct requests add tables
# without end, so a connection holding more is reopened empty. The three
# report types for each of 50 targets on one 200k-row database hold 161
MAX_TEMP_TABLES = 256

_readers = threading.local()  # .kept: this thread's _Reader between reports


class _Reader:
    """A read-only connection to one database file, and the snapshot its
    TEMP tables were built from."""

    def __init__(self, db_path: Union[str, Path], path: Path):
        self.path = path
        # a wrapper later put on sqlite3.connect (a tracer, a test's counter)
        # sees the next report's connection
        self.opener = sqlite3.connect
        # taken before the open: a file replaced in between reads as changed
        self.file = _file_id(path)
        self.conn = connect(db_path)
        self.tables: set[str] = set()  # its TEMP tables: none when opened
        try:
            self.version = self._version()
        except DbError:
            self.conn.close()
            raise

    def _version(self) -> int:
        # reads the database: the read transaction's snapshot is now fixed
        return _run(self.conn, "PRAGMA data_version", [])[0][0]

    def begin(self, path: Path) -> bool:
        """Begin a read transaction on the kept connection; whether it may
        go on: ``path`` is the file it opened, ``sqlite3.connect`` is the
        function that opened it, no other connection has committed since its
        TEMP tables were built, and they number at most
        ``MAX_TEMP_TABLES``. Their names are read here, once per report."""
        if path != self.path or sqlite3.connect is not self.opener:
            return False
        _run(self.conn, "BEGIN", [])
        self.tables = _temp_tables(self.conn)
        return (self._version() == self.version and _file_id(path) == self.file
                and len(self.tables) <= MAX_TEMP_TABLES)


def _temp_tables(conn: sqlite3.Connection) -> set[str]:
    return {n for n, in _run(conn, "SELECT name FROM sqlite_temp_master", [])}


def _file_id(path: Path) -> Optional[tuple[int, int]]:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


@contextmanager
def reader(db_path: Union[str, Path]
           ) -> Iterator[tuple[sqlite3.Connection, set[str]]]:
    """This thread's read-only connection to ``db_path``, in a read
    transaction for the ``with`` block, and the names of the TEMP tables it
    holds, read once, for ``execute`` to skip and add to. The connection
    and its TEMP tables are kept after the block while ``_Reader.begin``
    allows, else reopened empty, so every TEMP table a block finds was
    built from the snapshot it reads. The
    transaction ends with the block, so no lock is held between reports; an
    exception closes the connection, so nothing it half built is kept."""
    path = Path(db_path).absolute()
    kept, _readers.kept = getattr(_readers, "kept", None), None
    try:
        if kept is not None and not kept.begin(path):
            kept.conn.close()
            kept = None
        if kept is None:
            kept = _Reader(db_path, path)
        yield kept.conn, kept.tables
        _run(kept.conn, "COMMIT", [])
        # the page cache is read again from the OS: no growth between reports
        _run(kept.conn, "PRAGMA shrink_memory", [])
    except BaseException:
        if kept is not None:
            kept.conn.close()
        raise
    _readers.kept = kept


def execute(compiled: CompiledQuery, conn: sqlite3.Connection,
            echo: Optional[Callable[[str, list], None]] = None,
            tables: Optional[set[str]] = None) -> ResultSet:
    """Build the TEMP tables of the query ``conn`` lacks, then run it;
    ``echo`` gets each statement and its parameters before it runs, a
    partial table's once per block. ``tables`` names the TEMP tables
    ``conn`` holds, as ``reader`` gives them, and gains each one built;
    by default they are read from ``conn``."""
    echo = echo or (lambda sql, params: None)
    tables = _temp_tables(conn) if tables is None else tables
    for name, sql, params, blocks in compiled.materializations:
        if name in tables:
            continue
        fact, ranged, probe = blocks or (None, None, None)
        bounds = fact and _blocks(conn, fact, probe, params)
        if bounds:
            _build_in_blocks(conn, name, params, ranged, bounds, echo)
        else:
            create = f"CREATE TEMP TABLE IF NOT EXISTS {name} AS\n{sql}"
            echo(create, params)
            _run(conn, create, params)
        tables.add(name)
    echo(compiled.sql, compiled.params)
    rows = _run(conn, compiled.sql, compiled.params)
    return ResultSet(columns=compiled.output_columns, rows=rows)


def _run(conn: sqlite3.Connection, sql: str, params: list) -> list:
    try:
        return conn.execute(sql, params).fetchall()
    except sqlite3.Error as e:
        raise DbError(str(e), sql=sql) from e


def _build_in_blocks(conn: sqlite3.Connection, name: str, params: list,
                     ranged: str, blocks: list[list[int]],
                     echo: Callable[[str, list], None]) -> None:
    """Build the partial table ``name`` from ``ranged`` (its statement
    restricted to a rowid block) over ``blocks``, inserted in block order.
    Of ``min(_cpus(), len(blocks))`` connections, the report's runs the
    first contiguous share of the blocks and each helper reads the next
    share, one block after another. A block its helper could not read (say,
    busy behind a writer's pending commit) the report connection runs
    itself. ``echo`` gets each block the report connection runs just before
    it runs; once the helpers are joined, it gets each block a helper read
    as the bare ``ranged``, then the ``INSERT`` of that helper's rows, with
    the rows as its parameters."""
    runs = [(f"INSERT INTO {name}\n{ranged}" if i else
             f"CREATE TEMP TABLE {name} AS\n{ranged}", params + bounds)
            for i, bounds in enumerate(blocks)]
    k = min(_cpus(), len(runs))
    # connection i's share is runs[cut[i]:cut[i + 1]]
    cut = [i * len(runs) // k for i in range(k + 1)]
    path = _run(conn, "PRAGMA database_list", [])[0][2]
    rows: list = [[] for _ in range(k)]  # of the blocks each helper read
    unread = cut[:-1]  # each share's first block its helper did not read

    def helper(i: int) -> None:
        try:
            with closing(connect(path)) as own:
                # behind a writer's pending commit, give the blocks up at once
                own.execute("PRAGMA busy_timeout = 0")
                for _, run_params in runs[cut[i]:cut[i + 1]]:
                    rows[i] += own.execute(ranged, run_params).fetchall()
                    unread[i] += 1
        except (sqlite3.Error, DbError):
            pass

    helpers = [threading.Thread(target=helper, args=(i,))
               for i in range(1, k)]
    for t in helpers:
        t.start()
    try:
        for sql, run_params in runs[:cut[1]]:
            echo(sql, run_params)
            _run(conn, sql, run_params)
    finally:
        for t in helpers:
            t.join()
    for i in range(1, k):
        for _, run_params in runs[cut[i]:unread[i]]:
            echo(ranged, run_params)
        if rows[i]:
            insert = (f"INSERT INTO {name} VALUES "
                      f"({', '.join('?' * len(rows[i][0]))})")
            echo(insert, rows[i])
            try:
                conn.executemany(insert, rows[i])
            except sqlite3.Error as e:
                raise DbError(str(e), sql=insert) from e
        for sql, run_params in runs[unread[i]:cut[i + 1]]:
            echo(sql, run_params)
            _run(conn, sql, run_params)


def _cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _blocks(conn: sqlite3.Connection, fact: str, probe: Optional[str] = None,
            params: Optional[list] = None) -> list[list[int]]:
    """Rowid bounds of ``fact``'s blocks: aligned to multiples of
    ``BLOCK_ROWS``, or of the smallest doubling of it that leaves at most
    ``MAX_BLOCKS``; none when it is read in one scan, as a span of fewer
    than ``MIN_BLOCKS * BLOCK_ROWS`` rowids is, or a filter estimated to
    keep fewer rows: ``probe`` counts those it keeps among the span's first
    ``BLOCK_ROWS`` rowids, with ``params``, the rowid bounds and a limit."""
    if not _run(conn, "SELECT 1 FROM sqlite_master WHERE type = 'table' AND "
                      "name = ?", [fact]):
        return []
    try:  # two scalar subqueries, each reading one end of the rowid B-tree
        [(lo, hi)] = _run(conn, f"SELECT (SELECT min(rowid) FROM {_q(fact)}),"
                                f" (SELECT max(rowid) FROM {_q(fact)})", [])
    except DbError:  # a WITHOUT ROWID table
        return []
    if not (isinstance(lo, int) and isinstance(hi, int)):
        return []
    width = BLOCK_ROWS
    while hi // width - lo // width >= MAX_BLOCKS:
        width *= 2
    # WAL gives each connection its own snapshot; a column can hide rowid
    if hi - lo + 1 < MIN_BLOCKS * BLOCK_ROWS \
            or _run(conn, "PRAGMA journal_mode", [])[0][0] == "wal" \
            or _run(conn, "SELECT 1 FROM pragma_table_info(?) WHERE lower("
                          "name) IN ('rowid', '_rowid_', 'oid')", [fact]):
        return []
    # kept / BLOCK_ROWS * span >= MIN_BLOCKS * BLOCK_ROWS: count to ``need``
    need = -(-MIN_BLOCKS * BLOCK_ROWS * BLOCK_ROWS // (hi - lo + 1))
    if probe and _run(conn, probe, [*params, lo, lo + BLOCK_ROWS - 1,
                                    need])[0][0] < need:
        return []
    return [[max(b * width, lo), min(b * width + width - 1, hi)]
            for b in range(lo // width, hi // width + 1)]


def _sqlite_sqrt(x):
    if x is None or x < 0:
        return None
    return math.sqrt(x)


class _NonNullValues:
    """Aggregate state: the group's non-NULL inputs."""

    def __init__(self):
        self.values: list = []

    def step(self, value) -> None:
        if value is not None:
            self.values.append(value)


class _Median(_NonNullValues):
    def finalize(self):
        vals = sorted(self.values)
        if not vals:
            return None
        mid = len(vals) // 2
        if len(vals) % 2:
            return float(vals[mid])
        return (vals[mid - 1] + vals[mid]) / 2


class _StringAgg(_NonNullValues):
    def finalize(self):
        if not self.values:
            return None
        return STRING_AGG_SEPARATOR.join(str(v) for v in sorted(self.values))


def run_plan(ring: Ring, plan: SqrPlan,
             db_path: Union[str, Path]) -> ResultSet:
    with reader(db_path) as (conn, tables):
        return execute(compile_plan(ring, plan), conn, tables=tables)
