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
every aggregation is decomposable (average as SUM/COUNT, standard deviation
as SUM(v*v), SUM(v), COUNT(v)) over one fact table T that no key or other
column reads, and each filter conjunct reads only T or no T column, then T
is replaced by its partials: T-only conjuncts and grouping by T's join
columns in a statement of its own, a TEMP table ``p_<hash>`` read under T's
name. The outer grouping combines any number of partial rows per key, so
``execute`` builds a large T's partials in rowid ranges on parallel
connections (two-phase aggregation, Shatdal & Naughton, SIGMOD 1995).
``connect`` begins a read transaction and the report connection reads T's
rowid bounds (two scalar subqueries: one SELECT of both scans T) before any
helper starts, so in rollback-journal mode no commit lands mid-report.

Materializations whose columns are all ungrouped aggregates are known to be
single-row; other regions consume them through scalar subqueries rather than
joins. Every literal is bound once into its statement's parameter list and
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
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .constants import PERCENT_CHANGE_SCALE, STRING_AGG_SEPARATOR
from .errors import AagError, DbError
from .plans import Param, SqrPlan, StepRef, analyze_plan
from .registry import REGISTRY
from .ring import Ring
from .types import ColumnMeta, DatetimeValue, ResultSet


@dataclass(frozen=True)
class Subplan:
    name: str          # m_<hash>, CTE name (sp1, ...) or "main"
    kind: str          # "materialization" | "window" | "group" | "terminal"


@dataclass
class CompiledQuery:
    sql: str           # the terminal statement
    params: list
    output_columns: list[ColumnMeta]
    subplans: list[Subplan] = field(default_factory=list)
    # (name, sql, params) of each materialization, upstream first
    materializations: list = field(default_factory=list)
    # partial table -> (fact table, its SQL restricted to rowids ?N+1..?N+2)
    ranged: dict = field(default_factory=dict)
    # the query as compiled, with the ``Param`` slots that ``bind`` fills
    shape: Optional[CompiledQuery] = field(default=None, compare=False,
                                           repr=False)

    def statements(self) -> list[tuple[str, list]]:
        """What ``execute`` runs, in order: (sql, params) pairs; a large
        partial table is built in rowid ranges instead."""
        return [(f"CREATE TEMP TABLE IF NOT EXISTS {name} AS\n{sql}", params)
                for name, sql, params in self.materializations
                ] + [(self.sql, self.params)]

    def bind(self, values: Optional[dict] = None) -> CompiledQuery:
        """This query's shape with its ``Param`` slots filled from ``values``
        (by default, each slot's own value) and its TEMP tables named by
        their bound content, upstream first."""
        shape = self.shape or self
        names: dict[str, str] = {}

        def bound(sql: str, params: list) -> tuple[str, list]:
            for old, new in names.items():
                sql = sql.replace(old, new)
            return sql, [p if not isinstance(p, Param) else _sql_value(
                p.value if values is None else values[p.name]) for p in params]

        mats = []
        for name, sql, params in shape.materializations:
            sql, params = bound(sql, params)
            names[name] = _table_name(name[:2], sql, params)
            mats.append((names[name], sql, params))
        return CompiledQuery(
            *bound(shape.sql, shape.params), shape.output_columns,
            [Subplan(names.get(s.name, s.name), s.kind) for s in shape.subplans],
            mats, {names[n]: r for n, r in shape.ranged.items()}, shape)


@dataclass
class JoinResolution:
    tables: list[str]        # table names, in FROM order
    conditions: list[str]    # "a"."x" = "b"."y" equalities
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
    conditions: list[str] = []
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
            conditions.append(f"{_q(lt)}.{_q(lc)} = {_q(rt)}.{_q(rc)}")
        remaining.remove(b)
        connected.append(b)
    return JoinResolution(tables=tables, conditions=conditions,
                          columns=columns)


# ---------------------------------------------------------------------------

_INFIX = {"and": " AND ", "or": " OR ", "add": " + ", "subtract": " - ",
          "multiply": " * "}
_COMPARE = {"exact": "=", "greater_than": ">", "greater_than_eq": ">=",
            "less_than": "<", "less_than_eq": "<="}
_SIMPLE_AGGS = {"average": "AVG({})", "sum": "(SUM({}) * 1.0)",
                "count": "COUNT({})", "count_unique": "COUNT(DISTINCT {})",
                "max": "MAX({})", "min": "MIN({})", "get_one": "MIN({})",
                "median": "aag_median({})", "string_agg": "aag_string_agg({})"}


_AGGREGATIONS = frozenset(op for op, sig in REGISTRY.items()
                          if sig.is_aggregation)
# aggregations the outer grouping can combine from per-join-key partials
_EAGER_AGGS = {"sum", "count", "min", "max", "get_one", "average",
               "standard_deviation"}


def _stddev(v: str, mean=lambda e: f"AVG({e})") -> str:
    m = mean(v)
    return f"SQRT(MAX({mean(f'{v}*{v}')} - {m}*{m}, 0.0))"


class _Compiler:
    def __init__(self, ring: Ring, plan: SqrPlan):
        self.ring = ring
        self.plan = plan
        self.info = analyze_plan(ring, plan)
        self.ctes: list[tuple[str, str]] = []  # (name, sql)
        self.params: list = []
        self.subplans: list[Subplan] = []
        self._mats: dict = {}  # (name, sql, params) by return label or name
        self.ranged: dict[str, tuple[str, str]] = {}

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
                             materializations=list(self._mats.values()),
                             ranged=self.ranged)

    # -- region helpers -------------------------------------------------------

    def _region(self, ret_label: str) -> tuple[dict[str, list[str]], set]:
        """The region's labels by op, and the upstream returns it reads."""
        seen: set[str] = set()
        by_op: dict[str, list[str]] = {}
        upstream: set[str] = set()
        stack = [ret_label]
        while stack:
            label = stack.pop()
            if label in seen:
                continue
            seen.add(label)
            step = self.plan.steps[label]
            if step.op == "return" and label != ret_label:
                upstream.add(label)
                continue
            by_op.setdefault(step.op, []).append(label)
            for a in step.args:
                if isinstance(a, StepRef):
                    stack.append(a.label)
        return by_op, upstream

    def _is_scalar_mat(self, ret_label: str) -> bool:
        return all(self.plan.steps[l].op in _AGGREGATIONS
                   and self.info[l].grouping_label is None
                   for l in self.info[ret_label].collection_labels)

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
                  key=None) -> str:
        """Add a TEMP table's statement, once per ``key`` (default: its
        name); return the name its content gives it."""
        name = _table_name(prefix, sql, params)
        self._mats.setdefault(key or name, (name, sql, params))
        return name

    # -- region compilation --------------------------------------------------

    def _region_sql(self, ret_label: str) -> str:
        by_op, upstream = self._region(ret_label)

        mats = {up: self._materialize(up) for up in sorted(upstream)}
        scalar_mats = {u: t for u, t in mats.items() if self._is_scalar_mat(u)}
        row_mats = {u: t for u, t in mats.items() if u not in scalar_mats}

        # one alias per distinct entity
        entity_names: list[str] = []
        for l in sorted(by_op.get("retrieve_entity", ())):
            if self.info[l].entity not in entity_names:
                entity_names.append(self.info[l].entity)

        if entity_names and row_mats:
            raise AagError("region mixes entity scans with multi-row materializations")
        if len(row_mats) > 1:
            raise AagError("region reads more than one multi-row materialization")

        sql = _Region(self, by_op, ret_label, scalar_mats, row_mats,
                      entity_names).build()
        pieces = [f"{name} AS (\n{cte_sql}\n)" for name, cte_sql in self.ctes]
        return ("WITH " + ",\n".join(pieces) + "\n" if pieces else "") + sql


class _Region:
    def __init__(self, comp: _Compiler, by_op: dict[str, list[str]],
                 ret_label: str, scalar_mats: dict[str, str],
                 row_mats: dict[str, str], entity_names: list[str]):
        self.c = comp
        self.by_op = by_op
        self.ret_label = ret_label
        self.scalar_mats = scalar_mats
        self.row_mats = row_mats
        self.entity_names = entity_names
        self.ret = comp.info[ret_label]
        self.aggs = [l for l in self.ret.collection_labels
                     if comp.plan.steps[l].op in _AGGREGATIONS]
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

    # -- FROM / WHERE -----------------------------------------------------------

    def _build_from(self) -> None:
        if self.entity_names:
            res = self.joins = resolve_joins(self.c.ring, self.entity_names)
            self.from_sql = "FROM " + ", ".join(_q(t) for t in res.tables)
            self._join_conditions = list(res.conditions)
            self.fact = self._eager_fact()
        elif self.row_mats:
            self.row_alias = next(iter(self.row_mats.values()))
            self.from_sql = f"FROM {self.row_alias}"
            self._join_conditions = []
        else:
            self.from_sql = "FROM (SELECT 1)"
            self._join_conditions = []

    def _build_where(self) -> None:
        parts = list(self._join_conditions)
        if self.fact:
            for l, inner in self.conjuncts:
                if inner:
                    self.fact_where.append(self._in_partial(l))
                else:
                    parts.append(self.expr(l))
        elif self.ret.filter_label:
            parts.append(self.expr(self.ret.filter_label))
        self.where_sql = ("WHERE " + " AND ".join(parts)) if parts else ""

    def _column_expr(self, label: str, what: str) -> str:
        """Compile a key that must be a plain column (it binds nothing)."""
        bound = len(self.c.params)
        sql = self.expr(label)
        if len(self.c.params) != bound:
            raise AagError(f"{what} must be columns")
        return sql

    # -- eager aggregation ------------------------------------------------------

    def _reads(self, label: str) -> set[str]:
        """The tables an expression reads; "" marks an aggregation in it."""
        si = self.c.info[label]
        if si.attribute is not None:
            return {self.c.ring.attribute(*si.attribute).source[0]}
        if si.source_return is not None:
            return set()
        if self.c.plan.steps[label].op in _AGGREGATIONS:
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
            if self.c.plan.steps[l].op not in _EAGER_AGGS:
                return None
            read |= self._reads(self.c.info[l].value_label)
        if len(read) != 1 or "" in read:
            return None
        fact = read.pop()
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

    def _combine(self, op: str, v: str) -> str:
        """``op(v)`` over the join, from the fact table's partials."""
        def p(agg: str, e: str = v) -> str:  # the column holding agg(e)
            col = self.partials.setdefault(f"{agg}({e})",
                                           f'"aag_p{len(self.partials) + 1}"')
            return f"{_q(self.fact)}.{col}"
        if op in ("min", "max", "get_one"):
            f = "MAX" if op == "max" else "MIN"
            return f"{f}({p(f)})"
        if op == "sum":
            return f"(SUM({p('SUM')}) * 1.0)"
        n = p("COUNT")
        if op == "count":
            return f"COALESCE(SUM({n}), 0)"
        mean = lambda e: f"(CAST(SUM({p('SUM', e)}) AS REAL) / SUM({n}))"
        return mean(v) if op == "average" else _stddev(v, mean)

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
        params = self.partial_params
        name = self.c._add_table("p_", select(self.fact_where), params)
        n = len(params)
        self.c.ranged[name] = (self.fact, select(
            [*self.fact_where, f"{fact}.rowid BETWEEN ?{n + 1} AND ?{n + 2}"]))
        return "FROM " + ", ".join(f"{name} AS {fact}" if t == self.fact
                                   else _q(t) for t in self.joins.tables)

    # -- hoisted CTEs -------------------------------------------------------------

    def _hoist_windows(self) -> None:
        """Move window ranks into their own CTE over the row source."""
        ranks = self.by_op.get("row_number")
        if not ranks:
            return
        if self.row_alias is None:
            raise AagError("window rank requires a materialized row source")
        src_label = next(iter(self.row_mats))
        src_cols = [c.name for _, c in self.c.info[src_label].columns]
        select = [f"{_q(c)}" for c in src_cols]
        for l in ranks:
            si = self.c.info[l]
            sort = self.c.info[si.value_label]
            keys = []
            for k in sort.key_labels:
                ks = self._column_expr(k, "window sort keys")
                keys.append(f"{ks} {'DESC' if sort.direction == 'desc' else 'ASC'}")
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
        inputs = {self.c.info[l].value_label for op, labels in
                  self.by_op.items() if op in _AGGREGATIONS for l in labels}
        # an aggregation's input is in its region unless a return
        inner_labels = {i for i in inputs
                        if i and self.c.plan.steps[i].op in _AGGREGATIONS}
        if not inner_labels:
            return
        if len(inner_labels) > 1:
            raise AagError("multiple nested aggregations in one region")
        inner = next(iter(inner_labels))
        inner_si = self.c.info[inner]
        if inner_si.grouping_label is None:
            raise AagError("aggregation over an ungrouped aggregation")
        keys = self.c.info[inner_si.grouping_label].key_labels
        select = []
        group = []
        for k in keys:
            ks = self._column_expr(k, "group keys")
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
                table, column = self.c.ring.attribute(*si.attribute).source
                return f"{_q(table)}.{_q(column)}"
            if si.source_return in self.scalar_mats:
                table = self.scalar_mats[si.source_return]
                return f"(SELECT {_q(si.source_column)} FROM {table})"
            return f"{_q(si.source_column)}"

        if op in _AGGREGATIONS:
            return self._agg_expr(label)

        args = [self.expr(a.label) if isinstance(a, StepRef) else self.c.bind(a)
                for a in step.args]
        if op in _INFIX:
            return "(" + _INFIX[op].join(args) + ")"
        if op in _COMPARE:
            return f"({args[0]} {_COMPARE[op]} {args[1]})"
        if op == "not":
            return f"(NOT COALESCE({args[0]}, 0))"
        if op == "contains":
            return f"(instr({args[0]}, {args[1]}) > 0)"
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
        step = self.c.plan.steps[label]
        op = step.op
        if op == "correlation":
            refs = [a.label for a in step.args if isinstance(a, StepRef)]
            x = self.expr(refs[0])
            y = self.expr(refs[1])
            cov = f"(AVG({x}*{y}) - AVG({x})*AVG({y}))"
            return (f"(CASE WHEN COUNT({x}) < 2 THEN NULL ELSE "
                    f"{cov} / NULLIF({_stddev(x)} * {_stddev(y)}, 0.0) END)")
        value = self.c.info[label].value_label
        if self.fact:
            return self._combine(op, self._in_partial(value))
        v = self.expr(value)
        if op == "standard_deviation":
            return _stddev(v)
        if op in _SIMPLE_AGGS:
            return _SIMPLE_AGGS[op].format(v)
        raise AagError(f"aggregation {op!r}")

    # -- assembly ---------------------------------------------------------------

    def build(self) -> str:
        self._build_from()
        self._hoist_windows()
        self._build_where()
        self._hoist_nested_groups()

        ret = self.ret
        agg_labels = [l for l in self.aggs if l not in self.column_of]
        grouped = [l for l in agg_labels
                   if self.c.info[l].grouping_label is not None]

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
        if grouped and group_exprs:
            sql_lines.append(f"GROUP BY {', '.join(group_exprs)}")
        elif agg_labels and group_exprs:
            raise AagError(
                "per-row column collected alongside an ungrouped aggregation")

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


# rowid span per range of a partial table's build: two ranges break even
# with one scan near 20,000 rows (2 CPUs, SQLite 3.40), so builds split at
# twice that
PARTITION_ROWS = 20_000


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


def execute(compiled: CompiledQuery,
            conn: sqlite3.Connection) -> ResultSet:
    """Build the TEMP tables of the query ``conn`` lacks, then run it."""
    built = {n for n, in _run(conn, "SELECT name FROM sqlite_temp_master", [])}
    for name, sql, params in compiled.materializations:
        if name in built or (name in compiled.ranged and _build_in_ranges(
                conn, name, params, *compiled.ranged[name])):
            continue
        _run(conn, f"CREATE TEMP TABLE IF NOT EXISTS {name} AS\n{sql}", params)
    rows = _run(conn, compiled.sql, compiled.params)
    return ResultSet(columns=compiled.output_columns, rows=rows)


def _run(conn: sqlite3.Connection, sql: str, params: list) -> list:
    try:
        return conn.execute(sql, params).fetchall()
    except sqlite3.Error as e:
        raise DbError(str(e), sql=sql) from e


def _build_in_ranges(conn: sqlite3.Connection, name: str, params: list,
                     fact: str, ranged: str) -> bool:
    """Build the partial table ``name`` from rowid ranges of ``fact`` read
    in parallel, unless one scan must do; say whether it did. A range its
    helper could not read (say, busy behind a writer's pending commit) the
    report connection reads itself."""
    ranges = _ranges(conn, fact)
    if not ranges:
        return False
    path = _run(conn, "PRAGMA database_list", [])[0][2]
    parts: list = [None] * len(ranges)

    def read(i: int) -> None:
        try:
            with closing(connect(path)) as own:
                # behind a writer's pending commit, give the range up at once
                own.execute("PRAGMA busy_timeout = 0")
                parts[i] = own.execute(ranged, params + ranges[i]).fetchall()
        except (sqlite3.Error, DbError):
            pass

    helpers = [threading.Thread(target=read, args=(i,))
               for i in range(1, len(ranges))]
    for t in helpers:
        t.start()
    try:
        _run(conn, f"CREATE TEMP TABLE {name} AS\n{ranged}",
             params + ranges[0])
    finally:
        for t in helpers:
            t.join()
    for rows, bounds in zip(parts[1:], ranges[1:]):
        if rows is None:
            _run(conn, f"INSERT INTO {name}\n{ranged}", params + bounds)
        for row in rows or ():
            marks = ", ".join("?" * len(row))
            _run(conn, f"INSERT INTO {name} VALUES ({marks})", list(row))
    return True


def _cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _ranges(conn: sqlite3.Connection, fact: str) -> list[list[int]]:
    """Rowid ranges of ``fact``, one per CPU and at most one per
    ``PARTITION_ROWS`` of its span; none when it is read in one scan."""
    cpus, t = _cpus(), _q(fact)
    if cpus < 2 or not _run(conn, "SELECT 1 FROM sqlite_master WHERE "
                            "type = 'table' AND name = ?", [fact]):
        return []
    try:  # two scalar subqueries, each reading one end of the rowid B-tree
        [(lo, hi)] = _run(conn, f"SELECT (SELECT min(rowid) FROM {t}), "
                                f"(SELECT max(rowid) FROM {t})", [])
    except DbError:  # a WITHOUT ROWID table
        return []
    k = min(cpus, (hi - lo + 1) // PARTITION_ROWS) \
        if isinstance(lo, int) and isinstance(hi, int) else 0
    # WAL gives each connection its own snapshot; a column can hide rowid
    if k < 2 or _run(conn, "PRAGMA journal_mode", [])[0][0] == "wal" \
            or _run(conn, "SELECT 1 FROM pragma_table_info(?) WHERE lower("
                          "name) IN ('rowid', '_rowid_', 'oid')", [fact]):
        return []
    step = -(-(hi - lo + 1) // k)
    return [[a, min(a + step - 1, hi)] for a in range(lo, hi + 1, step)]


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
    with closing(connect(db_path)) as conn:
        return execute(compile_plan(ring, plan), conn)
