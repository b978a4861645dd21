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

Materializations whose columns are all ungrouped aggregates are known to be
single-row; other regions consume them through scalar subqueries rather than
joins. Every literal is bound once into its statement's parameter list and
emitted as the numbered parameter ``?N`` (its 1-based position), so a
compiled text that appears more than once reuses the same numbers. Median
and string_agg are ordinary aggregates registered by ``connect``.
"""

from __future__ import annotations

import hashlib
import math
import sqlite3
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .constants import PERCENT_CHANGE_SCALE, STRING_AGG_SEPARATOR
from .errors import DbError, NoRelationshipError, UnsupportedPatternError
from .plans import SqrPlan, SqrStep, StepInfo, StepRef, analyze_plan
from .registry import get_signature
from .ring import Ring
from .types import ColumnMeta, DatetimeValue, ResultSet


@dataclass(frozen=True)
class Subplan:
    name: str          # m_<hash>, CTE name (sp1, ...) or "main"
    kind: str          # "materialization" | "window" | "group" | "terminal"
    return_label: Optional[str] = None


@dataclass
class CompiledQuery:
    sql: str           # the terminal statement
    params: list
    output_columns: list[ColumnMeta]
    subplans: list[Subplan] = field(default_factory=list)
    # (name, sql, params) of each materialization, upstream first
    materializations: list = field(default_factory=list)

    def statements(self) -> list[tuple[str, list]]:
        """What ``execute`` runs, in order: (sql, params) pairs."""
        return [(f"CREATE TEMP TABLE IF NOT EXISTS {name} AS\n{sql}", params)
                for name, sql, params in self.materializations
                ] + [(self.sql, self.params)]


@dataclass
class JoinResolution:
    tables: list[str]        # table names, in FROM order
    conditions: list[str]    # "a"."x" = "b"."y" equalities


def _q(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def resolve_joins(ring: Ring, entities: list[str]) -> JoinResolution:
    """Connect the entities' primary tables through declared relationships."""
    first = ring.entity(entities[0])
    tables = [first.primary_table]
    conditions: list[str] = []
    connected = [entities[0]]
    remaining = list(entities[1:])
    while remaining:
        hop = None
        for a in connected:
            for b in remaining:
                rel = ring.relationship_between(a, b)
                if rel is not None:
                    hop = (b, rel)
                    break
            if hop:
                break
        if hop is None:
            raise NoRelationshipError(
                f"no relationship connects {remaining!r} to "
                f"{connected!r}")
        b, rel = hop
        for join_name in rel.join_path:
            j = ring.join(join_name)
            lt, lc = j.left.split(".")
            rt, rc = j.right.split(".")
            for t in (lt, rt):
                if t not in tables:
                    tables.append(t)
            conditions.append(f"{_q(lt)}.{_q(lc)} = {_q(rt)}.{_q(rc)}")
        remaining.remove(b)
        connected.append(b)
    return JoinResolution(tables=tables, conditions=conditions)


# ---------------------------------------------------------------------------

_INFIX = {"and": " AND ", "or": " OR ", "add": " + ", "subtract": " - ",
          "multiply": " * "}
_COMPARE = {"exact": "=", "greater_than": ">", "greater_than_eq": ">=",
            "less_than": "<", "less_than_eq": "<="}
_SIMPLE_AGGS = {"average": "AVG({})", "sum": "(SUM({}) * 1.0)",
                "count": "COUNT({})", "count_unique": "COUNT(DISTINCT {})",
                "max": "MAX({})", "min": "MIN({})", "get_one": "MIN({})",
                "median": "aag_median({})", "string_agg": "aag_string_agg({})"}


def _stddev(v: str) -> str:
    return f"SQRT(MAX(AVG({v}*{v}) - AVG({v})*AVG({v}), 0.0))"


class _Compiler:
    def __init__(self, ring: Ring, plan: SqrPlan, info=None):
        self.ring = ring
        self.plan = plan
        self.info = info or analyze_plan(ring, plan)
        self.ctes: list[tuple[str, str]] = []  # (name, sql)
        self.params: list = []
        self.subplans: list[Subplan] = []
        self._mats: dict[str, tuple[str, str, list]] = {}  # by return label

    def bind(self, value) -> str:
        """Append a literal to the statement's parameters; return its
        ``?N``."""
        if isinstance(value, DatetimeValue):
            value = value.iso
        elif isinstance(value, bool):
            value = int(value)
        self.params.append(value)
        return f"?{len(self.params)}"

    def _new_cte(self, sql: str, kind: str) -> str:
        name = f"sp{len(self.ctes) + 1}"
        self.ctes.append((name, sql))
        self.subplans.append(Subplan(name=name, kind=kind))
        return name

    def compile(self) -> CompiledQuery:
        terminal = self.plan.result
        if self.plan.steps[terminal].op != "return":
            raise UnsupportedPatternError(
                "plan must terminate in a materialization")
        sql = self._region_sql(terminal)
        self.subplans.append(Subplan(name="main", kind="terminal",
                                     return_label=terminal))
        columns = [c for _, c in self.info[terminal].columns]
        return CompiledQuery(sql=sql, params=self.params,
                             output_columns=columns, subplans=self.subplans,
                             materializations=list(self._mats.values()))

    # -- region helpers -------------------------------------------------------

    def _region(self, ret_label: str) -> tuple[set[str], set[str]]:
        steps: set[str] = set()
        upstream: set[str] = set()
        stack = [ret_label]
        while stack:
            label = stack.pop()
            if label in steps:
                continue
            if label != ret_label and self.plan.steps[label].op == "return":
                upstream.add(label)
                continue
            steps.add(label)
            stack.extend(self.plan.refs(label))
        return steps, upstream

    def _is_scalar_mat(self, ret_label: str) -> bool:
        ret = self.info[ret_label]
        return all(
            get_signature(self.plan.steps[l].op).is_aggregation
            and self.info[l].grouping_label is None
            for l in ret.collection_labels
        )

    def _materialize(self, ret_label: str) -> str:
        """Compile the region to a statement with its own CTEs and
        parameters; return the table name its content gives it."""
        if ret_label not in self._mats:
            outer = self.ctes, self.params
            self.ctes, self.params = [], []
            sql, params = self._region_sql(ret_label), self.params
            self.ctes, self.params = outer
            key = repr((sql, params)).encode()
            name = "m_" + hashlib.sha1(key).hexdigest()[:16]
            self._mats[ret_label] = (name, sql, params)
            self.subplans.append(Subplan(name, "materialization", ret_label))
        return self._mats[ret_label][0]

    # -- region compilation --------------------------------------------------

    def _region_sql(self, ret_label: str) -> str:
        region, upstream = self._region(ret_label)

        scalar_mats: dict[str, str] = {}
        row_mats: dict[str, str] = {}
        for up in sorted(upstream):
            table = self._materialize(up)
            if self._is_scalar_mat(up):
                scalar_mats[up] = table
            else:
                row_mats[up] = table

        entity_labels = sorted(
            l for l in region
            if self.plan.steps[l].op == "retrieve_entity")
        # one alias per distinct entity
        entity_names: list[str] = []
        for l in entity_labels:
            if self.info[l].entity not in entity_names:
                entity_names.append(self.info[l].entity)

        if entity_names and row_mats:
            raise UnsupportedPatternError(
                "region mixes entity scans with multi-row materializations")
        if len(row_mats) > 1:
            raise UnsupportedPatternError(
                "region reads more than one multi-row materialization")

        sql = _Region(self, region, ret_label, scalar_mats, row_mats,
                      entity_names).build()
        pieces = [f"{name} AS (\n{cte_sql}\n)" for name, cte_sql in self.ctes]
        return ("WITH " + ",\n".join(pieces) + "\n" if pieces else "") + sql


class _Region:
    def __init__(self, comp: _Compiler, steps: set[str], ret_label: str,
                 scalar_mats: dict[str, str], row_mats: dict[str, str],
                 entity_names: list[str]):
        self.c = comp
        self.steps = steps
        self.ret_label = ret_label
        self.scalar_mats = scalar_mats
        self.row_mats = row_mats
        self.entity_names = entity_names
        self.ret = comp.info[ret_label]
        # label -> (alias, column) overrides installed by hoisted CTEs
        self.column_of: dict[str, tuple[str, str]] = {}
        self.row_alias: Optional[str] = None
        self.from_sql = ""
        self.where_sql = ""

    # -- FROM / WHERE -----------------------------------------------------------

    def _build_from(self) -> None:
        if self.entity_names:
            res = resolve_joins(self.c.ring, self.entity_names)
            self.from_sql = "FROM " + ", ".join(_q(t) for t in res.tables)
            self._join_conditions = list(res.conditions)
        elif self.row_mats:
            self.row_alias = next(iter(self.row_mats.values()))
            self.from_sql = f"FROM {self.row_alias}"
            self._join_conditions = []
        else:
            self.from_sql = "FROM (SELECT 1)"
            self._join_conditions = []

    def _build_where(self) -> None:
        parts = list(self._join_conditions)
        if self.ret.filter_label:
            parts.append(self.expr(self.ret.filter_label))
        self.where_sql = ("WHERE " + " AND ".join(parts)) if parts else ""

    def _column_expr(self, label: str, what: str) -> str:
        """Compile a key that must be a plain column (it binds nothing)."""
        bound = len(self.c.params)
        sql = self.expr(label)
        if len(self.c.params) != bound:
            raise UnsupportedPatternError(f"{what} must be columns")
        return sql

    # -- hoisted CTEs -------------------------------------------------------------

    def _hoist_windows(self) -> None:
        """Move window ranks into their own CTE over the row source."""
        ranks = [l for l in self.steps
                 if self.c.plan.steps[l].op == "row_number"]
        if not ranks:
            return
        if self.row_alias is None:
            raise UnsupportedPatternError(
                "window rank requires a materialized row source")
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
        nested = []
        for l in self.steps:
            step = self.c.plan.steps[l]
            if not get_signature(step.op).is_aggregation:
                continue
            inner = self.c.info[l].value_label
            if inner and inner in self.steps and \
                    get_signature(self.c.plan.steps[inner].op).is_aggregation:
                nested.append((l, inner))
        if not nested:
            return
        inner_labels = {inner for _, inner in nested}
        if len(inner_labels) > 1:
            raise UnsupportedPatternError(
                "multiple nested aggregations in one region")
        inner = next(iter(inner_labels))
        inner_si = self.c.info[inner]
        if inner_si.grouping_label is None:
            raise UnsupportedPatternError(
                "aggregation over an ungrouped aggregation")
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
            alias, col = self.column_of[label]
            return f"{_q(col)}"
        step = self.c.plan.steps[label]
        si = self.c.info[label]
        op = step.op

        if op == "retrieve_entity":
            e = self.c.ring.entity(si.entity)
            pk = self.c.ring.table(e.primary_table).primary_key
            return f"{_q(e.primary_table)}.{_q(pk)}"

        if op == "retrieve_attribute":
            if si.attribute is not None:
                table, column = self.c.ring.attribute(*si.attribute).source
                return f"{_q(table)}.{_q(column)}"
            if si.source_return in self.scalar_mats:
                table = self.scalar_mats[si.source_return]
                return f"(SELECT {_q(si.source_column)} FROM {table})"
            return f"{_q(si.source_column)}"

        if get_signature(op).is_aggregation:
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
        raise UnsupportedPatternError(f"cannot compile step {label!r} ({op})")

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
        v = self.expr(self.c.info[label].value_label)
        if op == "standard_deviation":
            return _stddev(v)
        if op in _SIMPLE_AGGS:
            return _SIMPLE_AGGS[op].format(v)
        raise UnsupportedPatternError(f"aggregation {op!r}")

    # -- assembly ---------------------------------------------------------------

    def build(self) -> str:
        self._build_from()
        self._hoist_windows()
        self._build_where()
        self._hoist_nested_groups()

        ret = self.ret
        agg_labels = [l for l in ret.collection_labels
                      if get_signature(self.c.plan.steps[l].op).is_aggregation
                      and l not in self.column_of]
        grouped = [l for l in agg_labels
                   if self.c.info[l].grouping_label is not None]

        select_parts: list[str] = []
        group_exprs: list[str] = []
        for label, col in ret.columns:
            sql = self.expr(label)
            select_parts.append(f"{sql} AS {_q(col.name)}")
            if agg_labels and label not in agg_labels:
                group_exprs.append(sql)

        sql_lines = [f"SELECT {', '.join(select_parts)}", self.from_sql,
                     self.where_sql]
        if grouped and group_exprs:
            sql_lines.append(f"GROUP BY {', '.join(group_exprs)}")
        elif agg_labels and group_exprs:
            raise UnsupportedPatternError(
                "per-row column collected alongside an ungrouped aggregation")

        sql_lines.append(self._order_clause())
        if ret.limit_label:
            n = self.c.plan.steps[ret.limit_label].args[0]
            sql_lines.append(f"LIMIT {self.c.bind(int(n))}")
        return "\n".join(l for l in sql_lines if l)

    def _order_clause(self) -> str:
        ret = self.ret
        names = [col.name for _, col in ret.columns]
        if ret.sort_label:
            s = self.c.info[ret.sort_label]
            terms = []
            used = set()
            for k in s.key_labels:
                name = self.c.info[k].name
                # sort keys refer to output columns by their produced name
                if name in names:
                    used.add(name)
                    terms.append(
                        f"{_q(name)} {'DESC' if s.direction == 'desc' else 'ASC'}")
            for name in names:
                if name not in used:
                    terms.append(f"{_q(name)} ASC")
            return "ORDER BY " + ", ".join(terms)
        return "ORDER BY " + ", ".join(f"{_q(n)} ASC" for n in names)


# ---------------------------------------------------------------------------
# public entry points


def _with_terminal_return(plan: SqrPlan) -> SqrPlan:
    if plan.steps[plan.result].op == "return":
        return plan
    label = "_R"
    while label in plan.steps:
        label += "_"
    steps = dict(plan.steps)
    steps[label] = SqrStep(label, "return", (StepRef(plan.result),))
    return SqrPlan(steps=steps, result=label)


def compile_plan(ring: Ring, plan: SqrPlan,
                 info: Optional[dict[str, StepInfo]] = None) -> CompiledQuery:
    """``info``, when given, is the analysis of ``plan`` to compile with."""
    full = _with_terminal_return(plan)
    return _Compiler(ring, full, info if full is plan else None).compile()


def connect(db_path: Union[str, Path]) -> sqlite3.Connection:
    """Open ``db_path`` read-only, in autocommit, with the aag functions."""
    path = Path(db_path).absolute()
    if not path.is_file():
        raise DbError(f"database not found: {db_path}")
    try:
        conn = sqlite3.connect(path.as_uri() + "?mode=ro", uri=True,
                               isolation_level=None)
    except sqlite3.Error as e:
        raise DbError(f"cannot open database {db_path}: {e}") from e
    conn.create_function("SQRT", 1, _sqlite_sqrt)
    conn.create_aggregate("aag_median", 1, _Median)
    conn.create_aggregate("aag_string_agg", 1, _StringAgg)
    return conn


def execute(compiled: CompiledQuery,
            conn: sqlite3.Connection) -> ResultSet:
    """Build the TEMP tables of the query ``conn`` lacks, then run it."""
    for sql, params in compiled.statements():
        try:
            rows = [tuple(r) for r in conn.execute(sql, params)]
        except sqlite3.Error as e:
            raise DbError(str(e), sql=sql) from e
    return ResultSet(columns=compiled.output_columns, rows=rows)


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
