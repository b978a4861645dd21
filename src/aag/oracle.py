"""Reference evaluator: runs plans directly over in-memory rows.

This module exists to check the SQL pipeline, so it deliberately shares no
evaluation machinery with it -- joins are hashed equi-joins over rows keyed
by table that keep every match (a NULL key matches nothing), grouping is a
dict, and the numerics come from the standard library (``statistics``,
``math.fsum``). It consults the shared plan *representation* (parsing and
analysis, which decides each region's shape: docs/formats.md, "Regions")
and the semantic constants, nothing else.
"""

from __future__ import annotations

import csv
import math
import operator
import statistics
from pathlib import Path
from typing import NamedTuple, Union

from . import constants
from .errors import AagError
from .plans import Param, SqrPlan, StepInfo, StepRef, analyze_plan
from .ring import Ring
from .types import DatetimeValue, ResultSet


class MemoryDataset(NamedTuple):
    tables: dict[str, list[dict]]

    @classmethod
    def from_csv(cls, directory: Union[str, Path]) -> "MemoryDataset":
        ds = cls({})
        for path in sorted(Path(directory).glob("*.csv")):
            with open(path, newline="") as fh:
                rows = [dict(r) for r in csv.DictReader(fh)]
            ds.tables[path.stem] = [
                {k: _coerce(v) for k, v in row.items()} for row in rows
            ]
        return ds


def _coerce(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


# ---------------------------------------------------------------------------
# aggregation primitives (independent numerics)


def _agg(op: str, xs: list):
    vals = [x for x in xs if x is not None]
    if op == "count":
        return len(vals)
    if op == "count_unique":
        return len(set(vals))
    if not vals:
        return None
    if op == "average":
        return math.fsum(vals) / len(vals)
    if op == "sum":
        return math.fsum(vals)
    if op == "max":
        return max(vals)
    if op == "min":
        return min(vals)
    if op == "median":
        return float(statistics.median(vals))
    if op == "standard_deviation":
        return statistics.pstdev(vals)
    if op == "get_one":
        return sorted(vals)[0]
    if op == "string_agg":
        return constants.STRING_AGG_SEPARATOR.join(str(v) for v in sorted(vals))
    raise AagError(f"aggregation {op!r}")


def _correlation(xs: list, ys: list):
    pairs = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
    try:
        return statistics.correlation([p[0] for p in pairs], [p[1] for p in pairs])
    except statistics.StatisticsError:  # under two pairs, or a constant input
        return None


# ---------------------------------------------------------------------------
# scalar operations


def _norm(v):
    v = v.value if isinstance(v, Param) else v
    return v.iso if isinstance(v, DatetimeValue) else v


# variadic arithmetic folds left over all its arguments
_FOLDS = {"add": operator.add, "subtract": operator.sub,
          "multiply": operator.mul, "divide": operator.truediv}


def _apply_op(op: str, args: list):
    a = [_norm(x) for x in args]
    if op in ("and",):
        return all(a)
    if op == "or":
        return any(a)
    if op == "not":
        return not a[0]
    if op in ("exact", "greater_than", "greater_than_eq", "less_than",
              "less_than_eq"):
        if any(x is None for x in a):
            return False
        if op == "exact":
            return a[0] == a[1]
        if op == "greater_than":
            return a[0] > a[1]
        if op == "greater_than_eq":
            return a[0] >= a[1]
        if op == "less_than":
            return a[0] < a[1]
        return a[0] <= a[1]
    if any(x is None for x in a):
        return None
    if op in _FOLDS:
        acc = a[0]
        for x in a[1:]:
            if op == "divide" and x == 0:
                return None
            acc = _FOLDS[op](acc, x)
        return acc
    if op == "absolute_value":
        return abs(a[0])
    if op == "square_root":  # of a negative is NULL, as SQL's SQRT is
        return None if a[0] < 0 else math.sqrt(a[0])
    if op == "percent_change":
        if a[0] == 0:
            return None
        return constants.PERCENT_CHANGE_SCALE * (a[1] - a[0]) / a[0]
    if op == "duration":
        from datetime import datetime

        start = datetime.fromisoformat(str(a[0]))
        end = datetime.fromisoformat(str(a[1]))
        return round((end - start).total_seconds())
    raise AagError(f"operation {op!r}")


# ---------------------------------------------------------------------------
# evaluation


def _sort_key(value):
    # None sorts first, mirroring SQL NULL ordering under ASC
    return (value is not None, value)


def _joins(a, b) -> bool:
    """SQL's ``a = b`` in a join: a NULL on either side matches nothing."""
    return a is not None and a == b


def oracle_eval(ring: Ring, plan: SqrPlan,
                dataset: MemoryDataset) -> ResultSet:
    """Evaluate a plan against in-memory tables, canonically ordered."""
    if plan.steps[plan.result].op != "return":
        raise AagError("plan must terminate in a materialization")
    info = analyze_plan(ring, plan)
    ev = _Evaluator(ring, plan, info, dataset)
    return ev.eval_return(plan.result)


class _Evaluator:
    def __init__(self, ring: Ring, plan: SqrPlan, info: dict[str, StepInfo],
                 dataset: MemoryDataset):
        self.ring = ring
        self.plan = plan
        self.info = info
        self.ds = dataset
        self._materialized: dict[str, list[dict]] = {}

    def materialize(self, ret_label: str) -> list[dict]:
        if ret_label not in self._materialized:
            result = self.eval_return(ret_label)
            names = [c.name for c in result.columns]
            self._materialized[ret_label] = [
                dict(zip(names, row)) for row in result.rows
            ]
        return self._materialized[ret_label]

    # -- row sources ----------------------------------------------------------

    def _joined_rows(self, entities: list[str]) -> list[dict]:
        """The entities' tables joined as SQL's FROM and WHERE join them:
        each env maps a table to its row, and each join on a relationship's
        path is a hashed equi-join that keeps every match."""
        table = self.ring.entity(entities[0]).primary_table
        envs = [{table: r} for r in self.ds.tables.get(table, [])]
        bound, connected, remaining = {table}, entities[:1], entities[1:]
        while remaining:  # the first entity related to a connected one
            hop = next(((b, r) for a in connected for b in remaining
                        if (r := self.ring.relationship_between(a, b))), None)
            if hop is None:
                raise AagError(f"no relationship connects {remaining!r} to "
                               f"{connected!r}")
            name, rel = hop
            remaining.remove(name)
            connected.append(name)
            joins = [(*self.ring.join(n).left.split("."),
                      *self.ring.join(n).right.split("."))
                     for n in rel.join_path]
            while joins:  # the next join that reaches a bound table
                j = next((j for j in joins if {j[0], j[2]} & bound), None)
                if j is None:
                    raise AagError(f"the join path of {rel.name!r} reaches "
                                   f"no bound table")
                joins.remove(j)
                lt, lc, rt, rc = j if j[0] in bound else j[2:] + j[:2]
                if rt in bound:
                    envs = [e for e in envs if _joins(e[lt][lc], e[rt][rc])]
                    continue
                index: dict = {}  # the new table's rows by key; NULL joins none
                for r in self.ds.tables.get(rt, []):
                    if r[rc] is not None:
                        index.setdefault(r[rc], []).append(r)
                envs = [{**e, rt: r} for e in envs
                        for r in index.get(e[lt][lc], ())]
                bound.add(rt)
        return envs

    # -- per-row values -------------------------------------------------------

    def _row_value(self, label: str, env: dict, scalars: dict):
        step = self.plan.steps[label]
        si = self.info[label]
        if step.op == "retrieve_attribute":
            if si.attribute is not None:
                table, column = self.ring.attribute(*si.attribute).source
                return env[table][column]
            # materialized column
            if si.source_return in scalars:
                return scalars[si.source_return].get(si.source_column)
            return env[si.source_return][si.source_column]
        args = []
        for a in step.args:
            if isinstance(a, StepRef):
                args.append(self._row_value(a.label, env, scalars))
            else:
                args.append(a)
        return _apply_op(step.op, args)

    # -- region evaluation ------------------------------------------------------

    def eval_return(self, ret_label: str) -> ResultSet:
        ret = self.info[ret_label]
        # a single-row source without its row reads as NULLs
        scalars = {up: (self.materialize(up) or [{}])[0]
                   for up in ret.upstream if self.info[up].single_row}
        src = next((up for up in ret.upstream if up not in scalars), None)
        if ret.entities:  # one table binding each, as SQL has one alias
            envs = self._joined_rows(list(ret.entities))
        elif src:
            envs = [{src: r} for r in self.materialize(src)]
        else:
            envs = [{}]  # purely scalar region

        # window ranks are computed over the unfiltered, sorted source; the
        # source's other columns break ties, ascending
        rank_values: dict[str, dict[int, int]] = {}
        for label in ret.region:
            if self.plan.steps[label].op == "row_number":
                s = self.info[self.info[label].value_label]
                keys = {self.info[k].name for k in s.key_labels}
                order = sorted(range(len(envs)), key=lambda i: tuple(
                    _sort_key(v) for c, v in envs[i][src].items()
                    if c not in keys))
                order.sort(key=lambda i: tuple(
                    _sort_key(self._row_value(k, envs[i], scalars))
                    for k in s.key_labels), reverse=s.direction == "desc")
                rank_values[label] = {i: n + 1 for n, i in enumerate(order)}

        def value(label: str, env: dict, idx: int):
            if label in rank_values:
                return rank_values[label][idx]
            return self._row_value(label, env, scalars)

        indexed = list(enumerate(envs))
        if ret.filter_label:
            indexed = [(i, env) for i, env in indexed
                       if value(ret.filter_label, env, i)]

        # split the output columns into keys vs aggregations
        agg_labels = [l for l in ret.collection_labels
                      if self._is_agg(l)]
        key_labels = [l for l in ret.collection_labels
                      if l not in agg_labels]

        if agg_labels:
            rows = self._eval_aggregated(ret, key_labels, agg_labels,
                                         indexed, value)
        else:
            rows = [tuple(value(l, env, i) for l in ret.collection_labels)
                    for i, env in indexed]

        rows = self._order_and_limit(ret, rows)
        return ResultSet(columns=[c for _, c in ret.columns], rows=rows)

    def _is_agg(self, label: str) -> bool:
        from .registry import get_signature

        return get_signature(self.plan.steps[label].op).is_aggregation

    def _eval_aggregated(self, ret, key_labels, agg_labels, indexed,
                         value) -> list[tuple]:
        grouped = [l for l in agg_labels
                   if self.info[l].grouping_label is not None]
        if grouped:
            grouping = self.info[grouped[0]].grouping_label
            keys = self.info[grouping].key_labels
            groups: dict[tuple, list] = {}
            for i, env in indexed:
                k = tuple(value(kl, env, i) for kl in keys)
                groups.setdefault(tuple(_norm(x) for x in k), []).append((i, env, k))
            rows = []
            for members in groups.values():
                raw_key = members[0][2]
                out = []
                for label in ret.collection_labels:
                    if label in keys or label in key_labels:
                        out.append(raw_key[keys.index(label)]
                                   if label in keys
                                   else value(label, members[0][1], members[0][0]))
                    else:
                        out.append(self._aggregate(
                            label, [(i, env) for i, env, _ in members], value))
                rows.append(tuple(out))
            return rows
        # ungrouped aggregations, the only columns
        return [tuple(self._aggregate(l, indexed, value) for l in agg_labels)]

    def _aggregate(self, label: str, indexed, value):
        """The aggregation ``label`` over the rows ``indexed``."""
        step = self.plan.steps[label]
        if step.op == "correlation":
            x, y = [a.label for a in step.args if isinstance(a, StepRef)][:2]
            return _correlation([value(x, env, i) for i, env in indexed],
                                [value(y, env, i) for i, env in indexed])
        inner = self.info[label].value_label
        if not self._is_agg(inner):
            return _agg(step.op, [value(inner, env, i) for i, env in indexed])
        # aggregation over a grouped aggregation's per-group values
        groups: dict[tuple, list] = {}
        keys = self.info[self.info[inner].grouping_label].key_labels
        for i, env in indexed:
            k = tuple(_norm(value(kl, env, i)) for kl in keys)
            groups.setdefault(k, []).append((i, env))
        return _agg(step.op, [self._aggregate(inner, rows, value)
                              for rows in groups.values()])

    def _order_and_limit(self, ret, rows) -> list[tuple]:
        col_labels = list(ret.collection_labels)
        if ret.sort_label:
            s = self.info[ret.sort_label]
            key_idx = [col_labels.index(k) for k in s.key_labels
                       if k in col_labels]
            rest = [i for i in range(len(col_labels)) if i not in key_idx]
            rows = sorted(rows, key=lambda r: tuple(_sort_key(r[i])
                                                    for i in rest))
            rows = sorted(rows, key=lambda r: tuple(_sort_key(r[i])
                                                    for i in key_idx),
                          reverse=s.direction == "desc")
        else:
            rows = sorted(rows, key=lambda r: tuple(_sort_key(v) for v in r))
        if ret.limit_label:
            n = self.plan.steps[ret.limit_label].args[0]
            rows = rows[: int(_norm(n))]
        return list(rows)
