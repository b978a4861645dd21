"""Reference evaluator: runs plans directly over in-memory rows.

This module exists to check the SQL pipeline, so it deliberately shares no
evaluation machinery with it -- joins are nested loops, grouping is a dict,
and the numerics come from the standard library (``statistics``,
``math.fsum``). It consults the shared plan *representation* (parsing and
analysis) and the semantic constants, nothing else.
"""

from __future__ import annotations

import csv
import math
import operator
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from . import constants
from .errors import UnsupportedPatternError
from .plans import SqrPlan, StepInfo, StepRef, analyze_plan
from .ring import Ring
from .types import DatetimeValue, ResultSet


@dataclass
class MemoryDataset:
    tables: dict[str, list[dict]] = field(default_factory=dict)

    @classmethod
    def from_csv(cls, directory: Union[str, Path]) -> "MemoryDataset":
        ds = cls()
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
    if op == "correlation":
        raise UnsupportedPatternError("correlation of a single column")
    raise UnsupportedPatternError(f"aggregation {op!r}")


def _correlation(xs: list, ys: list):
    pairs = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
    if len(pairs) < 2:
        return None
    return statistics.correlation([p[0] for p in pairs], [p[1] for p in pairs])


# ---------------------------------------------------------------------------
# scalar operations


def _norm(v):
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
    if op in ("exact", "contains", "greater_than", "greater_than_eq",
              "less_than", "less_than_eq"):
        if any(x is None for x in a):
            return False
        if op == "exact":
            return a[0] == a[1]
        if op == "contains":
            return str(a[1]) in str(a[0])
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
    if op == "square_root":
        return math.sqrt(a[0])
    if op == "percent_change":
        if a[0] == 0:
            return None
        return constants.PERCENT_CHANGE_SCALE * (a[1] - a[0]) / a[0]
    if op == "duration":
        from datetime import datetime

        start = datetime.fromisoformat(str(a[0]))
        end = datetime.fromisoformat(str(a[1]))
        return round((end - start).total_seconds())
    raise UnsupportedPatternError(f"operation {op!r}")


# ---------------------------------------------------------------------------
# evaluation


def _sort_key(value):
    # None sorts first, mirroring SQL NULL ordering under ASC
    return (value is not None, value)


def oracle_eval(ring: Ring, plan: SqrPlan,
                dataset: MemoryDataset) -> ResultSet:
    """Evaluate a plan against in-memory tables, canonically ordered."""
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

    # -- region discovery ---------------------------------------------------

    def _region(self, ret_label: str) -> tuple[set[str], set[str]]:
        """Steps in the region rooted at a return, plus upstream returns."""
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

    def materialize(self, ret_label: str) -> list[dict]:
        if ret_label not in self._materialized:
            result = self.eval_return(ret_label)
            names = [c.name for c in result.columns]
            self._materialized[ret_label] = [
                dict(zip(names, row)) for row in result.rows
            ]
        return self._materialized[ret_label]

    # -- row sources ----------------------------------------------------------

    def _entity_rows(self, entity_labels: list[str]) -> list[dict]:
        """Nested-loop join of the entities' primary tables via relationships."""
        envs: list[dict] = []
        joined: list[str] = []
        for label in entity_labels:
            ename = self.info[label].entity
            e = self.ring.entity(ename)
            rows = self.ds.tables.get(e.primary_table, [])
            if not envs:
                envs = [{label: r} for r in rows]
                joined = [label]
                continue
            # find a relationship between this entity and one already joined
            rel = None
            partner = None
            for j in joined:
                rel = self.ring.relationship_between(
                    self.info[j].entity, ename)
                if rel is not None:
                    partner = j
                    break
            if rel is None:
                raise UnsupportedPatternError(
                    f"no relationship connects {ename!r} to the plan's other "
                    f"entities")
            new_envs = []
            for env in envs:
                for r in rows:
                    if self._rows_match(env[partner],
                                        self.info[partner].entity, r, ename,
                                        rel):
                        e2 = dict(env)
                        e2[label] = r
                        new_envs.append(e2)
            envs = new_envs
            joined.append(label)
        return envs

    def _rows_match(self, row_a: dict, ent_a: str, row_b: dict, ent_b: str,
                    rel) -> bool:
        table_rows = {self.ring.entity(ent_a).primary_table: row_a,
                      self.ring.entity(ent_b).primary_table: row_b}

        def lookup(ref: str):
            table, column = ref.split(".")
            if table in table_rows:
                return ("bound", table_rows[table][column])
            return ("free", (table, column))

        # walk every join on the path; intermediate tables are scanned
        bound = dict(table_rows)
        for join_name in rel.join_path:
            j = self.ring.join(join_name)
            lt, lc = j.left.split(".")
            rt, rc = j.right.split(".")
            if lt in bound and rt in bound:
                if bound[lt][lc] != bound[rt][rc]:
                    return False
            elif lt in bound:
                matches = [r for r in self.ds.tables.get(rt, [])
                           if r[rc] == bound[lt][lc]]
                if not matches:
                    return False
                bound[rt] = matches[0]
            elif rt in bound:
                matches = [r for r in self.ds.tables.get(lt, [])
                           if r[lc] == bound[rt][rc]]
                if not matches:
                    return False
                bound[lt] = matches[0]
            else:
                raise UnsupportedPatternError(
                    f"join {join_name!r} connects no bound table")
        return True

    # -- per-row values -------------------------------------------------------

    def _row_value(self, label: str, env: dict, scalars: dict):
        step = self.plan.steps[label]
        si = self.info[label]
        if label in env:
            return env[label]
        if label in scalars:
            return scalars[label]
        if step.op == "retrieve_entity":
            pk = self.ring.table(
                self.ring.entity(si.entity).primary_table).primary_key
            return env[label][pk] if label in env else None
        if step.op == "retrieve_attribute":
            if si.attribute is not None:
                src_label = step.args[0].label
                table, column = self.ring.attribute(*si.attribute).source
                return env[src_label][column]
            # materialized column
            if si.source_return in scalars:
                return scalars[si.source_return][si.source_column]
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
        region, upstream = self._region(ret_label)
        ret = self.info[ret_label]

        # classify upstream materializations: scalar (one row) vs row source
        scalars: dict[str, dict] = {}
        row_sources: list[str] = []
        for up in sorted(upstream):
            rows = self.materialize(up)
            if len(rows) == 1:
                scalars[up] = rows[0]
            else:
                row_sources.append(up)

        entity_labels = sorted(
            l for l in region if self.plan.steps[l].op == "retrieve_entity")
        if entity_labels and row_sources:
            raise UnsupportedPatternError(
                "region mixes entity scans with multi-row materializations")
        if len(row_sources) > 1:
            raise UnsupportedPatternError(
                "region reads more than one multi-row materialization")

        if entity_labels:
            envs = self._entity_rows(entity_labels)
        elif row_sources:
            src = row_sources[0]
            envs = [{src: r} for r in self.materialize(src)]
        else:
            envs = [{}]  # purely scalar region

        # window ranks are computed over the unfiltered, sorted source
        rank_values: dict[str, dict[int, int]] = {}
        for label in region:
            if self.plan.steps[label].op == "row_number":
                sort_label = self.info[label].value_label
                s = self.info[sort_label]
                reverse = s.direction == "desc"
                keyed = [
                    (tuple(_sort_key(self._row_value(k, env, scalars))
                           for k in s.key_labels), i)
                    for i, env in enumerate(envs)
                ]
                keyed.sort(key=lambda kv: kv[0], reverse=reverse)
                rank_values[label] = {i: rank + 1
                                      for rank, (_, i) in enumerate(keyed)}

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
                                         indexed, scalars, value)
        else:
            rows = [tuple(value(l, env, i) for l in ret.collection_labels)
                    for i, env in indexed]

        rows = self._order_and_limit(ret, rows, scalars)
        return ResultSet(columns=[c for _, c in ret.columns], rows=rows)

    def _is_agg(self, label: str) -> bool:
        from .registry import get_signature

        return get_signature(self.plan.steps[label].op).is_aggregation

    def _agg_inputs(self, label: str, indexed, scalars, value):
        step = self.plan.steps[label]
        si = self.info[label]
        inner = si.value_label
        if self._is_agg(inner):
            # aggregation over a grouped aggregation's per-group values
            inner_si = self.info[inner]
            if inner_si.grouping_label is None:
                raise UnsupportedPatternError(
                    "aggregation over an ungrouped aggregation")
            groups: dict[tuple, list] = {}
            keys = self.info[inner_si.grouping_label].key_labels
            for i, env in indexed:
                k = tuple(_norm(value(kl, env, i)) for kl in keys)
                groups.setdefault(k, []).append(
                    value(inner_si.value_label, env, i))
            inner_op = self.plan.steps[inner].op
            return [_agg(inner_op, vs) for vs in groups.values()]
        return [value(inner, env, i) for i, env in indexed]

    def _eval_aggregated(self, ret, key_labels, agg_labels, indexed,
                         scalars, value) -> list[tuple]:
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
                        step = self.plan.steps[label]
                        inner = self.info[label].value_label
                        vals = [value(inner, env, i) for i, env, _ in members]
                        out.append(_agg(step.op, vals))
                rows.append(tuple(out))
            return rows
        # scalar aggregations
        out = []
        for label in ret.collection_labels:
            if label in agg_labels:
                step = self.plan.steps[label]
                if step.op == "correlation":
                    refs = [a.label for a in step.args
                            if isinstance(a, StepRef)]
                    xs = [value(refs[0], env, i) for i, env in indexed]
                    ys = [value(refs[1], env, i) for i, env in indexed]
                    out.append(_correlation(xs, ys))
                else:
                    out.append(_agg(step.op,
                                    self._agg_inputs(label, indexed,
                                                     scalars, value)))
            else:
                raise UnsupportedPatternError(
                    "per-row column collected alongside an ungrouped "
                    "aggregation")
        return [tuple(out)]

    def _order_and_limit(self, ret, rows, scalars) -> list[tuple]:
        col_labels = list(ret.collection_labels)
        if ret.sort_label:
            s = self.info[ret.sort_label]
            key_idx = [col_labels.index(k) for k in s.key_labels
                       if k in col_labels]
            rest = [i for i in range(len(col_labels)) if i not in key_idx]
            reverse = s.direction == "desc"

            def sort_key(row):
                primary = tuple(_sort_key(row[i]) for i in key_idx)
                return primary

            rows = sorted(rows, key=lambda r: tuple(_sort_key(r[i])
                                                    for i in rest))
            rows = sorted(rows, key=sort_key, reverse=reverse)
        else:
            rows = sorted(rows, key=lambda r: tuple(_sort_key(v) for v in r))
        if ret.limit_label:
            n = self.plan.steps[ret.limit_label].args[0]
            rows = rows[: int(n)]
        return list(rows)
