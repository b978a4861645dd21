"""Plan representation: a directed acyclic graph of labeled analytic steps.

A plan document is JSON:

    {
      "version": "sqr_plan_v1",
      "steps": {"A": {"op": "retrieve_entity", "args": ["Wildfire"]}, ...},
      "result": "I"
    }

Step arguments are either references to other steps (written ``"|A|"``),
literals (numbers, strings, booleans; ISO-8601 strings are tagged as
datetimes), or -- in templates only -- slot placeholders (``"{name}"``).
A request value enters a plan as a ``Param``: a literal named for binding,
compared (whatever its name), typed and serialized by its value.

``analyze_plan`` infers, for every step, its output kind set plus the
presentation metadata (output name, nicename, units) and, for materialization
steps, the column schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

from . import registry
from .errors import AagError
from .types import AttributeType as T, ColumnMeta, DatetimeValue, TypeSet, typeset

PLAN_FORMAT_VERSION = "sqr_plan_v1"


@dataclass(frozen=True)
class StepRef:
    label: str


@dataclass(frozen=True)
class SlotArg:
    name: str


@dataclass(frozen=True)
class Param:
    """A request value: a parsed literal named for binding."""
    name: str = field(compare=False)
    value: Any


Arg = Union[StepRef, SlotArg, Param, DatetimeValue, int, float, str, bool]


@dataclass(frozen=True)
class SqrStep:
    label: str
    op: str
    args: tuple


@dataclass
class SqrPlan:
    steps: dict[str, SqrStep]
    result: str

    def refs(self, label: str) -> list[str]:
        return [a.label for a in self.steps[label].args if isinstance(a, StepRef)]


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_arg(raw: Any, allow_slots: bool = False) -> Arg:
    ends = raw[0] + raw[-1] if isinstance(raw, str) and len(raw) > 2 else ""
    if ends == "||":
        return StepRef(raw[1:-1])
    if ends == "{}" and allow_slots:
        return SlotArg(raw[1:-1])
    return parse_literal(raw)


def parse_literal(raw: Any) -> Arg:
    """A JSON scalar as a literal; a string written as a reference or a slot
    (``"|A|"``, ``"{name}"``) is not one."""
    if isinstance(raw, (bool, int, float)):
        return raw
    if not isinstance(raw, str):
        raise AagError(f"{raw!r} is not a literal: a number, string or bool")
    if len(raw) > 2 and raw[0] + raw[-1] in ("||", "{}"):
        raise AagError(f"{raw!r} is written as a reference or a slot")
    return DatetimeValue(raw) if DatetimeValue.matches(raw) else raw


def serialize_arg(arg: Arg) -> Any:
    arg = arg.value if isinstance(arg, Param) else arg
    if isinstance(arg, StepRef):
        return f"|{arg.label}|"
    if isinstance(arg, DatetimeValue):
        return arg.iso
    return arg


def _steps_from_doc(raw_steps: Any, allow_slots: bool) -> dict[str, SqrStep]:
    if not isinstance(raw_steps, dict) or not raw_steps:
        raise AagError("plan must have at least one step")
    steps: dict[str, SqrStep] = {}
    for label, body in raw_steps.items():
        if not isinstance(body, dict) or "op" not in body:
            raise AagError(f"step {label!r} must be an object with an 'op' field")
        op, args = body["op"], body.get("args", [])
        if not isinstance(op, str) or op not in registry.REGISTRY:
            raise AagError(f"step {label!r}: unknown operation {op!r}")
        if not isinstance(args, list):
            raise AagError(f"step {label!r}: 'args' must be a list, got {args!r}")
        steps[label] = SqrStep(label, op,
                               tuple(parse_arg(a, allow_slots) for a in args))
    return steps


def plan_from_dict(doc: dict, allow_slots: bool = False) -> SqrPlan:
    steps = _steps_from_doc(doc.get("steps"), allow_slots)
    result = doc.get("result")
    if not isinstance(result, str) or result not in steps:
        raise AagError(f"result label {result!r} does not name a step")
    plan = SqrPlan(steps=steps, result=result)
    for label in steps:
        for ref in plan.refs(label):
            if ref not in steps:
                raise AagError(f"step {label!r} references missing step |{ref}|")
    return plan


def parse_plan(doc: Union[str, dict]) -> SqrPlan:
    """Parse a plan document, adding a terminal ``return`` of its result
    when the result is not one."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise AagError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise AagError("plan document must be a JSON object")
    plan = plan_from_dict(doc)
    if plan.steps[plan.result].op != "return":
        label = "_R"
        while label in plan.steps:
            label += "_"
        plan.steps[label] = SqrStep(label, "return", (StepRef(plan.result),))
        plan.result = label
    return plan


def load_plan(path: Union[str, Path]) -> SqrPlan:
    return parse_plan(Path(path).read_text())


def plan_to_dict(plan: SqrPlan) -> dict:
    return {
        "version": PLAN_FORMAT_VERSION,
        "steps": {
            label: {"op": s.op, "args": [serialize_arg(a) for a in s.args]}
            for label, s in plan.steps.items()
        },
        "result": plan.result,
    }


# ---------------------------------------------------------------------------
# analysis


@dataclass
class StepInfo:
    types: TypeSet
    name: str
    nicename: str | None = None
    units: tuple[str, str] | str | None = None
    # retrieval metadata
    entity: str | None = None                 # retrieve_entity
    attribute: tuple[str, str] | None = None  # retrieve_attribute on a base entity
    source_return: str | None = None          # retrieve_attribute on a materialization
    source_column: str | None = None
    # structural roles
    value_label: str | None = None            # aggregations / row_number
    grouping_label: str | None = None         # aggregations
    key_labels: tuple[str, ...] = ()          # groupby / sort keys
    direction: str | None = None              # sort
    collection_labels: tuple[str, ...] = ()   # return (deduped, keys first)
    filter_label: str | None = None           # return
    sort_label: str | None = None             # return
    limit_label: str | None = None            # return
    columns: list[tuple[str, ColumnMeta]] = field(default_factory=list)  # return


def literal_types(arg: Arg) -> TypeSet:
    if isinstance(arg, Param):
        return literal_types(arg.value)
    if isinstance(arg, bool):
        return typeset(T.CATEGORICAL)
    if isinstance(arg, (int, float)):
        return typeset(T.ARITHMETIC)
    if isinstance(arg, DatetimeValue):
        return typeset(T.DATETIME)
    if isinstance(arg, str):
        return typeset(T.STRING)
    raise AagError(f"cannot type literal {arg!r}")


def toposort(plan: SqrPlan) -> list[str]:
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(label: str):
        s = state.get(label, 0)
        if s == 2:
            return
        if s == 1:
            raise AagError(f"cycle through step {label!r}")
        state[label] = 1
        for ref in plan.refs(label):
            visit(ref)
        state[label] = 2
        order.append(label)

    for label in plan.steps:
        visit(label)
    return order


def reachable_from_result(plan: SqrPlan) -> set[str]:
    seen: set[str] = set()
    stack = [plan.result]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        stack.extend(plan.refs(label))
    return seen


def _same_or_none(values: list) -> Any:
    distinct = {v for v in values if v is not None}
    return distinct.pop() if len(distinct) == 1 else None


def analyze_plan(ring, plan: SqrPlan) -> dict[str, StepInfo]:
    """Infer kinds, names, units, and structure for every step."""
    order = toposort(plan)
    info: dict[str, StepInfo] = {}

    def arg_types(arg: Arg) -> TypeSet:
        if isinstance(arg, StepRef):
            return info[arg.label].types
        if isinstance(arg, SlotArg):
            raise AagError(f"unfilled slot {{{arg.name}}} in plan")
        return literal_types(arg)

    def step_args(step: SqrStep) -> list[StepRef]:
        return [a for a in step.args if isinstance(a, StepRef)]

    for label in order:
        step = plan.steps[label]
        sig = registry.get_signature(step.op)
        types_list = [arg_types(a) for a in step.args]
        assignment = registry.match_args(sig, label, types_list)
        refs = step_args(step)

        if step.op == "retrieve_entity":
            name = step.args[0]
            if not isinstance(name, str) or ring.entity(name) is None:
                raise AagError(f"step {label!r}: unknown entity {name!r}")
            info[label] = StepInfo(types=typeset(T.ENTITY), name=name, entity=name)

        elif step.op == "retrieve_attribute":
            src, attr_name = step.args[0], step.args[1]
            src_info = info[src.label]
            if src_info.entity is not None:
                attr = ring.attribute(src_info.entity, attr_name)
                if attr is None or attr.derived:
                    raise AagError(
                        f"step {label!r}: entity {src_info.entity!r} has no "
                        f"retrievable attribute {attr_name!r}"
                    )
                info[label] = StepInfo(
                    types=attr.types, name=attr.name, nicename=attr.nicename,
                    units=attr.units, attribute=(src_info.entity, attr.name),
                )
            else:  # column of a materialized relation
                col = next((c for _, c in src_info.columns if c.name == attr_name),
                           None)
                if col is None:
                    raise AagError(
                        f"step {label!r}: relation |{src.label}| has no column "
                        f"{attr_name!r}"
                    )
                info[label] = StepInfo(
                    types=col.types, name=col.name, nicename=col.nicename,
                    units=col.units, source_return=src.label,
                    source_column=col.name,
                )

        elif sig.is_aggregation:
            value_refs = [r for r, si in zip(refs, _ref_assignment(step, assignment))
                          if si == 0]
            grouping = next((r for r, si in zip(refs, _ref_assignment(step, assignment))
                             if si == 1), None)
            if not value_refs:
                raise AagError(f"step {label!r}: {step.op} aggregates a literal, "
                               f"not a step")
            base = info[value_refs[0].label]
            units = (base.units if step.op in registry.UNIT_KEEPING_AGGREGATIONS
                     else None)
            info[label] = StepInfo(
                types=sig.output,
                name=f"{sig.nicename} {base.name}",
                nicename=f"{sig.nicename} {base.nicename or base.name}",
                units=units,
                value_label=value_refs[0].label,
                grouping_label=grouping.label if grouping else None,
            )

        elif sig.op_type == "Arithmetic":
            first = info[refs[0].label] if refs else None
            base_name = first.name if first else ""
            if step.op == "percent_change":
                units = "%"
            elif step.op == "duration":
                units = ("second", "seconds")
            elif step.op in ("add", "subtract", "absolute_value"):
                units = _same_or_none([info[r.label].units for r in refs])
            else:
                units = None
            info[label] = StepInfo(
                types=sig.output,
                name=f"{sig.nicename} {base_name}".strip(),
                nicename=f"{sig.nicename} {first.nicename or first.name}".strip()
                if first else sig.nicename,
                units=units,
            )

        elif step.op == "groupby":
            info[label] = StepInfo(types=sig.output, name="groupby",
                                   key_labels=tuple(r.label for r in refs))

        elif step.op == "sort":
            direction = step.args[-1]
            if direction not in ("asc", "desc"):
                raise AagError(
                    f"step {label!r}: sort direction must be 'asc' or 'desc', "
                    f"got {direction!r}"
                )
            info[label] = StepInfo(
                types=sig.output, name="sort",
                key_labels=tuple(r.label for r in refs), direction=direction,
            )

        elif step.op == "row_number":
            sort_info = info[refs[0].label]
            key = info[sort_info.key_labels[0]]
            info[label] = StepInfo(
                types=sig.output,
                name=f"{sig.nicename} {key.name}",
                nicename=f"{sig.nicename} {key.nicename or key.name}",
                value_label=refs[0].label,
            )

        elif step.op == "limit":
            info[label] = StepInfo(types=sig.output, name="limit")

        elif step.op == "collect":
            info[label] = StepInfo(types=sig.output, name="collect",
                                   key_labels=tuple(r.label for r in refs))

        elif step.op == "return":
            info[label] = _analyze_return(plan, info, step, assignment)

        else:  # boolean filters
            info[label] = StepInfo(types=sig.output, name=sig.nicename)

    return info


def _ref_assignment(step: SqrStep, assignment: list[int]) -> list[int]:
    return [si for a, si in zip(step.args, assignment) if isinstance(a, StepRef)]


def _analyze_return(plan: SqrPlan, info: dict[str, StepInfo], step: SqrStep,
                    assignment: list[int]) -> StepInfo:
    roles: dict[int, str] = {}
    for arg, si in zip(step.args, assignment):
        if not isinstance(arg, StepRef):
            raise AagError(f"step {step.label!r}: return arguments must be references")
        roles.setdefault(si, arg.label)
    collection = roles[0]
    coll_info = info[collection]
    if plan.steps[collection].op == "collect":
        collected = list(coll_info.key_labels)
    else:
        collected = [collection]
    # grouped aggregations contribute their group keys, first
    ordered: list[str] = []
    for lbl in collected:
        src = info[lbl]
        if src.grouping_label is not None:
            for key in info[src.grouping_label].key_labels:
                if key not in ordered:
                    ordered.append(key)
    for lbl in collected:
        if lbl not in ordered:
            ordered.append(lbl)
    columns: list[tuple[str, ColumnMeta]] = []
    used_names: set[str] = set()
    for lbl in ordered:
        src = info[lbl]
        name = src.name
        n = 2
        while name in used_names:
            name = f"{src.name} ({n})"
            n += 1
        used_names.add(name)
        columns.append((lbl, ColumnMeta(name=name, types=src.types,
                                        units=src.units, nicename=src.nicename)))
    return StepInfo(
        types=typeset(T.ENTITY),
        name="return",
        collection_labels=tuple(ordered),
        filter_label=roles.get(1),
        sort_label=roles.get(2),
        limit_label=roles.get(3),
        columns=columns,
    )


def ensure_no_dead_steps(plan: SqrPlan) -> None:
    dead = set(plan.steps) - reachable_from_result(plan)
    if dead:
        raise AagError(
            f"steps not reachable from result: {sorted(dead)}"
        )
