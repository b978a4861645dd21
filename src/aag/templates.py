"""Slotted plan templates and plan composition.

A template is a plan skeleton whose arguments may be slot placeholders
(``"{metric}"``). Slots come in three kinds:

* ``access-plan`` -- bound to a whole plan; the placeholder becomes a
  reference to that plan's terminal step after composition.
* ``filter`` -- same mechanics, but the bound plan's terminal must produce a
  filter condition.
* ``literal`` -- bound to a scalar value, substituted in place.

Composition merges the bound plans into the skeleton under unique label
prefixes so that independently-authored parts can never collide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from .errors import (
    ParseError,
    SlotKindMismatchError,
    UnboundSlotError,
    WiringError,
)
from .plans import (
    SlotArg,
    SqrPlan,
    SqrStep,
    StepInfo,
    StepRef,
    analyze_plan,
    ensure_no_dead_steps,
    parse_arg,
    plan_from_dict,
    serialize_arg,
)
from .statements import StatementTemplate, statement_template_from_dict
from .types import AttributeType, TypeSet

TEMPLATE_FORMAT_VERSION = "sqr_template_v1"

SLOT_KINDS = ("access-plan", "filter", "literal")


@dataclass(frozen=True)
class SlotDef:
    name: str
    kind: str  # one of SLOT_KINDS
    types: Optional[TypeSet] = None  # constraint on an access-plan's output
    required: bool = True


@dataclass
class PlanTemplate:
    id: str
    plan: SqrPlan  # may contain SlotArg placeholders
    slots: dict[str, SlotDef]
    statement: Optional[StatementTemplate] = None
    description: str = ""


def _parse_slot(name: str, doc: dict) -> SlotDef:
    kind = doc.get("kind")
    if kind not in SLOT_KINDS:
        raise ParseError(f"slot {name!r}: unknown kind {kind!r}")
    types = None
    if "types" in doc:
        types = frozenset(AttributeType(t) for t in doc["types"])
    return SlotDef(name=name, kind=kind, types=types,
                   required=doc.get("required", True))


def template_from_dict(doc: dict) -> PlanTemplate:
    if doc.get("version") != TEMPLATE_FORMAT_VERSION:
        raise ParseError(
            f"unsupported template version: {doc.get('version')!r}")
    plan = plan_from_dict({"steps": doc["steps"], "result": doc["result"]},
                          allow_slots=True)
    slots = {name: _parse_slot(name, s)
             for name, s in doc.get("slots", {}).items()}
    used = {a.name for s in plan.steps.values() for a in s.args
            if isinstance(a, SlotArg)}
    unknown = used - set(slots)
    if unknown:
        raise ParseError(f"template {doc.get('id')!r} uses undeclared "
                         f"slots: {sorted(unknown)}")
    statement = None
    if "statement" in doc:
        statement = statement_template_from_dict(doc["statement"])
    return PlanTemplate(
        id=doc.get("id", ""),
        plan=plan,
        slots=slots,
        statement=statement,
        description=doc.get("description", ""),
    )


def load_templates(path: Union[str, Path]) -> dict[str, PlanTemplate]:
    doc = json.loads(Path(path).read_text())
    out = {}
    for raw in doc["templates"]:
        t = template_from_dict(raw)
        out[t.id] = t
    return out


# ---------------------------------------------------------------------------
# composition


def _prefix_plan(plan: SqrPlan, prefix: str) -> SqrPlan:
    def rename(arg):
        if isinstance(arg, StepRef):
            return StepRef(prefix + arg.label)
        return arg

    steps = {
        prefix + label: SqrStep(prefix + label, s.op,
                                tuple(rename(a) for a in s.args))
        for label, s in plan.steps.items()
    }
    return SqrPlan(steps=steps, result=prefix + plan.result)


def _choose_prefix(counter: int, part: SqrPlan, used: set[str]) -> tuple[str, int]:
    while True:
        prefix = str(counter)
        counter += 1
        if all(prefix + label not in used for label in part.steps):
            return prefix, counter


def compose_plans(template_plan: SqrPlan, parts: list[SqrPlan],
                  wiring: dict[str, int]) -> SqrPlan:
    """Merge part plans into a skeleton plan.

    ``wiring`` maps each placeholder name in the skeleton to the index of the
    part whose terminal step should replace it. Part step labels are renamed
    under unique numeric prefixes; the skeleton's labels are kept.
    """
    used = set(template_plan.steps)
    counter = 1
    prefixed: list[SqrPlan] = []
    for part in parts:
        prefix, counter = _choose_prefix(counter, part, used)
        p = _prefix_plan(part, prefix)
        overlap = used & set(p.steps)
        if overlap:
            raise WiringError(f"label collision after prefixing: {sorted(overlap)}")
        used |= set(p.steps)
        prefixed.append(p)

    def substitute(arg):
        if isinstance(arg, SlotArg):
            if arg.name not in wiring:
                raise WiringError(f"placeholder {{{arg.name}}} is not wired "
                                  f"to any part")
            idx = wiring[arg.name]
            if not (0 <= idx < len(prefixed)):
                raise WiringError(f"placeholder {{{arg.name}}} wired to "
                                  f"missing part {idx}")
            return StepRef(prefixed[idx].result)
        return arg

    steps: dict[str, SqrStep] = {}
    for p in prefixed:
        steps.update(p.steps)
    for label, s in template_plan.steps.items():
        steps[label] = SqrStep(label, s.op, tuple(substitute(a) for a in s.args))
    plan = SqrPlan(steps=steps, result=template_plan.result)
    ensure_no_dead_steps(plan)
    return plan


def _substitute_literals(plan: SqrPlan, values: dict[str, Any]) -> SqrPlan:
    def sub(arg):
        if isinstance(arg, SlotArg) and arg.name in values:
            return parse_arg(serialize_arg(values[arg.name]))
        return arg

    steps = {label: SqrStep(label, s.op, tuple(sub(a) for a in s.args))
             for label, s in plan.steps.items()}
    # nothing bound: keep the object, and with it its analysis
    return plan if steps == plan.steps else SqrPlan(steps, plan.result)


class PlanAnalyses:
    """``analyze_plan`` made once per plan object, for the plans of one
    report. Each plan is held with its analysis, so its id stays unique."""

    def __init__(self, ring):
        self.ring = ring
        self._by_id: dict[int, tuple[SqrPlan, dict[str, StepInfo]]] = {}

    def __call__(self, plan: SqrPlan) -> dict[str, StepInfo]:
        if id(plan) not in self._by_id:
            self._by_id[id(plan)] = plan, analyze_plan(self.ring, plan)
        return self._by_id[id(plan)][1]


def fill_template(ring, template: PlanTemplate, bindings: dict[str, Any],
                  analyze: Optional[PlanAnalyses] = None) -> SqrPlan:
    """Bind a template's slots and produce a fully composed, typechecked plan.

    Plan-valued bindings are deduplicated by identity, so two slots bound to
    the same plan object share one copy in the composition. ``analyze`` holds
    the analyses of the caller's report: a bound plan is analyzed once in it,
    and it keeps the analysis of the returned plan.
    """
    analyze = analyze or PlanAnalyses(ring)
    for name, slot in template.slots.items():
        if slot.required and name not in bindings:
            raise UnboundSlotError(f"slot {name!r} of template "
                                   f"{template.id!r} is unbound")
    unknown = set(bindings) - set(template.slots)
    if unknown:
        raise UnboundSlotError(
            f"template {template.id!r} has no slots named {sorted(unknown)}")

    literals: dict[str, Any] = {}
    plan_slots: list[tuple[str, SqrPlan]] = []
    for name in template.slots:  # declaration order, for determinism
        if name not in bindings:
            continue
        slot = template.slots[name]
        value = bindings[name]
        if slot.kind == "literal":
            if isinstance(value, SqrPlan):
                raise SlotKindMismatchError(
                    f"slot {name!r} takes a literal, got a plan")
            literals[name] = value
        else:
            if not isinstance(value, SqrPlan):
                raise SlotKindMismatchError(
                    f"slot {name!r} takes a plan, got {type(value).__name__}")
            plan_slots.append((name, value))

    # one copy per distinct plan object
    parts: list[SqrPlan] = []
    wiring: dict[str, int] = {}
    for name, p in plan_slots:
        p = _substitute_literals(p, literals)
        for i, existing in enumerate(parts):
            if existing is p or existing == p:
                wiring[name] = i
                break
        else:
            wiring[name] = len(parts)
            parts.append(p)

    # check each part's terminal kind before composing, so a mis-bound slot
    # reports as a slot problem rather than a type error deep in the plan
    part_info = [analyze(p) for p in parts]
    for name, idx in wiring.items():
        slot = template.slots[name]
        terminal = part_info[idx][parts[idx].result]
        got = terminal.types
        if slot.kind == "filter" and AttributeType.FILTER not in got:
            raise SlotKindMismatchError(
                f"slot {name!r} needs a filter-producing plan, got "
                f"{sorted(t.value for t in got)}")
        if slot.kind == "access-plan":
            if AttributeType.ENTITY not in got:
                raise SlotKindMismatchError(
                    f"slot {name!r} needs a plan ending in a materialization, "
                    f"got {sorted(t.value for t in got)}")
            if slot.types:
                if not any(c.types & slot.types for _, c in terminal.columns):
                    raise SlotKindMismatchError(
                        f"slot {name!r} needs a column of kind "
                        f"{sorted(t.value for t in slot.types)}")

    skeleton = _substitute_literals(template.plan, literals)
    composed = compose_plans(skeleton, parts, wiring)
    analyze(composed)
    return composed


def template_to_dict(template: PlanTemplate) -> dict:
    from .statements import statement_template_to_dict

    doc: dict = {
        "version": TEMPLATE_FORMAT_VERSION,
        "id": template.id,
        "description": template.description,
        "slots": {},
        "steps": {
            label: {"op": s.op, "args": [serialize_arg(a) for a in s.args]}
            for label, s in template.plan.steps.items()
        },
        "result": template.plan.result,
    }
    for name, slot in template.slots.items():
        s: dict = {"kind": slot.kind}
        if slot.types:
            s["types"] = sorted(t.value for t in slot.types)
        if not slot.required:
            s["required"] = False
        doc["slots"][name] = s
    if template.statement is not None:
        doc["statement"] = statement_template_to_dict(template.statement)
    return doc
