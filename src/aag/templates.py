"""Slotted plan templates and plan composition.

A template is a plan skeleton whose arguments may be slot placeholders
(``"{metric}"``). Slots come in two kinds, and every slot must be bound:

* ``access-plan`` -- bound to a whole plan ending in a materialization; the
  placeholder becomes a reference to that plan's terminal step after
  composition.
* ``literal`` -- bound to a value (a column name, or a request value's
  ``Param``), substituted in place as it is.

Composition merges the bound plans into the skeleton under unique label
prefixes so that independently-authored parts can never collide.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, NamedTuple, Optional, Union

from .errors import AagError
from .plans import (
    SlotArg,
    SqrPlan,
    SqrStep,
    StepRef,
    analyze_plan,
    ensure_no_dead_steps,
    plan_from_dict,
)
from .statements import StatementTemplate, statement_template_from_dict
from .types import AttributeType

TEMPLATE_FORMAT_VERSION = "sqr_template_v1"

SLOT_KINDS = ("access-plan", "literal")


class SlotDef(NamedTuple):
    name: str
    kind: str  # one of SLOT_KINDS


class PlanTemplate(NamedTuple):
    id: str
    plan: SqrPlan  # may contain SlotArg placeholders
    slots: dict[str, SlotDef]
    statement: Optional[StatementTemplate] = None
    description: str = ""


def _parse_slot(name: str, doc: dict) -> SlotDef:
    kind = doc.get("kind")
    if kind not in SLOT_KINDS:
        raise AagError(f"slot {name!r}: unknown kind {kind!r}")
    return SlotDef(name=name, kind=kind)


def template_from_dict(doc: dict) -> PlanTemplate:
    if doc.get("version") != TEMPLATE_FORMAT_VERSION:
        raise AagError(f"unsupported template version: {doc.get('version')!r}")
    plan = plan_from_dict({"steps": doc["steps"], "result": doc["result"]},
                          allow_slots=True)
    slots = {name: _parse_slot(name, s)
             for name, s in doc.get("slots", {}).items()}
    used = {a.name for s in plan.steps.values() for a in s.args
            if isinstance(a, SlotArg)}
    unknown = used - set(slots)
    if unknown:
        raise AagError(f"template {doc.get('id')!r} uses undeclared "
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
        p = _prefix_plan(part, prefix)  # no label of it is in ``used``
        used |= set(p.steps)
        prefixed.append(p)

    def substitute(arg):
        if isinstance(arg, SlotArg):
            if arg.name not in wiring:
                raise AagError(f"placeholder {{{arg.name}}} is not wired "
                               f"to any part")
            idx = wiring[arg.name]
            if not (0 <= idx < len(prefixed)):
                raise AagError(f"placeholder {{{arg.name}}} wired to "
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
    return SqrPlan({label: SqrStep(label, s.op, tuple(
        values.get(a.name, a) if isinstance(a, SlotArg) else a for a in s.args))
        for label, s in plan.steps.items()}, plan.result)


def fill_template(ring, template: PlanTemplate,
                  bindings: dict[str, Any]) -> SqrPlan:
    """Bind a template's slots and produce a fully composed, typechecked plan.

    Plan-valued bindings are deduplicated by equality, so two slots bound to
    equal plans share one copy in the composition.
    """
    for name in template.slots:
        if name not in bindings:
            raise AagError(f"slot {name!r} of template "
                           f"{template.id!r} is unbound")
    unknown = set(bindings) - set(template.slots)
    if unknown:
        raise AagError(f"template {template.id!r} has no slots named {sorted(unknown)}")

    literals: dict[str, Any] = {}
    plan_slots: list[tuple[str, SqrPlan]] = []
    # declaration order, for determinism
    for name, slot in template.slots.items():
        value = bindings[name]
        if slot.kind == "literal":
            if isinstance(value, SqrPlan):
                raise AagError(f"slot {name!r} takes a literal, got a plan")
            literals[name] = value
        else:
            if not isinstance(value, SqrPlan):
                raise AagError(
                    f"slot {name!r} takes a plan, got {type(value).__name__}")
            plan_slots.append((name, value))

    # one copy per distinct plan
    parts: list[SqrPlan] = []
    wiring: dict[str, int] = {}
    for name, p in plan_slots:
        p = _substitute_literals(p, literals)
        if p not in parts:
            parts.append(p)
        wiring[name] = parts.index(p)

    # check each part's terminal kind before composing, so a mis-bound slot
    # reports as a slot problem rather than a type error deep in the plan
    part_info = [analyze_plan(ring, p) for p in parts]
    for name, idx in wiring.items():
        got = part_info[idx][parts[idx].result].types
        if AttributeType.ENTITY not in got:
            raise AagError(
                f"slot {name!r} needs a plan ending in a materialization, "
                f"got {sorted(t.value for t in got)}")

    skeleton = _substitute_literals(template.plan, literals)
    composed = compose_plans(skeleton, parts, wiring)
    analyze_plan(ring, composed)
    return composed
