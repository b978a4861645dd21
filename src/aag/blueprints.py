"""Report blueprints: from a structured request to plans, facts, and a prompt.

A blueprint names a report type and lists its requirements -- each one a plan
template plus instructions for binding the template's slots from the request.
Instantiation is deterministic: requirements run in declaration order and all
derived names (column names, display names) are computed from the ring.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from . import registry
from .errors import ParseError, UnknownAttributeError, UnknownEntityError
from .plans import SqrPlan, SqrStep, StepInfo, StepRef
from .ring import Ring
from .statements import StatementTemplate, format_value, render_statement
from .templates import PlanAnalyses, PlanTemplate, fill_template, load_templates
from .types import ResultSet

REQUEST_FORMAT_VERSION = "report_request_v1"
BLUEPRINT_FORMAT_VERSION = "blueprint_v1"

PROMPT_INSTRUCTIONS = (
    "Use only the facts provided. "
    "Do not introduce numbers not present in the facts."
)


# ---------------------------------------------------------------------------
# requests


@dataclass
class ReportRequest:
    report: str
    entity: str
    metric: str
    aggregation: str
    cohort_entity: str
    cohort_key: str
    target: Any
    filters: list[dict] = field(default_factory=list)
    top_n: int = 3
    benchmark: Any = None
    period_attribute: Optional[str] = None
    period_start: Any = None
    period_end: Any = None


def parse_request(doc: Union[str, dict]) -> ReportRequest:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}") from e
    if doc.get("version") != REQUEST_FORMAT_VERSION:
        raise ParseError(
            f"unsupported request version: {doc.get('version')!r}")
    for key in ("report", "entity", "metric", "aggregation", "cohort",
                "target"):
        if key not in doc:
            raise ParseError(f"request is missing required field {key!r}")
    cohort = doc["cohort"]
    if not isinstance(cohort, dict) or "entity" not in cohort \
            or "key" not in cohort:
        raise ParseError("request 'cohort' needs 'entity' and 'key'")
    if doc["aggregation"] not in registry.DERIVATION_AGGREGATIONS:
        raise ParseError(
            f"unsupported aggregation {doc['aggregation']!r}")
    req = ReportRequest(
        report=doc["report"],
        entity=doc["entity"],
        metric=doc["metric"],
        aggregation=doc["aggregation"],
        cohort_entity=cohort["entity"],
        cohort_key=cohort["key"],
        target=doc["target"],
        filters=list(doc.get("filters", [])),
        top_n=int(doc.get("top_n", 3)),
        benchmark=doc.get("benchmark"),
    )
    if "period" in doc:
        p = doc["period"]
        req.period_attribute = p.get("attribute")
        req.period_start = p.get("start")
        req.period_end = p.get("end")
    if req.report == "comparative_benchmark" and req.benchmark is None:
        raise ParseError("comparative_benchmark requests need a 'benchmark'")
    if req.report == "time_over_time" and (
            req.period_attribute is None or req.period_start is None
            or req.period_end is None):
        raise ParseError("time_over_time requests need a full 'period'")
    return req


# ---------------------------------------------------------------------------
# blueprints


@dataclass
class Requirement:
    id: str
    template: str
    bindings: dict[str, dict]
    statement_inputs: dict[str, dict]


@dataclass
class Blueprint:
    id: str
    description: str
    requirements: list[Requirement]


def blueprint_from_dict(doc: dict) -> Blueprint:
    if doc.get("version") != BLUEPRINT_FORMAT_VERSION:
        raise ParseError(
            f"unsupported blueprint version: {doc.get('version')!r}")
    reqs = [
        Requirement(
            id=r["id"],
            template=r["template"],
            bindings=r.get("bindings", {}),
            statement_inputs=r.get("statement_inputs", {}),
        )
        for r in doc.get("requirements", [])
    ]
    return Blueprint(id=doc["id"], description=doc.get("description", ""),
                     requirements=reqs)


def _data_dir() -> Path:
    return Path(__file__).parent / "data"


# package data is parsed once per process, on first use: treat it as read-only
@functools.cache
def load_blueprint(report: str) -> Blueprint:
    path = _data_dir() / "blueprints" / f"{report}.json"
    if not path.exists():
        raise ParseError(f"unknown report type {report!r}")
    return blueprint_from_dict(json.loads(path.read_text()))


@functools.cache
def builtin_templates() -> dict[str, PlanTemplate]:
    return load_templates(_data_dir() / "plan_templates.json")


# ---------------------------------------------------------------------------
# member plans


def build_member_plan(ring: Ring, request: ReportRequest,
                      extra_filters: Optional[list[dict]] = None) -> SqrPlan:
    """One row per cohort member: (key, aggregated metric), filters applied."""
    entity = ring.entity(request.entity)
    if entity is None:
        raise UnknownEntityError(f"unknown entity {request.entity!r}")
    if entity.attribute(request.metric) is None:
        raise UnknownAttributeError(
            f"entity {request.entity!r} has no attribute {request.metric!r}")
    cohort = ring.entity(request.cohort_entity)
    if cohort is None:
        raise UnknownEntityError(
            f"unknown entity {request.cohort_entity!r}")
    if cohort.attribute(request.cohort_key) is None:
        raise UnknownAttributeError(
            f"entity {request.cohort_entity!r} has no attribute "
            f"{request.cohort_key!r}")

    steps: dict[str, SqrStep] = {
        "A": SqrStep("A", "retrieve_entity", (request.entity,)),
        "B": SqrStep("B", "retrieve_attribute", (StepRef("A"), request.metric)),
        "C": SqrStep("C", "retrieve_entity", (request.cohort_entity,)),
        "D": SqrStep("D", "retrieve_attribute",
                     (StepRef("C"), request.cohort_key)),
        "G": SqrStep("G", "groupby", (StepRef("D"),)),
        "V": SqrStep("V", request.aggregation, (StepRef("B"), StepRef("G"))),
        "L": SqrStep("L", "collect", (StepRef("D"), StepRef("V"))),
    }
    filters = list(request.filters) + list(extra_filters or [])
    filter_refs: list[StepRef] = []
    for i, f in enumerate(filters):
        attr_label = f"FA{i}"
        cond_label = f"FC{i}"
        steps[attr_label] = SqrStep(
            attr_label, "retrieve_attribute",
            (StepRef("A"), f["attribute"]))
        op = f.get("op", "exact")
        steps[cond_label] = SqrStep(
            cond_label, op, (StepRef(attr_label), f["value"]))
        filter_refs.append(StepRef(cond_label))
    if len(filter_refs) > 1:
        steps["FX"] = SqrStep("FX", "and", tuple(filter_refs))
        filter_refs = [StepRef("FX")]
    steps["R"] = SqrStep("R", "return",
                         (StepRef("L"),) + tuple(filter_refs))
    return SqrPlan(steps=steps, result="R")


# ---------------------------------------------------------------------------
# instantiation


@dataclass
class Fact:
    id: str
    template_id: str
    plan: SqrPlan
    statement: StatementTemplate
    statement_inputs: dict[str, str]
    info: Optional[dict[str, StepInfo]] = None  # the analysis of ``plan``
    result: Optional[ResultSet] = None
    text: Optional[str] = None


def _context(ring: Ring, request: ReportRequest) -> dict[str, Any]:
    metric_attr = ring.attribute(request.entity, request.metric)
    agg = registry.get_signature(request.aggregation)
    cohort = ring.entity(request.cohort_entity)
    metric_col = f"{agg.nicename} {request.metric}"
    metric_name = f"{agg.nicename} {metric_attr.nicename}"
    ctx = {
        "key_col": request.cohort_key,
        "metric_col": metric_col,
        "max_col": f"maximum {metric_col}",
        "avg_col": f"average {metric_col}",
        "median_col": f"median {metric_col}",
        "val_col": f"one value of {metric_col}",
        "metric_name": metric_name,
        "cohort_plural": cohort.nicename[1],
    }
    if request.benchmark is not None:
        ctx["benchmark_text"] = format_value(request.benchmark,
                                             metric_attr.units)
    if request.period_attribute is not None:
        ctx["period_a"] = str(request.period_start)
        ctx["period_b"] = str(request.period_end)
        ctx["period_a_phrase"] = f"in {request.period_start}"
        ctx["period_b_phrase"] = f"in {request.period_end}"
        ctx["metric_name_start"] = f"{metric_name} in {request.period_start}"
        ctx["metric_name_end"] = f"{metric_name} in {request.period_end}"
    return ctx


def _resolve(spec: dict, request: ReportRequest, ctx: dict,
             parts: dict[str, SqrPlan]):
    if "part" in spec:
        if spec["part"] not in parts:
            raise ParseError(f"blueprint references unknown part "
                             f"{spec['part']!r}")
        return parts[spec["part"]]
    if "input" in spec:
        value = getattr(request, spec["input"], None)
        if value is None:
            raise ParseError(f"request is missing input {spec['input']!r}")
        return value
    if "ref" in spec:
        if spec["ref"] not in ctx:
            raise ParseError(f"blueprint references unknown value "
                             f"{spec['ref']!r}")
        return ctx[spec["ref"]]
    if "literal" in spec:
        return spec["literal"]
    raise ParseError(f"unsupported binding spec: {spec!r}")


def instantiate(ring: Ring, blueprint: Blueprint,
                request: ReportRequest,
                templates: Optional[dict[str, PlanTemplate]] = None
                ) -> list[Fact]:
    """Turn a request into one fully composed plan per requirement."""
    templates = templates or builtin_templates()
    ctx = _context(ring, request)
    analyze = PlanAnalyses(ring)  # each part is analyzed once per report

    parts: dict[str, SqrPlan] = {
        "members": build_member_plan(ring, request),
    }
    if request.period_attribute is not None:
        parts["members_start"] = build_member_plan(
            ring, request,
            [{"attribute": request.period_attribute, "op": "exact",
              "value": request.period_start}])
        parts["members_end"] = build_member_plan(
            ring, request,
            [{"attribute": request.period_attribute, "op": "exact",
              "value": request.period_end}])

    facts: list[Fact] = []
    for req in blueprint.requirements:
        if req.template not in templates:
            raise ParseError(f"blueprint requirement {req.id!r} names "
                             f"unknown template {req.template!r}")
        template = templates[req.template]
        bindings = {name: _resolve(spec, request, ctx, parts)
                    for name, spec in req.bindings.items()}
        plan = fill_template(ring, template, bindings, analyze)
        inputs = {name: str(_resolve(spec, request, ctx, parts))
                  for name, spec in req.statement_inputs.items()}
        facts.append(Fact(id=req.id, template_id=req.template, plan=plan,
                          statement=template.statement,
                          statement_inputs=inputs, info=analyze(plan)))
    return facts


# ---------------------------------------------------------------------------
# execution & prompt


def render_facts(facts: list[Fact]) -> list[Fact]:
    """Fill each fact's statement from its result (results must be present)."""
    for fact in facts:
        if fact.result is None:
            raise ParseError(f"fact {fact.id!r} has no result to render")
        fact.text = render_statement(fact.statement, fact.result,
                                     fact.statement_inputs)
    return facts


def build_prompt(blueprint: Blueprint, facts: list[Fact]) -> str:
    from .errors import EmptyFactsError

    rendered = [f.text for f in facts if f.text]
    if not rendered:
        raise EmptyFactsError("cannot build a prompt from zero facts")
    lines = [
        f"Write a short analytical report. {blueprint.description}",
        PROMPT_INSTRUCTIONS,
        "",
        "Facts:",
    ]
    for i, text in enumerate(rendered, 1):
        lines.append(f"{i}. {text}")
    return "\n".join(lines)
