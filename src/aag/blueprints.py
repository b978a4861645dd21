"""Report blueprints: from a structured request to plans, facts, and a prompt.

A blueprint names a report type and lists its requirements -- each one a plan
template plus instructions for binding the template's slots from the request.
Instantiation is deterministic: requirements run in declaration order and all
derived names (column names, display names) are computed from the ring.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional, Union

from . import compiler, registry
from .errors import AagError
from .plans import (Param, SqrPlan, SqrStep, StepRef, parse_literal,
                    serialize_arg)
from .ring import Ring
from .statements import StatementTemplate, format_value, render_statement
from .templates import PlanTemplate, fill_template, load_templates
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
    # the fields that are values, parsed literals; so are the filters' values
    _VALUES = ("target", "top_n", "benchmark", "period_start", "period_end")

    def literals(self) -> dict[str, Any]:
        """The values a report binds, by the name of their ``Param``."""
        return {**{k: getattr(self, k) for k in self._VALUES},
                **{f"filter{i}": f["value"] for i, f in enumerate(self.filters)}}

    def mapped(self, fn) -> ReportRequest:
        """This request with each value ``v`` that is given, named ``k``, as
        ``fn(k, v)``."""
        return replace(self, **{k: fn(k, v) for k in self._VALUES
                                if (v := getattr(self, k)) is not None},
                       filters=[dict(f, value=fn(f"filter{i}", f["value"]))
                                for i, f in enumerate(self.filters)])

    def shape(self) -> tuple:
        """What the compiled queries depend on besides the ring: the request
        with each value's type for the value, and which values are equal
        (``list.index`` compares them as plans do)."""
        vals = list(self.literals().values())
        return repr(self.mapped(lambda k, v: type(v))), \
            tuple(map(vals.index, vals))


def parse_request(doc: Union[str, dict]) -> ReportRequest:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise AagError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise AagError("request document must be a JSON object")
    if doc.get("version") != REQUEST_FORMAT_VERSION:
        raise AagError(f"unsupported request version: {doc.get('version')!r}")
    for key in ("report", "entity", "metric", "aggregation", "cohort",
                "target"):
        if key not in doc:
            raise AagError(f"request is missing required field {key!r}")
    cohort = doc["cohort"]
    if not isinstance(cohort, dict) or "entity" not in cohort \
            or "key" not in cohort:
        raise AagError("request 'cohort' needs 'entity' and 'key'")
    top_n, filters, period = (doc.get("top_n", 3), doc.get("filters", []),
                              doc.get("period", {}))
    for ok, rule in (  # a tuple of the ops, as an op may be unhashable
            (type(top_n) is int and top_n >= 1, "'top_n' must be an integer "
             "of at least 1"),
            (isinstance(filters, list) and all(
                isinstance(f, dict) and "attribute" in f and "value" in f
                and f.get("op", "exact") in tuple(registry.REGISTRY)
                for f in filters), "'filters' must be a list of objects with "
             "an 'attribute', a 'value' and a known 'op'"),
            (isinstance(period, dict), "'period' must be an object")):
        if not ok:
            raise AagError(f"request {rule}")
    if not all(isinstance(name, str) for name in (
            doc["report"], doc["entity"], doc["metric"], doc["aggregation"],
            cohort["entity"], cohort["key"], period.get("attribute", ""),
            *(f["attribute"] for f in filters))):
        raise AagError("request names (of the report, entity, metric, "
                       "aggregation and attributes) must be strings")
    if doc["aggregation"] not in registry.DERIVATION_AGGREGATIONS:
        raise AagError(f"unsupported aggregation {doc['aggregation']!r}")
    req = ReportRequest(
        report=doc["report"],
        entity=doc["entity"],
        metric=doc["metric"],
        aggregation=doc["aggregation"],
        cohort_entity=cohort["entity"],
        cohort_key=cohort["key"],
        target=doc["target"],
        filters=list(filters),
        top_n=top_n,
        benchmark=doc.get("benchmark"),
        period_attribute=period.get("attribute"),
        period_start=period.get("start"),
        period_end=period.get("end"),
    ).mapped(lambda name, value: parse_literal(value))
    if req.report == "comparative_benchmark" and req.benchmark is None:
        raise AagError("comparative_benchmark requests need a 'benchmark'")
    if req.report == "time_over_time" and None in (
            req.period_attribute, req.period_start, req.period_end):
        raise AagError("time_over_time requests need a full 'period'")
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
        raise AagError(f"unsupported blueprint version: {doc.get('version')!r}")
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
        raise AagError(f"unknown report type {report!r}")
    return blueprint_from_dict(json.loads(path.read_text()))


@functools.cache
def builtin_templates() -> dict[str, PlanTemplate]:
    return load_templates(_data_dir() / "plan_templates.json")


# ---------------------------------------------------------------------------
# member plans


def build_member_plan(ring: Ring, request: ReportRequest,
                      extra_filters: Optional[list[dict]] = None) -> SqrPlan:
    """One row per cohort member: (key, aggregated metric), filters applied."""
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
    filter_refs: list[StepRef] = []
    for i, f in enumerate(request.filters + (extra_filters or [])):
        attr, cond = f"FA{i}", f"FC{i}"
        steps[attr] = SqrStep(attr, "retrieve_attribute",
                              (StepRef("A"), f["attribute"]))
        steps[cond] = SqrStep(cond, f.get("op", "exact"),
                              (StepRef(attr), f["value"]))
        filter_refs.append(StepRef(cond))
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
    statement: StatementTemplate
    statement_inputs: dict[str, str]
    plan: Optional[SqrPlan] = None  # from ``instantiate``
    compiled: Optional[compiler.CompiledQuery] = None  # from compile_facts
    result: Optional[ResultSet] = None
    text: Optional[str] = None


def _context(ring: Ring, request: ReportRequest) -> dict[str, Any]:
    for entity, attr in ((request.entity, request.metric),
                         (request.cohort_entity, request.cohort_key)):
        if ring.entity(entity) is None:
            raise AagError(f"unknown entity {entity!r}")
        if ring.attribute(entity, attr) is None:
            raise AagError(f"entity {entity!r} has no attribute {attr!r}")
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
        ctx["benchmark_text"] = format_value(serialize_arg(request.benchmark),
                                             metric_attr.units)
    if request.period_attribute is not None:
        for ab, end in (("a", "start"), ("b", "end")):
            when = serialize_arg(getattr(request, f"period_{end}"))
            ctx[f"period_{ab}"] = str(when)
            ctx[f"period_{ab}_phrase"] = f"in {when}"
            ctx[f"metric_name_{end}"] = f"{metric_name} in {when}"
    return ctx


def _resolve(spec: dict, request: ReportRequest, ctx: dict,
             parts: dict[str, SqrPlan]):
    if "part" in spec:
        if spec["part"] not in parts:
            raise AagError(f"blueprint references unknown part "
                           f"{spec['part']!r}")
        return parts[spec["part"]]
    if "input" in spec:
        value = getattr(request, spec["input"], None)
        if value is None:
            raise AagError(f"request is missing input {spec['input']!r}")
        return value
    if "ref" in spec:
        if spec["ref"] not in ctx:
            raise AagError(f"blueprint references unknown value "
                           f"{spec['ref']!r}")
        return ctx[spec["ref"]]
    raise AagError(f"unsupported binding spec: {spec!r}")


def _inputs(req: Requirement, request: ReportRequest, ctx: dict,
            parts: dict[str, SqrPlan]) -> dict[str, str]:
    return {name: str(serialize_arg(_resolve(spec, request, ctx, parts)))
            for name, spec in req.statement_inputs.items()}


def instantiate(ring: Ring, blueprint: Blueprint,
                request: ReportRequest,
                templates: Optional[dict[str, PlanTemplate]] = None
                ) -> list[Fact]:
    """Turn a request into one fully composed plan per requirement; each
    request value enters the plans as a ``Param``."""
    templates = templates or builtin_templates()
    ctx = _context(ring, request)
    values = request.mapped(Param)

    parts = {"members": build_member_plan(ring, values)}
    if request.period_attribute is not None:
        for part, value in (("members_start", values.period_start),
                            ("members_end", values.period_end)):
            parts[part] = build_member_plan(ring, values, [
                {"attribute": request.period_attribute, "op": "exact",
                 "value": value}])

    facts: list[Fact] = []
    for req in blueprint.requirements:
        if req.template not in templates:
            raise AagError(f"blueprint requirement {req.id!r} names "
                           f"unknown template {req.template!r}")
        template = templates[req.template]
        bindings = {name: _resolve(spec, values, ctx, parts)
                    for name, spec in req.bindings.items()}
        facts.append(Fact(req.id, template.statement,
                          _inputs(req, request, ctx, parts),
                          plan=fill_template(ring, template, bindings)))
    return facts


# compiled shapes kept per process (about 24 KB each), in order of use
CACHE_SIZE = 128
_compiled: dict = {}


def compile_facts(ring: Ring, ring_text: str, blueprint: Blueprint,
                  request: ReportRequest) -> list[Fact]:
    """The request's facts, their queries compiled with ``Param`` slots once
    per shape (ring text and ``ReportRequest.shape``) and bound to each
    report's values: parametric query optimization (Ioannidis, Ng, Shim &
    Sellis, VLDB 1992)."""
    ctx = _context(ring, request)
    key = ring_text, request.shape()
    _compiled[key] = _compiled.pop(key, None) or [
        (f.statement, compiler.compile_plan(ring, f.plan).shape)
        for f in instantiate(ring, blueprint, request)]
    if len(_compiled) > CACHE_SIZE:  # drop the least recently used
        del _compiled[next(iter(_compiled))]
    values = request.literals()
    return [Fact(req.id, statement, _inputs(req, request, ctx, {}),
                 compiled=compiled.bind(values))
            for req, (statement, compiled) in
            zip(blueprint.requirements, _compiled[key])]


# ---------------------------------------------------------------------------
# execution & prompt


def render_facts(facts: list[Fact]) -> list[Fact]:
    """Fill each fact's statement from its result (results must be present)."""
    for fact in facts:
        if fact.result is None:
            raise AagError(f"fact {fact.id!r} has no result to render")
        fact.text = render_statement(fact.statement, fact.result,
                                     fact.statement_inputs)
    return facts


def build_prompt(blueprint: Blueprint, facts: list[Fact]) -> str:
    rendered = [f.text for f in facts if f.text]
    if not rendered:
        raise AagError("cannot build a prompt from zero facts")
    lines = [
        f"Write a short analytical report. {blueprint.description}",
        PROMPT_INSTRUCTIONS,
        "",
        "Facts:",
    ]
    for i, text in enumerate(rendered, 1):
        lines.append(f"{i}. {text}")
    return "\n".join(lines)
