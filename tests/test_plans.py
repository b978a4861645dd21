import json

import pytest
from hypothesis import given, settings, strategies as st

from aag.errors import (
    CycleError,
    ParseError,
    PlanTypeError,
    UnknownAttributeError,
    UnknownEntityError,
)
from aag.plans import (
    SqrPlan,
    SqrStep,
    StepRef,
    analyze_plan,
    parse_plan,
    plan_to_dict,
    serialize_plan,
    typecheck_plan,
)
from aag.templates import compose_plans
from aag.types import AttributeType as T

from conftest import load_fixture_plan


def _plan(steps, result):
    return parse_plan({"steps": steps, "result": result})


def test_parse_round_trip():
    plan = load_fixture_plan("average_size_by_state_2020")
    doc = plan_to_dict(plan)
    assert parse_plan(json.loads(serialize_plan(plan))).steps == plan.steps
    assert doc["steps"]["F"]["args"] == ["|C|", 2020]


def test_parse_rejects_dangling_reference():
    with pytest.raises(ParseError, match="missing step"):
        _plan({"A": {"op": "retrieve_entity", "args": ["Wildfire"]},
               "B": {"op": "count", "args": ["|Z|"]}}, "B")


def test_parse_rejects_unknown_result():
    with pytest.raises(ParseError, match="result"):
        _plan({"A": {"op": "retrieve_entity", "args": ["Wildfire"]}}, "Z")


def test_parse_rejects_unknown_operation():
    with pytest.raises(ParseError, match="unknown operation"):
        _plan({"A": {"op": "frobnicate", "args": []}}, "A")


def test_parse_rejects_slot_placeholders_in_plain_plans():
    with pytest.raises(ParseError, match="slot"):
        _plan({"A": {"op": "retrieve_attribute",
                     "args": ["{members}", "size"]}}, "A")


def test_cycles_are_detected(ring):
    plan = SqrPlan(
        steps={
            "A": SqrStep("A", "not", (StepRef("B"),)),
            "B": SqrStep("B", "not", (StepRef("A"),)),
        },
        result="A",
    )
    with pytest.raises(CycleError):
        analyze_plan(ring, plan)


def test_typecheck_infers_aggregation_kinds(ring):
    plan = load_fixture_plan("average_size_by_state_2020")
    types = typecheck_plan(ring, plan)
    assert types["H"] == frozenset({T.ARITHMETIC, T.METRIC})
    assert types["F"] == frozenset({T.FILTER})
    assert types["I"] == frozenset({T.ENTITY})


def test_typecheck_rejects_kind_mismatch(ring):
    with pytest.raises(PlanTypeError):
        typecheck_plan(ring, _plan({
            "A": {"op": "retrieve_entity", "args": ["State"]},
            "B": {"op": "retrieve_attribute", "args": ["|A|", "name"]},
            "C": {"op": "average", "args": ["|B|"]},
            "R": {"op": "return", "args": ["|C|"]},
        }, "R"))


def test_unknown_entity_and_attribute(ring):
    with pytest.raises(UnknownEntityError):
        analyze_plan(ring, _plan(
            {"A": {"op": "retrieve_entity", "args": ["Volcano"]}}, "A"))
    with pytest.raises(UnknownAttributeError):
        analyze_plan(ring, _plan({
            "A": {"op": "retrieve_entity", "args": ["State"]},
            "B": {"op": "retrieve_attribute", "args": ["|A|", "elevation"]},
        }, "B"))


def test_derived_attributes_are_not_directly_retrievable(ring):
    # derived aggregates are reached through access plans, not column reads
    with pytest.raises(UnknownAttributeError):
        analyze_plan(ring, _plan({
            "A": {"op": "retrieve_entity", "args": ["Wildfire"]},
            "B": {"op": "retrieve_attribute",
                  "args": ["|A|", "average wildfire size"]},
        }, "B"))


def test_output_names_and_units(ring):
    plan = load_fixture_plan("average_size_by_state_2020")
    info = analyze_plan(ring, plan)
    assert info["H"].name == "average size"
    assert info["H"].nicename == "average wildfire size"
    assert info["H"].units == ("acre", "acres")
    columns = [c for _, c in info["I"].columns]
    assert [c.name for c in columns] == ["name", "average size"]


def test_return_columns_prepend_group_keys(ring):
    info = analyze_plan(ring, load_fixture_plan("average_size_by_state_2020"))
    assert info["I"].collection_labels == ("E", "H")


def test_datetime_literals_are_tagged():
    plan = _plan({
        "A": {"op": "retrieve_entity", "args": ["Wildfire"]},
        "B": {"op": "retrieve_attribute", "args": ["|A|", "year"]},
        "F": {"op": "exact", "args": ["|B|", "2020-01-01"]},
        "R": {"op": "return", "args": ["|B|", "|F|"]},
    }, "R")
    assert plan_to_dict(plan)["steps"]["F"]["args"][1] == "2020-01-01"


def test_sort_direction_is_validated(ring):
    with pytest.raises(ParseError, match="asc"):
        analyze_plan(ring, _plan({
            "A": {"op": "retrieve_entity", "args": ["Wildfire"]},
            "B": {"op": "retrieve_attribute", "args": ["|A|", "size"]},
            "S": {"op": "sort", "args": ["|B|", "sideways"]},
            "W": {"op": "row_number", "args": ["|S|"]},
            "R": {"op": "return", "args": ["|W|"]},
        }, "R"))


# ---------------------------------------------------------------------------
# composition


def _linear_part(n: int) -> SqrPlan:
    """A small plan with n chained steps and the default A, B, C... labels."""
    labels = [chr(ord("A") + i) for i in range(n)]
    steps = {
        labels[0]: SqrStep(labels[0], "retrieve_entity", ("Wildfire",)),
        labels[1]: SqrStep(labels[1], "retrieve_attribute",
                           (StepRef(labels[0]), "size")),
    }
    for prev, label in zip(labels[1:], labels[2:]):
        steps[label] = SqrStep(label, "absolute_value", (StepRef(prev),))
    return SqrPlan(steps=steps, result=labels[-1])


@given(sizes=st.lists(st.integers(min_value=2, max_value=6), min_size=1,
                      max_size=5))
@settings(max_examples=50, deadline=None)
def test_composition_produces_unique_acyclic_labels(sizes):
    from aag.plans import SlotArg, toposort

    parts = [_linear_part(n) for n in sizes]
    skeleton = SqrPlan(
        steps={
            "C": SqrStep("C", "collect",
                         tuple(SlotArg(f"s{i}") for i in range(len(parts)))),
            "R": SqrStep("R", "return", (StepRef("C"),)),
        },
        result="R",
    )
    wiring = {f"s{i}": i for i in range(len(parts))}
    composed = compose_plans(skeleton, parts, wiring)
    # labels unique by construction of the dict; count them instead
    assert len(composed.steps) == len(skeleton.steps) + sum(
        len(p.steps) for p in parts)
    toposort(composed)  # raises CycleError if cyclic
    # every part terminal is wired in under a numeric prefix
    refs = {a.label for a in composed.steps["C"].args}
    assert len(refs) == len(parts)
    for label in refs:
        assert label[0].isdigit()


def test_composition_prefixes_collide_safely():
    from aag.plans import SlotArg

    # the skeleton already uses a label the first candidate prefix would
    # produce, so the part must be pushed to the next prefix
    part = _linear_part(2)  # labels A, B
    skeleton = SqrPlan(
        steps={
            "1A": SqrStep("1A", "retrieve_entity", ("Wildfire",)),
            "C": SqrStep("C", "collect", (StepRef("1A"), SlotArg("p"))),
            "R": SqrStep("R", "return", (StepRef("C"),)),
        },
        result="R",
    )
    composed = compose_plans(skeleton, [part], {"p": 0})
    wired = composed.steps["C"].args[1].label
    assert wired != "1B"
    assert wired.endswith("B")
    assert len(composed.steps) == 5
