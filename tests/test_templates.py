import pytest

from aag.blueprints import builtin_templates
from aag.errors import (
    ParseError,
    SlotKindMismatchError,
    UnboundSlotError,
    WiringError,
)
from aag.plans import analyze_plan, plan_from_dict
from aag.templates import compose_plans, fill_template, template_from_dict
from aag.types import AttributeType as T


@pytest.fixture(scope="module")
def templates():
    return builtin_templates()


def _members_plan():
    return plan_from_dict({
        "steps": {
            "A": {"op": "retrieve_entity", "args": ["Wildfire"]},
            "B": {"op": "retrieve_attribute", "args": ["|A|", "size"]},
            "C": {"op": "retrieve_entity", "args": ["State"]},
            "D": {"op": "retrieve_attribute", "args": ["|C|", "name"]},
            "G": {"op": "groupby", "args": ["|D|"]},
            "V": {"op": "average", "args": ["|B|", "|G|"]},
            "L": {"op": "collect", "args": ["|D|", "|V|"]},
            "R": {"op": "return", "args": ["|L|"]},
        },
        "result": "R",
    })


def _filter_plan():
    return plan_from_dict({
        "steps": {
            "A": {"op": "retrieve_entity", "args": ["State"]},
            "B": {"op": "retrieve_attribute", "args": ["|A|", "name"]},
            "F": {"op": "exact", "args": ["|B|", "California"]},
        },
        "result": "F",
    })


def _metric_value_bindings():
    return {"members": _members_plan(), "key_col": "name",
            "metric_col": "average size", "target": "California"}


FILTER_SLOT_TEMPLATE = {
    "version": "sqr_template_v1",
    "id": "filtered_count",
    "slots": {
        "members": {"kind": "access-plan"},
        "cond": {"kind": "filter"},
    },
    "steps": {
        "V": {"op": "retrieve_attribute", "args": ["{members}", "average size"]},
        "C": {"op": "count", "args": ["|V|"]},
        "R": {"op": "return", "args": ["|C|", "{cond}"]},
    },
    "result": "R",
}


def test_builtin_templates_load(templates):
    assert len(templates) == 16
    for t in templates.values():
        assert t.statement is not None
        assert t.description


def test_template_rejects_undeclared_slot():
    with pytest.raises(ParseError, match="undeclared"):
        template_from_dict({
            "version": "sqr_template_v1",
            "id": "t",
            "slots": {},
            "steps": {"R": {"op": "return", "args": ["{members}"]}},
            "result": "R",
        })


def test_template_rejects_bad_version():
    with pytest.raises(ParseError, match="version"):
        template_from_dict({"version": "sqr_template_v2", "steps": {},
                            "result": "R"})


def test_template_rejects_bad_slot_kind():
    with pytest.raises(ParseError, match="kind"):
        template_from_dict({
            "version": "sqr_template_v1",
            "id": "t",
            "slots": {"x": {"kind": "mystery"}},
            "steps": {"R": {"op": "return", "args": ["{x}"]}},
            "result": "R",
        })


def test_fill_requires_all_slots(ring, templates):
    with pytest.raises(UnboundSlotError, match="members"):
        fill_template(ring, templates["cohort_count"], {})


def test_fill_rejects_unknown_binding(ring, templates):
    with pytest.raises(UnboundSlotError, match="no slots"):
        fill_template(ring, templates["cohort_count"],
                      {"members": _members_plan(), "metric_col": "average size",
                       "bogus": 1})


def test_fill_rejects_plan_for_literal_slot(ring, templates):
    bindings = _metric_value_bindings()
    bindings["target"] = _members_plan()
    with pytest.raises(SlotKindMismatchError, match="literal"):
        fill_template(ring, templates["metric_value"], bindings)


def test_fill_rejects_literal_for_plan_slot(ring, templates):
    bindings = _metric_value_bindings()
    bindings["members"] = 7
    with pytest.raises(SlotKindMismatchError, match="plan"):
        fill_template(ring, templates["metric_value"], bindings)


def test_fill_rejects_non_filter_plan_in_filter_slot(ring):
    t = template_from_dict(FILTER_SLOT_TEMPLATE)
    with pytest.raises(SlotKindMismatchError, match="filter"):
        fill_template(ring, t, {"members": _members_plan(),
                                "cond": _members_plan()})


def test_fill_accepts_filter_plan_in_filter_slot(ring):
    t = template_from_dict(FILTER_SLOT_TEMPLATE)
    # the filter compares a column of the same materialization
    cond = plan_from_dict({
        "steps": {
            "V": {"op": "retrieve_attribute", "args": ["{members}",
                                                       "average size"]},
            "F": {"op": "greater_than", "args": ["|V|", 100]},
        },
        "result": "F",
    }, allow_slots=True)
    # wire the filter's {members} to the shared member plan first
    members = _members_plan()
    filled = fill_template(
        ring, t, {"members": members,
                  "cond": compose_plans(cond, [members], {"members": 0})})
    info = analyze_plan(ring, filled)
    assert T.ENTITY in info[filled.result].types


def test_fill_rejects_filter_plan_in_access_slot(ring, templates):
    with pytest.raises(SlotKindMismatchError, match="materialization"):
        fill_template(ring, templates["cohort_count"],
                      {"members": _filter_plan(),
                       "metric_col": "average size"})


def test_slot_column_type_constraint(ring):
    doc = {
        "version": "sqr_template_v1",
        "id": "typed",
        "slots": {"members": {"kind": "access-plan",
                              "types": ["arithmetic"]}},
        "steps": {
            "V": {"op": "retrieve_attribute", "args": ["{members}", "name"]},
            "R": {"op": "return", "args": ["|V|"]},
        },
        "result": "R",
    }
    t = template_from_dict(doc)
    names_only = plan_from_dict({
        "steps": {
            "A": {"op": "retrieve_entity", "args": ["State"]},
            "B": {"op": "retrieve_attribute", "args": ["|A|", "name"]},
            "R": {"op": "return", "args": ["|B|"]},
        },
        "result": "R",
    })
    with pytest.raises(SlotKindMismatchError, match="kind"):
        fill_template(ring, t, {"members": names_only})
    # a member plan carrying an arithmetic column satisfies the constraint
    doc["steps"]["V"]["args"] = ["{members}", "average size"]
    fill_template(ring, template_from_dict(doc), {"members": _members_plan()})


def test_filled_plan_typechecks_and_is_prefixed(ring, templates):
    plan = fill_template(ring, templates["metric_value"],
                         _metric_value_bindings())
    info = analyze_plan(ring, plan)
    assert T.ENTITY in info[plan.result].types
    # part labels carry numeric prefixes; skeleton labels do not
    prefixed = [l for l in plan.steps if l[0].isdigit()]
    assert prefixed
    assert plan.result[0].isalpha()
    # literal slots were substituted in place
    assert plan.steps["F"].args[1] == "California"


def test_identical_part_plans_are_shared(ring, templates):
    plan = fill_template(ring, templates["value_change_target"], {
        "members_a": _members_plan(),
        "members_b": _members_plan(),
        "key_col": "name",
        "metric_col": "average size",
        "val_col": "one value of average size",
        "target": "California",
    })
    prefixes = {l[0] for l in plan.steps if l[0].isdigit()}
    assert len(prefixes) == 1  # identical member plans share one copy


def test_compose_rejects_unwired_placeholder():
    skeleton = plan_from_dict({
        "steps": {"R": {"op": "return", "args": ["{members}"]}},
        "result": "R",
    }, allow_slots=True)
    with pytest.raises(WiringError, match="members"):
        compose_plans(skeleton, [], {})


def test_compose_rejects_out_of_range_wiring():
    skeleton = plan_from_dict({
        "steps": {"R": {"op": "return", "args": ["{members}"]}},
        "result": "R",
    }, allow_slots=True)
    with pytest.raises(WiringError, match="missing part"):
        compose_plans(skeleton, [_members_plan()], {"members": 3})


def test_rank_template_structure(ring, templates):
    plan = fill_template(ring, templates["rank"], _metric_value_bindings())
    info = analyze_plan(ring, plan)
    cols = [c for _, c in info[plan.result].columns]
    assert cols[0].name == "rank average size"
