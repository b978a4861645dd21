import json

import pytest

from aag.blueprints import (
    build_prompt,
    builtin_templates,
    instantiate,
    load_blueprint,
    parse_request,
    render_facts,
)
from aag.compiler import run_plan
from aag.errors import ParseError
from aag.plans import plan_to_dict, serialize_plan
from aag.templates import template_to_dict

from conftest import load_fixture_request


@pytest.fixture(scope="module")
def templates():
    return builtin_templates()


def _request(name):
    return parse_request(json.loads(load_fixture_request(name)))


def _facts(ring, name, templates):
    request = _request(name)
    return load_blueprint(request.report), \
        instantiate(ring, load_blueprint(request.report), request, templates)


def _rendered(ring, db, name, templates):
    blueprint, facts = _facts(ring, name, templates)
    for fact in facts:
        fact.result = run_plan(ring, fact.plan, db)
    return blueprint, render_facts(facts)


# ---------------------------------------------------------------------------
# requests


def test_parse_request_round_trip():
    req = _request("ranking_california")
    assert req.report == "ranking"
    assert req.target == "California"
    assert req.top_n == 2


def test_parse_request_rejects_bad_version():
    with pytest.raises(ParseError, match="version"):
        parse_request({"version": "report_request_v2"})


def test_parse_request_rejects_missing_fields():
    with pytest.raises(ParseError, match="metric"):
        parse_request({"version": "report_request_v1", "report": "ranking",
                       "entity": "Wildfire"})


def test_parse_request_rejects_bad_aggregation():
    doc = json.loads(load_fixture_request("ranking_california"))
    doc["aggregation"] = "frobnicate"
    with pytest.raises(ParseError, match="aggregation"):
        parse_request(doc)


def test_benchmark_requests_need_a_benchmark():
    doc = json.loads(load_fixture_request("benchmark_california"))
    del doc["benchmark"]
    with pytest.raises(ParseError, match="benchmark"):
        parse_request(doc)


def test_time_over_time_requests_need_a_full_period():
    doc = json.loads(load_fixture_request("time_over_time_california"))
    del doc["period"]["end"]
    with pytest.raises(ParseError, match="period"):
        parse_request(doc)


def test_parse_request_rejects_invalid_json():
    with pytest.raises(ParseError, match="JSON"):
        parse_request("{not json")


# ---------------------------------------------------------------------------
# instantiation


@pytest.mark.parametrize("name,count", [
    ("ranking_california", 7),
    ("benchmark_california", 6),
    ("time_over_time_california", 9),
])
def test_requirement_counts(ring, templates, name, count):
    _, facts = _facts(ring, name, templates)
    assert len(facts) == count
    assert len({f.id for f in facts}) == count


def test_unknown_report_type():
    with pytest.raises(ParseError, match="unknown report"):
        load_blueprint("gossip")


def test_instantiation_is_deterministic(ring, templates):
    runs = []
    for _ in range(10):
        _, facts = _facts(ring, "time_over_time_california", templates)
        runs.append("\n".join(
            f"{f.id}\t{serialize_plan(f.plan)}" for f in facts))
    assert len(set(runs)) == 1


def test_package_data_is_parsed_once_and_never_mutated(ring):
    assert builtin_templates() is builtin_templates()
    assert load_blueprint("ranking") is load_blueprint("ranking")
    templates = {k: template_to_dict(t)
                 for k, t in builtin_templates().items()}
    for name in ("ranking_california", "benchmark_california",
                 "time_over_time_california"):
        first, second = (_facts(ring, name, None)[1] for _ in range(2))
        assert [plan_to_dict(f.plan) for f in first] == \
            [plan_to_dict(f.plan) for f in second]
    assert {k: template_to_dict(t)
            for k, t in builtin_templates().items()} == templates


def test_all_facts_render(ring, ring_db, templates):
    ring, db = ring_db
    for name in ("ranking_california", "benchmark_california",
                 "time_over_time_california"):
        _, facts = _rendered(ring, db, name, templates)
        for f in facts:
            assert f.text and f.text.endswith(".")


def test_ranking_statements(ring_db, templates):
    ring, db = ring_db
    _, facts = _rendered(ring, db, "ranking_california", templates)
    texts = [f.text for f in facts]
    assert texts[0] == \
        "The average wildfire size for California was 200.0 acres."
    assert "ranked number 1" in texts[2]
    assert "California and Nevada" in texts[3]


def test_benchmark_statements(ring_db, templates):
    ring, db = ring_db
    _, facts = _rendered(ring, db, "benchmark_california", templates)
    joined = "\n".join(f.text for f in facts)
    assert "180" in joined
    assert "median" in joined


def test_time_over_time_statements(ring_db, templates):
    ring, db = ring_db
    _, facts = _rendered(ring, db, "time_over_time_california", templates)
    joined = "\n".join(f.text for f in facts)
    assert "-50.0%" in joined  # California 300 -> 150
    assert "-60.0%" in joined  # cohort average 250 -> 100
    assert "outpaced" in joined


# ---------------------------------------------------------------------------
# prompts


def test_build_prompt_numbers_facts(ring_db, templates):
    ring, db = ring_db
    blueprint, facts = _rendered(ring, db, "ranking_california", templates)
    prompt = build_prompt(blueprint, facts)
    assert "Use only the facts provided." in prompt
    assert "Facts:\n" in prompt
    for i, fact in enumerate(facts, start=1):
        assert f"{i}. {fact.text}" in prompt


def test_build_prompt_requires_facts(ring, templates):
    from aag.errors import EmptyFactsError

    blueprint, facts = _facts(ring, "ranking_california", templates)
    with pytest.raises(EmptyFactsError):
        build_prompt(blueprint, facts)  # nothing rendered yet
