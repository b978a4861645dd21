import copy
import json

import pytest

from aag import blueprints
from aag.blueprints import (
    build_prompt,
    builtin_templates,
    compile_facts,
    instantiate,
    load_blueprint,
    parse_request,
    render_facts,
)
from aag.compiler import compile_plan, run_plan
from aag.errors import AagError
from aag.plans import Param, plan_to_dict
from aag.types import DatetimeValue

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
    with pytest.raises(AagError, match=r"^unsupported request version: "
                                      r"'report_request_v2'$"):
        parse_request({"version": "report_request_v2"})


def test_parse_request_rejects_missing_fields():
    with pytest.raises(AagError,
                       match=r"^request is missing required field 'metric'$"):
        parse_request({"version": "report_request_v1", "report": "ranking",
                       "entity": "Wildfire"})


def test_parse_request_rejects_bad_aggregation():
    doc = json.loads(load_fixture_request("ranking_california"))
    doc["aggregation"] = "frobnicate"
    with pytest.raises(AagError, match=r"^unsupported aggregation 'frobnicate'$"):
        parse_request(doc)


def test_benchmark_requests_need_a_benchmark():
    doc = json.loads(load_fixture_request("benchmark_california"))
    del doc["benchmark"]
    with pytest.raises(AagError, match=r"^comparative_benchmark requests need "
                                      r"a 'benchmark'$"):
        parse_request(doc)


def test_time_over_time_requests_need_a_full_period():
    doc = json.loads(load_fixture_request("time_over_time_california"))
    del doc["period"]["end"]
    with pytest.raises(AagError,
                       match=r"^time_over_time requests need a full 'period'$"):
        parse_request(doc)


def test_parse_request_rejects_invalid_json():
    with pytest.raises(AagError, match=r"^invalid JSON: Expecting property name"):
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


def test_request_values_enter_plans_as_params(ring, templates):
    request = _request("time_over_time_california")
    for fact in instantiate(ring, load_blueprint(request.report), request,
                            templates):
        args = [a for s in fact.plan.steps.values() for a in s.args]
        params = {a.name: a.value for a in args if isinstance(a, Param)}
        assert params and params.items() <= request.literals().items()
        # a plain literal never compares equal to a Param
        assert not {"California", 2019, 2020} & set(args)


def test_parse_request_reads_each_value_once_as_a_literal():
    doc = json.loads(load_fixture_request("time_over_time_california"))
    req = parse_request(dict(doc, target="2020-01-01", filters=[
        {"attribute": "year", "value": "2019-06-30"}]))
    assert req.target == DatetimeValue("2020-01-01")
    assert req.filters == [{"attribute": "year", "value":
                            DatetimeValue("2019-06-30")}]
    assert (req.period_start, req.period_end) == (2019, 2020)


@pytest.mark.parametrize("change", [
    {"period": {"attribute": "year", "start": {}, "end": 2020}},
    {"period": {"attribute": "year", "start": "{x}", "end": 2020}},
    {"filters": [{"attribute": "year", "value": None}]},
    {"metric": 1}, {"aggregation": []},
    {"cohort": {"entity": "State", "key": 1}},
    {"filters": [{"attribute": 3, "value": 1}]},
    {"period": {"attribute": 7, "start": 2019, "end": 2020}},
])
def test_parse_request_rejects_values_and_names_of_the_wrong_kind(change):
    doc = json.loads(load_fixture_request("time_over_time_california"))
    with pytest.raises(AagError, match=(
            r"^(.* is not a literal: a number, string or bool"
            r"|.* is written as a reference or a slot"
            r"|request names \(of the report, entity, metric, aggregation "
            r"and attributes\) must be strings)$")):
        parse_request(dict(doc, **change))


def test_unknown_report_type():
    with pytest.raises(AagError, match=r"^unknown report type 'gossip'$"):
        load_blueprint("gossip")


def test_instantiation_is_deterministic(ring, templates):
    runs = []
    for _ in range(10):
        _, facts = _facts(ring, "time_over_time_california", templates)
        runs.append("\n".join(
            f"{f.id}\t{json.dumps(plan_to_dict(f.plan))}" for f in facts))
    assert len(set(runs)) == 1


def test_package_data_is_parsed_once_and_never_mutated(ring):
    assert builtin_templates() is builtin_templates()
    assert load_blueprint("ranking") is load_blueprint("ranking")
    templates = copy.deepcopy(builtin_templates())
    for name in ("ranking_california", "benchmark_california",
                 "time_over_time_california"):
        first, second = (_facts(ring, name, None)[1] for _ in range(2))
        assert [plan_to_dict(f.plan) for f in first] == \
            [plan_to_dict(f.plan) for f in second]
    assert builtin_templates() == templates


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
    blueprint, facts = _facts(ring, "ranking_california", templates)
    with pytest.raises(AagError, match=r"^cannot build a prompt from zero facts$"):
        build_prompt(blueprint, facts)  # nothing rendered yet


# ---------------------------------------------------------------------------
# compiled shapes


def _varied_requests(rotation):
    """Requests over every report type, four aggregations and the filter
    operations, with value kinds and equalities a shape tells apart; each
    pair of value rows is one shape, so odd rotations repeat the shapes of
    even ones with other values."""
    values = [("California", 2019, 2020, 10.5), ("Nevada", 2018, 2021, 2.5),
              ("Oregon", 2020, 2020, 0), ("California", 2019, 2019, 7),
              ("Nevada", "2019", 2020, 2.5), ("Oregon", "2020", 2021, 10.5),
              ("California", 2019.0, 2020, 1000), ("Nevada", 2020.0, 2021, 5),
              ("2020-01-01", 2018, 2018.0, 1000), ("2019-06-30", 2019, 2019.0,
                                                   30)]
    for i, (report, aggregation, op) in enumerate(
            (r, a, o) for r in ("ranking", "comparative_benchmark",
                                "time_over_time")
            for a in ("average", "count", "median", "standard_deviation")
            for o in (None, "greater_than", "less_than")):
        target, start, end, threshold = values[2 * (i % 5) + rotation % 2]
        yield {"version": "report_request_v1", "report": report,
               "entity": "Wildfire", "metric": "size",
               "aggregation": aggregation,
               "cohort": {"entity": "State", "key": "name"},
               "target": target, "top_n": 1 + (i + rotation) % 3,
               "benchmark": threshold,
               "filters": [{"attribute": "size", "op": op,
                            "value": threshold}] if op else [],
               "period": {"attribute": "year", "start": start, "end": end}}


def test_bound_shapes_equal_direct_compiles(ring, monkeypatch):
    monkeypatch.setattr(blueprints, "_compiled", type(blueprints._compiled)())
    hits = 0
    for rotation in range(3):
        for doc in _varied_requests(rotation):
            request = parse_request(doc)
            blueprint = load_blueprint(request.report)
            hits += (ring.name, request.shape()) in blueprints._compiled
            got = compile_facts(ring, ring.name, blueprint, request)
            want = instantiate(ring, blueprint, request)
            assert [f.id for f in got] == [f.id for f in want]
            assert [f.statement_inputs for f in got] == \
                [f.statement_inputs for f in want]
            # SQL, parameters and TEMP table names, as compiled uncached
            assert [f.compiled for f in got] == \
                [compile_plan(ring, f.plan) for f in want], doc
    assert hits == 2 * 36


def test_shape_tells_value_kinds_and_equalities_apart():
    doc = next(_varied_requests(0))

    def shape(**change):
        return parse_request(dict(doc, **change)).shape()

    period = {"attribute": "year", "start": 2019, "end": 2020}
    assert shape(target="Nevada", period=dict(period, end=2021)) == shape()
    assert shape(period=dict(period, start="2019")) != shape()
    assert shape(period=dict(period, start=2019.0)) != shape()
    assert shape(period=dict(period, start=2020)) != shape()
    assert shape(target="2020-01-01") != shape()
    assert shape(filters=[{"attribute": "size", "value": "10"}]) != \
        shape(filters=[{"attribute": "size", "value": 10}])
