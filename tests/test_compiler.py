import json
import math
import random
import re
import sqlite3
from contextlib import closing

import pytest

from aag.blueprints import (
    build_member_plan,
    builtin_templates,
    instantiate,
    load_blueprint,
    parse_request,
)
from aag.compiler import compile_plan, connect, execute, run_plan
from aag.errors import DbError, NoRelationshipError
from aag.oracle import MemoryDataset, oracle_eval
from aag.plans import parse_plan
from aag.registry import DERIVATION_AGGREGATIONS
from aag.templates import fill_template

from conftest import load_fixture_plan, load_fixture_request


def _plan(doc):
    return parse_plan(doc)


def _steps(extra, result):
    steps = {
        "A": {"op": "retrieve_entity", "args": ["Wildfire"]},
        "B": {"op": "retrieve_attribute", "args": ["|A|", "size"]},
    }
    steps.update(extra)
    return _plan({"steps": steps, "result": result})


def assert_matches_oracle(ring, db_path, dataset, plan):
    got = run_plan(ring, plan, db_path)
    want = oracle_eval(ring, plan, dataset)
    assert [c.name for c in got.columns] == [c.name for c in want.columns]
    assert len(got.rows) == len(want.rows)
    for g, w in zip(got.rows, want.rows):
        for gv, wv in zip(g, w):
            if isinstance(wv, float):
                assert gv == pytest.approx(wv, rel=1e-9)
            else:
                assert gv == wv


def test_grouped_average_results(ring_db):
    ring, db = ring_db
    rs = run_plan(ring, load_fixture_plan("average_size_by_state_2020"), db)
    assert rs.rows == [("California", 150.0), ("Nevada", 50.0)]


def test_sql_is_fully_parameterized(ring):
    compiled = compile_plan(ring, load_fixture_plan("average_size_by_state_2020"))
    assert "2020" not in compiled.sql
    assert 2020 in compiled.params
    assert "?" in compiled.sql


def test_compilation_is_deterministic(ring):
    plans = [load_fixture_plan("average_size_by_state_2020")
             for _ in range(3)]
    compiled = [compile_plan(ring, p) for p in plans]
    assert len({c.sql for c in compiled}) == 1
    assert len({tuple(c.params) for c in compiled}) == 1


def test_decompose_counts(ring):
    cases = [
        ("average_size_by_state_2020", 1),
        ("max_of_state_averages", 2),
        ("all_sizes", 1),
    ]
    for name, want in cases:
        assert len(compile_plan(ring, load_fixture_plan(name)).subplans) == want, name

    assert len(compile_plan(ring, _rank_plan()).subplans) == 3


def _rank_plan(sort_col="size"):
    # ranks are computed over a materialized row set, as in a member plan
    return _steps({
        "C": {"op": "retrieve_attribute", "args": ["|A|", "year"]},
        "L": {"op": "collect", "args": ["|B|", "|C|"]},
        "M": {"op": "return", "args": ["|L|"]},
        "V": {"op": "retrieve_attribute", "args": ["|M|", sort_col]},
        "Y": {"op": "retrieve_attribute",
              "args": ["|M|", "year" if sort_col == "size" else "size"]},
        "S": {"op": "sort", "args": ["|V|", "desc"]},
        "W": {"op": "row_number", "args": ["|S|"]},
        "L2": {"op": "collect", "args": ["|V|", "|Y|", "|W|"]},
        "R": {"op": "return", "args": ["|L2|"]},
    }, "R")


def test_window_rank_deterministic_tiebreak(ring_db, dataset):
    ring, db = ring_db
    # sorting by year produces ties; the remaining columns break them
    assert_matches_oracle(ring, db, dataset, _rank_plan(sort_col="year"))
    assert_matches_oracle(ring, db, dataset, _rank_plan(sort_col="size"))


def test_scalar_subquery_reads(ring_db, dataset):
    ring, db = ring_db
    assert_matches_oracle(ring, db, dataset,
                          load_fixture_plan("max_of_state_averages"))


def test_median_and_string_agg_share_filter(ring_db, dataset):
    ring, db = ring_db
    plan = _steps({
        "C": {"op": "retrieve_attribute", "args": ["|A|", "year"]},
        "F": {"op": "exact", "args": ["|C|", 2019]},
        "M": {"op": "median", "args": ["|B|"]},
        "J": {"op": "string_agg", "args": ["|B|"]},
        "L": {"op": "collect", "args": ["|M|", "|J|"]},
        "R": {"op": "return", "args": ["|L|", "|F|"]},
    }, "R")
    rs = run_plan(ring, plan, db)
    assert rs.rows == [(250.0, "150.0, 250.0, 300.0")]
    assert_matches_oracle(ring, db, dataset, plan)


def test_grouped_median_matches_oracle(ring_db, dataset):
    ring, db = ring_db
    plan = _steps({
        "C": {"op": "retrieve_entity", "args": ["State"]},
        "D": {"op": "retrieve_attribute", "args": ["|C|", "name"]},
        "G": {"op": "groupby", "args": ["|D|"]},
        "V": {"op": "median", "args": ["|B|", "|G|"]},
        "J": {"op": "string_agg", "args": ["|B|", "|G|"]},
        "L": {"op": "collect", "args": ["|D|", "|V|", "|J|"]},
        "R": {"op": "return", "args": ["|L|"]},
    }, "R")
    rs = run_plan(ring, plan, db)
    assert rs.rows == [("California", 200.0, "100.0, 200.0, 300.0"),
                       ("Nevada", 150.0, "50.0, 150.0, 250.0")]
    assert_matches_oracle(ring, db, dataset, plan)


def _collect(columns, *extra, **exprs):
    """Steps computing each named expression per fire, then returning the
    space-separated ``columns`` (plus ``extra`` return arguments) as ``R``."""
    steps = {"Y": {"op": "retrieve_attribute", "args": ["|A|", "year"]}}
    steps.update({k: {"op": op, "args": args}
                  for k, (op, args) in exprs.items()})
    steps["L"] = {"op": "collect",
                  "args": [f"|{k}|" for k in columns.split()]}
    steps["R"] = {"op": "return", "args": ["|L|", *extra]}
    return steps


# Plans whose SQL and oracle results must agree: variadic arithmetic,
# aggregations of computed inputs, and the rules listed in constants.py.
# Each maps to its expected rows, or None where agreement is the check. The
# last step is the plan's result.
ORACLE_CASES = {
    "add_variadic": (_collect("V", V=("add", ["|B|", 1000, 1000000])), None),
    "subtract_multiply_variadic": (_collect(
        "V W", V=("subtract", ["|B|", 1, 2]), W=("multiply", ["|B|", 2, 3])),
        None),
    "divide_variadic": (_collect("V", V=("divide", ["|B|", 2, 5])),
                        [(5.0,), (10.0,), (15.0,), (20.0,), (25.0,), (30.0,)]),
    "divide_variadic_by_zero": (_collect("V", V=("divide", ["|B|", 2, 0])),
                                [(None,)] * 6),
    "correlation_of_computed_inputs": (_collect(
        "V", X=("multiply", ["|B|", 2]), Z=("add", ["|B|", 1]),
        V=("correlation", ["|X|", "|Z|"])), None),
    "median_even_length": (_collect("V", V=("median", ["|B|"])), [(175.0,)]),
    "get_one_is_ascending_first": (_collect("V", V=("get_one", ["|B|"])),
                                   [(50.0,)]),
    "aggregates_skip_nulls": (_collect(
        "V1 V2 V3", Z=("subtract", ["|Y|", 2020]),
        N=("divide", ["|B|", "|Z|"]), V1=("median", ["|N|"]),
        V2=("count", ["|N|"]), V3=("string_agg", ["|N|"])),
        [(-250.0, 3, "-300.0, -250.0, -150.0")]),
    "null_comparison_is_false": (_collect(
        "K", "|F|", N=("divide", ["|B|", 0]), F=("less_than", ["|N|", 1]),
        K=("count", ["|B|"])), [(0,)]),
    "not_of_null_comparison_is_true": (_collect(
        "K", "|F|", N=("divide", ["|B|", 0]), C=("less_than", ["|N|", 1]),
        F=("not", ["|C|"]), K=("count", ["|B|"])), [(6,)]),
    "sort_ties_break_on_remaining_columns_ascending": (_collect(
        "B Y", "|S|", S=("sort", ["|Y|", "desc"])),
        [(50.0, 2020), (100.0, 2020), (200.0, 2020),
         (150.0, 2019), (250.0, 2019), (300.0, 2019)]),
    "default_order_is_all_columns_ascending": (_collect("Y B"),
        [(2019, 150.0), (2019, 250.0), (2019, 300.0),
         (2020, 50.0), (2020, 100.0), (2020, 200.0)]),
    "percent_change_scale": (_collect(
        "V", V=("percent_change", ["|B|", 300])),
        [(0.0,), (20.0,), (50.0,), (100.0,), (200.0,), (500.0,)]),
    "duration_in_whole_seconds": ({
        "P": {"op": "duration", "args": ["2020-01-01",
                                         "2020-01-02T01:00:00.6"]},
        "R": {"op": "return", "args": ["|P|"]},
    }, [(90001,)]),
    "result_without_terminal_return": (
        {"V": {"op": "average", "args": ["|B|"]}}, [(175.0,)]),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_plan_matches_oracle(ring_db, dataset, case):
    ring, db = ring_db
    steps, want = ORACLE_CASES[case]
    plan = _steps(steps, list(steps)[-1])
    assert_matches_oracle(ring, db, dataset, plan)
    if want is not None:
        assert run_plan(ring, plan, db).rows == want


def test_stddev_matches_oracle(ring_db, dataset):
    ring, db = ring_db
    plan = _steps({
        "V": {"op": "standard_deviation", "args": ["|B|"]},
        "R": {"op": "return", "args": ["|V|"]},
    }, "R")
    rs = run_plan(ring, plan, db)
    sizes = [100, 200, 300, 50, 150, 250]
    mean = sum(sizes) / 6
    want = math.sqrt(sum((s - mean) ** 2 for s in sizes) / 6)
    assert rs.rows[0][0] == pytest.approx(want, rel=1e-9)
    assert_matches_oracle(ring, db, dataset, plan)


def test_percent_change_zero_base_is_null(ring_db):
    ring, db = ring_db
    plan = _plan({
        "steps": {
            "P": {"op": "percent_change", "args": [0, 100]},
            "R": {"op": "return", "args": ["|P|"]},
        },
        "result": "R",
    })
    assert run_plan(ring, plan, db).rows == [(None,)]


def test_unrelated_entities_are_rejected(ring):
    # two copies of the same entity join fine; an entity with no
    # relationship to the rest cannot be compiled
    from aag.compiler import resolve_joins

    with pytest.raises(NoRelationshipError):
        resolve_joins(ring, ["Wildfire", "Missing"])


def test_bad_database_raises_db_error(ring, tmp_path):
    plan = load_fixture_plan("all_sizes")
    with pytest.raises(DbError):
        run_plan(ring, plan, tmp_path / "empty.db")


def test_all_blueprint_plans_match_oracle(ring_db, dataset):
    ring, db = ring_db
    templates = builtin_templates()
    total = 0
    for name in ("ranking_california", "benchmark_california",
                 "time_over_time_california"):
        request = parse_request(json.loads(load_fixture_request(name)))
        blueprint = load_blueprint(request.report)
        for fact in instantiate(ring, blueprint, request, templates):
            assert_matches_oracle(ring, db, dataset, fact.plan)
            total += 1
    assert total == 7 + 6 + 9


# ---------------------------------------------------------------------------
# shared materializations


def _fixture_facts(ring, name):
    request = parse_request(json.loads(load_fixture_request(name)))
    return instantiate(ring, load_blueprint(request.report), request)


def _table_names(ring, plan):
    return [name for name, _, _ in compile_plan(ring, plan).materializations]


def _ranking_members(ring, filters=None):
    request = parse_request(json.loads(load_fixture_request(
        "ranking_california")))
    return build_member_plan(ring, request, filters)


def _compose(ring, template_id, members):
    return fill_template(ring, builtin_templates()[template_id], {
        "members": members, "key_col": "name", "metric_col": "average size",
        "target": "California"})


def test_members_table_is_named_by_content_not_labels(ring):
    members = _ranking_members(ring)
    value = _compose(ring, "metric_value", members)
    rank = _compose(ring, "rank", members)
    # composition prefixes the members' labels differently in each plan
    assert set(value.steps) != set(rank.steps)
    assert _table_names(ring, value) == _table_names(ring, rank)
    [(name, sql, params)] = compile_plan(ring, value).materializations
    assert re.fullmatch(r"m_[0-9a-f]{16}", name)
    assert sql.startswith("SELECT") and params == []


def test_table_names_differ_by_period(ring):
    facts = {f.id: f for f in _fixture_facts(ring,
                                             "time_over_time_california")}
    start = _table_names(ring, facts["target_value_start"].plan)
    end = _table_names(ring, facts["target_value_end"].plan)
    assert len(start) == len(end) == 1 and start != end


def test_table_names_differ_by_literal_type(ring):
    names = [
        _table_names(ring, _compose(ring, "metric_value", _ranking_members(
            ring, [{"attribute": "year", "op": "exact", "value": year}])))
        for year in (2019, "2019")]
    assert len(names[0]) == 1 and names[0] != names[1]


@pytest.mark.parametrize("name, tables", [
    ("benchmark_california", 3),
    ("ranking_california", 4),
    ("time_over_time_california", 6),
])
def test_one_connection_per_report_matches_one_per_fact(ring_db, name,
                                                       tables):
    ring, db = ring_db
    facts = _fixture_facts(ring, name)
    with closing(connect(db)) as conn:
        shared = [execute(compile_plan(ring, f.plan), conn).rows
                  for f in facts]
        built = conn.execute(
            "SELECT COUNT(*) FROM sqlite_temp_master WHERE type = 'table'"
        ).fetchone()[0]
    assert shared == [run_plan(ring, f.plan, db).rows for f in facts]
    assert built == tables


def test_failed_materialization_names_its_statement(ring_db, tmp_path):
    ring, db = ring_db
    facts = _fixture_facts(ring, "ranking_california")
    compiled = compile_plan(ring, facts[0].plan)
    empty = tmp_path / "empty.db"
    sqlite3.connect(empty).close()
    [(name, _, _)] = compiled.materializations
    with closing(connect(empty)) as conn, \
            pytest.raises(DbError, match="no such table") as err:
        execute(compiled, conn)
    assert err.value.sql.startswith(f"CREATE TEMP TABLE IF NOT EXISTS {name}")


# ---------------------------------------------------------------------------
# eager aggregation: the fact table grouped by its join key before the join

_PREAGGREGATED = 'GROUP BY "wildfires"."state_id") AS "wildfires"'
_FIXTURE_REQUESTS = ("ranking_california", "benchmark_california",
                     "time_over_time_california")


@pytest.fixture(scope="module")
def nullable_db(tmp_path_factory):
    """A seeded database with NULLs, its oracle dataset beside it: two
    states share a name, Utah has no fires, Idaho's fires have no size, and
    some other fires have no size or no state."""
    rng = random.Random(3)
    states = [(1, "California"), (2, "Nevada"), (3, "Oregon"),
              (4, "Nevada"), (5, "Utah"), (6, "Idaho")]
    fires = [(i, rng.choice([1, 1, 2, 3, 4, None]),
              None if rng.random() < 0.15 else round(rng.uniform(0, 500), 1),
              rng.choice([2018, 2019, 2020])) for i in range(1, 121)]
    fires += [(121, 6, None, 2019), (122, 6, None, 2020)]
    path = tmp_path_factory.mktemp("nullable") / "wildfire.db"
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript(
            "CREATE TABLE states (id INTEGER PRIMARY KEY, name TEXT);"
            "CREATE TABLE wildfires (id INTEGER PRIMARY KEY, state_id "
            "INTEGER, size_acres REAL, year INTEGER);")
        conn.executemany("INSERT INTO states VALUES (?, ?)", states)
        conn.executemany("INSERT INTO wildfires VALUES (?, ?, ?, ?)", fires)
        conn.commit()
    dataset = MemoryDataset(tables={
        "states": [dict(zip(("id", "name"), r)) for r in states],
        "wildfires": [dict(zip(("id", "state_id", "size_acres", "year"), r))
                      for r in fires]})
    return path, dataset


def test_preaggregation_matches_oracle_with_nulls(ring, nullable_db):
    db, dataset = nullable_db
    forms = []
    for name in _FIXTURE_REQUESTS:
        doc = json.loads(load_fixture_request(name))
        for aggregation in DERIVATION_AGGREGATIONS:
            for filters in ([], [{"attribute": "size",
                                  "op": "greater_than", "value": 100}]):
                request = parse_request(dict(doc, aggregation=aggregation,
                                             filters=filters))
                for fact in instantiate(ring, load_blueprint(request.report),
                                        request):
                    assert_matches_oracle(ring, db, dataset, fact.plan)
                    forms.append(any(
                        _PREAGGREGATED in sql for _, sql, _ in
                        compile_plan(ring, fact.plan).materializations))
    assert len(forms) == 8 * 2 * 22 and any(forms) and not all(forms)


@pytest.mark.parametrize("state", ["Utah", "Idaho", "Nevada"])
def test_preaggregation_of_one_state_matches_oracle(ring, nullable_db,
                                                    state):
    db, dataset = nullable_db
    for aggregation in DERIVATION_AGGREGATIONS:
        plan = _steps({
            "C": {"op": "retrieve_entity", "args": ["State"]},
            "D": {"op": "retrieve_attribute", "args": ["|C|", "name"]},
            "F": {"op": "exact", "args": ["|D|", state]},
            "V": {"op": aggregation, "args": ["|B|"]},
            "R": {"op": "return", "args": ["|V|", "|F|"]},
        }, "R")
        assert_matches_oracle(ring, db, dataset, plan)


def _members_sql(ring, aggregation, filters=None):
    doc = json.loads(load_fixture_request("ranking_california"))
    request = parse_request(dict(doc, aggregation=aggregation))
    return compile_plan(ring, build_member_plan(ring, request, filters)).sql


@pytest.mark.parametrize("aggregation", [
    "average", "count", "max", "min", "standard_deviation", "sum"])
def test_decomposable_members_are_preaggregated(ring, aggregation):
    sql = _members_sql(ring, aggregation, [
        {"attribute": "year", "op": "exact", "value": 2020}])
    assert sql.count(_PREAGGREGATED) == 1
    # the fact-only filter moves inside; the join condition stays outside
    assert '("wildfires"."year" = ?1)\nGROUP BY' in sql
    assert 'AS "wildfires", "states"\nWHERE "wildfires"."state_id" = ' \
        '"states"."id"\nGROUP BY "states"."name"' in sql


def _by_state(op, *args, **filter_steps):
    """``op`` over fires per state name, or over the fires of Nevada when
    ``op`` takes no grouping; ``filter_steps`` end in the filter ``F``."""
    steps = {
        "Y": {"op": "retrieve_attribute", "args": ["|A|", "year"]},
        "C": {"op": "retrieve_entity", "args": ["State"]},
        "D": {"op": "retrieve_attribute", "args": ["|C|", "name"]},
        "G": {"op": "groupby", "args": ["|D|"]},
        "V": {"op": op, "args": [*args, "|G|"]},
        "L": {"op": "collect", "args": ["|D|", "|V|"]},
        "R": {"op": "return", "args": ["|L|"]},
        **filter_steps,
    }
    if op == "correlation":  # the oracle correlates ungrouped inputs only
        steps["V"]["args"].pop()
        steps["L"]["args"] = ["|V|"]
        steps["F"] = {"op": "exact", "args": ["|D|", "Nevada"]}
    if "F" in steps:
        steps["R"]["args"].append("|F|")
    return _steps(steps, "R")


def test_get_one_is_preaggregated(ring_db, dataset):
    ring, db = ring_db
    plan = _by_state("get_one", "|B|")
    assert _PREAGGREGATED in compile_plan(ring, plan).sql
    assert_matches_oracle(ring, db, dataset, plan)


@pytest.mark.parametrize("op, args, filter_steps", [
    ("count_unique", ["|B|"], {}),
    ("median", ["|B|"], {}),
    ("string_agg", ["|B|"], {}),
    ("correlation", ["|B|", "|Y|"], {}),
    ("sum", ["|B|"], {  # one conjunct reads both tables
        "F1": {"op": "exact", "args": ["|Y|", 2019]},
        "F2": {"op": "exact", "args": ["|D|", "Nevada"]},
        "F": {"op": "or", "args": ["|F1|", "|F2|"]}}),
], ids=["count_unique", "median", "string_agg", "correlation",
        "mixed_conjunct"])
def test_other_regions_keep_one_grouping_level(ring_db, dataset, op, args,
                                               filter_steps):
    ring, db = ring_db
    plan = _by_state(op, *args, **filter_steps)
    sql = compile_plan(ring, plan).sql
    assert 'FROM "wildfires", "states"' in sql and "aag_p" not in sql
    assert_matches_oracle(ring, db, dataset, plan)
