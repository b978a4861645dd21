import json
import math
import random
import re
import shutil
import sqlite3
import sys
import tempfile
import threading
import time
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aag import compiler
from aag.blueprints import (
    build_member_plan,
    builtin_templates,
    instantiate,
    load_blueprint,
    parse_request,
)
from aag.compiler import compile_plan, connect, execute, run_plan
from aag.errors import AagError, DbError
from aag.oracle import MemoryDataset, oracle_eval
from aag.plans import Param, SqrStep, StepRef, parse_plan
from aag.registry import DERIVATION_AGGREGATIONS, REGISTRY
from aag.ring import load_ring
from aag.templates import fill_template

from conftest import (FIRES, RING_PATH, load_fixture_plan, load_fixture_request,
                      write_db)


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
    _assert_agrees(run_plan(ring, plan, db_path),
                   oracle_eval(ring, plan, dataset))


def _assert_agrees(got, want):
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


def _ran(compiled, db) -> list[tuple[str, list]]:
    """The statements ``execute`` runs for ``compiled`` on a new connection
    to ``db``, with their parameters."""
    statements = []
    with closing(connect(db)) as conn:
        execute(compiled, conn, lambda *ran: statements.append(ran))
    return statements


def test_sql_is_fully_parameterized(ring_db):
    ring, db = ring_db
    statements = _ran(compile_plan(
        ring, load_fixture_plan("average_size_by_state_2020")), db)
    assert not any("2020" in sql for sql, _ in statements)
    [sql] = [sql for sql, params in statements if 2020 in params]
    assert "?" in sql


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
    "correlation_of_a_constant_input_is_null": (_collect(
        "V", "|F|", F=("exact", ["|Y|", 2020]),
        V=("correlation", ["|B|", "|Y|"])), [(None,)]),
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
    # average(square_root(size - 150)) by state: a fire under 150 acres
    # gives NULL, which the average skips
    "square_root_of_a_negative_is_null": (_collect(
        "D V", C=("retrieve_entity", ["State"]),
        D=("retrieve_attribute", ["|C|", "name"]), G=("groupby", ["|D|"]),
        S=("subtract", ["|B|", 150]), Q=("square_root", ["|S|"]),
        V=("average", ["|Q|", "|G|"])),
        [("California", (50 ** 0.5 + 150 ** 0.5) / 2), ("Nevada", 5.0)]),
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


def test_every_aggregation_has_one_row_in_the_compiler_table():
    assert set(compiler._AGGS) == {op for op, sig in REGISTRY.items()
                                   if sig.is_aggregation}


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


# correlation(size, year) per state: exactly -sqrt(3)/2 in both states
GROUPED_CORRELATION = _collect(
    "D V", C=("retrieve_entity", ["State"]),
    D=("retrieve_attribute", ["|C|", "name"]), G=("groupby", ["|D|"]),
    V=("correlation", ["|B|", "|Y|", "|G|"]))


def test_oracle_correlates_each_group(ring, dataset):
    rs = oracle_eval(ring, _steps(GROUPED_CORRELATION, "R"), dataset)
    want = pytest.approx(-math.sqrt(3) / 2, rel=1e-12)
    assert rs.rows == [("California", want), ("Nevada", want)]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the compiled correlation's moment formula, AVG(x*y) - AVG(x)*AVG(y), "
    "cancels digits on years near 2020: California reads -0.8660254051, "
    "off by 1.5e-9 relative (ROADMAP item 1)"))
def test_grouped_correlation_matches_oracle(ring_db, dataset):
    ring, db = ring_db
    assert_matches_oracle(ring, db, dataset,
                          _steps(GROUPED_CORRELATION, "R"))


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

    with pytest.raises(AagError, match=r"^no relationship connects \['Missing'\] "
                                         r"to \['Wildfire'\]$"):
        resolve_joins(ring, ["Wildfire", "Missing"])


def test_bad_database_raises_db_error(ring, tmp_path):
    plan = load_fixture_plan("all_sizes")
    with pytest.raises(DbError):
        run_plan(ring, plan, tmp_path / "empty.db")


def test_all_blueprint_plans_match_oracle(ring_db, dataset):
    ring, db = ring_db
    total = 0
    for name in ("ranking_california", "benchmark_california",
                 "time_over_time_california"):
        request = parse_request(json.loads(load_fixture_request(name)))
        blueprint = load_blueprint(request.report)
        for fact in instantiate(ring, blueprint, request):
            assert_matches_oracle(ring, db, dataset, fact.plan)
            total += 1
    assert total == 7 + 6 + 9


# ---------------------------------------------------------------------------
# shared materializations


def _fixture_facts(ring, name):
    request = parse_request(json.loads(load_fixture_request(name)))
    return instantiate(ring, load_blueprint(request.report), request)


def _table_names(ring, plan):
    return [name for name, *_ in compile_plan(ring, plan).materializations]


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
    [(partial, _, _, _), (name, sql, params, blocks)] = compile_plan(
        ring, value).materializations
    assert re.fullmatch(r"p_[0-9a-f]{16}", partial)
    assert re.fullmatch(r"m_[0-9a-f]{16}", name)
    assert sql.startswith("SELECT") and params == [] and blocks is None


def test_table_names_differ_by_period(ring):
    facts = {f.id: f for f in _fixture_facts(ring,
                                             "time_over_time_california")}
    start = _table_names(ring, facts["target_value_start"].plan)
    end = _table_names(ring, facts["target_value_end"].plan)
    assert len(start) == len(end) == 2 and not set(start) & set(end)


def test_table_names_differ_by_literal_type(ring):
    names = [
        _table_names(ring, _compose(ring, "metric_value", _ranking_members(
            ring, [{"attribute": "year", "op": "exact", "value": year}])))
        for year in (2019, "2019")]
    assert len(names[0]) == 2 and not set(names[0]) & set(names[1])


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
            "SELECT substr(name, 1, 2), COUNT(*) FROM sqlite_temp_master "
            "WHERE type = 'table' GROUP BY 1 ORDER BY 1").fetchall()
    assert shared == [run_plan(ring, f.plan, db).rows for f in facts]
    # one partial table per members statement: two periods in time over time
    partials = 2 if name.startswith("time") else 1
    assert built == [("m_", tables), ("p_", partials)]


def test_failed_materialization_names_its_statement(ring_db, tmp_path):
    ring, db = ring_db
    facts = _fixture_facts(ring, "ranking_california")
    compiled = compile_plan(ring, facts[0].plan)
    empty = tmp_path / "empty.db"
    sqlite3.connect(empty).close()
    (name, *_), _ = compiled.materializations
    with closing(connect(empty)) as conn, \
            pytest.raises(DbError, match="no such table") as err:
        execute(compiled, conn)
    assert err.value.sql.startswith(f"CREATE TEMP TABLE IF NOT EXISTS {name}")


# ---------------------------------------------------------------------------
# eager aggregation: the fact table grouped by its join key before the join

def _grouped_partials(compiled) -> list[str]:
    """The partial tables of ``compiled`` that group the fires by their join
    column and that a statement joins under the fires' name."""
    texts = [sql for _, sql, *_ in compiled.materializations] + [compiled.sql]
    return [name for name, sql, _, _ in compiled.materializations
            if sql.startswith('SELECT "wildfires"."state_id" AS "state_id", ')
            and sql.endswith('\nGROUP BY "wildfires"."state_id"')
            and any(f'FROM {name} AS "wildfires", "states"\n' in t
                    for t in texts)]


def _preaggregated(compiled) -> list[str]:
    """The grouped partial tables of ``compiled`` built in rowid blocks
    when the fires span enough of them."""
    blocks = {name for name, _, _, b in compiled.materializations if b}
    return [n for n in _grouped_partials(compiled) if n in blocks]


_FIXTURE_REQUESTS = ("ranking_california", "benchmark_california",
                     "time_over_time_california")


@pytest.fixture(scope="module")
def gapped_db(tmp_path_factory, nullable_db):
    """The nullable database with rowid gaps: its oldest fires deleted, as
    a loader that drops the oldest rows leaves it, and a later block."""
    _, dataset = nullable_db
    path = write_db(tmp_path_factory.mktemp("gapped") / "wildfire.db",
                    dataset, after="DELETE FROM wildfires WHERE id <= 40 "
                    "OR id BETWEEN 66 AND 96")
    fires = [r for r in dataset.tables["wildfires"]
             if 40 < r["id"] < 66 or r["id"] > 96]
    return path, MemoryDataset(tables=dict(dataset.tables, wildfires=fires))


def _blueprint_plans_match_oracle(ring, db, dataset) -> list[list[str]]:
    """Check every fact of each fixture request type, aggregation and size
    filter on ``db``; return the partial tables each reads."""
    partials = []
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
                    partials.append(_preaggregated(
                        compile_plan(ring, fact.plan)))
    assert len(partials) == 8 * 2 * 22 and any(partials)
    assert not all(partials)
    return partials


def test_preaggregation_matches_oracle_with_nulls(ring, nullable_db):
    _blueprint_plans_match_oracle(ring, *nullable_db)


@pytest.mark.parametrize("gaps", [False, True], ids=["dense", "gapped"])
@pytest.mark.parametrize("k", [2, 3])
def test_partials_built_in_ranges_match_oracle_with_nulls(
        ring, nullable_db, gapped_db, split, opened, monkeypatch, k, gaps):
    # blocks of 4 rowids: every filter keeps a fire among the first block's,
    # so it is estimated to keep enough rows to be built in blocks
    split(k, block_rows=4)
    # every plan's TEMP tables fit on the one kept connection
    monkeypatch.setattr(compiler, "MAX_TEMP_TABLES", 10_000)
    partials = _blueprint_plans_match_oracle(
        ring, *(gapped_db if gaps else nullable_db))
    # one connection for every plan, and k - 1 helpers for each partial
    # table: a plan reads the ones earlier plans built, as the database has
    # not changed
    built = {name for names in partials for name in names}
    assert len(opened[0]) == 1 + (k - 1) * len(built)


def _one_state_matches_oracle(ring, db, dataset, state):
    for aggregation in DERIVATION_AGGREGATIONS:
        plan = _steps({
            "C": {"op": "retrieve_entity", "args": ["State"]},
            "D": {"op": "retrieve_attribute", "args": ["|C|", "name"]},
            "F": {"op": "exact", "args": ["|D|", state]},
            "V": {"op": aggregation, "args": ["|B|"]},
            "R": {"op": "return", "args": ["|V|", "|F|"]},
        }, "R")
        assert_matches_oracle(ring, db, dataset, plan)


@pytest.mark.parametrize("state", ["Utah", "Idaho", "Nevada"])
def test_preaggregation_of_one_state_matches_oracle(ring, nullable_db,
                                                    state):
    _one_state_matches_oracle(ring, *nullable_db, state)


@pytest.mark.parametrize("gaps", [False, True], ids=["dense", "gapped"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("state", ["Utah", "Idaho", "Nevada"])
def test_one_state_from_partials_built_in_ranges_matches_oracle(
        ring, nullable_db, gapped_db, split, state, k, gaps):
    split(k)
    _one_state_matches_oracle(ring, *(gapped_db if gaps else nullable_db),
                              state)


def _members(ring, aggregation, filters=None):
    doc = json.loads(load_fixture_request("ranking_california"))
    request = parse_request(dict(doc, aggregation=aggregation))
    return compile_plan(ring, build_member_plan(ring, request, filters))


@pytest.mark.parametrize("aggregation", [
    "average", "count", "max", "min", "standard_deviation", "sum"])
def test_decomposable_members_are_preaggregated(ring, aggregation):
    compiled = _members(ring, aggregation, [
        {"attribute": "year", "op": "exact", "value": 2020}])
    [name] = _preaggregated(compiled)
    [(_, partial, params, _)] = compiled.materializations
    # the fact-only filter moves inside; the join condition stays outside
    assert '\nWHERE ("wildfires"."year" = ?1)\nGROUP BY' in partial
    assert params == [2020] and compiled.params == []
    assert f'FROM {name} AS "wildfires", "states"\nWHERE ' \
        '"wildfires"."state_id" = "states"."id"\nGROUP BY "states"."name"' \
        in compiled.sql


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
    assert len(_preaggregated(compile_plan(ring, plan))) == 1
    assert_matches_oracle(ring, db, dataset, plan)


@pytest.mark.parametrize("op, args, filter_steps", [
    ("correlation", ["|B|", "|Y|"], {}),
    ("sum", ["|B|"], {  # one conjunct reads both tables
        "F1": {"op": "exact", "args": ["|Y|", 2019]},
        "F2": {"op": "exact", "args": ["|D|", "Nevada"]},
        "F": {"op": "or", "args": ["|F1|", "|F2|"]}}),
], ids=["correlation", "mixed_conjunct"])
def test_other_regions_keep_one_grouping_level(ring_db, dataset, op, args,
                                               filter_steps):
    ring, db = ring_db
    plan = _by_state(op, *args, **filter_steps)
    sql = compile_plan(ring, plan).sql
    assert 'FROM "wildfires", "states"' in sql and "aag_p" not in sql
    assert_matches_oracle(ring, db, dataset, plan)


_HOLISTIC = ("count_unique", "median", "string_agg")
_YEAR_2019 = {"F": {"op": "exact", "args": ["|Y|", 2019]}}


@pytest.mark.parametrize("op", _HOLISTIC)
def test_holistic_regions_group_by_the_join_key_first(
        ring_db, dataset, nullable_db, op):
    ring, db = ring_db
    for filter_steps in ({}, _YEAR_2019):
        plan = _by_state(op, "|B|", **filter_steps)
        compiled = compile_plan(ring, plan)
        # a holistic partial cannot be combined across blocks: one scan
        assert len(_grouped_partials(compiled)) == 1
        assert not _preaggregated(compiled)
        assert "CASE WHEN COUNT(*) = 1 THEN MIN(" in compiled.sql
        assert_matches_oracle(ring, db, dataset, plan)
        # Nevada's two ids take the fallback, Utah has no fires, Idaho's
        # fires no size, and some fires no state
        assert_matches_oracle(ring, *nullable_db, plan)


def test_holistic_members_read_partials_grouped_by_the_join_key(ring):
    for op in ("count_unique", "median"):  # a report's aggregations
        for filters in ([], [{"attribute": "year", "op": "exact",
                              "value": 2020}]):
            compiled = _members(ring, op, filters)
            assert len(_grouped_partials(compiled)) == 1
            assert not _preaggregated(compiled)


def _cohorts_db(path, names, fires):
    """A database of states named ``names`` (ids from 1) and of ``fires``
    (state id, size, year), its oracle dataset beside it."""
    dataset = MemoryDataset(tables={
        "states": [{"id": i, "name": n} for i, n in enumerate(names, 1)],
        "wildfires": [{"id": i, "state_id": s, "size_acres": v, "year": y}
                      for i, (s, v, y) in enumerate(fires, 1)]})
    return write_db(path, dataset), dataset


def test_states_without_a_name_share_one_group(ring, tmp_path):
    # the NULL names' two partial rows take the fallback, which must match
    # a NULL key with IS: with = it would find no fires
    db, dataset = _cohorts_db(
        tmp_path / "wildfire.db", ["California", None, None, "Nevada"],
        [(1, 10.0, 2019), (2, 20.0, 2019), (3, 30.0, 2020), (3, 20.0, 2020),
         (2, None, 2020), (4, 5.0, 2019), (None, 7.0, 2019), (9, 8.0, 2020)])
    for op in _HOLISTIC:
        for filter_steps in ({}, _YEAR_2019):
            plan = _by_state(op, "|B|", **filter_steps)
            assert_matches_oracle(ring, db, dataset, plan)
    rows = run_plan(ring, _by_state("count_unique", "|B|"), db).rows
    assert rows == [(None, 2), ("California", 1), ("Nevada", 1)]


def test_null_join_keys_match_nothing(ring, tmp_path):
    # as SQL's =, a fire with no state joins no state, not even one whose
    # id is NULL (possible once states.id is no INTEGER PRIMARY KEY)
    dataset = MemoryDataset(tables={
        "states": [{"id": 1, "name": "California"},
                   {"id": None, "name": "Nowhere"}],
        "wildfires": [{"id": 1, "state_id": 1, "size_acres": 10.0,
                       "year": 2020},
                      {"id": 2, "state_id": None, "size_acres": 20.0,
                       "year": 2020}]})
    db = tmp_path / "wildfire.db"
    with closing(sqlite3.connect(db)) as conn:
        conn.executescript(
            "CREATE TABLE states (id INTEGER, name TEXT);" + FIRES.format("")
            + "; INSERT INTO states VALUES (1, 'California'), "
              "(NULL, 'Nowhere'); INSERT INTO wildfires VALUES "
              "(1, 1, 10.0, 2020), (2, NULL, 20.0, 2020);")
    plan = _by_state("sum", "|B|")
    assert run_plan(ring, plan, db).rows == [("California", 10.0)]
    assert_matches_oracle(ring, db, dataset, plan)


def test_holistic_aggregation_of_the_primary_key_side_keeps_one_level(
        nullable_db, tmp_path):
    # states grouped by their primary key give one partial row per state,
    # so each year, joined to many states, would take the fallback
    doc = json.loads(RING_PATH.read_text())
    [state] = [e for e in doc["entities"] if e["name"] == "State"]
    state["attributes"].append({
        "name": "population", "nicename": "population",
        "types": ["arithmetic", "metric"], "source": ["states", "population"]})
    (tmp_path / "ring.json").write_text(json.dumps(doc))
    ring = load_ring(tmp_path / "ring.json")
    _, dataset = nullable_db
    db = write_db(tmp_path / "wildfire.db", dataset, after=(
        "ALTER TABLE states ADD population REAL; "
        "UPDATE states SET population = id % 3"))
    dataset = MemoryDataset(tables=dict(dataset.tables, states=[
        dict(r, population=float(r["id"] % 3))
        for r in dataset.tables["states"]]))
    for op in _HOLISTIC:
        plan = _steps({
            "Y": {"op": "retrieve_attribute", "args": ["|A|", "year"]},
            "C": {"op": "retrieve_entity", "args": ["State"]},
            "P": {"op": "retrieve_attribute", "args": ["|C|", "population"]},
            "G": {"op": "groupby", "args": ["|Y|"]},
            "V": {"op": op, "args": ["|P|", "|G|"]},
            "L": {"op": "collect", "args": ["|Y|", "|V|"]},
            "R": {"op": "return", "args": ["|L|"]},
        }, "R")
        assert "aag_p" not in compile_plan(ring, plan).sql
        assert_matches_oracle(ring, db, dataset, plan)


@st.composite
def _drawn_cohorts(draw):
    """States with duplicate and NULL names, some without fires; fires with
    NULL and dangling state ids, NULL and tied sizes."""
    names = draw(st.lists(st.sampled_from(["California", "Nevada", None]),
                          min_size=1, max_size=4))
    fires = draw(st.lists(st.tuples(
        st.one_of(st.none(), st.integers(1, len(names) + 1)),
        st.sampled_from([None, -3.0, 0.0, 1.5, 250.0]),
        st.sampled_from([2019, 2020])), min_size=1, max_size=12))
    return names, fires, draw(st.booleans())


@settings(deadline=None)
@given(_drawn_cohorts())
def test_holistic_partials_match_oracle_on_drawn_databases(ring, drawn):
    names, fires, filtered = drawn
    with tempfile.TemporaryDirectory() as d:
        db, dataset = _cohorts_db(Path(d) / "wildfire.db", names, fires)
        for op in _HOLISTIC:
            assert_matches_oracle(ring, db, dataset, _by_state(
                op, "|B|", **(_YEAR_2019 if filtered else {})))


def test_more_ranges_than_cpus_under_fast_thread_switches_match_oracle(
        ring, nullable_db, split):
    split(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        while time.monotonic() - start < 1:
            assert_matches_oracle(ring, *nullable_db,
                                  _by_state("average", "|B|"))
    finally:
        sys.setswitchinterval(interval)


def _fires_db(path, ids):
    """A database of three states and fires with the rowids ``ids``, its
    oracle dataset beside it. Sizes carry every bit of a double, so the
    order in which SUM and AVG see them shows in the last bits."""
    rng = random.Random(5)
    dataset = MemoryDataset(tables={
        "states": [{"id": i, "name": n} for i, n in
                   enumerate(("California", "Nevada", "Oregon"), 1)],
        "wildfires": [{"id": i, "state_id": rng.choice([1, 2, 2, 3]),
                       "size_acres": None if rng.random() < 0.1
                       else rng.uniform(0, 1e6),
                       "year": rng.choice([2019, 2020])} for i in ids]})
    return write_db(path, dataset), dataset


def _reports(ring) -> list[list]:
    """The fact plans of each fixture report type, for each aggregation
    whose partials are summed and each a partial holds whole."""
    reports = []
    for name in _FIXTURE_REQUESTS:
        doc = json.loads(load_fixture_request(name))
        for aggregation in ("average", "standard_deviation", "sum",
                            "count_unique", "median"):
            request = parse_request(dict(doc, aggregation=aggregation))
            reports.append([f.plan for f in instantiate(
                ring, load_blueprint(request.report), request)])
    return reports


def _run_reports(ring, db, reports) -> list:
    """The results of the plans of ``reports``, each report on one
    connection to ``db``."""
    results = []
    for plans in reports:
        with closing(connect(db)) as conn:
            results += [execute(compile_plan(ring, p), conn) for p in plans]
    return results


@pytest.mark.parametrize("ids", [
    range(1, 801), range(-400, 400), [*range(1, 501), 10 ** 12]],
    ids=["dense", "negative", "sparse"])
def test_raw_results_do_not_depend_on_the_cpu_count(ring, tmp_path, split,
                                                    ids):
    db, dataset = _fires_db(tmp_path / "wildfire.db", ids)
    reports = _reports(ring)
    rows = set()
    for cpus in (1, 2, 3, 8):
        split(cpus, block_rows=16)
        results = _run_reports(ring, db, reports)
        rows.add(repr([r.rows for r in results]))  # tells every bit apart
    assert len(rows) == 1
    plans = [p for plans in reports for p in plans]
    for plan, got in zip(plans, results):
        _assert_agrees(got, oracle_eval(ring, plan, dataset))
    with closing(connect(db)) as conn:
        assert 8 < len(compiler._blocks(conn, "wildfires")) \
            <= compiler.MAX_BLOCKS


def test_blocks_a_helper_left_unread_are_read_by_the_report(
        ring, tmp_path, split, monkeypatch):
    db, _ = _fires_db(tmp_path / "wildfire.db", range(1, 801))
    reports = _reports(ring)
    split(1, block_rows=16)
    want = repr([r.rows for r in _run_reports(ring, db, reports)])
    connect = sqlite3.connect

    class FailsAfterOneBlock(sqlite3.Connection):
        blocks = 0

        def execute(self, sql, *args):
            if "rowid BETWEEN" in sql and \
                    threading.current_thread() is not threading.main_thread():
                self.blocks += 1
                if self.blocks > 1:
                    raise sqlite3.OperationalError("database is locked")
            return super().execute(sql, *args)

    monkeypatch.setattr(sqlite3, "connect", lambda *args, **kwargs: connect(
        *args, factory=FailsAfterOneBlock, **kwargs))
    split(3, block_rows=16)
    assert repr([r.rows for r in _run_reports(ring, db, reports)]) == want


# ---------------------------------------------------------------------------
# partial tables built in rowid blocks: when one scan must do, one snapshot


@pytest.mark.parametrize("journal, helpers", [("delete", 1), ("wal", 0)])
def test_wal_database_is_read_in_one_scan(ring_db, tmp_path, split, opened,
                                          journal, helpers):
    ring, fixture_db = ring_db
    db = tmp_path / "wildfire.db"
    shutil.copy(fixture_db, db)
    with closing(sqlite3.connect(db)) as conn:
        conn.execute(f"PRAGMA journal_mode = {journal}")
    facts = _fixture_facts(ring, "ranking_california")
    want = [run_plan(ring, f.plan, db).rows for f in facts]
    split(2)
    before = len(opened[0])
    with closing(connect(db)) as conn:
        got = [execute(compile_plan(ring, f.plan), conn).rows for f in facts]
    assert got == want
    assert len(opened[0]) - before == 1 + helpers


@pytest.mark.parametrize("block_rows, helpers", [(31, 0), (30, 1)])
def test_span_of_fewer_than_min_blocks_is_read_in_one_scan(
        ring, nullable_db, split, opened, block_rows, helpers):
    db, dataset = nullable_db  # rowids 1..122: under 4 * 31, not 4 * 30
    split(2, block_rows)
    before = len(opened[0])
    assert_matches_oracle(ring, db, dataset, _by_state("sum", "|B|"))
    assert len(opened[0]) - before == 1 + helpers


@pytest.mark.parametrize("filters, probes, blocked", [
    ({}, 0, True),
    ({"F": {"op": "exact", "args": ["|Y|", 2020]}}, 1, True),  # keeps 90%
    (_YEAR_2019, 1, False),  # keeps 10%
], ids=["unfiltered", "keeps_most", "keeps_few"])
def test_partial_whose_filter_keeps_few_rows_is_read_in_one_scan(
        ring, tmp_path, split, filters, probes, blocked):
    dataset = MemoryDataset(tables={
        "states": [{"id": 1, "name": "California"},
                   {"id": 2, "name": "Nevada"}],
        "wildfires": [{"id": i, "state_id": 1 + i % 2, "size_acres": i * 1.5,
                       "year": 2019 if i % 10 == 0 else 2020}
                      for i in range(1, 201)]})
    db = write_db(tmp_path / "wildfire.db", dataset)
    plan = _by_state("sum", "|B|", **filters)
    split(2, block_rows=16)  # rowids 1..200: 13 blocks, break-even 64 rows
    traced, echoed = [], []
    with closing(connect(db)) as conn:
        conn.set_trace_callback(traced.append)
        got = execute(compile_plan(ring, plan), conn,
                      lambda sql, params: echoed.append(sql))
    _assert_agrees(got, oracle_eval(ring, plan, dataset))
    # the probe counts the rows the filter keeps among rowids 1..16
    assert sum(sql.startswith("SELECT count(*) FROM") for sql in traced) \
        == probes
    assert any("rowid BETWEEN" in sql for sql in echoed) == blocked


def test_a_partial_filtered_by_a_request_value_reads_its_bound_tables(
        ring, tmp_path):
    # fires larger than the average fire of the year ``start``, by state:
    # the partial's filter reads a materialization that holds a request
    # value, and the rowids span MIN_BLOCKS blocks, so its probe runs
    db, dataset = _fires_db(tmp_path / "wildfire.db", [
        *range(1, 201), compiler.MIN_BLOCKS * compiler.BLOCK_ROWS])
    plan = _by_state("sum", "|B|", **{
        "W": {"op": "average", "args": ["|B|"]},
        "WL": {"op": "collect", "args": ["|W|"]},
        "WF": {"op": "exact", "args": ["|Y|", 2020]},
        "WR": {"op": "return", "args": ["|WL|", "|WF|"]},
        "WA": {"op": "retrieve_attribute", "args": ["|WR|", "average size"]},
        "F": {"op": "greater_than", "args": ["|B|", "|WA|"]}})
    # the year as a request value, as a report's plans carry it
    plan.steps["WF"] = SqrStep("WF", "exact", (StepRef("Y"),
                                               Param("start", 2020)))
    compiled = compile_plan(ring, plan)
    [(_, block, probe)] = [b for *_, b in compiled.materializations if b]
    [mat] = [name for name, *_ in compiled.materializations
             if name.startswith("m_")]
    assert mat in block and mat in probe
    _assert_agrees(run_plan(ring, plan, db), oracle_eval(ring, plan, dataset))


@pytest.mark.parametrize("fires, after", [
    (FIRES.format(""), "ALTER TABLE wildfires RENAME TO fires; "
     "CREATE VIEW wildfires AS SELECT * FROM fires"),
    (FIRES.format(", rowid INTEGER"),
     "UPDATE wildfires SET rowid = id WHERE id % 3 = 0"),
    (FIRES.format("") + " WITHOUT ROWID", ""),
], ids=["view", "rowid_column", "without_rowid"])
def test_fact_table_without_a_usable_rowid_is_read_in_one_scan(
        ring, nullable_db, tmp_path, split, opened, fires, after):
    _, dataset = nullable_db
    db = write_db(tmp_path / "wildfire.db", dataset, fires, after)
    split(2)
    before = len(opened[0])
    for op in ("sum", "count", "max"):
        assert_matches_oracle(ring, db, dataset, _by_state(op, "|B|"))
    assert len(opened[0]) - before == 1  # the kept connection, no helper


def test_range_behind_a_pending_commit_is_read_by_the_report(
        ring, nullable_db, tmp_path, split, monkeypatch):
    _, dataset = nullable_db
    db = write_db(tmp_path / "wildfire.db", dataset)
    writer = sqlite3.connect(db, timeout=0, isolation_level=None,
                             check_same_thread=False)
    connect, calls, refused = sqlite3.connect, [], []

    def connect_behind_writer(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:  # a helper's: the report holds its snapshot
            writer.execute("BEGIN IMMEDIATE")
            writer.execute("INSERT INTO wildfires VALUES (999, 1, 1e6, 2020)")
            try:
                writer.execute("COMMIT")  # fails, and holds PENDING
            except sqlite3.OperationalError as e:
                refused.append(str(e))
        return connect(*args, **kwargs)

    split(2)
    monkeypatch.setattr(sqlite3, "connect", connect_behind_writer)
    start = time.monotonic()
    # the snapshot the report began with: without the pending insert
    assert_matches_oracle(ring, db, dataset, _by_state("sum", "|B|"))
    assert time.monotonic() - start < 4  # no wait on the busy timeout
    assert len(calls) == 2 and refused == ["database is locked"]
    writer.execute("COMMIT")  # the report has ended
    writer.close()


def test_no_commit_lands_between_the_facts_of_a_report(ring_db, tmp_path,
                                                       split):
    ring, fixture_db = ring_db
    db = tmp_path / "wildfire.db"
    shutil.copy(fixture_db, db)
    split(2)
    facts = _fixture_facts(ring, "ranking_california")
    want = [run_plan(ring, f.plan, db).rows for f in facts]
    writer = sqlite3.connect(db, timeout=0, isolation_level=None)
    writer.execute("BEGIN IMMEDIATE")
    writer.execute("INSERT INTO states (id, name) VALUES (3, 'Oregon')")
    writer.execute("INSERT INTO wildfires (id, state_id, size_acres, year) "
                   "VALUES (99, 3, 10.0, 2020)")
    with closing(connect(db)) as conn:
        got = [execute(compile_plan(ring, facts[0].plan), conn).rows]
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            writer.execute("COMMIT")
        got += [execute(compile_plan(ring, f.plan), conn).rows
                for f in facts[1:]]
    writer.execute("COMMIT")  # once the report's connection is closed
    writer.close()
    assert got == want
    assert [run_plan(ring, f.plan, db).rows for f in facts] != want


def test_failed_range_names_its_statement_and_leaves_nothing_open(
        ring, tmp_path, split, opened):
    compiled = compile_plan(ring, _fixture_facts(
        ring, "ranking_california")[0].plan)
    db = tmp_path / "wildfire.db"
    with closing(sqlite3.connect(db)) as conn:  # fires without a size
        conn.executescript(
            "CREATE TABLE states (id INTEGER PRIMARY KEY, name TEXT);"
            "CREATE TABLE wildfires (id INTEGER PRIMARY KEY, state_id "
            "INTEGER, year INTEGER);"
            "INSERT INTO wildfires VALUES (1, 1, 2020), (2, 1, 2020), "
            "(3, 1, 2020), (4, 1, 2020);")
    split(2)
    threads = set(threading.enumerate())
    with closing(connect(db)) as conn, \
            pytest.raises(DbError, match="no such column") as err:
        execute(compiled, conn)
    (name, *_), _ = compiled.materializations
    assert err.value.sql.startswith(f"CREATE TEMP TABLE {name} AS\n")
    assert "rowid BETWEEN" in err.value.sql
    connections, closed = opened
    assert len(connections) == 3  # the set-up's, the report's, one helper's
    assert all(any(c is d for d in closed) for c in connections)
    assert set(threading.enumerate()) == threads


# ---------------------------------------------------------------------------
# the kept read connection: its TEMP tables serve later reports until the
# database changes


def _report(ring, db, plans) -> list:
    """The rows of ``plans`` run as one report on the thread's kept read
    connection to ``db``."""
    with compiler.reader(db) as (conn, tables):
        return [execute(compile_plan(ring, p), conn, tables=tables).rows
                for p in plans]


def test_passing_the_temp_table_bound_reopens_the_connection(
        ring_db, opened, monkeypatch, drop_reader):
    ring, db = ring_db
    reports = {name: [f.plan for f in _fixture_facts(ring, name)]
               for name in ("ranking_california", "time_over_time_california")}
    want = {name: _report(ring, db, plans) for name, plans in reports.items()}
    drop_reader()
    connections, _ = opened
    before = len(connections)
    monkeypatch.setattr(compiler, "MAX_TEMP_TABLES", 5)  # ranking's 4 + 1
    seen = []
    for name in ("ranking_california", "ranking_california",
                 "time_over_time_california", "ranking_california"):
        assert _report(ring, db, reports[name]) == want[name]
        [(tables,)] = compiler._readers.kept.conn.execute(
            "SELECT count(*) FROM sqlite_temp_master").fetchall()
        seen.append((len(connections) - before, tables))
    # at the bound the connection is kept; past it, reopened empty
    assert seen == [(1, 5), (1, 5), (1, 13), (2, 5)]


def test_a_wrapper_put_on_connect_sees_the_next_report(ring_db, monkeypatch):
    ring, db = ring_db
    plans = [f.plan for f in _fixture_facts(ring, "ranking_california")]
    want = _report(ring, db, plans)
    first = compiler._readers.kept.conn
    connect, seen = sqlite3.connect, []

    def wrapper(*args, **kwargs):
        seen.append(connect(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(sqlite3, "connect", wrapper)
    assert _report(ring, db, plans) == want
    assert _report(ring, db, plans) == want  # kept while the wrapper stays
    assert seen == [compiler._readers.kept.conn]
    with pytest.raises(sqlite3.ProgrammingError):
        first.execute("SELECT 1")  # closed when it was replaced


def test_report_after_a_failed_block_build_builds_it_again(
        ring, nullable_db, split, monkeypatch, drop_reader):
    db, _ = nullable_db  # rowids 1..122: eight blocks of 16
    plan = _by_state("sum", "|B|")
    split(1, block_rows=16)  # every block on the report's connection
    want = run_plan(ring, plan, db).rows
    drop_reader()
    connect, failing = sqlite3.connect, [True]

    class FailsAtItsSecondBlock(sqlite3.Connection):
        def execute(self, sql, *args):
            if failing[0] and sql.startswith("INSERT INTO p_"):
                raise sqlite3.OperationalError("disk I/O error")
            return super().execute(sql, *args)

    monkeypatch.setattr(sqlite3, "connect", lambda *args, **kwargs: connect(
        *args, factory=FailsAtItsSecondBlock, **kwargs))
    with pytest.raises(DbError, match="disk I/O error"):
        run_plan(ring, plan, db)  # leaves the partial with its first block
    assert compiler._readers.kept is None
    failing[0] = False
    assert run_plan(ring, plan, db).rows == want


def test_threads_report_at_once_each_on_its_own_connection(ring_db):
    ring, db = ring_db
    reports = [[f.plan for f in _fixture_facts(ring, name)]
               for name in _FIXTURE_REQUESTS]
    want = [_report(ring, db, plans) for plans in reports]
    start = threading.Barrier(4)
    got, kept = {}, {}

    def reports_of(t: int) -> None:
        start.wait(timeout=10)
        got[t] = [_report(ring, db, reports[(t + i) % 3]) for i in range(12)]
        kept[t] = compiler._readers.kept.conn
        kept[t].close()  # a thread's own: closed in it

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reports_of, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {t: [want[(t + i) % 3] for i in range(12)]
                   for t in range(4)}
    assert len({id(c) for c in kept.values()}) == 4
