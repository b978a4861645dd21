import math
import statistics

import pytest

from aag.oracle import MemoryDataset, _agg, _apply_op, oracle_eval
from aag.plans import plan_from_dict

from conftest import FIXTURES, load_fixture_plan


def _eval(ring, dataset, doc_or_name):
    if isinstance(doc_or_name, str):
        plan = load_fixture_plan(doc_or_name)
    else:
        plan = plan_from_dict(doc_or_name)
    return oracle_eval(ring, plan, dataset)


def _steps(extra, result):
    steps = {
        "A": {"op": "retrieve_entity", "args": ["Wildfire"]},
        "B": {"op": "retrieve_attribute", "args": ["|A|", "size"]},
    }
    steps.update(extra)
    return {"steps": steps, "result": result}


def test_csv_loading_coerces_types():
    ds = MemoryDataset.from_csv(FIXTURES / "wildfire")
    sizes = [r["size_acres"] for r in ds.tables["wildfires"]]
    assert all(isinstance(s, float) for s in sizes)
    years = [r["year"] for r in ds.tables["wildfires"]]
    assert all(isinstance(y, int) for y in years)
    assert {r["name"] for r in ds.tables["states"]} == {"California", "Nevada"}


def test_grouped_average(ring, dataset):
    rs = _eval(ring, dataset, "average_size_by_state_2020")
    assert rs.rows == [("California", 150.0), ("Nevada", 50.0)]
    assert [c.name for c in rs.columns] == ["name", "average size"]


def test_nested_aggregation(ring, dataset):
    rs = _eval(ring, dataset, "max_of_state_averages")
    assert rs.rows == [(200.0,)]


def test_plain_retrieval_sorted(ring, dataset):
    rs = _eval(ring, dataset, "all_sizes")
    assert [r[0] for r in rs.rows] == [50.0, 100.0, 150.0, 200.0, 250.0, 300.0]
    assert [c.name for c in rs.columns] == ["size", "year"]


def test_scalar_aggregations(ring, dataset):
    sizes = [100.0, 200.0, 300.0, 50.0, 150.0, 250.0]
    for op, want in [
        ("count", 6),
        ("sum", float(sum(sizes))),
        ("average", sum(sizes) / 6),
        ("max", 300.0),
        ("min", 50.0),
        ("median", statistics.median(sizes)),
        ("standard_deviation", statistics.pstdev(sizes)),
        ("get_one", 50.0),
    ]:
        rs = _eval(ring, dataset, _steps(
            {"V": {"op": op, "args": ["|B|"]},
             "R": {"op": "return", "args": ["|V|"]}}, "R"))
        assert rs.rows == [(want,)], op


def test_string_agg_sorts_and_joins(ring, dataset):
    rs = _eval(ring, dataset, _steps(
        {"V": {"op": "string_agg", "args": ["|B|"]},
         "R": {"op": "return", "args": ["|V|"]}}, "R"))
    assert rs.rows == [("50.0, 100.0, 150.0, 200.0, 250.0, 300.0",)]


def test_rank_is_computed_before_filter(ring, dataset):
    # rank all rows by size desc, then filter to sizes > 240;
    # the surviving rows keep their pre-filter ranks
    rs = _eval(ring, dataset, _steps({
        "M": {"op": "return", "args": ["|B|"]},
        "V": {"op": "retrieve_attribute", "args": ["|M|", "size"]},
        "S": {"op": "sort", "args": ["|V|", "desc"]},
        "W": {"op": "row_number", "args": ["|S|"]},
        "L": {"op": "collect", "args": ["|V|", "|W|"]},
        "F": {"op": "greater_than", "args": ["|V|", 240]},
        "R": {"op": "return", "args": ["|L|", "|F|"]},
    }, "R"))
    assert rs.rows == [(250.0, 2), (300.0, 1)]


def test_limit_applies_after_sort(ring, dataset):
    rs = _eval(ring, dataset, _steps({
        "S": {"op": "sort", "args": ["|B|", "desc"]},
        "L": {"op": "limit", "args": [2]},
        "R": {"op": "return", "args": ["|B|", "|S|", "|L|"]},
    }, "R"))
    assert rs.rows == [(300.0,), (250.0,)]


def test_arithmetic_and_comparison_ops():
    assert _apply_op("add", [2, 3]) == 5
    assert _apply_op("subtract", [2, 3]) == -1
    assert _apply_op("multiply", [2, 3]) == 6
    assert _apply_op("divide", [3, 2]) == 1.5
    assert _apply_op("divide", [3, 0]) is None
    # variadic arithmetic folds left over every argument
    assert _apply_op("add", [2, 3, 4]) == 9
    assert _apply_op("subtract", [2, 3, 4]) == -5
    assert _apply_op("multiply", [2, 3, 4]) == 24
    assert _apply_op("divide", [12, 2, 4]) == 1.5
    assert _apply_op("divide", [12, 2, 0]) is None
    assert _apply_op("absolute_value", [-4]) == 4
    assert _apply_op("greater_than", [3, 2]) is True
    assert _apply_op("less_than_eq", [2, 2]) is True
    assert _apply_op("exact", ["a", "b"]) is False


def test_percent_change_edge_cases():
    assert _apply_op("percent_change", [100, 150]) == 50.0
    assert _apply_op("percent_change", [200, 100]) == -50.0
    assert _apply_op("percent_change", [0, 100]) is None


def test_null_propagation():
    assert _apply_op("add", [None, 3]) is None
    assert _apply_op("greater_than", [None, 3]) is False
    assert _apply_op("exact", [None, "x"]) is False


def test_duration_in_seconds():
    got = _apply_op("duration", ["2020-01-01T00:00:00", "2020-01-02T06:00:00"])
    assert got == 30 * 3600


def test_agg_skips_nulls():
    assert _agg("count", [1, None, 2]) == 2
    assert _agg("average", [1, None, 3]) == 2.0
    assert _agg("sum", [None, None]) is None
    assert _agg("count", [None, None]) == 0
    assert _agg("count_unique", [1, 1, 2, None]) == 2


def test_median_mean_of_middle_two():
    assert _agg("median", [1, 2, 3, 4]) == 2.5
    assert _agg("median", [7]) == 7.0


def test_stddev_is_population():
    xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    assert math.isclose(_agg("standard_deviation", xs), 2.0)


def test_default_ordering_is_all_columns_ascending(ring, dataset):
    rs = _eval(ring, dataset, "average_size_by_state_2020")
    assert rs.rows == sorted(rs.rows)


def test_grouped_median(ring, dataset):
    doc = _steps({
        "C": {"op": "retrieve_entity", "args": ["State"]},
        "D": {"op": "retrieve_attribute", "args": ["|C|", "name"]},
        "G": {"op": "groupby", "args": ["|D|"]},
        "V": {"op": "median", "args": ["|B|", "|G|"]},
        "L": {"op": "collect", "args": ["|D|", "|V|"]},
        "R": {"op": "return", "args": ["|L|"]},
    }, "R")
    rs = _eval(ring, dataset, doc)
    assert rs.rows == [("California", 200.0), ("Nevada", 150.0)]


def test_correlation_short_input_is_none():
    from aag.oracle import _correlation

    assert _correlation([1], [2]) is None
    assert _correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)


def test_result_that_is_not_a_return_is_rejected_like_the_compiler(ring,
                                                                   dataset):
    from aag.compiler import compile_plan
    from aag.errors import AagError

    plan = plan_from_dict(_steps({
        "V": {"op": "average", "args": ["|B|"]}}, "V"))
    for evaluate in (lambda: oracle_eval(ring, plan, dataset),
                     lambda: compile_plan(ring, plan)):
        with pytest.raises(AagError,
                           match=r"^plan must terminate in a materialization$"):
            evaluate()
