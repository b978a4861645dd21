"""Exhaustive positive/negative typing checks for every registry row."""

import pytest

from aag.errors import AagError
from aag.registry import (
    ATTRIBUTE,
    ATTRIBUTE_COLLECTION,
    REGISTRY,
    get_signature,
    match_args,
    spec_accepts,
)
from aag.types import AttributeType as T, typeset

ARITH = typeset(T.ARITHMETIC)
METRIC = typeset(T.ARITHMETIC, T.METRIC)
CATEG = typeset(T.CATEGORICAL)
DATE = typeset(T.DATETIME)
IDENT = typeset(T.IDENTIFIER)
STR = typeset(T.STRING)
FILT = typeset(T.FILTER)
GROUP = typeset(T.GROUPING)
SORT = typeset(T.SORT)
LIM = typeset(T.LIMIT)
ROWN = typeset(T.ROW_NUM)
COLL = typeset(T.ATTRIBUTE_COLLECTION)
ENT = typeset(T.ENTITY)

AGGS = ["average", "count", "count_unique", "get_one", "max", "median",
        "min", "standard_deviation", "string_agg", "sum"]


def ok(op, *arg_types):
    return match_args(get_signature(op), "X", list(arg_types))


def bad(op, *arg_types):
    with pytest.raises(AagError, match=r"^step X: expected input in"):
        match_args(get_signature(op), "X", list(arg_types))


def test_registry_is_complete():
    assert len(REGISTRY) == 35


@pytest.mark.parametrize("op", AGGS)
def test_aggregations_accept_their_value_kind(op):
    value = DATE if op in ("get_one", "max", "median", "min",
                           "string_agg") else METRIC
    ok(op, value)
    ok(op, value, GROUP)  # optional grouping


@pytest.mark.parametrize("op", AGGS)
def test_aggregations_reject_filters(op):
    bad(op, FILT)


def test_sum_requires_plain_arithmetic():
    ok("sum", ARITH)
    bad("sum", DATE)


def test_average_rejects_datetime():
    bad("average", DATE)


def test_correlation_takes_two_values():
    ok("correlation", METRIC, METRIC)
    ok("correlation", METRIC, DATE, GROUP)
    with pytest.raises(AagError, match=r"^step X: operation 'correlation' "
                                      r"needs more arguments$"):
        ok("correlation", METRIC)


def test_boolean_connectives():
    ok("and", FILT, FILT)
    ok("and", FILT, FILT, FILT)
    ok("or", FILT, FILT)
    ok("not", FILT)
    bad("and", FILT, ARITH)
    bad("not", ARITH)


def test_exact_accepts_all_comparable_kinds():
    for kind in (ARITH, METRIC, CATEG, STR, DATE, IDENT):
        ok("exact", kind, kind)
    bad("exact", FILT, FILT)


@pytest.mark.parametrize("op", ["greater_than", "greater_than_eq",
                                "less_than", "less_than_eq"])
def test_comparisons_take_ordered_kinds(op):
    ok(op, METRIC, ARITH)
    ok(op, DATE, DATE)
    bad(op, CATEG, CATEG)


@pytest.mark.parametrize("op", ["add", "subtract", "multiply", "divide"])
def test_binary_arithmetic(op):
    ok(op, METRIC, ARITH)
    bad(op, CATEG, ARITH)


def test_subtract_accepts_datetime():
    ok("subtract", DATE, DATE)
    bad("multiply", DATE, DATE)


def test_unary_arithmetic():
    ok("absolute_value", METRIC)
    ok("square_root", ARITH)
    bad("absolute_value", CATEG)
    bad("square_root", STR)


def test_percent_change_and_duration():
    ok("percent_change", ARITH, ARITH)
    bad("percent_change", DATE, DATE)
    ok("duration", DATE, DATE)
    bad("duration", ARITH, DATE)


def test_collect_takes_attribute_like_inputs():
    ok("collect", METRIC, CATEG, ROWN)
    bad("collect", FILT)
    bad("collect", GROUP)


def test_groupby_takes_categorical_or_datetime_keys():
    ok("groupby", CATEG)
    ok("groupby", DATE, CATEG)
    bad("groupby", METRIC)


def test_limit_takes_a_number():
    ok("limit", ARITH)
    bad("limit", FILT)


def test_sort_takes_keys_then_direction():
    ok("sort", METRIC, STR)
    ok("sort", METRIC, CATEG, STR)
    bad("sort", FILT, STR)
    with pytest.raises(AagError, match=r"^step X: operation 'sort' "
                                      r"needs more arguments$"):
        ok("sort", METRIC)


def test_row_number_takes_a_sort():
    ok("row_number", SORT)
    bad("row_number", METRIC)


def test_return_slots():
    ok("return", COLL)
    ok("return", METRIC)              # single attribute as one-column collection
    ok("return", ROWN, FILT)          # rank output is collectible
    ok("return", COLL, FILT, SORT, LIM)
    ok("return", COLL, SORT, LIM)     # filter is optional
    bad("return", FILT)
    with pytest.raises(AagError, match=r"^step X: operation 'return' "
                                      r"got 1 extra argument\(s\)$"):
        ok("return", COLL, FILT, SORT, LIM, LIM)


def test_retrieval_ops():
    ok("retrieve_entity", STR)
    ok("retrieve_attribute", ENT, STR)
    bad("retrieve_attribute", METRIC, STR)
    bad("retrieve_entity", ARITH)


def test_extra_arguments_are_rejected():
    with pytest.raises(AagError, match=r"^step X: operation 'average' "
                                      r"got 1 extra argument\(s\)$"):
        ok("average", METRIC, GROUP, GROUP)


def test_spec_accepts_sentinels():
    assert spec_accepts(ATTRIBUTE, ROWN)
    assert not spec_accepts(ATTRIBUTE, FILT)
    assert spec_accepts(ATTRIBUTE_COLLECTION, COLL)
    assert spec_accepts(ATTRIBUTE_COLLECTION, METRIC)
    assert not spec_accepts(ATTRIBUTE_COLLECTION, SORT)
