import pytest
from hypothesis import given, strategies as st

from aag.errors import AagError
from aag.statements import (
    Binding,
    StatementTemplate,
    format_value,
    join_phrase,
    render_statement,
    render_table,
)
from aag.types import ColumnMeta, DatetimeValue, ResultSet
from aag.types import AttributeType as T


def _col(name, units=None):
    return ColumnMeta(name=name, nicename=name,
                      types=frozenset({T.ARITHMETIC}), units=units)


def _rs(columns, rows):
    return ResultSet(columns=columns, rows=rows)


# ---------------------------------------------------------------------------
# value formatting


@pytest.mark.parametrize("value,units,want", [
    (42, None, "42"),
    (42.0, None, "42.0"),
    (3.456, None, "3.46"),
    (2.5, None, "2.5"),
    (0.125, None, "0.12"),  # half-even
    (0.135, None, "0.14"),
    (-7.0, None, "-7.0"),
    (12345, None, "12,345"),
    (9999, None, "9999"),
    (12345.678, None, "12,345.68"),
    (1, ("acre", "acres"), "1 acre"),
    (1.0, ("acre", "acres"), "1.0 acre"),
    (2, ("acre", "acres"), "2 acres"),
    (0, ("acre", "acres"), "0 acres"),
    (-1, ("acre", "acres"), "-1 acre"),
    (50.0, "%", "50.0%"),
    (None, ("acre", "acres"), "unknown"),
    ("California", None, "California"),
])
def test_format_value(value, units, want):
    assert format_value(value, units) == want


def test_format_percent_flag():
    assert format_value(-60, percent=True) == "-60%"


def test_format_datetime_drops_midnight():
    assert format_value(DatetimeValue("2020-01-01T00:00:00")) == "2020-01-01"
    assert format_value(DatetimeValue("2020-01-01T06:30:00")) == \
        "2020-01-01T06:30:00"


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_format_value_rejects_non_finite_numbers(value):
    with pytest.raises(AagError, match="not a finite number"):
        format_value(value, ("acre", "acres"))


@given(st.floats(allow_nan=False, allow_infinity=False,
                 min_value=-1e12, max_value=1e12))
def test_formatted_floats_always_keep_a_decimal(x):
    text = format_value(x)
    assert "." in text


def test_join_phrase():
    assert join_phrase([]) == ""
    assert join_phrase(["a"]) == "a"
    assert join_phrase(["a", "b"]) == "a and b"
    assert join_phrase(["a", "b", "c"]) == "a, b, and c"


# ---------------------------------------------------------------------------
# statements


def test_render_scalar_statement():
    t = StatementTemplate("The total was {v}.",
                          {"v": Binding(column=0)})
    rs = _rs([_col("total", ("acre", "acres"))], [(150.0,)])
    assert render_statement(t, rs) == "The total was 150.0 acres."


def test_render_requires_exactly_one_row():
    t = StatementTemplate("{v}", {"v": Binding(column=0)})
    with pytest.raises(AagError, match=r"^statement expects exactly one "
                                      r"result row, got 0$"):
        render_statement(t, _rs([_col("x")], []))
    with pytest.raises(AagError, match=r"^statement expects exactly one "
                                      r"result row, got 2$"):
        render_statement(t, _rs([_col("x")], [(1,), (2,)]))


def test_render_null_uses_null_statement():
    t = StatementTemplate("{v}", {"v": Binding(column=0)},
                          null_statement="No value was defined.")
    assert render_statement(t, _rs([_col("x")], [(None,)])) == \
        "No value was defined."


def test_render_null_without_fallback_is_an_error():
    t = StatementTemplate("{v}", {"v": Binding(column=0)})
    with pytest.raises(AagError, match=r"^statement binding 'v' got a null "
                                      r"value and the template declares no "
                                      r"null_statement$"):
        render_statement(t, _rs([_col("x")], [(None,)]))


def test_word_map_translates_flags():
    t = StatementTemplate("It {was} bigger.",
                          {"was": Binding(column=0,
                                          word_map={"1": "was", "0": "was not"})})
    assert render_statement(t, _rs([_col("flag")], [(1,)])) == "It was bigger."
    assert render_statement(t, _rs([_col("flag")], [(0,)])) == \
        "It was not bigger."


def test_word_map_missing_key_is_an_error():
    t = StatementTemplate("{w}", {"w": Binding(column=0, word_map={"1": "x"})})
    with pytest.raises(AagError, match=r"^statement binding 'w': no word "
                                      r"mapping for '7'$"):
        render_statement(t, _rs([_col("flag")], [(7,)]))


def test_list_binding_joins_rows():
    t = StatementTemplate("Top: {names}.",
                          {"names": Binding(column=0, as_list=True)})
    rs = _rs([_col("name")], [("California",), ("Nevada",)])
    assert render_statement(t, rs) == "Top: California and Nevada."


def test_input_and_literal_bindings():
    t = StatementTemplate("{who} saw {n} {what}.", {
        "who": Binding(input="viewer"),
        "n": Binding(column=0),
        "what": Binding(literal="fires"),
    })
    rs = _rs([_col("n")], [(3,)])
    assert render_statement(t, rs, {"viewer": "Pat"}) == "Pat saw 3 fires."
    with pytest.raises(AagError, match=r"^statement binding 'who' needs "
                                      r"input 'viewer'$"):
        render_statement(t, rs)


def test_bare_binding_suppresses_units():
    t = StatementTemplate("{v}", {"v": Binding(column=0, bare=True)})
    rs = _rs([_col("total", ("acre", "acres"))], [(5.0,)])
    assert render_statement(t, rs) == "5.0"


def test_unbound_placeholder_is_an_error():
    t = StatementTemplate("{v} and {w}", {"v": Binding(column=0)})
    with pytest.raises(AagError, match=r"^statement template placeholder 'w' "
                                      r"has no binding$"):
        render_statement(t, _rs([_col("x")], [(1,)]))


def test_out_of_range_column_is_an_error():
    t = StatementTemplate("{v}", {"v": Binding(column=3)})
    with pytest.raises(AagError, match=r"^statement binding references column "
                                      r"3, but the result has 1 column\(s\)$"):
        render_statement(t, _rs([_col("x")], [(1,)]))


# ---------------------------------------------------------------------------
# tables


def test_render_table():
    rs = _rs(
        [ColumnMeta(name="name", nicename="state",
                    types=frozenset({T.CATEGORICAL}), units=None),
         ColumnMeta(name="average size", nicename="average wildfire size",
                    types=frozenset({T.ARITHMETIC}), units=("acre", "acres"))],
        [("California", 150.0), ("Nevada", 50.0)],
    )
    assert render_table(rs) == (
        "| State | Average Wildfire Size (acres) |\n"
        "| --- | --- |\n"
        "| California | 150.0 |\n"
        "| Nevada | 50.0 |"
    )


def test_render_table_with_title_and_percent():
    rs = _rs([ColumnMeta(name="chg", nicename="change",
                         types=frozenset({T.ARITHMETIC}), units="%")],
             [(-60.0,)])
    text = render_table(rs, title="Change")
    assert text.startswith("Change\n\n| Change (%) |")
    assert "| -60.0 |" in text
