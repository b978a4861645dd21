"""SQL against the oracle, one row per registry operation (differential
testing, after McKeeman, 1998).

Every case runs one plan through ``run_plan`` and ``oracle_eval`` on a small
database that holds NULLs, a zero, a negative, tied values, values shifted
by 1e9, a NULL group key, two states that share a name, a state without
fires and fires without a state. The two results agree at 1e-9 relative, or
both evaluators raise an ``AagError`` with the same message. A known defect
that a ROADMAP item owns is a strict ``xfail`` that names the item.
"""

import json

import pytest

from aag.blueprints import instantiate, load_blueprint, parse_request
from aag.compiler import run_plan
from aag.errors import AagError
from aag.oracle import MemoryDataset, oracle_eval
from aag.plans import parse_plan
from aag.registry import REGISTRY
from aag.ring import derive_attributes, ring_from_dict, validate_ring

from conftest import FIRES, RING_PATH, write_db

SHIFT = 1e9

STATES = [(1, "California"), (2, "Nevada"), (3, "Oregon"), (4, "Utah"),
          (5, None), (6, "Nevada")]
# (id, state_id, size_acres, year, started); Utah has no fires
FIRES_ROWS = [
    (1, 1, 100.0, 2019, "2019-07-01T12:00:00"),
    (2, 1, 100.0, 2020, "2020-08-15"),        # tied with fire 1
    (3, 1, 0.0, 2020, None),
    (4, 1, -25.0, 2018, "2018-01-01"),
    (5, 1, None, 2019, "2019-07-02"),
    (6, 2, 50.0, 2019, "2019-03-01"),
    (7, 2, 150.0, 2019, "2019-03-01"),        # tied start
    (8, 2, 250.0, 2020, "2020-12-31T23:59:59"),
    (9, 6, 75.0, None, None),
    (10, 3, SHIFT + 1, 2020, "2020-05-05"),
    (11, 3, SHIFT + 2, 2020, "2020-05-06"),
    (12, 3, SHIFT + 3, 2019, "2019-05-07"),
    (13, 3, SHIFT + 4, 2018, "2018-05-08"),
    (14, 5, 10.0, 2020, "2020-01-01"),
    (15, None, 500.0, 2020, "2020-02-02"),    # no state
    (16, 99, 7.0, 2019, "2019-09-09"),        # a state that is not there
]


def _ring(change=None):
    doc = json.loads(RING_PATH.read_text())
    doc["entities"][0]["attributes"].append(
        {"name": "started", "types": ["datetime"],
         "source": ["wildfires", "started"]})
    if change:
        change(doc)
    ring = ring_from_dict(doc)
    assert validate_ring(ring) == []
    return derive_attributes(ring)


@pytest.fixture(scope="module")
def differential(tmp_path_factory):
    """The ring, its database, and the same rows for the oracle."""
    dataset = MemoryDataset(tables={
        "states": [dict(zip(("id", "name"), r)) for r in STATES],
        "wildfires": [dict(zip(("id", "state_id", "size_acres", "year",
                                "started"), r)) for r in FIRES_ROWS]})
    path = tmp_path_factory.mktemp("differential") / "wildfire.db"
    return _ring(), write_db(path, dataset, FIRES.format(", started TEXT")), \
        dataset


def _plan(result, **steps):
    """The steps below plus ``steps`` (label: (op, args)), returning
    ``result``'s labels as ``R``: a space-separated collection, then any
    filter, sort and limit labels as further arguments."""
    base = dict(A=("retrieve_entity", ["Wildfire"]),
                I=("retrieve_attribute", ["|A|", "id"]),
                B=("retrieve_attribute", ["|A|", "size"]),
                Y=("retrieve_attribute", ["|A|", "year"]),
                T=("retrieve_attribute", ["|A|", "started"]),
                C=("retrieve_entity", ["State"]),
                D=("retrieve_attribute", ["|C|", "name"]),
                G=("groupby", ["|D|"]))
    columns, *extra = result.split(",")
    doc = {k: {"op": op, "args": args}
           for k, (op, args) in {**base, **steps}.items()}
    doc["L"] = {"op": "collect", "args": [f"|{k}|" for k in columns.split()]}
    doc["R"] = {"op": "return",
                "args": ["|L|", *(f"|{k.strip()}|" for k in extra)]}
    return parse_plan({"steps": doc, "result": "R"})


def _by_state(op, *args):
    return _plan("D V", V=(op, [*args, "|G|"]))


def _ranked(*sort, **steps):
    """Fires ranked by year (or as ``steps`` sort ``S``) over a
    materialization of them, sorted by ``sort`` if given."""
    return _plan("P Q Z W", **{
        "M": ("return", ["|K|", *sort]),
        "K": ("collect", ["|I|", "|B|", "|Y|"]),
        "P": ("retrieve_attribute", ["|M|", "id"]),
        "Q": ("retrieve_attribute", ["|M|", "size"]),
        "Z": ("retrieve_attribute", ["|M|", "year"]),
        "S": ("sort", ["|Z|", "asc"]), "W": ("row_number", ["|S|"]),
        **steps})


def _fact(fact_id, **request):
    """The plan of the fact ``fact_id`` of a ranking request for Oregon's
    average fire size by state, changed by ``request``, as ``instantiate``
    composes it."""
    doc = {"version": "report_request_v1", "report": "ranking",
           "entity": "Wildfire", "metric": "size", "aggregation": "average",
           "cohort": {"entity": "State", "key": "name"}, "target": "Oregon",
           **request}
    facts = instantiate(_ring(), load_blueprint("ranking"), parse_request(doc))
    return next(f.plan for f in facts if f.id == fact_id)


def _xfail(item, why, raises):
    return pytest.mark.xfail(strict=True, raises=raises,
                             reason=f"{why} (ROADMAP item {item})")


def _text(sql):
    """An operation over ``started``, a datetime kept as ISO-8601 text: the
    ring has kinds, not storage types, so analysis admits it."""
    return (_xfail(5, f"{sql}; the oracle raises TypeError", TypeError),)


_AS_NUMBER = "SQL reads the ISO-8601 text as the number it begins with"
_UDF = "SQL's SQRT and aag_median raise on the text (a DbError)"

_SHIFTED = ("cancels digits on Oregon's sizes, 1e9 + 1..4, whose mean is "
            "near 1e9 beside a spread of about 1")

# id -> (the registry operation it is the row of, plan, marks). Each
# aggregation runs over every fire and per state name; each per-row
# operation is collected beside the fire's id.
CASES = {
    # aggregations
    **{f"{op}_{how}": (op, plan, ())
       for op in ("average", "count", "count_unique", "get_one", "max",
                  "median", "min", "string_agg", "sum")
       for how, plan in (("over_all_fires", _plan("V", V=(op, ["|B|"]))),
                         ("by_state", _by_state(op, "|B|")))},
    "standard_deviation_over_all_fires": (
        "standard_deviation",
        _plan("V", V=("standard_deviation", ["|B|"])), ()),
    "standard_deviation_by_state": (
        "standard_deviation", _by_state("standard_deviation", "|B|"),
        (_xfail(1, f"E[x^2] - E[x]^2 {_SHIFTED}", AssertionError),)),
    "correlation_over_all_fires": (
        "correlation", _plan("V", V=("correlation", ["|B|", "|Y|"])), ()),
    "correlation_by_state": (
        "correlation", _by_state("correlation", "|B|", "|Y|"),
        (_xfail(1, f"AVG(x*y) - AVG(x)*AVG(y) {_SHIFTED}", AssertionError),)),
    "correlation_of_datetime_text": (
        "correlation", _plan("V", V=("correlation", ["|T|", "|B|"])),
        _text(_AS_NUMBER)),
    "median_of_datetime_text": (
        "median", _plan("V", V=("median", ["|T|"])), _text(_UDF)),
    "min_of_datetime_text_by_state": ("min", _by_state("min", "|T|"), ()),
    # comparisons and their combinations, as filters of the fires
    "exact": ("exact", _plan("I B, F", F=("exact", ["|B|", 100.0])), ()),
    "exact_on_a_joined_name": (
        "exact", _plan("I D, F", F=("exact", ["|D|", "Nevada"])), ()),
    "greater_than": (
        "greater_than", _plan("I B, F", F=("greater_than", ["|B|", 0])), ()),
    "greater_than_a_datetime_literal": (
        "greater_than",
        _plan("I B, F", F=("greater_than", ["|B|", "2020-01-01"])),
        (_xfail(5, "SQL compares the number with the literal's text; the "
                   "oracle raises TypeError", TypeError),)),
    "greater_than_a_datetime_text": (
        "greater_than",
        _plan("I T, F", F=("greater_than", ["|T|", "2019-07-01"])), ()),
    "exact_on_a_number_as_text": (
        "exact", _plan("I B, F", F=("exact", ["|B|", "100"])),
        (_xfail(5, "SQL's REAL column affinity makes '100' the number 100; "
                   "the oracle matches no row", AssertionError),)),
    "greater_than_eq": (
        "greater_than_eq",
        _plan("I B, F", F=("greater_than_eq", ["|B|", 0])), ()),
    "less_than": (
        "less_than", _plan("I B, F", F=("less_than", ["|B|", 100])), ()),
    "less_than_eq": (
        "less_than_eq", _plan("I B, F", F=("less_than_eq", ["|B|", 100])),
        ()),
    "not": ("not", _plan("I B, F", P=("greater_than", ["|B|", 100]),
                         F=("not", ["|P|"])), ()),
    "and": ("and", _plan("I B, F", P=("greater_than", ["|B|", 0]),
                         Q=("less_than", ["|B|", 200]), F=("and", ["|P|", "|Q|"])),
            ()),
    "or": ("or", _plan("I B, F", P=("less_than", ["|B|", 0]),
                       Q=("exact", ["|Y|", 2018]), F=("or", ["|P|", "|Q|"])),
           ()),
    # arithmetic per fire
    "absolute_value": (
        "absolute_value", _plan("I V", V=("absolute_value", ["|B|"])), ()),
    "add": ("add", _plan("I V", V=("add", ["|B|", "|B|", 1.5])), ()),
    "subtract": ("subtract", _plan("I V", V=("subtract", ["|B|", 100, 0.5])),
                 ()),
    "multiply": ("multiply", _plan("I V", V=("multiply", ["|B|", -2])), ()),
    "divide": ("divide", _plan("I V", V=("divide", [1000, "|B|"])), ()),
    "percent_change": (
        "percent_change",
        _plan("I V", V=("percent_change", ["|B|", 100])), ()),
    "square_root_of_datetime_text": (
        "square_root", _plan("I V", V=("square_root", ["|T|"])),
        _text(_UDF)),
    "subtract_of_datetime_text": (
        "subtract", _plan("I V", V=("subtract", ["|T|", "2020-01-01"])),
        _text(_AS_NUMBER)),
    "square_root": (
        "square_root", _plan("I V", V=("square_root", ["|B|"])), ()),
    "average_of_square_roots_by_state": (
        "square_root", _plan("D V", S=("subtract", ["|B|", 150]),
                             Q=("square_root", ["|S|"]),
                             V=("average", ["|Q|", "|G|"])), ()),
    "duration": ("duration",
                 _plan("I V", V=("duration", ["|T|", "2021-01-01"])), ()),
    "duration_over_an_integer_year": (
        "duration", _plan("I V", V=("duration", ["|Y|", "2021-01-01"])),
        (_xfail(5, "SQL reads the integer year as a Julian day; the oracle "
                   "raises ValueError", ValueError),)),
    # data operations
    "collect": ("collect", _plan("I D B"), ()),
    "groupby": ("groupby", _plan("Y V", K=("groupby", ["|Y|"]),
                                 V=("count", ["|B|", "|K|"])), ()),
    "sort": ("sort", _plan("I B, S", S=("sort", ["|B|", "desc"])), ()),
    "sort_by_datetime_text": (
        "sort", _plan("I T, S", S=("sort", ["|T|", "desc"])), ()),
    "limit": ("limit", _plan("I B, S, N", S=("sort", ["|B|", "desc"]),
                             N=("limit", [3])), ()),
    "row_number": ("row_number", _ranked(), ()),
    "row_number_over_a_sorted_materialization": (
        "row_number", _ranked("|O|", O=("sort", ["|B|", "desc"])), ()),
    "row_number_over_fires": (
        "row_number", _plan("I B W", S=("sort", ["|Y|", "asc"]),
                            W=("row_number", ["|S|"])), ()),
    "return": ("return", _plan(
        "V", H=("average", ["|B|", "|G|"]),
        M=("return", ["|K|"]), K=("collect", ["|D|", "|H|"]),
        N=("retrieve_attribute", ["|M|", "average size"]),
        V=("max", ["|N|"])), ()),
    # retrieval
    "retrieve_attribute": ("retrieve_attribute", _plan("I B Y T"), ()),
    "retrieve_entity": ("retrieve_entity", _plan("D"), ()),
    "retrieve_entity_twice": ("retrieve_entity", _plan(
        "B Z", E=("retrieve_entity", ["Wildfire"]),
        Z=("retrieve_attribute", ["|E|", "year"])), ()),
    # region shapes: a materialization is single-row by its columns, not by
    # the rows it holds
    "row_number_in_a_cohort_of_one": (
        "row_number", _fact("target_rank", filters=[
            {"attribute": "size", "op": "greater_than", "value": 250}]), ()),
    "limit_0_of_an_ungrouped_aggregation": ("limit", _plan(
        "X", M=("return", ["|V|", "|N|"]), V=("average", ["|B|"]),
        N=("limit", [0]), X=("retrieve_attribute", ["|M|", "average size"])),
        ()),
    "entity_scan_beside_a_one_row_grouped_materialization": (
        "return", _plan(
            "I X", H=("average", ["|B|", "|G|"]), K=("collect", ["|D|", "|H|"]),
            F=("exact", ["|D|", "Oregon"]), M=("return", ["|K|", "|F|"]),
            X=("retrieve_attribute", ["|M|", "average size"])), ()),
    "two_nested_aggregations_in_one_region": ("max", _plan(
        "X W", H=("average", ["|B|", "|G|"]), J=("max", ["|B|", "|G|"]),
        X=("max", ["|H|"]), W=("max", ["|J|"])), ()),
    "row_number_by_a_key_that_binds_a_literal": (
        "absolute_value", _ranked(S=("sort", ["|V|", "asc"]),
                                  U=("subtract", ["|Q|", 175]),
                                  V=("absolute_value", ["|U|"])), ()),
    "nested_aggregation_beside_its_inner_one": ("max", _plan(
        "H X", H=("average", ["|B|", "|G|"]), X=("max", ["|H|"])), ()),
    "nested_aggregation_by_a_key_that_binds_a_literal": ("groupby", _plan(
        "X", E=("subtract", ["|Y|", 2000]), K=("groupby", ["|E|"]),
        H=("average", ["|B|", "|K|"]), X=("max", ["|H|"])), ()),
}


def _outcome(evaluate):
    try:
        return evaluate()
    except AagError as e:
        return e


def assert_agree(ring, db, dataset, plan):
    """SQL and the oracle give the same rows at 1e-9 relative, or both
    raise an ``AagError`` with the same message."""
    got = _outcome(lambda: run_plan(ring, plan, db))
    want = _outcome(lambda: oracle_eval(ring, plan, dataset))
    if isinstance(got, AagError) or isinstance(want, AagError):
        assert isinstance(got, AagError) and isinstance(want, AagError), \
            (got, want)
        assert str(got) == str(want)
        return
    assert [c.name for c in got.columns] == [c.name for c in want.columns]
    assert len(got.rows) == len(want.rows), (got.rows, want.rows)
    for g, w in zip(got.rows, want.rows):
        assert g == pytest.approx(w, rel=1e-9, nan_ok=False), (got.rows,
                                                               want.rows)


def test_every_registry_operation_has_a_case():
    assert {op for op, _, _ in CASES.values()} == set(REGISTRY)


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=marks) for case, (_, _, marks) in CASES.items()])
def test_sql_and_the_oracle_agree(differential, case):
    ring, db, dataset = differential
    assert_agree(ring, db, dataset, CASES[case][1])


def test_retrieving_an_entity_twice_reads_one_row_of_it(differential):
    ring, db, dataset = differential
    rows = oracle_eval(ring, CASES["retrieve_entity_twice"][1], dataset).rows
    assert len(rows) == len(FIRES_ROWS)  # one row per fire, not per pair
    assert (SHIFT + 4, 2018) in rows


# ---------------------------------------------------------------------------
# a relationship through a link table: fire 1 burned in California and in
# Nevada, fire 4 in no state


LINKS = [(1, 1), (1, 2), (2, 1), (3, 2), (5, 2), (5, None)]


def _linked(doc):
    doc["tables"].append({"name": "fire_state", "primary_key": "fire_id"})
    doc["joins"] = [
        {"name": "fire_link", "left": "wildfires.id",
         "right": "fire_state.fire_id"},
        {"name": "link_state", "left": "fire_state.state_id",
         "right": "states.id"}]
    doc["relationships"][0]["join_path"] = ["fire_link", "link_state"]


@pytest.fixture(scope="module")
def linked(tmp_path_factory):
    fires = [(1, 50.0, 2020), (2, 100.0, 2020), (3, 150.0, 2019),
             (4, 200.0, 2019), (5, None, 2020)]
    dataset = MemoryDataset(tables={
        "states": [{"id": 1, "name": "California"},
                   {"id": 2, "name": "Nevada"}],
        "wildfires": [dict(zip(("id", "size_acres", "year"), r))
                      for r in fires],
        "fire_state": [dict(zip(("fire_id", "state_id"), r))
                       for r in LINKS]})
    path = tmp_path_factory.mktemp("linked") / "wildfire.db"
    write_db(path, dataset, "CREATE TABLE wildfires (id INTEGER PRIMARY KEY, "
             "size_acres REAL, year INTEGER); CREATE TABLE fire_state "
             "(fire_id INTEGER, state_id INTEGER);")
    return _ring(_linked), path, dataset


@pytest.mark.parametrize("case", ["average_by_state", "sum_by_state",
                                  "count_by_state", "collect",
                                  "retrieve_entity_twice"])
def test_a_link_table_joins_every_match(linked, case):
    ring, db, dataset = linked
    plan = {"average_by_state": _by_state("average", "|B|"),
            "sum_by_state": _by_state("sum", "|B|"),
            "count_by_state": _by_state("count", "|B|"),
            "collect": _plan("I D B"),
            "retrieve_entity_twice": CASES["retrieve_entity_twice"][1]}[case]
    assert_agree(ring, db, dataset, plan)


def test_a_fire_in_two_states_counts_in_each(linked):
    ring, db, dataset = linked
    rows = oracle_eval(ring, _by_state("average", "|B|"), dataset).rows
    assert rows == [("California", 75.0), ("Nevada", 100.0)]
