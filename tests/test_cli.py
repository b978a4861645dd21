import json
import os
import re
import shutil
import sqlite3
import stat
import subprocess
import sys
import threading
from contextlib import closing

import pytest
import requests

from aag import blueprints, compiler, plans, templates

from conftest import FIXTURES, REPO, RING_PATH, invoke

PLAN = str(FIXTURES / "plans" / "average_size_by_state_2020.json")
RANKING = str(FIXTURES / "requests" / "ranking_california.json")


def _run(*args):
    return invoke(args)


# ---------------------------------------------------------------------------
# ring validate


def test_ring_validate_ok():
    result = _run("ring", "validate", "--ring", str(RING_PATH))
    assert result.exit_code == 0
    assert "ok" in result.output


def test_ring_validate_verbose_lists_attributes():
    result = _run("ring", "validate", "--ring", str(RING_PATH),
                  "--verbose")
    assert result.exit_code == 0
    assert "Wildfire" in result.output
    assert "[derived]" in result.output


def test_ring_validate_reports_violations(tmp_path):
    doc = json.loads(RING_PATH.read_text())
    doc["entities"][0]["attributes"][1]["source"] = ["volcanoes", "size"]
    bad = tmp_path / "bad_ring.json"
    bad.write_text(json.dumps(doc))
    result = invoke(["ring", "validate", "--ring", str(bad)])
    assert result.exit_code == 1
    assert "UnknownTable" in result.output


@pytest.mark.parametrize("change, message", [
    (lambda d: d.update(tables=[1]), "tables[0] must be an object, got 1"),
    (lambda d: d.update(tables="x"), "tables must be a list, got 'x'"),
    (lambda d: d["entities"][0]["attributes"][0].update(name=["x"]),
     "entities[0].attributes[0].name must be a string, got ['x']"),
    (lambda d: d["entities"][0].update(primary_table=["x"]),
     "entities[0].primary_table must be a string, got ['x']"),
    (lambda d: d["entities"][0].update(nicename=["x"]),
     "entities[0].nicename must be a string or [singular, plural] pair, "
     "got ['x']"),
    (lambda d: d["joins"][0].update(left=5), "joins[0].left must be a string, got 5"),
], ids=["table_number", "tables_text", "attribute_name_list",
        "primary_table_list", "nicename_short", "join_left_number"])
def test_ring_validate_rejects_fields_of_the_wrong_type(tmp_path, change,
                                                         message):
    doc = json.loads(RING_PATH.read_text())
    change(doc)
    bad = tmp_path / "bad_ring.json"
    bad.write_text(json.dumps(doc))
    result = invoke(["ring", "validate", "--ring", str(bad)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == f"error: {message}\n"


def test_missing_file_is_a_usage_error():
    result = invoke(["ring", "validate", "--ring", "no.json"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# plan run


def test_plan_run_prints_table(cli_ring_path):
    result = _run("plan", "run", "--ring", str(cli_ring_path),
                  "--plan", PLAN)
    assert result.exit_code == 0
    assert "| California | 150.0 |" in result.output
    assert "| Nevada | 50.0 |" in result.output


def test_plan_run_verbose_shows_sql(cli_ring_path):
    result = _run("plan", "run", "--ring", str(cli_ring_path),
                  "--plan", PLAN, "--verbose")
    assert result.exit_code == 0
    assert "SELECT" in result.output
    assert "params" in result.output


def test_plan_run_verbose_shows_every_statement(cli_ring_path, tmp_path):
    # the 2020 averages by state, materialized, then California's row
    doc = json.loads((FIXTURES / "plans" /
                      "average_size_by_state_2020.json").read_text())
    doc["steps"].update({
        "K": {"op": "retrieve_attribute", "args": ["|I|", "name"]},
        "V": {"op": "retrieve_attribute", "args": ["|I|", "average size"]},
        "T": {"op": "exact", "args": ["|K|", "California"]},
        "R": {"op": "return", "args": ["|V|", "|T|"]},
    })
    doc["result"] = "R"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    result = _run("plan", "run", "--ring", str(cli_ring_path),
                  "--plan", str(plan), "--verbose")
    assert result.exit_code == 0
    out = result.output
    name = re.search(r"CREATE TEMP TABLE IF NOT EXISTS (m_[0-9a-f]{16}) AS\n",
                     out).group(1)
    create = out.index("CREATE TEMP TABLE")
    terminal = out.index(f"FROM {name}")
    assert create < out.index("-- params: [2020]") < terminal \
        < out.index("-- params: ['California']")
    assert "| 150.0 |" in out


def test_plan_run_fails_cleanly_without_database(tmp_path):
    ring_copy = tmp_path / "ring.json"
    ring_copy.write_text(RING_PATH.read_text())
    result = invoke(["plan", "run", "--ring", str(ring_copy),
                     "--plan", PLAN])
    assert result.exit_code == 1
    assert "error: database not found" in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    # the database is opened read-only, so a missing one is not created
    assert [p.name for p in tmp_path.iterdir()] == ["ring.json"]


@pytest.mark.parametrize("step, result, message", [
    ({"op": ["x"], "args": []}, "A", "step 'A': unknown operation ['x']"),
    ({"op": "retrieve_entity", "args": "Wildfire"}, "A",
     "step 'A': 'args' must be a list, got 'Wildfire'"),
    ({"op": "retrieve_entity", "args": {"a": 1}}, "A",
     "step 'A': 'args' must be a list, got {'a': 1}"),
    ({"op": "retrieve_entity", "args": ["Wildfire"]}, ["A"],
     "result label ['A'] does not name a step"),
    ({"op": "average", "args": [1]}, "A",
     "step 'A': average aggregates a literal, not a step"),
], ids=["op_list", "args_text", "args_object", "result_list", "literal_average"])
def test_plan_run_rejects_malformed_plan(cli_ring_path, tmp_path, step, result,
                                         message):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"version": "sqr_plan_v1", "steps": {"A": step},
                                "result": result}))
    out = invoke(["plan", "run", "--ring", str(cli_ring_path), "--plan",
                  str(plan)])
    assert out.exit_code == 1
    assert isinstance(out.exception, SystemExit)  # no traceback
    assert out.stderr == f"error: {message}\n"


# ---------------------------------------------------------------------------
# report generate


def test_report_modes(cli_ring_path):
    args = ["report", "generate", "--ring", str(cli_ring_path),
            "--request", RANKING]

    plans = _run(*args, "--mode", "plans")
    assert plans.exit_code == 0
    doc = json.loads(plans.output)
    assert len(doc) == 7
    for plan in doc.values():
        assert plan["version"] == "sqr_plan_v1"

    tables = _run(*args, "--mode", "tables")
    assert tables.exit_code == 0
    separator_rows = [ln for ln in tables.output.splitlines()
                      if ln.startswith("| ---")]
    assert len(separator_rows) == 7

    statements = _run(*args, "--mode", "statements")
    assert statements.exit_code == 0
    assert len(statements.output.strip().splitlines()) == 7

    prompt = _run(*args, "--mode", "prompt")
    assert prompt.exit_code == 0
    assert "Facts:" in prompt.output

    report = _run(*args, "--mode", "report")
    assert report.exit_code == 0
    assert report.output.startswith("REPORT:")


def test_report_out_writes_atomically_with_sidecar(cli_ring_path, tmp_path):
    out = tmp_path / "report.txt"
    args = ["report", "generate", "--ring", str(cli_ring_path),
            "--request", RANKING]
    result = _run(*args, "--mode", "report", "--out", str(out))
    assert result.exit_code == 0
    assert out.read_text().startswith("REPORT:")
    sidecar = tmp_path / "report.txt.facts"
    assert sidecar.exists()

    statements = _run(*args, "--mode", "statements")
    assert sidecar.read_bytes() == statements.output.rstrip("\n").encode()
    # no stray temp files left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["report.txt", "report.txt.facts"]


@pytest.mark.parametrize("command", [
    ["plan", "run", "--plan", PLAN],
    ["report", "generate", "--request", RANKING],
], ids=["plan_run", "report_generate"])
@pytest.mark.parametrize("where", ["missing_directory", "failed_rename"])
def test_out_write_failure_exits_1_and_leaves_no_file(
        cli_ring_path, tmp_path, monkeypatch, command, where):
    out = tmp_path / "missing" / "x.txt"
    if where == "failed_rename":
        out = tmp_path / "x.txt"

        def fail(src, dst):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(os, "replace", fail)
    result = invoke([*command, "--ring", str(cli_ring_path),
                     "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    # a report writes its .facts sidecar first, so that write is what fails
    failed = out if command[0] == "plan" else f"{out}.facts"
    assert f"error: cannot write {failed}: " in result.output
    assert "Traceback" not in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing", ["x.txt.facts", "x.txt"])
def test_report_out_writes_both_files_or_neither(
        cli_ring_path, tmp_path, monkeypatch, failing):
    replace = os.replace

    def fail_one(src, dst):
        if os.path.basename(dst) == failing:
            raise PermissionError(13, "Permission denied")
        replace(src, dst)
    monkeypatch.setattr(os, "replace", fail_one)
    result = invoke(["report", "generate", "--ring", str(cli_ring_path),
                     "--request", RANKING, "--out", str(tmp_path / "x.txt")])
    assert result.exit_code == 1
    assert f"error: cannot write {tmp_path / failing}: " in result.output
    # no report, no sidecar, no temp file
    assert list(tmp_path.iterdir()) == []


def test_report_rejects_bad_request(cli_ring_path, tmp_path):
    bad = tmp_path / "req.json"
    bad.write_text(json.dumps({"version": "report_request_v1"}))
    result = invoke(["report", "generate",
                     "--ring", str(cli_ring_path),
                     "--request", str(bad)])
    assert result.exit_code == 1
    assert "error:" in result.output


def _request_doc(report, aggregation="average", target="California",
                 filters=(), period=(2019, 2020)):
    return {"version": "report_request_v1", "report": report,
            "entity": "Wildfire", "metric": "size", "aggregation": aggregation,
            "cohort": {"entity": "State", "key": "name"}, "target": target,
            "filters": list(filters), "top_n": 2, "benchmark": 180,
            "period": {"attribute": "year", "start": period[0],
                       "end": period[1]}}


def test_report_on_a_sum_past_the_largest_double_exits_1(cli_ring_path,
                                                         tmp_path):
    shutil.copy(cli_ring_path, tmp_path)
    shutil.copy(cli_ring_path.parent / "wildfire.db", tmp_path)
    with closing(sqlite3.connect(tmp_path / "wildfire.db")) as conn, conn:
        conn.execute("UPDATE wildfires SET size_acres = 1e308")  # SUM: inf
    request = tmp_path / "req.json"
    request.write_text(json.dumps(_request_doc("ranking", "sum")))
    result = invoke(["report", "generate", "--ring",
                     str(tmp_path / cli_ring_path.name),
                     "--request", str(request)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: not a finite number: inf" in result.output
    assert "Traceback" not in result.output


AGGREGATIONS = ("average", "count", "count_unique", "max", "median", "min",
                "standard_deviation", "sum")
# start < end, start == end, a string and a float start: per shift, the
# same kinds and equalities with other values
PERIODS = (((2019, 2020), (2018, 2020)), ((2020, 2020), (2019, 2019)),
           (("2019", 2020), ("2018", 2020)), ((2019.0, 2020), (2018.0, 2020)))


def _shape_sequence(shift):
    """3 report types x 8 aggregations x {no filter, >, <}, with targets
    and periods rotating; ``shift`` changes the values, not the shapes."""
    i = 0
    for report in ("ranking", "comparative_benchmark", "time_over_time"):
        for aggregation in AGGREGATIONS:
            for op, value in ((None, None), ("greater_than", (10.5, 5.5)),
                              ("less_than", (1000, 2000))):
                i += 1
                filters = [{"attribute": "size", "op": op,
                            "value": value[shift]}] if op else []
                yield _request_doc(
                    report, aggregation,
                    ("California", "Nevada", "Oregon")[(i + shift) % 3],
                    filters, PERIODS[i % 4][shift])


def _report_outputs(ring, request, clear):
    """--verbose stderr and --mode statements, then --mode tables."""
    outputs = []
    for extra in (["--mode", "statements", "--verbose"], ["--mode", "tables"]):
        if clear:
            blueprints._compiled.clear()
        result = invoke(["report", "generate", "--ring", ring,
                         "--request", request, *extra])
        outputs.append((result.exit_code, result.stdout, result.stderr))
    return outputs


def test_cached_shapes_report_as_uncached_ones(cli_ring_path, tmp_path):
    request = tmp_path / "request.json"
    # each shape twice, with other values: the second pass is all hits
    docs = [*_shape_sequence(0), *_shape_sequence(1)]
    outputs = {}
    for clear in (False, True):
        blueprints._compiled.clear()
        outputs[clear] = []
        for doc in docs:
            request.write_text(json.dumps(doc))
            outputs[clear].append(_report_outputs(
                str(cli_ring_path), str(request), clear))
    assert len(blueprints._compiled) == 1
    assert outputs[False] == outputs[True]
    assert sum(code == 0 for outs in outputs[False] for code, _, _ in outs) \
        > 150
    assert any("m_" in err for outs in outputs[False] for _, _, err in outs)


def test_cache_hit_skips_fill_analyze_and_compile(cli_ring_path,
                                                  monkeypatch, tmp_path):
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (plans, templates, compiler):
        counted(module, "analyze_plan")
    counted(blueprints, "fill_template")
    counted(compiler, "compile_plan")
    request = tmp_path / "request.json"
    args = ["report", "generate", "--ring", str(cli_ring_path),
            "--request", str(request), "--mode", "statements"]
    blueprints._compiled.clear()
    request.write_text(json.dumps(_request_doc("time_over_time")))
    first = _run(*args).output
    assert {"analyze_plan", "fill_template", "compile_plan"} <= set(calls)
    calls.clear()
    # the same shape: another target and period, the same kinds
    request.write_text(json.dumps(_request_doc(
        "time_over_time", target="Nevada", period=(2018, 2021))))
    second = _run(*args).output
    assert calls == [] and second != first
    # equal start and end are another shape: one member plan, not two
    request.write_text(json.dumps(_request_doc(
        "time_over_time", period=(2020, 2020))))
    assert _run(*args).exit_code == 0
    assert "compile_plan" in calls and len(blueprints._compiled) == 2
    # a string where a number was is another shape: it fails as uncached
    for value, code in ((10.5, 0), ("10.5", 1)):
        request.write_text(json.dumps(_request_doc("ranking", filters=[
            {"attribute": "size", "op": "greater_than", "value": value}])))
        assert _run(*args).exit_code == code


def test_cache_keeps_at_most_its_bound(cli_ring_path, monkeypatch, tmp_path):
    monkeypatch.setattr(blueprints, "CACHE_SIZE", 3)
    blueprints._compiled.clear()
    request = tmp_path / "request.json"
    for aggregation in AGGREGATIONS[:5]:
        request.write_text(json.dumps(_request_doc("ranking", aggregation)))
        assert _run("report", "generate", "--ring",
                    str(cli_ring_path), "--request", str(request),
                    "--mode", "statements").exit_code == 0
        assert len(blueprints._compiled) <= 3
    # the least recently used shapes went first
    kept = [shape for _, (shape, _) in blueprints._compiled]
    assert [a for shape in kept for a in AGGREGATIONS
            if f"aggregation={a!r}" in shape] == list(AGGREGATIONS[2:5])


def test_rewritten_ring_reports_as_a_fresh_process(cli_ring_path, tmp_path):
    ring, _ = _private_copy(cli_ring_path, tmp_path)
    args = ["report", "generate", "--ring", str(ring), "--request", RANKING,
            "--mode", "statements"]
    before = _run(*args).output
    ring.write_text(ring.read_text().replace('["state", "states"]',
                                             '["province", "provinces"]'))
    after = _run(*args).output
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    fresh = subprocess.run([sys.executable, "-m", "aag.cli", *args], env=env,
                           check=True, capture_output=True, text=True).stdout
    assert after == fresh != before
    assert "provinces" in after


@pytest.mark.parametrize("change", [
    {"top_n": "x"}, {"top_n": -1}, {"top_n": 2.7}, {"top_n": True},
    {"filters": [{"op": "exact", "value": 1}]},
    {"filters": [{"attribute": "size", "op": "exact"}]},
    {"filters": [{"attribute": "size", "op": "bogus", "value": 1}]},
    {"filters": "abc"}, {"period": 5}, None,
    {"target": "|A|"},
    {"report": "comparative_benchmark", "benchmark": "|B|"},
    {"filters": [{"attribute": "size", "op": "exact", "value": "|A|"}]},
    {"target": "{x}"}, {"target": [1]}, {"report": []}, {"entity": {}},
], ids=["top_n_text", "top_n_negative", "top_n_float", "top_n_bool",
        "filter_without_attribute", "filter_without_value", "unknown_op",
        "filters_not_a_list", "period_not_an_object", "array_request",
        "target_reference", "benchmark_reference", "filter_value_reference",
        "target_slot", "target_list", "report_list", "entity_object"])
def test_report_rejects_malformed_request(cli_ring_path, tmp_path, change):
    doc = json.loads((FIXTURES / "requests" / "ranking_california.json")
                     .read_text())
    request = tmp_path / "req.json"
    request.write_text(json.dumps([doc] if change is None
                                  else dict(doc, **change)))
    result = invoke(["report", "generate", "--ring",
                     str(cli_ring_path), "--request",
                     str(request), "--mode", "statements"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("name, change", [
    ("ranking_california", {}), ("benchmark_california", {}),
    ("time_over_time_california", {}),
    ("ranking_california", {"target": "2020-01-01", "filters": [
        {"attribute": "size", "op": "greater_than", "value": 10.5}]}),
])
def test_plans_mode_plans_run_as_their_tables(cli_ring_path,
                                              tmp_path, name, change):
    """Each plan ``--mode plans`` writes is a plan document, its request
    values written as literals, and ``plan run`` prints its fact's table."""
    doc = json.loads((FIXTURES / "requests" / f"{name}.json").read_text())
    request = tmp_path / "req.json"
    request.write_text(json.dumps(dict(doc, **change)))
    args = ["report", "generate", "--ring", str(cli_ring_path),
            "--request", str(request), "--mode"]
    tables = []
    for fact_id, plan in json.loads(_run(*args, "plans").output
                                    ).items():
        plans.parse_plan(plan)
        path = tmp_path / f"{fact_id}.json"
        path.write_text(json.dumps(plan))
        result = _run("plan", "run", "--ring", str(cli_ring_path),
                      "--plan", str(path))
        assert result.exit_code == 0, result.output
        tables.append(f"{fact_id}\n\n{result.output}")
    assert len(tables) == {"ranking": 7, "comparative_benchmark": 6,
                           "time_over_time": 9}[doc["report"]]
    assert "\n".join(tables) == _run(*args, "tables").output


def test_report_plans_mode_rejects_average_of_year(cli_ring_path, tmp_path):
    doc = json.loads((FIXTURES / "requests" / "ranking_california.json")
                     .read_text())
    doc.update(metric="year", aggregation="average")
    request = tmp_path / "req.json"
    request.write_text(json.dumps(doc))
    result = invoke(["report", "generate",
                     "--ring", str(cli_ring_path),
                     "--request", str(request),
                     "--mode", "plans"])
    assert result.exit_code == 1
    assert "error: step V: expected input" in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback


def test_importing_the_cli_leaves_requests_unloaded():
    """``import aag.cli`` loads the standard library and ``aag`` only."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = ("import sys; before = set(sys.modules); import aag.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.partition('.')[0] not in {*sys.stdlib_module_names, 'aag'}"
            "))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("case", [
    "no_arguments", "group_without_command", "unknown_command",
    "missing_request", "ring_is_a_directory", "out_is_a_directory",
    "unknown_profile"])
def test_usage_errors_exit_2_and_write_nothing(cli_ring_path, tmp_path, case):
    ring, out = str(cli_ring_path), str(tmp_path / "out.txt")
    report = ["report", "generate", "--ring", ring, "--request", RANKING]
    (tmp_path / "dir").mkdir()
    args = {
        "no_arguments": [],
        "group_without_command": ["report"],
        "unknown_command": ["bogus", "--out", out],
        "missing_request": ["report", "generate", "--ring", ring,
                            "--out", out],
        "ring_is_a_directory": ["plan", "run", "--ring", str(tmp_path),
                                "--plan", PLAN, "--out", out],
        "out_is_a_directory": [*report, "--out", str(tmp_path / "dir")],
        "unknown_profile": [*report, "--profile", "bogus", "--out", out],
    }[case]
    result = invoke(args)
    assert result.exit_code == 2
    assert "usage:" in result.stderr
    assert "Traceback" not in result.output
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.parametrize("args", [
    [], ["report"], ["report", "generate"],
], ids=["top", "group", "command"])
def test_help_exits_0(args):
    result = invoke([*args, "--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith("usage: aag")
    if args == ["report", "generate"]:
        assert re.search(r"--mode \W?plans\Wstatements\Wtables\Wprompt"
                         r"\Wreport", result.stdout)


def test_report_rejects_unknown_mode(cli_ring_path):
    result = invoke(["report", "generate",
                     "--ring", str(cli_ring_path),
                     "--request", RANKING,
                     "--mode", "interpretive-dance"])
    assert result.exit_code == 2


def _private_copy(cli_ring_path, tmp_path):
    ring = tmp_path / cli_ring_path.name
    shutil.copy(cli_ring_path, ring)
    shutil.copy(cli_ring_path.parent / "wildfire.db", tmp_path / "wildfire.db")
    return ring, tmp_path / "wildfire.db"


def test_report_holds_no_lock_and_sees_new_rows(cli_ring_path, tmp_path):
    ring, db = _private_copy(cli_ring_path, tmp_path)
    args = ["report", "generate", "--ring", str(ring), "--request", RANKING,
            "--mode", "statements"]
    before = _run(*args)
    assert "A total of 2 states were compared." in before.output
    writer = sqlite3.connect(db, timeout=0, isolation_level=None)
    try:
        writer.execute("BEGIN EXCLUSIVE")  # fails if the report left a lock
        writer.execute("INSERT INTO states (id, name) VALUES (3, 'Oregon')")
        writer.execute("INSERT INTO wildfires (id, state_id, size_acres, "
                       "year) VALUES (99, 3, 10.0, 2020)")
        writer.execute("COMMIT")
    finally:
        writer.close()
    after = _run(*args)
    assert after.exit_code == 0
    assert "A total of 3 states were compared." in after.output


def test_report_built_in_ranges_leaves_no_thread_or_connection(
        cli_ring_path, split, opened):
    args = ["report", "generate", "--ring", str(cli_ring_path), "--request",
            RANKING, "--mode", "statements"]
    want = _run(*args).output
    split(3)
    connections, closed = opened
    before, threads = len(connections), set(threading.enumerate())
    assert _run(*args).output == want
    # the report's connection and two helpers' for its one partial table
    assert len(connections) - before == 3
    assert all(any(c is d for d in closed) for c in connections)
    assert set(threading.enumerate()) == threads


def test_report_runs_on_read_only_database(cli_ring_path, tmp_path):
    ring, db = _private_copy(cli_ring_path, tmp_path)
    args = ["report", "generate", "--request", RANKING, "--mode",
            "statements"]
    want = _run(*args, "--ring", str(cli_ring_path)).output
    db.chmod(0o444)
    tmp_path.chmod(0o555)
    try:
        result = _run(*args, "--ring", str(ring))
    finally:
        tmp_path.chmod(0o755)
    assert result.exit_code == 0
    assert result.output == want
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["wildfire.db", "wildfire_ring.json"]
    assert stat.S_IMODE(db.stat().st_mode) == 0o444


def test_remote_non_json_reply_exits_1(cli_ring_path, monkeypatch):
    class HtmlResponse:
        status_code = 200
        text = "<html>gateway</html>"

        def json(self):
            raise ValueError("Expecting value: line 1 column 1 (char 0)")

    monkeypatch.setattr(requests, "post", lambda *a, **k: HtmlResponse())
    result = invoke(["report", "generate",
                     "--ring", str(cli_ring_path),
                     "--request", RANKING,
                     "--backend", "remote"])
    assert result.exit_code == 1
    assert "malformed response: <html>gateway</html>" in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
