import json
import os
import re
import shutil
import sqlite3
import stat
import subprocess
import sys
import threading

import pytest
import requests
from click.testing import CliRunner

from aag import blueprints, compiler, plans, templates
from aag.cli import main

from conftest import FIXTURES, REPO, RING_PATH

PLAN = str(FIXTURES / "plans" / "average_size_by_state_2020.json")
RANKING = str(FIXTURES / "requests" / "ranking_california.json")


@pytest.fixture
def runner():
    return CliRunner()


def _run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# ---------------------------------------------------------------------------
# ring validate


def test_ring_validate_ok(runner):
    result = _run(runner, "ring", "validate", "--ring", str(RING_PATH))
    assert result.exit_code == 0
    assert "ok" in result.output


def test_ring_validate_verbose_lists_attributes(runner):
    result = _run(runner, "ring", "validate", "--ring", str(RING_PATH),
                  "--verbose")
    assert result.exit_code == 0
    assert "Wildfire" in result.output
    assert "[derived]" in result.output


def test_ring_validate_reports_violations(runner, tmp_path):
    doc = json.loads(RING_PATH.read_text())
    doc["entities"][0]["attributes"][1]["source"] = ["volcanoes", "size"]
    bad = tmp_path / "bad_ring.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["ring", "validate", "--ring", str(bad)])
    assert result.exit_code == 1
    assert "UnknownTable" in result.output


def test_missing_file_is_a_usage_error(runner):
    result = runner.invoke(main, ["ring", "validate", "--ring", "no.json"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# plan run


def test_plan_run_prints_table(runner, cli_ring_path):
    result = _run(runner, "plan", "run", "--ring", str(cli_ring_path),
                  "--plan", PLAN)
    assert result.exit_code == 0
    assert "| California | 150.0 |" in result.output
    assert "| Nevada | 50.0 |" in result.output


def test_plan_run_verbose_shows_sql(runner, cli_ring_path):
    result = _run(runner, "plan", "run", "--ring", str(cli_ring_path),
                  "--plan", PLAN, "--verbose")
    assert result.exit_code == 0
    assert "SELECT" in result.output
    assert "params" in result.output


def test_plan_run_verbose_shows_every_statement(runner, cli_ring_path,
                                                tmp_path):
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
    result = _run(runner, "plan", "run", "--ring", str(cli_ring_path),
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


def test_plan_run_fails_cleanly_without_database(runner, tmp_path):
    ring_copy = tmp_path / "ring.json"
    ring_copy.write_text(RING_PATH.read_text())
    result = runner.invoke(main, ["plan", "run", "--ring", str(ring_copy),
                                  "--plan", PLAN])
    assert result.exit_code == 1
    assert "error: database not found" in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    # the database is opened read-only, so a missing one is not created
    assert [p.name for p in tmp_path.iterdir()] == ["ring.json"]


# ---------------------------------------------------------------------------
# report generate


def test_report_modes(runner, cli_ring_path):
    args = ["report", "generate", "--ring", str(cli_ring_path),
            "--request", RANKING]

    plans = _run(runner, *args, "--mode", "plans")
    assert plans.exit_code == 0
    doc = json.loads(plans.output)
    assert len(doc) == 7
    for plan in doc.values():
        assert plan["version"] == "sqr_plan_v1"

    tables = _run(runner, *args, "--mode", "tables")
    assert tables.exit_code == 0
    separator_rows = [ln for ln in tables.output.splitlines()
                      if ln.startswith("| ---")]
    assert len(separator_rows) == 7

    statements = _run(runner, *args, "--mode", "statements")
    assert statements.exit_code == 0
    assert len(statements.output.strip().splitlines()) == 7

    prompt = _run(runner, *args, "--mode", "prompt")
    assert prompt.exit_code == 0
    assert "Facts:" in prompt.output

    report = _run(runner, *args, "--mode", "report")
    assert report.exit_code == 0
    assert report.output.startswith("REPORT:")


def test_report_out_writes_atomically_with_sidecar(runner, cli_ring_path,
                                                   tmp_path):
    out = tmp_path / "report.txt"
    args = ["report", "generate", "--ring", str(cli_ring_path),
            "--request", RANKING]
    result = _run(runner, *args, "--mode", "report", "--out", str(out))
    assert result.exit_code == 0
    assert out.read_text().startswith("REPORT:")
    sidecar = tmp_path / "report.txt.facts"
    assert sidecar.exists()

    statements = _run(runner, *args, "--mode", "statements")
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
        runner, cli_ring_path, tmp_path, monkeypatch, command, where):
    out = tmp_path / "missing" / "x.txt"
    if where == "failed_rename":
        out = tmp_path / "x.txt"

        def fail(src, dst):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(os, "replace", fail)
    result = runner.invoke(main, [*command, "--ring", str(cli_ring_path),
                                  "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: cannot write {out}: " in result.output
    assert "Traceback" not in result.output
    assert list(tmp_path.iterdir()) == []


def test_report_rejects_bad_request(runner, cli_ring_path, tmp_path):
    bad = tmp_path / "req.json"
    bad.write_text(json.dumps({"version": "report_request_v1"}))
    result = runner.invoke(main, ["report", "generate",
                                  "--ring", str(cli_ring_path),
                                  "--request", str(bad)])
    assert result.exit_code == 1
    assert "error:" in result.output


@pytest.mark.parametrize("name", ["ranking_california", "benchmark_california",
                                  "time_over_time_california"])
def test_report_analyzes_each_plan_once(runner, cli_ring_path, monkeypatch,
                                        name):
    calls = []
    analyze_plan = plans.analyze_plan

    def counted(ring, plan):
        calls.append(plan)
        return analyze_plan(ring, plan)

    for module in (plans, templates, compiler):
        monkeypatch.setattr(module, "analyze_plan", counted)
    instantiate = blueprints.instantiate
    facts = []

    def kept(*args):
        facts.extend(instantiate(*args))
        return facts

    monkeypatch.setattr(blueprints, "instantiate", kept)
    request = FIXTURES / "requests" / f"{name}.json"
    result = _run(runner, "report", "generate", "--ring", str(cli_ring_path),
                  "--request", str(request), "--mode", "statements")
    assert result.exit_code == 0
    # one analysis per fact, plus one per member part the facts share
    parts = 3 if "period" in json.loads(request.read_text()) else 1
    assert len(facts) < len(calls) <= len(facts) + parts


def test_report_plans_mode_rejects_average_of_year(runner, cli_ring_path,
                                                   tmp_path):
    doc = json.loads((FIXTURES / "requests" / "ranking_california.json")
                     .read_text())
    doc.update(metric="year", aggregation="average")
    request = tmp_path / "req.json"
    request.write_text(json.dumps(doc))
    result = runner.invoke(main, ["report", "generate",
                                  "--ring", str(cli_ring_path),
                                  "--request", str(request),
                                  "--mode", "plans"])
    assert result.exit_code == 1
    assert "error: step V: expected input" in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback


def test_importing_the_cli_leaves_requests_unloaded():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = "import sys, aag.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_report_rejects_unknown_mode(runner, cli_ring_path):
    result = runner.invoke(main, ["report", "generate",
                                  "--ring", str(cli_ring_path),
                                  "--request", RANKING,
                                  "--mode", "interpretive-dance"])
    assert result.exit_code == 2


def _private_copy(cli_ring_path, tmp_path):
    ring = tmp_path / cli_ring_path.name
    shutil.copy(cli_ring_path, ring)
    shutil.copy(cli_ring_path.parent / "wildfire.db", tmp_path / "wildfire.db")
    return ring, tmp_path / "wildfire.db"


def test_report_holds_no_lock_and_sees_new_rows(runner, cli_ring_path,
                                                tmp_path):
    ring, db = _private_copy(cli_ring_path, tmp_path)
    args = ["report", "generate", "--ring", str(ring), "--request", RANKING,
            "--mode", "statements"]
    before = _run(runner, *args)
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
    after = _run(runner, *args)
    assert after.exit_code == 0
    assert "A total of 3 states were compared." in after.output


def test_report_built_in_ranges_leaves_no_thread_or_connection(
        runner, cli_ring_path, split, opened):
    args = ["report", "generate", "--ring", str(cli_ring_path), "--request",
            RANKING, "--mode", "statements"]
    want = _run(runner, *args).output
    split(3)
    connections, closed = opened
    before, threads = len(connections), set(threading.enumerate())
    assert _run(runner, *args).output == want
    # the report's connection and two helpers' for its one partial table
    assert len(connections) - before == 3
    assert all(any(c is d for d in closed) for c in connections)
    assert set(threading.enumerate()) == threads


def test_report_runs_on_read_only_database(runner, cli_ring_path, tmp_path):
    ring, db = _private_copy(cli_ring_path, tmp_path)
    args = ["report", "generate", "--request", RANKING, "--mode",
            "statements"]
    want = _run(runner, *args, "--ring", str(cli_ring_path)).output
    db.chmod(0o444)
    tmp_path.chmod(0o555)
    try:
        result = _run(runner, *args, "--ring", str(ring))
    finally:
        tmp_path.chmod(0o755)
    assert result.exit_code == 0
    assert result.output == want
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["wildfire.db", "wildfire_ring.json"]
    assert stat.S_IMODE(db.stat().st_mode) == 0o444


def test_remote_non_json_reply_exits_1(runner, cli_ring_path, monkeypatch):
    class HtmlResponse:
        status_code = 200
        text = "<html>gateway</html>"

        def json(self):
            raise ValueError("Expecting value: line 1 column 1 (char 0)")

    monkeypatch.setattr(requests, "post", lambda *a, **k: HtmlResponse())
    result = runner.invoke(main, ["report", "generate",
                                  "--ring", str(cli_ring_path),
                                  "--request", RANKING,
                                  "--backend", "remote"])
    assert result.exit_code == 1
    assert "malformed response: <html>gateway</html>" in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
