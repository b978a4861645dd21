"""Every CLI output of the fixture requests and plans, byte for byte against
the files in ``tests/goldens``: each ``report generate --mode``, the
``.facts`` sidecar of ``--out``, the ``plan run`` table, the statements
of the ranking request with each holistic aggregation a report takes, and
the SQL that ``--mode tables --verbose`` prints for each of these requests."""

import pytest
from conftest import FIXTURES, GOLDENS, invoke

REQUESTS = ("benchmark_california", "ranking_california",
            "time_over_time_california")
MODES = {"plans": "json", "tables": "md", "statements": "txt",
         "prompt": "txt", "report": "txt"}
PLANS = ("all_sizes", "average_size_by_state_2020", "max_of_state_averages")

CASES = [
    (f"{name}_{mode}.{ext}",
     ["report", "generate", "--request",
      str(FIXTURES / "requests" / f"{name}.json"), "--mode", mode])
    for name in REQUESTS for mode, ext in MODES.items()
] + [
    (f"{name}_plan_run.md",
     ["plan", "run", "--plan", str(FIXTURES / "plans" / f"{name}.json")])
    for name in PLANS
] + [
    (f"ranking_california_{agg}_statements.txt",
     ["report", "generate", "--request",
      str(FIXTURES / "aggregations" / f"ranking_california_{agg}.json"),
      "--mode", "statements"])
    for agg in ("count_unique", "median")
]


@pytest.mark.parametrize("golden, args", CASES, ids=[g for g, _ in CASES])
def test_output_matches_golden(cli_ring_path, tmp_path, golden, args):
    want = (GOLDENS / golden).read_bytes()
    args = [*args, "--ring", str(cli_ring_path)]
    result = invoke(args)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == want
    if golden.endswith("_report.txt"):
        # --out writes the same text, and its sidecar the statements
        out = tmp_path / "report.txt"
        assert invoke([*args, "--out", str(out)]).exit_code == 0
        statements = golden.replace("_report.", "_statements.")
        assert out.read_bytes() + b"\n" == want
        assert (tmp_path / "report.txt.facts").read_bytes() + b"\n" == \
            (GOLDENS / statements).read_bytes()


SQL_CASES = [(f"{name}_sql.txt", FIXTURES / "requests" / f"{name}.json")
             for name in REQUESTS] + [
    (f"ranking_california_{agg}_sql.txt",
     FIXTURES / "aggregations" / f"ranking_california_{agg}.json")
    for agg in ("count_unique", "median")]


@pytest.mark.parametrize("golden, request_path", SQL_CASES,
                         ids=[g for g, _ in SQL_CASES])
def test_verbose_sql_matches_golden(cli_ring_path, drop_reader, golden,
                                    request_path):
    """On a dropped reader every TEMP table is built, so every statement
    and its parameters print."""
    drop_reader()
    result = invoke(["report", "generate", "--ring", str(cli_ring_path),
                     "--request", str(request_path), "--mode", "tables",
                     "--verbose"])
    assert result.exit_code == 0, result.output
    assert result.stderr.encode() == (GOLDENS / golden).read_bytes()
