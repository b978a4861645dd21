"""End-to-end acceptance criteria.

Each test prints exactly one pass/fail line (run with ``-s`` to see them on
success). The tests are ordered; criterion 10 must run last because it
reports on the acceptance run as a whole.
"""

import json
import re
import socket
import time
from contextlib import closing

import pytest

from aag import registry
from aag.blueprints import (
    ReportRequest,
    build_member_plan,
    builtin_templates,
    instantiate,
    load_blueprint,
    parse_request,
    render_facts,
)
from aag.compiler import compile_plan, connect, execute, run_plan
from aag.errors import AagError
from aag.oracle import oracle_eval
from aag.plans import analyze_plan, plan_to_dict, toposort
from aag.statements import format_value, render_table
from aag.types import AttributeType as T

from conftest import (GOLDENS, REPO, invoke, load_fixture_plan,
                      load_fixture_request)

_MODULE_START = time.monotonic()


def _check(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _results_agree(got, want) -> bool:
    if [c.name for c in got.columns] != [c.name for c in want.columns]:
        return False
    if len(got.rows) != len(want.rows):
        return False
    for g, w in zip(got.rows, want.rows):
        for gv, wv in zip(g, w):
            if isinstance(wv, float):
                if gv != pytest.approx(wv, rel=1e-9):
                    return False
            elif gv != wv:
                return False
    return True


def _request_for(aggregation: str) -> ReportRequest:
    doc = json.loads(load_fixture_request("ranking_california"))
    doc["aggregation"] = aggregation
    return parse_request(doc)


def _ranking_facts(ring, db):
    request = parse_request(json.loads(load_fixture_request(
        "ranking_california")))
    blueprint = load_blueprint(request.report)
    facts = instantiate(ring, blueprint, request)
    results = [run_plan(ring, f.plan, db) for f in facts]
    return facts, results, render_facts(facts, results)


def test_criterion_1_template_grid_matches_oracle(ring_db, dataset):
    """>= 40 template/attribute instances agree between compiler and oracle."""
    ring, db = ring_db
    templates = builtin_templates()
    single_member = ("cohort_count", "cohort_stats", "cohort_average",
                     "cohort_extremes", "cohort_median", "metric_value")
    start = time.monotonic()
    ran = 0
    mismatches = []
    misnumbered = []
    for agg in registry.DERIVATION_AGGREGATIONS:
        request = _request_for(agg)
        members = build_member_plan(ring, request)
        metric_col = f"{registry.get_signature(agg).nicename} size"
        for template_id in single_member:
            from aag.templates import fill_template

            bindings = {"members": members, "metric_col": metric_col}
            if template_id == "metric_value":
                bindings.update({"key_col": "name", "target": "California"})
            plan = fill_template(ring, templates[template_id], bindings)
            compiled = compile_plan(ring, plan)
            statements = []
            with closing(connect(db)) as conn:
                got = execute(compiled, conn,
                              lambda *ran: statements.append(ran))
            # every bound parameter of every statement is referenced: SQLite
            # itself only notices a dropped ?N when it is the highest one
            for sql, params in statements:
                numbers = {int(n) for n in re.findall(r"\?(\d+)", sql)}
                if numbers != set(range(1, len(params) + 1)):
                    misnumbered.append((agg, template_id))
            want = oracle_eval(ring, plan, dataset)
            if not _results_agree(got, want):
                mismatches.append((agg, template_id))
            ran += 1
    elapsed = time.monotonic() - start
    _check(1, ran >= 40 and not mismatches and not misnumbered
           and elapsed < 10.0,
           f"{ran} instances, {len(mismatches)} mismatches, "
           f"{len(misnumbered)} misnumbered, {elapsed:.2f}s (budget 10s)")


def test_criterion_2_registry_typing_is_exhaustive():
    """Every registered operation accepts valid inputs and rejects a kind
    mismatch, reporting the offending step."""
    all_types = list(T)

    def representative(allowed):
        if allowed is registry.ATTRIBUTE:
            return frozenset({T.ARITHMETIC})
        if allowed is registry.ATTRIBUTE_COLLECTION:
            return frozenset({T.ATTRIBUTE_COLLECTION})
        return frozenset({next(iter(allowed))})

    def disallowed(allowed):
        for t in all_types:
            if not registry.spec_accepts(allowed, frozenset({t})):
                return frozenset({t})
        return None

    checked_valid = 0
    checked_invalid = 0
    problems = []
    for name, sig in sorted(registry.REGISTRY.items()):
        valid = []
        for spec in sig.inputs:
            valid.extend([representative(spec.allowed)] * spec.min_arity)
        try:
            registry.match_args(sig, "X", valid)
            checked_valid += 1
        except Exception as e:
            problems.append(f"{name} rejected valid args: {e}")
            continue
        for i, spec in enumerate(sig.inputs):
            bad_type = disallowed(spec.allowed)
            if spec.min_arity == 0 or bad_type is None:
                continue
            offset = sum(s.min_arity for s in sig.inputs[:i])
            bad = list(valid)
            bad[offset] = bad_type
            try:
                registry.match_args(sig, "X", bad)
                problems.append(f"{name} accepted a kind mismatch")
            except AagError as e:
                if not re.match(r"^step X: expected input in", str(e)):
                    problems.append(f"{name} rejected a kind mismatch with {e}")
                checked_invalid += 1
            break
    _check(2, len(registry.REGISTRY) == 35 and checked_valid == 35
           and checked_invalid > 0 and not problems,
           f"{len(registry.REGISTRY)} operations, {checked_valid} valid "
           f"checks, {checked_invalid} mismatch checks, "
           f"problems: {problems or 'none'}")


def test_criterion_3_fixture_plan_analysis(ring_db, dataset):
    """The fixture plan types its aggregation correctly, compiles to one
    subplan, and matches the oracle."""
    ring, db = ring_db
    plan = load_fixture_plan("average_size_by_state_2020")
    info = analyze_plan(ring, plan)
    types_ok = info["H"].types == frozenset({T.ARITHMETIC, T.METRIC})
    subplans = compile_plan(ring, plan).subplans
    agree = _results_agree(run_plan(ring, plan, db),
                           oracle_eval(ring, plan, dataset))
    _check(3, types_ok and len(subplans) == 1 and agree,
           f"inferred {sorted(t.value for t in info['H'].types)}, "
           f"{len(subplans)} subplan(s), oracle agreement: {agree}")


def test_criterion_4_composition(ring_db, dataset):
    """Composed plans have unique labels, stay acyclic, typecheck, and are
    oracle-equivalent to evaluating the parts independently."""
    from aag.templates import fill_template

    ring, db = ring_db
    request = _request_for("average")
    members = build_member_plan(ring, request)
    composed = fill_template(ring, builtin_templates()["metric_value"], {
        "members": members, "key_col": "name",
        "metric_col": "average size", "target": "California",
    })

    unique = len(set(composed.steps)) == len(composed.steps)
    toposort(composed)          # raises on a cycle
    analyze_plan(ring, composed)  # raises on a type error

    # independent evaluation: run the member part alone, then apply the
    # template's selection by hand
    member_rows = oracle_eval(ring, members, dataset)
    names = [c.name for c in member_rows.columns]
    key, val = names.index("name"), names.index("average size")
    manual = [(r[val],) for r in member_rows.rows if r[key] == "California"]
    composed_rows = oracle_eval(ring, composed, dataset).rows
    compiled_rows = run_plan(ring, composed, db).rows
    equivalent = (manual == composed_rows
                  and composed_rows == [(pytest.approx(r[0], rel=1e-9),)
                                        for r in compiled_rows])
    _check(4, unique and equivalent,
           f"labels unique: {unique}, acyclic and typechecked, "
           f"part-wise equivalence: {equivalent}")


def test_criterion_5_blueprint_counts_and_determinism(ring):
    """Report types produce 7/6/9 facts, byte-identical across 10 runs."""
    want = {"ranking_california": 7, "benchmark_california": 6,
            "time_over_time_california": 9}
    counts = {}
    stable = True
    for name, expected in want.items():
        request = parse_request(json.loads(load_fixture_request(name)))
        blueprint = load_blueprint(request.report)
        runs = set()
        for _ in range(10):
            facts = instantiate(ring, blueprint, request)
            runs.add("\n".join(f"{f.id}\t{json.dumps(plan_to_dict(f.plan))}"
                               for f in facts))
            counts[name] = len(facts)
        stable = stable and len(runs) == 1
    ok = stable and all(counts[n] == want[n] for n in want)
    _check(5, ok, f"fact counts {counts}, byte-identical over 10 runs: "
                  f"{stable}")


def test_criterion_6_golden_statements(ring_db, dataset):
    """Ranking statements match the checked-in goldens; rank, gap, and flag
    facts are cross-validated against the oracle."""
    ring, db = ring_db
    facts, results, texts = _ranking_facts(ring, db)
    golden = (GOLDENS / "ranking_california_statements.txt").read_text()
    matches = "\n".join(texts) + "\n" == golden

    cross = {}
    for f, result in zip(facts, results):
        if f.id in ("target_rank", "gap_to_highest", "above_average"):
            cross[f.id] = _results_agree(result,
                                         oracle_eval(ring, f.plan, dataset))
    _check(6, matches and len(cross) == 3 and all(cross.values()),
           f"golden match: {matches}, oracle cross-validation: {cross}")


def test_criterion_7_tables_and_statements_agree(ring_db):
    """Every value a statement cites appears in the fact's rendered table."""
    ring, db = ring_db
    facts, results, _ = _ranking_facts(ring, db)
    missing = []
    for f, result in zip(facts, results):
        table = render_table(result)
        for name, b in f.statement.bindings.items():
            if b.column is None or b.word_map is not None:
                continue
            rows = result.rows if b.as_list else result.rows[:1]
            for row in rows:
                cell = format_value(row[b.column], None)
                if f"| {cell} |" not in table and f"| {cell} " not in table:
                    missing.append((f.id, name, cell))
    _check(7, not missing, f"per-fact value agreement, missing: "
                           f"{missing or 'none'}")


def test_criterion_8_echo_report_grounding(cli_ring_path, tmp_path):
    """The echo report contains every fact verbatim and the facts sidecar is
    byte-identical to the statements output."""
    request = str(REPO / "fixtures" / "requests" / "ranking_california.json")
    out = tmp_path / "report.txt"
    base = ["report", "generate", "--ring", str(cli_ring_path),
            "--request", request]

    start = time.monotonic()
    result = invoke(base + ["--mode", "report", "--out", str(out)])
    elapsed = time.monotonic() - start
    report = out.read_text()
    statements = invoke(base + ["--mode", "statements"])
    facts = statements.output.rstrip("\n").splitlines()

    verbatim = all(f in report for f in facts)
    sidecar = (tmp_path / "report.txt.facts").read_bytes()
    identical = sidecar == statements.output.rstrip("\n").encode()
    _check(8, result.exit_code == 0 and verbatim and identical
           and elapsed < 5.0,
           f"{len(facts)} facts verbatim: {verbatim}, sidecar identical: "
           f"{identical}, {elapsed:.2f}s (budget 5s)")


def test_criterion_9_readme_reproducibility():
    """The README states the structural reproducibility guarantee."""
    readme = (REPO / "README.md").read_text()
    has_section = "## Reproducibility" in readme
    has_guarantee = "structural guarantee" in readme \
        and "byte-identical" in readme
    _check(9, has_section and has_guarantee,
           f"section present: {has_section}, guarantee stated: "
           f"{has_guarantee}")


def test_criterion_10_offline_and_fast(cli_ring_path, monkeypatch):
    """The pipeline needs no network and the acceptance run stays in budget."""
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted")

    monkeypatch.setattr(socket.socket, "connect", no_network)
    request = str(REPO / "fixtures" / "requests" / "ranking_california.json")
    result = invoke([
        "report", "generate", "--ring", str(cli_ring_path),
        "--request", request, "--mode", "report"])
    elapsed = time.monotonic() - _MODULE_START
    _check(10, result.exit_code == 0 and elapsed < 60.0,
           f"end-to-end run with sockets disabled: exit "
           f"{result.exit_code}, acceptance module took {elapsed:.2f}s "
           f"(budget 60s)")
