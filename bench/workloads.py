"""The benchmark's workloads: their data, request streams and output checks.

Every workload is one closed-loop client: a report starts only after the
previous one has finished. ``aag`` sees only the files written here (the
database, the ring copied next to it and request documents).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import traceback
from pathlib import Path

import datagen

ROOT = datagen.ROOT
FIXTURE_REQUESTS = ROOT / "fixtures" / "requests"
GOLDENS = ROOT / "tests" / "goldens"
REPORT_TYPES = ("ranking", "comparative_benchmark", "time_over_time")
# every aggregation a report request admits
AGGREGATIONS = ("average", "count", "count_unique", "max", "median", "min",
                "standard_deviation", "sum")
# ``median`` fails today ("grouped median"). No timed report may fail, so it
# is left out of the drawn stream and sent once after timing as a probe.
DRAWN_AGGREGATIONS = tuple(a for a in AGGREGATIONS if a != "median")
N_STATES = 50
N_FIRES = 200_000
BATCH = 200


def required_files() -> list[Path]:
    """Files of the checkout the benchmark needs besides its own."""
    return [ROOT / "BENCHMARK.json", ROOT / "src" / "aag" / "cli.py",
            datagen.BUILD_SCRIPT, datagen.FIXTURE_RING, FIXTURE_REQUESTS,
            GOLDENS]


def report_args(ring: Path, request: Path, out: Path) -> list[str]:
    return ["report", "generate", "--ring", str(ring), "--request",
            str(request), "--mode", "report", "--out", str(out)]


# ---------------------------------------------------------------------------
# running one report: (status, message), status in ok / error / crash;
# "error" is an AagError reported with exit 1, "crash" anything else


def run_in_process(args: list[str], tracer=None) -> tuple[str, str]:
    from aag import cli

    def call():
        return cli.main(args, standalone_mode=False)

    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            if tracer is None:
                call()
            else:
                tracer.call_report(call)
    except SystemExit as e:
        if e.code == 1:
            return "error", err.getvalue().strip()
        return "crash", f"exit {e.code}: {err.getvalue().strip()}"
    except Exception:
        return "crash", traceback.format_exc(limit=-3)
    return "ok", ""


def run_cli(prefix: list[str], args: list[str], env: dict,
            cwd: Path) -> tuple[str, str]:
    proc = subprocess.run([sys.executable, *prefix, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)
    if proc.returncode == 0:
        return "ok", ""
    if proc.returncode == 1 and "Traceback" not in proc.stderr:
        return "error", proc.stderr.strip()
    return "crash", f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"


# ---------------------------------------------------------------------------
# workloads


class FixtureApi:
    """The 2-state, 6-fire fixture DB; the three fixture requests round
    robin, each an in-process ``aag.cli.main`` call. Database work is tiny,
    so the Python layers dominate."""

    name = "fixture_api"
    in_process = True
    cycle = 3           # reports per round of the request stream
    trace_reports = 30  # reports per traced pass
    writes = False

    def __init__(self, seed: int):
        self.seed = seed  # the fixture data and requests are fixed
        self.requests = sorted(FIXTURE_REQUESTS.glob("*.json"))
        self.goldens = {
            r: (GOLDENS / f"{r.stem}_statements.txt").read_bytes()
            for r in self.requests}

    def sizes(self) -> dict:
        return {"states": 2, "fires": 6, "requests": len(self.requests)}

    def setup(self, directory: Path) -> None:
        self.directory = directory
        with contextlib.redirect_stdout(io.StringIO()):
            datagen.build_script().build(directory / "wildfire.db")
        self.ring = datagen.copy_ring(directory)

    def request(self, i: int) -> Path:
        return self.requests[i % len(self.requests)]

    def warm_up(self) -> Path:
        return self.request(0)

    def probes(self) -> list[dict]:
        """Request documents of known defects, sent once after timing."""
        return []

    def check(self, request: Path, out: Path) -> str:
        """The ``.facts`` sidecar must equal the golden statements (the
        goldens end with a newline, the sidecar does not)."""
        facts = Path(f"{out}.facts").read_bytes() + b"\n"
        if facts != self.goldens[request]:
            return f"{request.name}: facts differ from the golden"
        return ""

    def close(self) -> None:
        pass


class CliCold(FixtureApi):
    """As ``fixture_api``, but every report is a fresh
    ``python -m aag.cli report generate ... --out`` process, so interpreter
    start and imports are paid on each report."""

    name = "cli_cold"
    in_process = False
    trace_reports = 6


class Scan200k:
    """50 states x 200k fires, read only: the three report types round robin
    with ``average`` and the target rotating over all states. SQLite
    execution dominates and the 4 MB database exceeds the per-connection
    page cache; every fact and every report rebuilds the same members
    subplan."""

    name = "scan_200k"
    in_process = True
    cycle = 3
    trace_reports = 6
    writes = False

    def __init__(self, seed: int, n_states: int = N_STATES,
                 n_fires: int = N_FIRES):
        self.seed = seed
        self.n_states = n_states
        self.n_fires = n_fires
        rng = random.Random(seed * 7919 + 1)
        self.targets = list(datagen.STATES[:n_states])
        rng.shuffle(self.targets)
        self.period = sorted(rng.sample(range(datagen.YEARS[0],
                                              datagen.YEARS[1] + 1), 2))
        self.benchmark = rng.choice([20, 50, 100, 200])
        self._values: dict = {}
        self._version = None

    def sizes(self) -> dict:
        return {"states": self.n_states, "fires": self.n_fires}

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.data = datagen.SyntheticDb(directory, self.n_states,
                                        self.n_fires, self.seed)
        self.ring = self.data.ring
        self._version = None

    def warm_up(self) -> Path:
        """A fixed, cheap request for the warm-up report."""
        return self.write_request(self.document(
            "time_over_time", self.targets[0], "average", self.period, []))

    def probes(self) -> list[dict]:
        return []

    def draw(self, i: int) -> dict:
        return self.document(REPORT_TYPES[i % 3],
                             self.targets[i % len(self.targets)],
                             "average", self.period, [])

    def document(self, report: str, target: str, aggregation: str,
                 period: list[int], filters: list[dict]) -> dict:
        doc = {
            "version": "report_request_v1",
            "report": report,
            "entity": "Wildfire",
            "metric": "size",
            "aggregation": aggregation,
            "cohort": {"entity": "State", "key": "name"},
            "target": target,
        }
        if filters:
            doc["filters"] = filters
        if report == "comparative_benchmark":
            doc["benchmark"] = self.benchmark
        if report == "time_over_time":
            doc["period"] = {"attribute": "year", "start": period[0],
                             "end": period[1]}
        return doc

    def request(self, i: int) -> Path:
        return self.write_request(self.draw(i))

    def write_request(self, doc: dict) -> Path:
        self.doc = doc
        path = self.directory / "request.json"
        path.write_text(json.dumps(doc))
        return path

    def values(self, aggregation: str, filters: list[dict], year) -> dict:
        """Reference metric per cohort member, recomputed after each write."""
        mirror = self.data.mirror
        if self._version != mirror.version:
            self._values.clear()
            self._version = mirror.version
        key = (aggregation, json.dumps(filters), year)
        if key not in self._values:
            self._values[key] = datagen.member_values(
                mirror.members(filters, year), aggregation)
        return self._values[key]

    def check(self, request: Path, out: Path) -> str:
        return check_facts(self.doc, Path(f"{out}.facts").read_text(),
                           self.values)

    def close(self) -> None:
        # free the mirror before the next set-up builds another
        self.data = None
        self._values.clear()
        self._version = None


class Ingest200k(Scan200k):
    """The same data, with writes beside the reads: before each report a
    loader connection commits one batch (``BATCH`` inserts, ``BATCH`` oldest
    deleted). Each request draws target, aggregation (all but ``median``),
    period and, sometimes, a size filter; report types come in rounds of
    three in random order, so every run has the same mix."""

    name = "ingest_200k"
    trace_reports = 12
    writes = True

    def setup(self, directory: Path) -> None:
        super().setup(directory)
        self.loader = datagen.Loader(self.data, BATCH)

    def sizes(self) -> dict:
        return dict(super().sizes(), batch=BATCH)

    def draw(self, i: int) -> dict:
        # rounds of three reports, one of each type in random order; each
        # type takes the drawn aggregations in blocks of all of them, in
        # random order; one round in three has a size filter
        rnd = i // 3
        report = random.Random(self.seed * 1_000_003 + rnd).sample(
            REPORT_TYPES, 3)[i % 3]
        n = len(DRAWN_AGGREGATIONS)
        block = random.Random(f"{self.seed}-{report}-{rnd // n}").sample(
            DRAWN_AGGREGATIONS, n)
        rng = random.Random(self.seed * 1_000_033 + i)
        target = rng.choice(self.targets)
        period = sorted(rng.sample(range(datagen.YEARS[0],
                                         datagen.YEARS[1] + 1), 2))
        filters = []
        if rnd % 3 == 2:
            # random thresholds that keep nearly every row: the members plan
            # changes without changing the amount of work much
            filters.append(rng.choice([
                {"attribute": "size", "op": "greater_than",
                 "value": round(rng.uniform(0.1, 2.0), 2)},
                {"attribute": "size", "op": "less_than",
                 "value": round(rng.uniform(2000, 20000), 1)}]))
        return self.document(report, target, block[rnd % n], period, filters)

    def probes(self) -> list[dict]:
        """A median ranking: fails today with "grouped median"."""
        return [self.document("ranking", self.targets[0], "median",
                              self.period, [])]

    def before_report(self) -> bool:
        """The loader's batch; False if the database was busy."""
        return self.loader.write_batch()

    def close(self) -> None:
        self.loader.close()
        super().close()


WORKLOADS = {w.name: w for w in (FixtureApi, CliCold, Scan200k, Ingest200k)}


# ---------------------------------------------------------------------------
# checking synthetic reports against the reference


def _number_after(line: str, marker: str):
    i = line.find(marker)
    if i < 0:
        return None
    word = line[i + len(marker):].split(" ")[0].rstrip(".")
    try:
        return float(word.replace(",", ""))
    except ValueError:
        return None


def _close(got, want) -> bool:
    # statements round to two decimals, half-even
    return got is not None and abs(got - want) <= 0.005 + 1e-9 * abs(want)


def check_facts(doc: dict, facts: str, values) -> str:
    """Compare the target-dependent facts of a report (target value; for
    ranking also cohort count and rank) with the reference. ``values(agg,
    filters, year)`` gives the reference metric per member. Returns a
    description of the first mismatch, or ""."""
    lines = facts.split("\n")
    target = doc["target"]
    filters = doc.get("filters", [])
    years = [None]
    if doc["report"] == "time_over_time":
        years = [doc["period"]["start"], doc["period"]["end"]]
    if len(lines) < (3 if doc["report"] == "ranking" else len(years)):
        return f"too few facts: {facts!r}"
    for line, year in zip(lines, years):
        members = values(doc["aggregation"], filters, year)
        if target not in members:
            return f"{target} has no fires in {year}, yet: {line!r}"
        got = _number_after(line, f" for {target} was ")
        if not _close(got, members[target]):
            return f"expected {members[target]!r}: {line!r}"
    if doc["report"] == "ranking":
        members = values(doc["aggregation"], filters, None)
        got = _number_after(lines[1], "A total of ")
        if got != len(members):
            return f"expected {len(members)} members: {lines[1]!r}"
        ranks = rank_range(members, target)
        if _number_after(lines[2], " ranked number ") not in ranks:
            return f"expected rank in {ranks}: {lines[2]!r}"
    return ""


def rank_range(members: dict, target: str) -> range:
    """Ranks the target may get, highest value first, ties in any order."""
    mine = members[target]
    above = sum(1 for v in members.values() if v > mine)
    ties = sum(1 for v in members.values() if v == mine)
    return range(above + 1, above + ties + 1)
