import io
import random
import shutil
import sqlite3
import subprocess
import sys
from contextlib import closing, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import pytest

from aag.cli import main
from aag.oracle import MemoryDataset
from aag.ring import derive_attributes, load_ring

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
GOLDENS = Path(__file__).resolve().parent / "goldens"

RING_PATH = FIXTURES / "wildfire" / "wildfire_ring.json"


@pytest.fixture(scope="session")
def db_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("db") / "wildfire.db"
    subprocess.run(
        [sys.executable, str(REPO / "scripts" / "build_wildfire_db.py"),
         str(path)],
        check=True, capture_output=True,
    )
    return path


@pytest.fixture(scope="session")
def base_ring():
    """The seed ring as written, without derived attributes."""
    return load_ring(RING_PATH)


@pytest.fixture(scope="session")
def ring(base_ring):
    """The seed ring with derived aggregate attributes."""
    return derive_attributes(base_ring)


@pytest.fixture(scope="session")
def dataset() -> MemoryDataset:
    return MemoryDataset.from_csv(FIXTURES / "wildfire")


@pytest.fixture(scope="session")
def ring_db(ring, db_path):
    """Convenience pair used by most execution tests."""
    return ring, db_path


@pytest.fixture(scope="session")
def cli_ring_path(tmp_path_factory, db_path) -> Path:
    """A ring document with its database sitting next to it, as the CLI
    resolves relative ``sqlite://`` paths against the ring's directory."""
    d = tmp_path_factory.mktemp("cli")
    ring_file = d / "wildfire_ring.json"
    ring_file.write_text(RING_PATH.read_text())
    shutil.copy(db_path, d / "wildfire.db")
    return ring_file


FIRES = ("CREATE TABLE wildfires (id INTEGER PRIMARY KEY, state_id "
         "INTEGER, size_acres REAL, year INTEGER{})")


def write_db(path, dataset, fires=FIRES.format(""), after=""):
    """A database at ``path`` holding ``dataset``, its fires in the table
    ``fires`` creates; ``after`` runs once the rows are in."""
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript(
            "CREATE TABLE states (id INTEGER PRIMARY KEY, name TEXT);" + fires)
        for table, rows in dataset.tables.items():
            cols = list(rows[0])
            conn.executemany(
                f"INSERT INTO {table} ({', '.join(cols)}) VALUES "
                f"({', '.join('?' * len(cols))})",
                [tuple(r[c] for c in cols) for r in rows])
        conn.executescript(after)
        conn.commit()
    return path


@pytest.fixture(scope="session")
def nullable_db(tmp_path_factory):
    """A seeded database with NULLs, its oracle dataset beside it: two
    states share a name, Utah has no fires, Idaho's fires have no size, and
    some other fires have no size or no state."""
    rng = random.Random(3)
    states = [(1, "California"), (2, "Nevada"), (3, "Oregon"),
              (4, "Nevada"), (5, "Utah"), (6, "Idaho")]
    fires = [(i, rng.choice([1, 1, 2, 3, 4, None]),
              None if rng.random() < 0.15 else round(rng.uniform(0, 500), 1),
              rng.choice([2018, 2019, 2020])) for i in range(1, 121)]
    fires += [(121, 6, None, 2019), (122, 6, None, 2020)]
    dataset = MemoryDataset(tables={
        "states": [dict(zip(("id", "name"), r)) for r in states],
        "wildfires": [dict(zip(("id", "state_id", "size_acres", "year"), r))
                      for r in fires]})
    path = tmp_path_factory.mktemp("nullable") / "wildfire.db"
    return write_db(path, dataset), dataset


@pytest.fixture(autouse=True)
def drop_reader(monkeypatch):
    """A store of kept read connections of the test's own, so no test reads
    TEMP tables another built. Calling it closes and forgets the main
    thread's kept connection, as the end of the test does."""
    from aag import compiler

    readers = type(compiler._readers)()
    monkeypatch.setattr(compiler, "_readers", readers)

    def drop() -> None:
        kept, readers.kept = getattr(readers, "kept", None), None
        if kept is not None:
            kept.conn.close()
    yield drop
    drop()


@pytest.fixture(autouse=True)
def forget_requests():
    """No test sees the command lines and report requests another parsed,
    nor the requests another bound."""
    from aag import cli

    cli._parsed.cache_clear()
    cli._bound_facts.cache_clear()


@pytest.fixture
def opened(monkeypatch):
    """The connections ``sqlite3.connect`` opens while the test runs, and
    those of them closed."""
    opened, closed = [], []
    connect = sqlite3.connect

    class Tracked(sqlite3.Connection):
        def close(self):
            closed.append(self)
            super().close()

    def tracked(*args, **kwargs):
        opened.append(connect(*args, factory=Tracked, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", tracked)
    return opened, closed


@pytest.fixture
def split(monkeypatch):
    """``split(cpus, block_rows=1)`` builds every partial table whose fact
    table's rowids span ``compiler.MIN_BLOCKS`` blocks of ``block_rows`` or
    more in blocks, on ``cpus`` connections or one per block when fewer."""
    from aag import compiler

    def split(cpus: int, block_rows: int = 1) -> None:
        monkeypatch.setattr(compiler, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(compiler, "_cpus", lambda: cpus)
    return split


def load_fixture_plan(name: str):
    from aag.plans import parse_plan

    return parse_plan((FIXTURES / "plans" / f"{name}.json").read_text())


def load_fixture_request(name: str) -> str:
    return (FIXTURES / "requests" / f"{name}.json").read_text()


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None  # what ended the run, if anything did

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args) -> CliResult:
    """Run ``aag.cli.main(args)`` in process with stdout and stderr
    captured. A ``SystemExit`` ends it as it would end the process; any
    other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    exception, code = None, 0
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main(list(args))
    except SystemExit as e:
        exception, code = e, e.code or 0
    return CliResult(code, out.getvalue(), err.getvalue(), exception)
