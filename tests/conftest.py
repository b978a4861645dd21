import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

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
    """``split(k)`` builds every partial table of more than k rows in k
    rowid ranges."""
    from aag import compiler

    def split(k: int) -> None:
        monkeypatch.setattr(compiler, "PARTITION_ROWS", 1)
        monkeypatch.setattr(compiler, "_cpus", lambda: k)
    return split


def load_fixture_plan(name: str):
    from aag.plans import load_plan

    return load_plan(FIXTURES / "plans" / f"{name}.json")


def load_fixture_request(name: str) -> str:
    return (FIXTURES / "requests" / f"{name}.json").read_text()
