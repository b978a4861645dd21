"""Seeded synthetic wildfire data, the loader that writes to it, and the
reference aggregates the benchmark checks reports against.

The database uses the fixture schema from ``scripts/build_wildfire_db.py``.
The benchmark keeps its own copy of every row it wrote (``Mirror``), so the
reference values come from the generated rows, never from ``aag``.
"""

from __future__ import annotations

import importlib.util
import math
import random
import shutil
import sqlite3
import statistics
from collections import defaultdict, deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_RING = ROOT / "fixtures" / "wildfire" / "wildfire_ring.json"
BUILD_SCRIPT = ROOT / "scripts" / "build_wildfire_db.py"

YEARS = (2015, 2024)
STATES = (
    "Alabama", "Alaska", "Arizona", "Arkansas", "California", "Colorado",
    "Connecticut", "Delaware", "Florida", "Georgia", "Hawaii", "Idaho",
    "Illinois", "Indiana", "Iowa", "Kansas", "Kentucky", "Louisiana", "Maine",
    "Maryland", "Massachusetts", "Michigan", "Minnesota", "Mississippi",
    "Missouri", "Montana", "Nebraska", "Nevada", "New Hampshire",
    "New Jersey", "New Mexico", "New York", "North Carolina", "North Dakota",
    "Ohio", "Oklahoma", "Oregon", "Pennsylvania", "Rhode Island",
    "South Carolina", "South Dakota", "Tennessee", "Texas", "Utah", "Vermont",
    "Virginia", "Washington", "West Virginia", "Wisconsin", "Wyoming",
)

# Keep the benchmark's own connections out of any tracing wrapper that is
# later installed on sqlite3.connect.
connect = sqlite3.connect


def build_script():
    """The fixture build script, imported from the checkout (its SCHEMA and
    ``build`` are the single source of the table layout)."""
    spec = importlib.util.spec_from_file_location("build_wildfire_db",
                                                  BUILD_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copy_ring(directory: Path) -> Path:
    """Copy the fixture ring next to the database: the ring's
    ``sqlite://wildfire.db`` resolves relative to the ring file."""
    ring = directory / "wildfire_ring.json"
    shutil.copyfile(FIXTURE_RING, ring)
    return ring


class FireSource:
    """Seeded stream of fires: state, size in acres (log-normal, rounded to
    0.1 so ties occur) and year."""

    def __init__(self, rng: random.Random, n_states: int):
        self.rng = rng
        self.state_ids = list(range(1, n_states + 1))
        # uneven state weights, so counts and sums rank differently
        self.weights = [rng.lognormvariate(0.0, 0.5) for _ in self.state_ids]

    def fires(self, n: int) -> list[tuple[int, float, int]]:
        rng = self.rng
        states = rng.choices(self.state_ids, weights=self.weights, k=n)
        return [(s, max(0.1, round(rng.lognormvariate(3.0, 1.5), 1)),
                 rng.randint(*YEARS)) for s in states]


class Mirror:
    """The benchmark's copy of the ``wildfires`` table, in id order.
    ``version`` changes with every write."""

    def __init__(self, names: list[str]):
        self.names = names          # state id - 1 -> name
        self.rows: deque[tuple[int, int, float, int]] = deque()
        self.next_id = 1
        self.version = 0

    def numbered(self, fires) -> list[tuple[int, int, float, int]]:
        return [(self.next_id + i, *fire) for i, fire in enumerate(fires)]

    def add(self, rows) -> None:
        self.rows.extend(rows)
        self.next_id = self.rows[-1][0] + 1
        self.version += 1

    def drop_oldest(self, k: int) -> None:
        for _ in range(k):
            self.rows.popleft()
        self.version += 1

    def members(self, filters=(), year=None) -> dict[str, list[float]]:
        """Sizes per state name, for rows passing the size filters and the
        year (the request's ``members`` subplan, computed directly)."""
        tests = [_FILTER_OPS[f["op"]] for f in filters]
        values = [f["value"] for f in filters]
        groups: dict[int, list[float]] = defaultdict(list)
        for _, state, size, y in self.rows:
            if year is not None and y != year:
                continue
            if tests and not all(t(size, v) for t, v in zip(tests, values)):
                continue
            groups[state].append(size)
        return {self.names[s - 1]: sizes for s, sizes in groups.items()}


_FILTER_OPS = {
    "greater_than": lambda x, v: x > v,
    "less_than": lambda x, v: x < v,
}


def aggregate(op: str, xs: list[float]):
    if op == "count":
        return len(xs)
    if op == "count_unique":
        return len(set(xs))
    if op == "average":
        return math.fsum(xs) / len(xs)
    if op == "sum":
        return math.fsum(xs)
    if op == "max":
        return max(xs)
    if op == "min":
        return min(xs)
    if op == "median":
        return float(statistics.median(xs))
    if op == "standard_deviation":
        return statistics.pstdev(xs)
    raise ValueError(f"no reference for aggregation {op!r}")


def member_values(members: dict[str, list[float]], op: str) -> dict:
    return {name: aggregate(op, xs) for name, xs in members.items()}


class SyntheticDb:
    """A generated database of ``n_states`` states and ``n_fires`` fires in
    ``directory``, with the ring copied next to it."""

    def __init__(self, directory: Path, n_states: int, n_fires: int,
                 seed: int):
        if not 1 <= n_states <= len(STATES):
            raise ValueError(f"n_states must be 1..{len(STATES)}")
        self.db = directory / "wildfire.db"
        self.ring = copy_ring(directory)
        self.source = FireSource(random.Random(seed), n_states)
        self.mirror = Mirror(list(STATES[:n_states]))
        self.mirror.add(self.mirror.numbered(self.source.fires(n_fires)))
        conn = connect(str(self.db))
        try:
            conn.executescript(build_script().SCHEMA)
            conn.executemany("INSERT INTO states (id, name) VALUES (?, ?)",
                             list(enumerate(self.mirror.names, 1)))
            conn.executemany(
                "INSERT INTO wildfires (id, state_id, size_acres, year) "
                "VALUES (?, ?, ?, ?)", self.mirror.rows)
            conn.commit()
        finally:
            conn.close()


class Loader:
    """Writes batches beside the reports from its own connection: each batch
    inserts ``k`` new fires and deletes the ``k`` oldest, in one transaction,
    so the table keeps its size while every aggregate drifts."""

    def __init__(self, data: SyntheticDb, k: int):
        self.data = data
        self.k = k
        self.conn = connect(str(data.db), isolation_level=None)

    def write_batch(self) -> bool:
        """Commit one batch; False if SQLite reported the database busy (the
        batch is then rolled back and the mirror left unchanged)."""
        mirror = self.data.mirror
        rows = mirror.numbered(self.data.source.fires(self.k))

        def batch():
            self.conn.execute("BEGIN IMMEDIATE")
            self.conn.executemany(
                "INSERT INTO wildfires (id, state_id, size_acres, year) "
                "VALUES (?, ?, ?, ?)", rows)
            self.conn.execute(
                "DELETE FROM wildfires WHERE id IN "
                "(SELECT id FROM wildfires ORDER BY id LIMIT ?)", (self.k,))

        if not _commit(self.conn, batch):
            return False
        mirror.add(rows)
        mirror.drop_oldest(self.k)
        return True

    def close(self) -> None:
        self.conn.close()


def probe_write_lock(conn: sqlite3.Connection) -> bool:
    """Take and release the write lock without changing any data: shows
    whether a reader still holds the database between reports. False if
    SQLite reported the database busy."""
    return _commit(conn, lambda: conn.execute("BEGIN EXCLUSIVE"))


def _commit(conn: sqlite3.Connection, begin_and_write) -> bool:
    """Run ``begin_and_write`` and commit; on a busy or locked database roll
    back and return False."""
    try:
        begin_and_write()
        conn.execute("COMMIT")
    except sqlite3.OperationalError as e:
        if conn.in_transaction:
            conn.execute("ROLLBACK")
        if "locked" not in str(e) and "busy" not in str(e):
            raise
        return False
    return True
