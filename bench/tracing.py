"""Spans and counts around the calls into each ``aag`` layer.

Tracing wraps module attributes from outside the package: a span records
name, start, end, parent span and report id, and is kept in memory. A
layer's self time is its span time minus the time its child spans cover.
Per-layer metrics are reported per report.
"""

from __future__ import annotations

import functools
import re
import sqlite3
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

# Each wrapped function: (module, attribute, span name). Spans whose names
# share a prefix before the dot belong to one layer. ``analyze_plan`` is
# wrapped in every module that imports it by name; modules the process has
# not imported are left alone.
WRAPPED = (
    ("cli", "load_ring", "ring.load"),
    ("cli", "validate_ring", "ring.load"),
    ("cli", "derive_attributes", "ring.load"),
    ("blueprints", "instantiate", "blueprints.instantiate"),
    ("blueprints", "builtin_templates", "templates.load"),
    ("blueprints", "fill_template", "templates.fill"),
    ("plans", "analyze_plan", "plans.analyze"),
    ("compiler", "analyze_plan", "plans.analyze"),
    ("templates", "analyze_plan", "plans.analyze"),
    ("oracle", "analyze_plan", "plans.analyze"),
    ("compiler", "compile_plan", "compiler.compile"),
    ("compiler", "execute", "compiler.execute"),
    ("blueprints", "render_facts", "statements.render"),
    ("blueprints", "build_prompt", "prompt.build"),
    ("llm", "generate", "llm.generate"),
)
ROOT_SPAN = "cli.self"
SPAN_NAMES = (ROOT_SPAN,) + tuple(dict.fromkeys(n for _, _, n in WRAPPED))
ERROR_LAYERS = ("cli", "ring", "blueprints", "templates", "plans", "compiler",
                "statements", "prompt", "llm")
VM_STEP_INTERVAL = 1000


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, report]
        self.stack: list[int] = []
        self.report = 0
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.report])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _error(self, name: str, exc: BaseException) -> None:
        # an error is counted once, in the innermost layer it leaves
        if not getattr(exc, "_bench_layer", None):
            exc._bench_layer = name.split(".")[0]
            self.counts[f"{exc._bench_layer}.errors"] += 1
            if "locked" in str(exc) or "busy" in str(exc):
                self.counts["sqlite.busy"] += 1

    def call_report(self, fn):
        """Run one report under the root span."""
        from aag.errors import AagError

        self.report += 1
        index = self._open(ROOT_SPAN)
        try:
            return fn()
        except AagError as e:
            self._error(ROOT_SPAN, e)
            raise
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        from aag.errors import AagError

        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[f"{name}_calls"] += 1
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except AagError as e:
                tracer._error(name, e)
                raise
            finally:
                tracer._close(index)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def install(self) -> None:
        counts = self.counts
        after = {
            "blueprints.instantiate":
                lambda facts: counts.update({"blueprints.facts": len(facts)}),
            "compiler.compile": self._count_compiled,
            "compiler.execute":
                lambda rs: counts.update({"compiler.rows_returned":
                                          len(rs.rows)}),
            "prompt.build":
                lambda text: counts.update({"prompt.bytes":
                                            len(text.encode())}),
        }
        for module, attr, name in WRAPPED:
            owner = sys.modules.get(f"aag.{module}")
            if owner is not None:
                self.wrap(owner, attr, name, after.get(name))

        connect = sqlite3.connect

        def tick():
            counts["sqlite.vm_ksteps"] += 1
            return 0

        @functools.wraps(connect)
        def traced_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)
            counts["sqlite.connects"] += 1
            conn.set_progress_handler(tick, VM_STEP_INTERVAL)
            return conn

        sqlite3.connect = traced_connect
        self._undo.append((sqlite3, "connect", connect))

    def _count_compiled(self, compiled) -> None:
        self.counts["compiler.sql_bytes"] += len(compiled.sql.encode())
        self.counts["compiler.ctes"] += sum(
            1 for s in compiled.subplans if s.kind != "terminal")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def merge(self, dump: dict) -> None:
        """Add the spans and counts of one report traced in another
        process."""
        offset = len(self.spans)
        self.report += 1
        for name, start, end, parent, _ in dump["spans"]:
            self.spans.append([name, start, end,
                               None if parent is None else parent + offset,
                               self.report])
        self.counts.update(dump["counts"])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    child = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - child[i]
    return totals


def layer_metrics(spans: list[list], counts: Counter, n_reports: int,
                  count_reports: int) -> dict[str, float]:
    """Per-report layer metrics: times from ``spans`` over ``n_reports``,
    counts from ``counts`` over ``count_reports``."""
    selfs = self_times(spans)
    out = {f"{name}_ms": 1000 * selfs.get(name, 0.0) / n_reports
           for name in SPAN_NAMES}
    executes = [e - s for name, s, e, _, _ in spans
                if name == "compiler.execute"]
    out["compiler.execute_fact_p50_ms"] = (
        1000 * statistics.median(executes) if executes else 0.0)
    for key in ("blueprints.facts", "prompt.bytes", "templates.fill_calls",
                "plans.analyze_calls", "compiler.sql_bytes", "compiler.ctes",
                "compiler.execute_calls", "compiler.rows_returned",
                "sqlite.connects", "sqlite.vm_ksteps", "sqlite.busy",
                *(f"{layer}.errors" for layer in ERROR_LAYERS)):
        out[key] = counts.get(key, 0) / count_reports
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_times(env: dict, cwd: str, repeats: int) -> dict[str, float]:
    """Median cumulative import time (ms) of ``aag.cli``, ``requests`` and
    ``click`` under ``python -X importtime``, and the wall time of a bare
    interpreter start."""
    found = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import aag.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(2) in ("aag.cli", "requests", "click"):
                found[m.group(2)].append(int(m.group(1)) / 1000)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd,
                       check=True)
        found["startup"].append(1000 * (time.perf_counter() - t0))
    # a module that ``aag.cli`` no longer imports reads 0
    return {
        f"{prefix}_ms": statistics.median(found[key]) if found[key] else 0.0
        for key, prefix in (("aag.cli", "import.aag_cli"),
                            ("requests", "import.requests"),
                            ("click", "import.click"),
                            ("startup", "startup.python"))
    }
