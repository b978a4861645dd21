"""The package's exceptions.

Every error the package raises is an ``AagError``, whose message is what the
CLI prints after ``error: `` before it exits 1; library callers catch
``AagError``. Two subclasses carry data: ``DbError.sql`` is the statement
SQLite rejected, and ``HttpError.status`` is the endpoint's HTTP status (0
when no response came back; a 401 or 403 is an ``HttpError`` too).
``json_input`` makes a JSON document that cannot be read an ``AagError``.
"""

from __future__ import annotations

from contextlib import contextmanager


class AagError(Exception):
    """Base class for all package errors."""


class DbError(AagError):
    def __init__(self, message: str, sql: str | None = None):
        self.sql = sql
        super().__init__(message if sql is None else f"{message}\noffending SQL: {sql}")


class HttpError(AagError):
    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: {body[:500]}")


@contextmanager
def json_input(path=None):
    """Read or parse a JSON document (from the file at ``path``, if given)
    in the block: a document that is not UTF-8, not JSON, or nested too
    deeply is an ``AagError`` that names the file."""
    try:
        yield
    # a UnicodeDecodeError, and a number past the digit limit, are ValueErrors
    except (ValueError, RecursionError) as e:
        raise AagError(f"invalid JSON{f' in {path}' if path else ''}: {e}") \
            from e
