"""The package's exceptions.

Every error the package raises is an ``AagError``, whose message is what the
CLI prints after ``error: `` before it exits 1; library callers catch
``AagError``. Two subclasses carry data: ``DbError.sql`` is the statement
SQLite rejected, and ``HttpError.status`` is the endpoint's HTTP status (0
when no response came back; a 401 or 403 is an ``HttpError`` too).
"""

from __future__ import annotations


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
