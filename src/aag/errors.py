"""Exception taxonomy shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class AagError(Exception):
    """Base class for all package errors."""


class ParseError(AagError):
    """A document (ring, plan, template, request) could not be parsed."""


@dataclass(frozen=True)
class Violation:
    """One machine-readable invariant violation with a path to the offending field."""

    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.path}: {self.message}"


class PlanTypeError(AagError):
    """A plan step's inputs do not satisfy the operation signature."""

    def __init__(self, label: str, expected, found, message: str = ""):
        self.label = label
        self.expected = expected
        self.found = found
        super().__init__(
            message
            or f"step {label}: expected input in {sorted(str(t) for t in expected)}, "
            f"found {sorted(str(t) for t in found)}"
        )


class ArityError(AagError):
    def __init__(self, label: str, message: str):
        self.label = label
        super().__init__(f"step {label}: {message}")


class CycleError(AagError):
    """The plan's reference graph contains a cycle."""


class UnknownEntityError(AagError):
    pass


class UnknownAttributeError(AagError):
    pass


class UnboundSlotError(AagError):
    pass


class SlotKindMismatchError(AagError):
    pass


class WiringError(AagError):
    pass


class NoRelationshipError(AagError):
    """Two entities are co-referenced but the ring declares no relationship."""


class UnsupportedPatternError(AagError):
    """The plan shape cannot be expressed in the target SQL dialect."""


class DbError(AagError):
    def __init__(self, message: str, sql: str | None = None):
        self.sql = sql
        super().__init__(message if sql is None else f"{message}\noffending SQL: {sql}")


class MissingColumnError(AagError):
    pass


class UnexpectedRowCountError(AagError):
    pass


class EmptyFactsError(AagError):
    pass


class HttpError(AagError):
    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: {body[:500]}")


class AuthError(HttpError):
    pass


class GenerationTimeoutError(AagError):
    pass
