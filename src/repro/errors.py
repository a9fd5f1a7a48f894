"""Shared exception hierarchy for the ETable reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause while
still being able to distinguish the layer that failed (relational layer,
typed-graph model, translator, ETable core, or study simulator).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class RelationalError(ReproError):
    """Base class for errors raised by the relational layer."""


class SchemaError(RelationalError):
    """A table or database schema is malformed (duplicate columns, bad FK...)."""


class ConstraintViolation(RelationalError):
    """An insert or update violates a declared constraint."""


class PrimaryKeyViolation(ConstraintViolation):
    """A duplicate primary-key value was inserted."""


class ForeignKeyViolation(ConstraintViolation):
    """A foreign-key value does not reference an existing row."""


class NotNullViolation(ConstraintViolation):
    """A NULL value was supplied for a NOT NULL column."""


class TypeMismatch(RelationalError):
    """A value cannot be coerced to the declared column type."""


class UnknownTable(RelationalError):
    """A query referenced a table that is not in the catalog."""


class SqlSyntaxError(RelationalError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class TgmError(ReproError):
    """Base class for typed-graph-model errors."""


class UnknownNodeType(TgmError):
    """A node type name is not part of the schema graph."""


class UnknownEdgeType(TgmError):
    """An edge type name is not part of the schema graph."""


class GraphIntegrityError(TgmError):
    """An instance-graph operation would break schema conformance."""


class TranslationError(ReproError):
    """The relational schema violates the Appendix A translation assumptions."""


class EtableError(ReproError):
    """Base class for ETable presentation-model errors."""


class InvalidQueryPattern(EtableError):
    """A query pattern is not a connected acyclic graph rooted in its types."""


class InvalidOperator(EtableError):
    """A primitive operator was applied in a state where it is undefined."""


class InvalidAction(EtableError):
    """A user-level action referenced a column, row, or cell that is absent."""


class ServiceError(ReproError):
    """Base class for multi-user navigation-service errors."""


class ProtocolError(ServiceError):
    """A wire-protocol request is malformed (bad action, params, version)."""


class UnknownSession(ServiceError):
    """A request referenced a session id the manager does not host."""


class JournalCorrupt(ServiceError):
    """An action journal contains an undecodable record before its tail."""


class AuthError(ServiceError):
    """A request's per-session auth token is missing or wrong."""


class QuotaExceeded(ServiceError):
    """A session spent its action quota for the current window."""


class WorkerFailure(ServiceError):
    """A fleet worker process failed mid-request and could not be retried."""


class Overloaded(ServiceError):
    """The frontend shed this request: its in-flight cap is reached.

    Clients should honor the accompanying ``Retry-After`` and resubmit;
    nothing about the session changed.
    """


class Degraded(ServiceError):
    """A session's journal stopped accepting writes (disk full, IO error).

    The session is read-only until recovered: mutating actions are
    refused rather than accepted-but-not-durable, because an accepted
    action that would vanish on crash breaks the bit-identical-resume
    contract.
    """


class StudyError(ReproError):
    """Base class for user-study simulator errors."""


class TaskDefinitionError(StudyError):
    """A study task is malformed or has no ground-truth answer in the data."""
