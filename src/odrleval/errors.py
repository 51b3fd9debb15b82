"""Exception hierarchy shared across the engine.

Every failure the engine can surface is an ``EngineError`` subclass, so
callers (and the CLI's exit-code mapping) can distinguish "bad input" from
genuine bugs with one except clause.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package.

    ``location`` is the error's place in one input, or None. When it is
    set, the message reads ``"<location>: <text>"``; this is the only place
    that prefix is written.
    """

    location: str | None = None

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.location is None else f"{self.location}: {text}"

    def as_object(self) -> dict:
        """Machine-readable rendering used by the CLI's error stream."""
        obj = {"error": type(self).__name__, "message": str(self)}
        if self.location is not None:
            obj["location"] = self.location
        return obj


class SchemaError(EngineError):
    """A feature schema violates one of its structural invariants.

    ``kind`` is a stable machine-readable tag:
    ``duplicate-index`` | ``duplicate-name`` | ``bad-gamma-target`` |
    ``wrong-datetime-slot`` | ``wrong-action-slot``.
    """

    def __init__(self, kind: str, feature: int | None, message: str):
        super().__init__(message)
        self.kind = kind
        self.feature = feature


class ModelInvariantError(EngineError):
    """A domain value (Value, Event, World, condition, rule) was constructed
    with a violated invariant."""


class PolicyInvariantError(EngineError):
    """A FullPolicy tuple set (DP/DPC/FR/OC) breaks its membership or
    deadline requirements, or an operation defined on lite policies only
    was handed another kind of policy."""


class VocabularyError(EngineError):
    """The action vocabulary is not a DAG."""


class IllFormedRuleError(EngineError):
    """An operation that requires well-formed event rules was handed a rule
    that fails one of the three well-formedness items."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class WorldConformanceError(EngineError):
    """An event does not conform to the schema it is evaluated under."""


class InconsistentPolicyError(EngineError):
    """A comparison entry point was given a policy that is not in consistent
    form and auto-normalization was not requested."""


class NormalizationError(EngineError):
    """Normalization cannot produce the requested consistent policy.

    ``kind`` is ``normalization-blowup`` (disjunct cap exceeded) or
    ``inexpressible-difference`` (the carved rule set cannot be written as
    well-formed event rules).
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class DomainTooLargeError(EngineError):
    """The witness-domain event product exceeds the configured probe cap."""


class QueryEmitError(EngineError):
    """SQL emission failed (for example, sanitized column names collide)."""


class DocumentError(EngineError):
    """A schema / policy / world / vocabulary document cannot be parsed.

    ``kind`` carries the stable error tag (``unknown-left-operand``,
    ``unsupported-operator``, ``header-mismatch``, ...); ``location`` is a
    human-readable pointer into the document (row/column, JSON path).
    Callers pass the bare text and never its place.
    """

    def __init__(self, kind: str, message: str, location: str | None = None):
        super().__init__(message)
        self.kind = kind
        self.location = location

    def as_object(self) -> dict:
        return {**super().as_object(), "error": self.kind}
