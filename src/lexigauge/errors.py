"""Exception hierarchy shared by all lexigauge modules."""

from contextlib import contextmanager


class LexigaugeError(Exception):
    """Base class for all errors raised by this package."""


class CsvParseError(LexigaugeError):
    """Malformed CSV input (e.g. unbalanced quotes); carries a row number."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class ConfigError(LexigaugeError):
    """Invalid configuration: bad column map, missing corpus, bad run config."""


class DomainError(LexigaugeError, ValueError):
    """Input violates an operation's precondition (empty data, bad sizes)."""


class DegenerateDataError(DomainError):
    """Input is formally valid but statistically degenerate (zero variance)."""


class UnsupportedDataError(DomainError):
    """Input falls outside what an operation supports (e.g. ties in the
    exact rank-sum enumeration)."""


class ConsistencyError(LexigaugeError):
    """Cross-object invariant violated (e.g. centrality scores referencing
    nodes absent from the graph, or a failed post-run self-audit)."""


@contextmanager
def named(subject: str):
    """Put ``subject: `` in front of the message of a LexigaugeError raised in
    the block, unless the message already starts so.  The same exception
    object is re-raised, so its type and ``CsvParseError.row`` survive."""
    try:
        yield
    except LexigaugeError as exc:
        if not str(exc).startswith(f"{subject}: "):
            exc.args = (f"{subject}: {exc}",)
        raise
