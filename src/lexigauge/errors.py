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


class ConsistencyError(LexigaugeError):
    """Cross-object invariant violated (e.g. centrality scores referencing
    nodes absent from the graph, or a failed post-run self-audit)."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_count(value, name: str, minimum: int = 0, error: type[Exception] = DomainError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an int, not a bool,
    and at least ``minimum``: 0 for a seed or a total, 1 for a size."""
    if not _is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = {0: "non-negative", 1: "positive"}.get(minimum, f">= {minimum}")
        raise error(f"{name} must be {bound}, got {value}")


@contextmanager
def named(subject: str):
    """Put ``subject: `` in front of the message of a LexigaugeError raised in
    the block, unless the message already starts so.  The same exception
    object is re-raised, so its type and ``CsvParseError.row`` survive.  An
    OSError's text is built from its errno fields and cannot be rewritten,
    so it is raised as a LexigaugeError with ``subject`` in front, chained."""
    try:
        yield
    except LexigaugeError as exc:
        if not str(exc).startswith(f"{subject}: "):
            exc.args = (f"{subject}: {exc}",)
        raise
    except OSError as exc:
        raise LexigaugeError(f"{subject}: {exc}") from exc
