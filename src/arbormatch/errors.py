"""Exception types shared across the package."""


class GraphError(ValueError):
    """Invalid graph construction or graph-operation input."""


class HasDeletions(ValueError):
    """An insert-only operation received a stream with delete events."""


class StreamInvariantError(ValueError):
    """An event sequence violates the liveness rules of an edge stream."""


class ParseError(ValueError):
    """Malformed text input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BudgetExceeded(RuntimeError):
    """A dynamic stream is longer than the allowed event budget."""


class ConfigError(ValueError):
    """Invalid parameter combination for an estimator or experiment."""
