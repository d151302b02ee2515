"""Exception types shared across the package."""


class GraphError(ValueError):
    """Invalid graph construction or graph-operation input."""


class StreamInvariantError(ValueError):
    """An event sequence breaks a stream rule: its shape (kinds and endpoints,
    checked when an EdgeStream is built), liveness (checked by validate() and
    parse_stream), insert-only input where a consumer needs it, or the 4*c*n
    event budget of a dynamic stream."""


class ParseError(ValueError):
    """Malformed text input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigError(ValueError):
    """Invalid parameter combination for an estimator or experiment."""
