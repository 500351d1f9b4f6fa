"""Error types shared across the package.

The CLI maps these onto exit codes: parse errors exit 2, bound
violations exit 3, precondition violations exit 4.
"""

__all__ = ["SkeinforgeError", "ParseError", "BoundError", "PreconditionError"]


class SkeinforgeError(Exception):
    pass


class ParseError(SkeinforgeError):
    """Malformed input text; carries the character offset of the problem."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class BoundError(SkeinforgeError):
    """A configured size bound (crossings, singular points) was exceeded."""


class PreconditionError(SkeinforgeError):
    """An operation was applied to input outside its contract."""
