"""Exception types shared across the library: a text form that fails to
parse, and a matrix that must be invertible but is singular."""

from __future__ import annotations


class ParseError(ValueError):
    """A text form failed to parse; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular (not in GL_n)."""
