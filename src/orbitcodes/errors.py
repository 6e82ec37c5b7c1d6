"""Exception types shared across the library."""

from __future__ import annotations


class ParseError(ValueError):
    """A text form failed to parse; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular (not in GL_n)."""


class ClosureCapError(RuntimeError):
    """A group has more elements than the closure's cap; `reached` carries
    the group's order, found before any element is listed."""

    def __init__(self, cap: int, reached: int):
        super().__init__(f"group closure exceeded cap {cap} (reached {reached} elements)")
        self.cap = cap
        self.reached = reached
