"""Exception types shared across ripforge modules.

A class exists only where it carries data that a caller reads.  Every
refusal of invalid input is an InvalidParams, told apart by its message.
"""


class RipforgeError(Exception):
    """Base class for all ripforge errors."""


class InvalidParams(RipforgeError):
    """Input violates a precondition: parameters, shapes, entries or sizes."""


class ParseError(RipforgeError):
    """Malformed CMX file; carries the offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class RoundsExhausted(RipforgeError):
    """No draw certified within the round budget; carries the best attempt."""

    def __init__(self, message: str, rounds: int, best):
        super().__init__(message)
        self.rounds = rounds
        self.best = best
