"""Exception types shared across ripforge modules."""


class RipforgeError(Exception):
    """Base class for all ripforge errors."""


# -- number theory -----------------------------------------------------------

class InvalidModulus(RipforgeError):
    """Modulus is not an admissible prime for the construction."""


# -- matrices and parameters --------------------------------------------------

class InvalidParams(RipforgeError):
    """Construction parameters violate the required constraints."""


class DimensionMismatch(RipforgeError):
    """Operand shapes are incompatible."""


class TooLarge(RipforgeError):
    """Exhaustive enumeration would exceed the desk-scale budget."""


class NonFiniteEntry(RipforgeError):
    """A matrix entry is NaN or infinite."""


class ParseError(RipforgeError):
    """Malformed CMX file; carries the offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


# -- analysis -----------------------------------------------------------------

class NotUnimodular(RipforgeError):
    """An entry deviates from unit modulus beyond tolerance."""


class ZeroVector(RipforgeError):
    """Operation undefined for the zero vector."""


# -- certification ------------------------------------------------------------

class ZeroColumn(RipforgeError):
    """A column is identically zero and cannot be normalized."""


class NotSignMatrix(RipforgeError):
    """Entries are not exactly +-1; sign-matrix certification refused."""


class RoundsExhausted(RipforgeError):
    """No draw certified within the round budget; carries the best attempt."""

    def __init__(self, message: str, rounds: int = 0, best=None):
        super().__init__(message)
        self.rounds = rounds
        self.best = best


# -- spherical designs --------------------------------------------------------

class InvalidPointSet(RipforgeError):
    """Points are not unit vectors or weights are not a distribution."""


class ZeroRow(RipforgeError):
    """A matrix row is identically zero and cannot be projected to the sphere."""
