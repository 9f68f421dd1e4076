"""Exception types shared across ripforge modules."""


class RipforgeError(Exception):
    """Base class for all ripforge errors."""


# -- number theory -----------------------------------------------------------

class NoPrimeInRange(RipforgeError):
    """The requested interval contains no prime."""


class CountExceedsFamily(RipforgeError):
    """More polynomials requested than the family p^(d+1) contains."""


class InvalidModulus(RipforgeError):
    """Modulus is not an admissible prime for the construction."""


# -- matrices and parameters --------------------------------------------------

class InvalidParams(RipforgeError):
    """Construction parameters violate the required constraints."""


class DimensionMismatch(RipforgeError):
    """Operand shapes are incompatible."""


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


class TooManyColumns(RipforgeError):
    """Quartic-cost identity requested on too wide a matrix."""


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


class InvalidDelta(RipforgeError):
    """delta must lie strictly inside (0, 1)."""


class TooLarge(RipforgeError):
    """Exhaustive enumeration would exceed the desk-scale budget."""


# -- spherical designs --------------------------------------------------------

class InvalidPointSet(RipforgeError):
    """Points are not unit vectors or weights are not a distribution."""


class UnsupportedK(RipforgeError):
    """Explicit moment tensor is only materialized for k = 1."""


class ZeroRow(RipforgeError):
    """A matrix row is identically zero and cannot be projected to the sphere."""


class EpsilonOutOfRange(RipforgeError):
    """Conversion between embedding/design defects is outside its validity range."""
