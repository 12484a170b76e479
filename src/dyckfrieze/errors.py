"""Exception hierarchy shared by all dyckfrieze modules.

Two bases matter to callers: ``InputError`` means the caller handed us
something malformed (a vector that does not complete, a word that is not a
Dyck word, a sequence that is not a quiddity), while ``InvariantViolation``
means a theorem-backed property failed internally and indicates a bug.
"""


class InputError(ValueError):
    """Malformed input; recoverable by fixing the argument."""


class InvariantViolation(RuntimeError):
    """A property guaranteed by construction failed; always a bug."""


class NonExactDivision(InputError):
    """Completing a diamond column hit a non-integer quotient."""

    def __init__(self, index, numerator, divisor):
        self.index = index
        super().__init__(
            f"entry {index}: {divisor} does not divide {numerator} exactly"
        )


class NonPositiveEntry(InputError):
    """A computed entry fell below 1 where positivity is required."""

    def __init__(self, index, value, row=None):
        self.index = index
        self.row = row
        where = f"row {row}, column {index}" if row is not None else f"entry {index}"
        super().__init__(f"{where}: computed value {value} is not positive")


class NotBalanced(InputError):
    """Word has unequal numbers of U and D steps."""


class PrefixViolation(InputError):
    """Some prefix of the word has more D than U steps."""

    def __init__(self, position):
        self.position = position
        super().__init__(f"prefix ending at position {position} dips below the diagonal")


class BadSymbol(InputError):
    """Word contains a character other than U or D."""

    def __init__(self, position, char):
        self.position = position
        super().__init__(f"position {position}: unexpected symbol {char!r}")


class TooShort(InputError):
    """Path is too short for the requested block or encoding."""


class IndexOutOfRange(InputError):
    """Block or coordinate index outside its legal range."""


class InvalidVG(InputError):
    """Integer vector is not the profile encoding of any Dyck path."""


class PositionOutOfRange(InputError):
    """A descent count points past the active polygon boundary."""

    def __init__(self, step, value, size):
        self.step = step
        super().__init__(
            f"step {step}: position {value}+2 exceeds active polygon of size {size}"
        )


class SizeMismatch(InputError):
    """Operation requires triangulations of equal polygon size."""


class FailsToClose(InputError):
    """Frieze rows do not terminate in a row of ones at the right depth."""


class RangeError(InputError):
    """Numeric parameter outside its documented range."""


class LastEntryNotOne(InputError):
    """Expansion move requires the vector to end in 1."""
