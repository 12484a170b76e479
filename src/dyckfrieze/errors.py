"""Exception hierarchy shared by all dyckfrieze modules.

Two bases matter to callers: ``InputError`` means the caller handed us
something malformed (a vector that does not complete, a word that is not a
Dyck word, a sequence that is not a quiddity), while ``InvariantViolation``
means a theorem-backed property failed internally and indicates a bug.

Messages show a computed integer through ``format_int``, so that one too
long to print (Python refuses ``str`` past 4,300 digits) reads as its
digit count instead of raising from inside the error.
"""

MAX_SHOWN_DIGITS = 100


def format_int(x: int) -> str:
    """``x`` as text when it has at most ``MAX_SHOWN_DIGITS`` digits,
    otherwise its sign and digit count, e.g. ``<4001 digits>``."""
    size = abs(x)
    if size < 10**MAX_SHOWN_DIGITS:
        return str(x)
    # 30102 / 100000 < log10(2), so this starts at or below the digit count
    digits = (size.bit_length() - 1) * 30102 // 100000 + 1
    while size >= 10**digits:
        digits += 1
    return f"{'-' if x < 0 else ''}<{digits} digits>"


class InputError(ValueError):
    """Malformed input; recoverable by fixing the argument."""


class InvariantViolation(RuntimeError):
    """A property guaranteed by construction failed; always a bug."""


class NonExactDivision(InputError):
    """Completing a diamond column hit a non-integer quotient."""

    def __init__(self, index, numerator, divisor):
        self.index = index
        super().__init__(
            f"entry {index}: {format_int(divisor)} does not divide "
            f"{format_int(numerator)} exactly"
        )


class NonPositiveEntry(InputError):
    """A computed entry fell below 1 where positivity is required."""

    def __init__(self, index, value, row=None):
        self.index = index
        self.row = row
        where = f"row {row}, column {index}" if row is not None else f"entry {index}"
        shown = format_int(value)
        super().__init__(f"{where}: computed value {shown} is not positive")


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
    """Frieze rows do not terminate in a row of ones at the right depth.

    Raised before any row is built when an entry exceeds N - 2 or the
    entries do not sum to 3(N - 2): no triangulation has such a quiddity.
    """


class RangeError(InputError):
    """Numeric parameter outside its documented range."""


class LastEntryNotOne(InputError):
    """Expansion move requires the vector to end in 1."""
