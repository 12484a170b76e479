"""Exception hierarchy and argument guards shared by all dyckfrieze modules.

Two bases matter to callers: ``InputError`` means the caller handed us
something malformed (a vector that does not complete, a word that is not a
Dyck word, a sequence that is not a quiddity), while ``InvariantViolation``
means a theorem-backed property failed internally and indicates a bug.

The guards are ``is_int``, ``as_tuple``, ``expect``, ``int_in`` (an integer
in a range) and ``format_int``.  Messages echo a value only through
``format_int``, so that an int too long to print (Python refuses ``str``
past 4,300 digits) reads as its digit count instead of raising.

``Record`` is the base of the package's immutable values (diamonds, cycles,
Dyck paths, friezes, triangulations, check results), and it alone holds
their protocol.  A subclass names its fields in ``__match_args__``, in
constructor order.  Its validating constructor checks its arguments and
calls ``_fill`` last; ``_trusted`` builds an instance without any check,
for values a theorem guarantees.  Both set each field once with
``object.__setattr__`` (reading ``__dict__`` instead would make CPython
give up the instance's inline values and slow every later attribute read).
A record shows as its constructor call, assigning or deleting an attribute
raises ``AttributeError``, and copies and pickles restore the instance
``__dict__`` directly.  It compares and hashes the value of one
``operator.attrgetter`` over its fields, equal only to instances of its own
class: the field tuple, or the field itself for a one-field type.
"""

from operator import attrgetter

MAX_SHOWN_DIGITS = 100
_set = object.__setattr__


class InputError(ValueError):
    """Malformed input; recoverable by fixing the argument."""


class InvariantViolation(RuntimeError):
    """A property guaranteed by construction failed; always a bug."""


class Record:
    """Immutable value with the fields its subclass names in ``__match_args__``."""

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = attrgetter(*cls.__match_args__)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return fields(self) == fields(other)
            return NotImplemented

        def __hash__(self):
            return hash(fields(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    @classmethod
    def _trusted(cls, *values):
        """Build without validation, for fields a theorem guarantees."""
        # _fill's loop, repeated in this one frame: every theorem-built
        # value comes through here, and on CPython 3.11 a two-field build
        # takes about 650 ns this way and 950 ns through a call to _fill
        names = cls.__match_args__
        if len(values) != len(names):
            raise _field_count_error(cls, values)
        self = object.__new__(cls)
        i = 0
        for value in values:
            _set(self, names[i], value)
            i += 1
        return self

    def _fill(self, *values):
        """Set the fields to ``values``, one per name in ``__match_args__``."""
        # a length check and an index, not zip(strict=True) or zip: on
        # CPython 3.11 either zip costs more than the loop it drives
        names = self.__match_args__
        if len(values) != len(names):
            raise _field_count_error(type(self), values)
        i = 0
        for value in values:
            _set(self, names[i], value)
            i += 1
        return self

    def __repr__(self):
        fields = self.__match_args__
        shown = ", ".join(f"{f}={_field_text(getattr(self, f))}" for f in fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")


def _field_count_error(cls, values) -> TypeError:
    names = cls.__match_args__
    return TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(values)}")


def _field_text(value) -> str:
    """``repr(value)``, or ``format_int(value)`` when the repr holds an int too
    long to print."""
    try:
        return repr(value)
    except ValueError:
        return format_int(value)


def is_int(x) -> bool:
    """True iff ``x`` is an ``int`` and not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def as_tuple(items, what: str) -> tuple:
    """``tuple(items)``, refusing a non-iterable ``items`` with InputError."""
    try:
        iter(items)
    except TypeError:
        kind = type(items).__name__
        raise InputError(f"{what} of type {kind} is not iterable") from None
    return tuple(items)


def expect(x, cls):
    """``x`` itself if it is a ``cls``; otherwise InputError naming its type."""
    if not isinstance(x, cls):
        raise InputError(f"{type(x).__name__} is not a {cls.__name__}")
    return x


def int_in(x, what: str, lo: int, hi: int | None = None, error=InputError) -> int:
    """``x`` itself if it is an integer with ``lo <= x <= hi`` (no upper
    bound when ``hi`` is None); otherwise ``error`` naming ``what``."""
    if is_int(x) and lo <= x and (hi is None or x <= hi):
        return x
    if hi is None:
        span = f">= {format_int(lo)}"
    else:
        span = f"in {format_int(lo)}..{format_int(hi)}"
    raise error(f"{what} is {format_int(x)}, not an integer {span}")


def format_int(x) -> str:
    """An int as text when it has at most ``MAX_SHOWN_DIGITS`` digits,
    otherwise its sign and digit count, e.g. ``<4001 digits>``; any other
    value by its ``repr``, or by its type when that ``repr`` holds an int
    too long to print."""
    if not is_int(x):
        try:
            return repr(x)
        except ValueError:
            return f"<{type(x).__name__}>"
    size = abs(x)
    if size < 10**MAX_SHOWN_DIGITS:
        return str(x)
    # 30102 / 100000 < log10(2), so this starts at or below the digit count
    digits = (size.bit_length() - 1) * 30102 // 100000 + 1
    while size >= 10**digits:
        digits += 1
    return f"{'-' if x < 0 else ''}<{digits} digits>"


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
        super().__init__(f"position {position}: unexpected symbol {format_int(char)}")


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
            f"step {step}: position {format_int(value)}+2 exceeds active polygon "
            f"of size {size}"
        )


class SizeMismatch(InputError):
    """Operation requires triangulations of equal polygon size."""


class FailsToClose(InputError):
    """Frieze rows do not close: row N - 1 of the order-N pattern is not all ones.

    Raised before any row is built when an entry exceeds N - 2 or the
    entries do not sum to 3(N - 2): no triangulation has such a quiddity,
    and within those bounds no earlier row is all ones (``from_quiddity``).
    """


class RangeError(InputError):
    """Numeric parameter outside its documented range."""


class LastEntryNotOne(InputError):
    """Expansion move requires the vector to end in 1."""
