"""Closed positive integral frieze patterns of order N.

Storage convention
------------------
A pattern of order N is kept as N+1 rows, each a fundamental domain of N
columns that repeats with period N.  Row 0 and row N are all zeros, row 1
and row N-1 all ones, and rows 2..N-2 form the positive band; row 2 is the
quiddity row.  Rows are staggered: entry (r, c) sits half a cell to the
left of entry (r+1, c), so a diamond of adjacent entries is

        rows[r-1][c+1]            (top)
    rows[r][c]    rows[r][c+1]    (left, right)
        rows[r+1][c]              (bottom)

and the defining rule is left*right - top*bottom = 1 for every such
quadruple, column indices wrapping modulo N.  Under this convention a
column read down rows 1..N-1 is one diagonal of the pattern: the bordered
first column of one diamond in the generating cycle.

Each column c is the diagonal ``diamond.diagonal(q, c, N)`` of the
quiddity q, a three-term recurrence (Conway & Coxeter, 1973), and the rule
is the determinant identity of those diagonals.  ``from_quiddity`` builds
the columns by that recurrence, with no division, so every entry is an
integer and a sequence that is not a quiddity shows up as a nonpositive
entry or as a band that misses the closing row of ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .diamond import Cycle, complete_diamond, diagonal, minimal_cycle
from .errors import (
    FailsToClose,
    InputError,
    InvariantViolation,
    NonPositiveEntry,
    RangeError,
    format_int,
)

Row = tuple[int, ...]


@dataclass(frozen=True)
class FriezePattern:
    """Order-N pattern as an (N+1) x N fundamental domain.

    Construction checks shape only; content is the business of ``verify``,
    so that tampered patterns can be built and diagnosed in tests.
    """

    order: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        N = self.order
        if N < 3:
            raise InputError("frieze order must be at least 3")
        if len(rows) != N + 1 or any(len(row) != N for row in rows):
            raise InputError(f"expected {N + 1} rows of width {N}")

    @property
    def quiddity(self) -> Row:
        return self.rows[2]


def from_quiddity(q) -> FriezePattern:
    """Complete a frieze pattern downward from its quiddity row.

    Succeeds exactly when ``q`` is the quiddity of a polygon triangulation;
    otherwise raises NonPositiveEntry or FailsToClose, reporting rows from
    the top down.  A vertex of the N-gon meets at most N - 2 triangles and
    the N - 2 triangles have 3(N - 2) corners, so a sequence outside those
    bounds fails to close before any row is built.
    """
    q = tuple(q)
    N = len(q)
    if N < 3:
        raise RangeError("quiddity must have length >= 3")
    for c, x in enumerate(q):
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"quiddity entry {c}: {x!r} is not an integer")
        if x < 1:
            raise NonPositiveEntry(c, x, row=2)
        if x > N - 2:
            raise FailsToClose(f"quiddity entry {c} exceeds N - 2 = {N - 2}")
    if sum(q) != 3 * (N - 2):
        raise FailsToClose(f"entries do not sum to 3(N - 2) = {3 * (N - 2)}")

    ones = (1,) * N
    rows = list(zip(*(diagonal(q, c, N) for c in range(N))))
    for r in range(3, N):
        if rows[r - 1] == ones:
            raise FailsToClose(f"row of ones appeared early, at row {r - 1}")
        for c, x in enumerate(rows[r]):
            if x < 1:
                raise NonPositiveEntry(c, x, row=r)
    if rows[N - 1] != ones:
        shown = ", ".join(map(format_int, rows[N - 1]))
        raise FailsToClose(f"row {N - 1} is ({shown}), not all ones")
    rows.append((0,) * N)
    return FriezePattern(N, tuple(rows))


def from_cycle(c: Cycle) -> FriezePattern:
    """Frieze pattern generated by a coupling cycle.

    Column t of the band is the first column of cycle member t mod p; the
    result equals ``from_quiddity`` on the repeated head sequence.  The
    construction is theorem-backed, so a verification failure is an
    internal error rather than bad input.
    """
    N = c.n + 3
    zeros = (0,) * N
    ones = (1,) * N
    band = zip(*(c.diamonds[col % c.p].col1 for col in range(N)))
    fp = FriezePattern(N, tuple([zeros, ones, *band, ones, zeros]))
    problems = violations(fp)
    if problems:
        raise InvariantViolation(
            "cycle produced an invalid pattern: " + "; ".join(problems)
        )
    return fp


def violations(fp: FriezePattern) -> list[str]:
    """All broken invariants of ``fp``, as human-readable diagnostics.

    Checks the zero and one borders, band positivity, the unimodular rule
    on every quadruple of the fundamental domain, and invariance under
    glide reflection.  Row periodicity is inherent to the storage.  A
    pattern holding a non-integer entry is reported by those entries
    alone, since the arithmetic checks cannot run on it.
    """
    N = fp.order
    rows = fp.rows
    if set(map(type, chain.from_iterable(rows))) != {int}:
        return [
            f"entry at row {r}, column {c} is {x!r}, not an integer"
            for r, row in enumerate(rows)
            for c, x in enumerate(row)
            if type(x) is not int
        ]
    problems = []
    zeros = (0,) * N
    ones = (1,) * N
    if rows[0] != zeros or rows[N] != zeros:
        problems.append("border rows 0 and N must be all zeros")
    if rows[1] != ones or rows[N - 1] != ones:
        problems.append("rows 1 and N-1 must be all ones")
    for r in range(2, N - 1):
        for c, x in enumerate(rows[r]):
            if x < 1:
                problems.append(f"band entry at row {r}, column {c} is {x}")
    for r in range(1, N):
        for c in range(N):
            left = rows[r][c]
            right = rows[r][(c + 1) % N]
            top = rows[r - 1][(c + 1) % N]
            bottom = rows[r + 1][c]
            if left * right - top * bottom != 1:
                problems.append(
                    f"rule fails at rows {r - 1}..{r + 1}, column {c}: "
                    f"{left}*{right} - {top}*{bottom} != 1"
                )
    for r in range(N + 1):
        for c in range(N):
            if rows[r][c] != rows[N - r][(c + r) % N]:
                problems.append(
                    f"glide reflection fails at row {r}, column {c}"
                )
    return problems


def verify(fp: FriezePattern) -> bool:
    """True iff every frieze invariant holds on the fundamental domain."""
    return not violations(fp)


def period(fp: FriezePattern) -> int:
    """Minimal horizontal period of the quiddity row; divides the order."""
    q = fp.quiddity
    N = fp.order
    for d in range(1, N + 1):
        if N % d == 0 and all(q[c] == q[(c + d) % N] for c in range(N)):
            return d
    raise InvariantViolation("sequence has no period dividing its length")


def render_ascii(fp: FriezePattern, repetitions: int = 1) -> str:
    """Staggered text rendering of ``repetitions`` fundamental domains.

    Odd rows are offset by half a cell; each row shows a window of the
    periodic pattern aligned so diamond neighbors sit visually adjacent.
    Output is deterministic: same input, same bytes.
    """
    if repetitions < 1:
        raise RangeError("repetitions must be >= 1")
    N = fp.order
    width = max(len(str(x)) for row in fp.rows for x in row)
    gap = " " * (width + 2)
    lines = []
    for r, row in enumerate(fp.rows):
        shift = r // 2
        cells = [
            str(row[(k - shift) % N]).rjust(width)
            for k in range(N * repetitions)
        ]
        indent = " " * ((r % 2) * (width + 1))
        lines.append((indent + gap.join(cells)).rstrip())
    return "\n".join(lines)


def to_json_dict(fp: FriezePattern) -> dict:
    """JSON-ready form: order, quiddity, and the full row table."""
    return {
        "order": fp.order,
        "quiddity": list(fp.quiddity),
        "rows": [list(row) for row in fp.rows],
    }


def frieze_of_vector(v) -> FriezePattern:
    """Frieze generated by the diamond vector ``v``: complete, cycle, build."""
    return from_cycle(minimal_cycle(complete_diamond(v)))
