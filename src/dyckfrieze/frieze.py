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

The constructor refuses any entry that is not an integer, so ``violations``
checks only the arithmetic.  ``from_quiddity`` and ``from_cycle`` skip the
shape and integer checks through ``FriezePattern._trusted`` (from
``errors.Record``): both make N + 1 tuples of N ints by construction.
``from_cycle`` still runs ``violations`` on what it built.
"""

from __future__ import annotations

from .diamond import Cycle, complete_diamond, diagonal, minimal_cycle, rotation_period
from .errors import (
    FailsToClose,
    InputError,
    InvariantViolation,
    NonPositiveEntry,
    RangeError,
    Record,
    as_tuple,
    expect,
    format_int,
    int_in,
    is_int,
)

Row = tuple[int, ...]


class FriezePattern(Record):
    """Order-N pattern as an (N+1) x N fundamental domain.

    Construction checks shape and integer entries; the arithmetic is
    ``verify``'s business, so tampered int patterns can still be built and
    diagnosed in tests.
    """

    __match_args__ = ("order", "rows")

    def __init__(self, order: int, rows: tuple[Row, ...]):
        rows = tuple(as_tuple(row, "row") for row in as_tuple(rows, "rows"))
        N = int_in(order, "frieze order", 3)
        if len(rows) != N + 1 or any(len(row) != N for row in rows):
            shown = f"{format_int(N + 1)} rows of width {format_int(N)}"
            raise InputError(f"expected {shown}")
        for r, row in enumerate(rows):
            for c, x in enumerate(row):
                if not is_int(x):
                    shown = f"row {r}, column {c} is {format_int(x)}"
                    raise InputError(f"entry at {shown}, not an integer")
        self._fill(order, rows)

    @property
    def quiddity(self) -> Row:
        return self.rows[2]


def from_quiddity(q) -> FriezePattern:
    """Complete a frieze pattern downward from its quiddity row.

    Succeeds exactly when ``q`` is the quiddity of a polygon triangulation;
    otherwise raises NonPositiveEntry or FailsToClose, reporting rows from
    the top down.  A vertex of the N-gon meets at most N - 2 triangles and
    the N - 2 triangles have 3(N - 2) corners, so a sequence outside those
    bounds fails to close before any row is built.  Within them no row m,
    2 <= m <= N - 2, is all ones below positive rows: rows 0..m would then
    close a frieze of order m + 1 (Conway & Coxeter, 1973), so q would have
    a period g dividing N and m + 1; with s the sum of g consecutive
    entries, 3(m + 1) - 6 = (m + 1)s/g and 3N - 6 = Ns/g give m + 1 = N.
    """
    q = as_tuple(q, "quiddity")
    N = len(q)
    int_in(N, "quiddity length", 3, error=RangeError)
    for c, x in enumerate(q):
        if not is_int(x):
            raise InputError(f"quiddity entry {c}: {format_int(x)} is not an integer")
        if x < 1:
            raise NonPositiveEntry(c, x, row=2)
        if x > N - 2:
            raise FailsToClose(f"quiddity entry {c} exceeds N - 2 = {N - 2}")
    if sum(q) != 3 * (N - 2):
        raise FailsToClose(f"entries do not sum to 3(N - 2) = {3 * (N - 2)}")

    rows = list(zip(*(diagonal(q, c, N) for c in range(N))))
    for r in range(3, N):
        if min(rows[r]) < 1:
            c = next(c for c, x in enumerate(rows[r]) if x < 1)
            raise NonPositiveEntry(c, rows[r][c], row=r)
    if rows[N - 1] != (1,) * N:
        shown = ", ".join(map(format_int, rows[N - 1]))
        raise FailsToClose(f"row {N - 1} is ({shown}), not all ones")
    rows.append((0,) * N)
    return FriezePattern._trusted(N, tuple(rows))


def from_cycle(c: Cycle) -> FriezePattern:
    """Frieze pattern generated by a coupling cycle.

    Column t of the band is the first column of cycle member t mod p; the
    result equals ``from_quiddity`` on the repeated head sequence.  The
    construction is theorem-backed, so a verification failure is an
    internal error rather than bad input.
    """
    N = expect(c, Cycle).n + 3
    zeros = (0,) * N
    ones = (1,) * N
    band = zip(*(c.diamonds[col % c.p].col1 for col in range(N)))
    fp = FriezePattern._trusted(N, (zeros, ones, *band, ones, zeros))
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
    glide reflection.  Each check scans a whole row first (its ``min``, its
    quadruples zipped with rotated rows, its rotated glide image), and only
    a failing row is walked entry by entry.  Row periodicity is inherent to
    the storage, and the constructor has checked that every entry is an
    integer.

    The glide images come first.  The glide carries the quadruple centred
    at (r, c) onto the one centred at (N - r, c + r) with left and right
    swapped and top and bottom swapped, so ``left*right - top*bottom`` is
    the same number at both.  When every row equals its image, the rule
    holds on rows 1..N-1 if it holds on rows 1..N // 2, which reach the
    middle row N/2 at even N.  If the glide breaks anywhere, or one of
    those rows fails, every row 1..N-1 is scanned, so the diagnostics and
    their order do not depend on the shortcut.
    """
    N = expect(fp, FriezePattern).order
    rows = fp.rows
    glides = [rows[N - r][r % N :] + rows[N - r][: r % N] for r in range(N + 1)]
    glide_breaks = [r for r in range(N + 1) if rows[r] != glides[r]]
    problems = []
    zeros = (0,) * N
    ones = (1,) * N
    if rows[0] != zeros or rows[N] != zeros:
        problems.append("border rows 0 and N must be all zeros")
    if rows[1] != ones or rows[N - 1] != ones:
        problems.append("rows 1 and N-1 must be all ones")
    for r in [r for r in range(2, N - 1) if min(rows[r]) < 1]:
        for c, x in enumerate(rows[r]):
            if x < 1:
                problems.append(f"band entry at row {r}, column {c} is {format_int(x)}")
    rule_rows = range(1, N)
    if not glide_breaks and all(_rule_holds(rows, r) for r in range(1, N // 2 + 1)):
        rule_rows = ()
    for r in [r for r in rule_rows if not _rule_holds(rows, r)]:
        for c, (left, right, top, bottom) in enumerate(_quadruples(rows, r)):
            if left * right - top * bottom != 1:
                problems.append(
                    f"rule fails at rows {r - 1}..{r + 1}, column {c}: "
                    f"{format_int(left)}*{format_int(right)} - "
                    f"{format_int(top)}*{format_int(bottom)} != 1"
                )
    for r in glide_breaks:
        for c in range(N):
            if rows[r][c] != glides[r][c]:
                problems.append(f"glide reflection fails at row {r}, column {c}")
    return problems


def _quadruples(rows, r: int):
    """The (left, right, top, bottom) quadruples centred on row r."""
    row, above = rows[r], rows[r - 1]
    return zip(row, row[1:] + row[:1], above[1:] + above[:1], rows[r + 1])


def _rule_holds(rows, r: int) -> bool:
    return {w * x - y * z for w, x, y, z in _quadruples(rows, r)} == {1}


def verify(fp: FriezePattern) -> bool:
    """True iff every frieze invariant holds on the fundamental domain."""
    return not violations(fp)


def period(fp: FriezePattern) -> int:
    """Minimal horizontal period of the quiddity row; divides the order."""
    return rotation_period(expect(fp, FriezePattern).quiddity)


def render_ascii(fp: FriezePattern, repetitions: int = 1) -> str:
    """Staggered text rendering of ``repetitions`` fundamental domains.

    Odd rows are offset by half a cell; each row shows a window of the
    periodic pattern aligned so diamond neighbors sit visually adjacent.
    Output is deterministic: same input, same bytes.
    """
    int_in(repetitions, "repetitions", 1, error=RangeError)
    N = expect(fp, FriezePattern).order
    texts = [[_cell_text(fp.rows, r, c) for c in range(N)] for r in range(N + 1)]
    width = max(len(text) for row in texts for text in row)
    gap = " " * (width + 2)
    lines = []
    for r, row in enumerate(texts):
        shift = r // 2
        cells = [row[(k - shift) % N].rjust(width) for k in range(N * repetitions)]
        indent = " " * ((r % 2) * (width + 1))
        lines.append((indent + gap.join(cells)).rstrip())
    return "\n".join(lines)


def _cell_text(rows, r: int, c: int) -> str:
    try:
        return str(rows[r][c])
    except ValueError:
        raise InputError(f"entry at row {r}, column {c} is too long to show") from None


def to_json_dict(fp: FriezePattern) -> dict:
    """JSON-ready form: order, quiddity, and the full row table."""
    return {
        "order": expect(fp, FriezePattern).order,
        "quiddity": list(fp.quiddity),
        "rows": [list(row) for row in fp.rows],
    }


def frieze_of_vector(v) -> FriezePattern:
    """Frieze generated by the diamond vector ``v``: complete, cycle, build."""
    return from_cycle(minimal_cycle(complete_diamond(v)))
