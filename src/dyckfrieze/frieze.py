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
is the determinant identity of those diagonals.  ``from_quiddity`` takes
its rows 0..N-1 from the one frieze kernel, ``diamond._frieze_rows``, which
runs that recurrence a row at a time, with no division, and past the
middle reads the rows off the glide once two of them match it.  So every
entry is an integer and a sequence that is not a quiddity shows up as a
nonpositive entry or as a band that misses the closing row of ones.

A frieze is fixed by its quiddity row, so ``from_quiddity`` is the one test
of a closed positive frieze: a pattern is one exactly when it equals
``from_quiddity`` of its own row 2.  It builds unchecked, by
``FriezePattern._trusted``, as it makes N + 1 tuples of N ints, and sets the
private ``_closed``, its proof, which copies keep and equality ignores.
Within its bounds on the entries and their sum, the glide alone decides:
rows that glide are a triangulation's, with no scan, by the winding lemma
of ``diamond._frieze_rows``, and rows that do not are scanned only to
report the failure.
``from_cycle`` builds unchecked too, from the members alone, with no
kernel: a diamond's rule is the frieze's rule on two adjacent diagonals.
It sets no proof, so ``verify`` of what it builds runs the one test.
``violations`` accepts that proof or that equality and scans any other:
the constructor types every entry, so the scan checks only the arithmetic.
"""

from __future__ import annotations

from .diamond import (
    Cycle,
    _frieze_rows,
    complete_diamond,
    minimal_cycle,
    rotation_period,
)
from .errors import (
    FailsToClose,
    InputError,
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
    _closed = False

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

    Within the bounds the kernel's glide decides, with no scan.  Let R be
    the recurrence rows 0..N of q: entry (r, c) is ``D_c(c+r-1) =
    K(c-1, c+r-1)``, with ``K(i, j) = A(j) B(i) - A(i) B(j)`` for two
    solutions A, B of Casoratian 1 (see ``diamond._frieze_rows``, whose
    rows are rows 0..N-1 of R, glide-filled or not).  For such 2x2
    determinants ``K(i, j) K(i+1, j+1) - K(i+1, j) K(i, j+1) = K(i, i+1)
    K(j, j+1) = 1``, so the rule holds on R at every quadruple, for any
    integer q.  When the rows glide, every row of R does, as the kernel's
    docstring shows, and rows N - 1 and N are the glide images of rows 1
    and 0, ones and zeros; as q sums to 3(N - 2), the band of R is
    positive by the kernel's winding lemma.  When the rows do not glide,
    rows 3..N - 1 are scanned for positivity, and if they pass, row N - 1
    is not all ones: at row N - 1 the rule would read ``1 - R[N-2][c+1]
    R[N][c] = 1`` with row N - 2 positive, so row N of R would be zeros and
    rows N - 1 and N, so every row, would glide.

    So what it returns, R, keeps the borders, the positive band, the rule
    and the glide: it is a frieze.  Conversely the rule fixes each row of a
    frieze from the two above it, dividing by positive entries, so a frieze
    is R for its row 2, a quiddity: every frieze is ``from_quiddity`` of
    its own row 2.  What it returns carries this proof as ``_closed``.
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

    rows, glided = _frieze_rows(q)
    if not glided:
        for r in range(3, N):
            if min(rows[r]) < 1:
                c = next(c for c, x in enumerate(rows[r]) if x < 1)
                raise NonPositiveEntry(c, rows[r][c], row=r)
        shown = ", ".join(map(format_int, rows[N - 1]))
        raise FailsToClose(f"row {N - 1} is ({shown}), not all ones")
    fp = FriezePattern._trusted(N, (*rows, (0,) * N))
    object.__setattr__(fp, "_closed", True)
    return fp


def from_cycle(c: Cycle) -> FriezePattern:
    """Frieze pattern generated by a coupling cycle: column t of its band is
    the first column of member t mod p, framed by rows of ones and zeros.

    What it returns is a frieze, so it is built unchecked.  Column t + 1 is
    member t's second column: members are coupled, and at t = N - 1 it is
    column 0, member 0's first, as p divides N.  So on columns t and t + 1
    the rule at rows 2..N - 2 is member t's diamond rule at j = r - 1,
    whose boundary ones are rows 1 and N - 1, and at rows 1 and N - 1 it
    holds by the borders.  The band is positive, as every member is.  The
    rule fixes each row from the two above it, dividing by positive
    entries, so the pattern is the recurrence rows of its row 2, and these
    glide, as ``from_quiddity`` shows.
    """
    N = expect(c, Cycle).n + 3
    zeros, ones = (0,) * N, (1,) * N
    band = zip(*(c.diamonds[t % c.p].col1 for t in range(N)))
    return FriezePattern._trusted(N, (zeros, ones, *band, ones, zeros))


def violations(fp: FriezePattern) -> list[str]:
    """All broken invariants of ``fp``, as human-readable diagnostics.

    Checks the zero and one borders, band positivity, the unimodular rule
    on every quadruple of the fundamental domain, and invariance under
    glide reflection.  Row periodicity is inherent to the storage, and the
    constructor has checked that every entry is an integer.

    A closed frieze is found without a scan: ``from_quiddity`` marks what
    it builds with ``_closed``, and a pattern is one exactly when it equals
    ``from_quiddity`` of its own row 2, as that docstring shows.  Any other
    pattern is walked entry by entry, one invariant after another, with
    column indices taken modulo N.
    """
    N = expect(fp, FriezePattern).order
    rows = fp.rows
    try:
        if fp._closed or rows == from_quiddity(rows[2]).rows:
            return []
    except InputError:
        pass
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
                problems.append(f"band entry at row {r}, column {c} is {format_int(x)}")
    for r in range(1, N):
        for c in range(N):
            left, right = rows[r][c], rows[r][(c + 1) % N]
            top, bottom = rows[r - 1][(c + 1) % N], rows[r + 1][c]
            if left * right - top * bottom != 1:
                problems.append(
                    f"rule fails at rows {r - 1}..{r + 1}, column {c}: "
                    f"{format_int(left)}*{format_int(right)} - "
                    f"{format_int(top)}*{format_int(bottom)} != 1"
                )
    for r in range(N + 1):
        for c in range(N):
            if rows[r][c] != rows[N - r][(c + r) % N]:
                problems.append(f"glide reflection fails at row {r}, column {c}")
    return problems


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
