"""Two-column diamond arrays of rank n and their coupling cycles.

A diamond is a staircase pair of columns ``(a[1,1..n], a[2,1..n])`` framed by
implicit boundary ones ``a[2,0] = a[1,n+1] = 1`` and satisfying the
unimodular rule

    a[1,j] * a[2,j] - a[2,j-1] * a[1,j+1] = 1    for 1 <= j <= n.

The first column determines the second by exact division, so a diamond is
usually built from its first column (a "diamond vector").  Chaining the
construction, second column becoming the next first column, walks a cycle
whose length always divides n + 3; those cycles are the diagonals of a
closed integral frieze pattern.

Every such diagonal solves one three-term recurrence on the quiddity
``q`` of its frieze (Conway & Coxeter, 1973), without division.
``_frieze_rows`` runs it a whole row at a time and is the one frieze
kernel: frieze completion and coupling cycles read their rows and columns
off it, and the frieze check compares a pattern with the completion of its
quiddity row.  When rows N//2 and N//2 + 1 are their own glide images, as
in every closed frieze, it reads the rest off the glide reflection and says
so: the Casoratian of the recurrence makes that check exact for any
integer q.  Rows that glide with q summing to 3(N - 2) are a
triangulation's frieze, by the winding lemma in its docstring, so its
callers scan nothing.
``diagonal`` computes one column, for the inverse path map and the sweep's
round trip, and ``rotation_period`` finds the period of q.

``check_head_form`` is closed-form: with ``a <= b`` the sorted top entries
``(a[1,1], a[2,1])`` of rank n, ``a[1,2] = a*b - 1``, and ``2 <= b <= n+1``
if ``a = 1``, else ``a >= 2`` and ``a + b <= n + 2``.

All entries are plain Python integers, so arithmetic is exact and unbounded.
Every value here is immutable and every function is pure.

``Diamond(...)`` checks a diamond by completing its first column: with positive
entries, the rule at j is the division step of ``complete_diamond`` at j.
``Cycle(...)`` validates in full.  ``complete_diamond`` builds its ``Diamond``
without re-checking it: ``as_vector`` has validated the first column, and each
second-column entry is the exact, positive quotient
``(1 + a[2,j-1] * a[1,j+1]) / a[1,j]``, so the unimodular rule holds by
arithmetic.  ``minimal_cycle`` does the same once each column ``d_t`` of its
frieze rows closes, ``d_t[N-1] == 1``, and is positive, ``min(d_t[2:N-1]) >= 1``:
the paper's claim, which the winding lemma proves for a gliding quiddity
that sums to 3N - 6, which a diamond's own columns always give: a diamond
closes its own frieze, by the lemma in ``minimal_cycle``'s docstring.
This is exact: consecutive diagonals have Casoratian 1 for any integer q,
so with positive entries the rule can fail only at the border
``a[1,n+1] = 1``.  It then builds its ``Cycle`` unchecked too: its
members are coupled, distinct and of a period dividing N by construction,
as its docstring shows.

Both build through ``_trusted``, the one unchecked constructor, which every
value type inherits from ``errors.Record`` (``DyckPath``'s takes a profile
instead of its word).  It is called only where a theorem guarantees the
result, and the public constructors still validate in full.
"""

from __future__ import annotations

from operator import mul, sub

from .errors import (
    InputError,
    InvariantViolation,
    NonExactDivision,
    NonPositiveEntry,
    RangeError,
    Record,
    as_tuple,
    expect,
    format_int,
    int_in,
    is_int,
)

Vector = tuple[int, ...]


def as_vector(entries) -> Vector:
    """Normalize to a tuple of positive ints, rejecting anything else."""
    v = as_tuple(entries, "vector")
    int_in(len(v), "vector length", 1)
    for k, x in enumerate(v, start=1):
        if not is_int(x):
            raise InputError(f"entry {k}: {format_int(x)} is not an integer")
        if x < 1:
            raise NonPositiveEntry(k, x)
    return v


class Diamond(Record):
    """A rank-n diamond, validated by completing ``col1`` and comparing ``col2``.

    ``col1`` and ``col2`` hold ``a[1,1..n]`` and ``a[2,1..n]``; the boundary
    ones are implicit and never stored.  ``complete_diamond`` and
    ``minimal_cycle`` skip the check, since the rule holds by construction.
    """

    __match_args__ = ("col1", "col2")

    def __init__(self, col1: Vector, col2: Vector):
        want = complete_diamond(col1)
        c2 = as_vector(col2)
        if len(c2) != want.n:
            raise InputError("columns must be of equal length")
        for j, (x, y) in enumerate(zip(c2, want.col2), start=1):
            if x != y:
                raise InputError(f"unimodular rule fails at position {j}")
        self._fill(want.col1, c2)

    @property
    def n(self) -> int:
        return len(self.col1)


def complete_diamond(vector) -> Diamond:
    """Build the diamond whose first column is ``vector``.

    The second column is computed left to right from the rearranged rule
    ``a[2,j] = (1 + a[2,j-1] * a[1,j+1]) / a[1,j]``, whose exact quotients
    are positive.  Raises ``NonExactDivision`` when the vector is not
    associated to a positive integral diamond; ``NonPositiveEntry`` comes
    only from a non-positive entry of ``vector``.
    """
    v = as_vector(vector)
    n = len(v)
    col2 = []
    below = 1
    for j in range(1, n + 1):
        right = v[j] if j < n else 1
        numerator = 1 + below * right
        quotient, remainder = divmod(numerator, v[j - 1])
        if remainder:
            raise NonExactDivision(j, numerator, v[j - 1])
        col2.append(quotient)
        below = quotient
    return Diamond._trusted(v, tuple(col2))


def check_head_form(d: Diamond) -> bool:
    """Optional validator for the quadratic relation between a diamond's
    top entries, total for rank n >= 2: with ``a <= b`` the sorted pair
    ``(a[1,1], a[2,1])``, ``a[1,2] == a*b - 1`` and either ``a == 1 and
    2 <= b <= n + 1`` or ``a >= 2 and a + b <= n + 2``."""
    int_in(expect(d, Diamond).n, "head-form check rank", 2, error=RangeError)
    a, b = sorted((d.col1[0], d.col2[0]))
    in_range = 2 <= b <= d.n + 1 if a == 1 else 2 <= a and a + b <= d.n + 2
    return in_range and d.col1[1] == a * b - 1


def couple_next(d: Diamond) -> Diamond:
    """The successor diamond: complete the current second column.

    The result B satisfies the coupling condition (col2 of ``d`` equals
    col1 of B).  Completion cannot fail on a valid diamond, so a failure
    here is reported as an internal invariant violation.
    """
    try:
        return complete_diamond(expect(d, Diamond).col2)
    except (NonExactDivision, NonPositiveEntry) as exc:
        raise InvariantViolation(
            f"coupling failed on a valid diamond: {exc}"
        ) from exc


class Cycle(Record):
    """A minimal coupling cycle: p distinct diamonds, consecutive members
    coupled, wrapping around, with p dividing n + 3."""

    __match_args__ = ("diamonds",)

    def __init__(self, diamonds: tuple[Diamond, ...]):
        ds = tuple(expect(d, Diamond) for d in as_tuple(diamonds, "cycle"))
        p = int_in(len(ds), "cycle length", 1)
        n = ds[0].n
        if len(set(ds)) != p:
            raise InputError("cycle members must be distinct")
        for t, d in enumerate(ds):
            nxt = ds[(t + 1) % p]
            if d.n != n or d.col2 != nxt.col1:
                raise InputError(f"members {t} and {(t + 1) % p} are not coupled")
        if (n + 3) % p:
            raise InvariantViolation(f"period {p} does not divide {n + 3}")
        self._fill(ds)

    @property
    def p(self) -> int:
        return len(self.diamonds)

    @property
    def n(self) -> int:
        return self.diamonds[0].n


def diagonal(q, c: int, length: int) -> Vector:
    """Entries ``d_0..d_{length-1}`` of the frieze diagonal of quiddity ``q``
    that starts at column ``c``.

    ``d_0 = 0``, ``d_1 = 1`` and ``d_{k+1} = q_{c+k-1} * d_k - d_{k-1}``,
    with indices into ``q`` taken modulo its length, by rotating ``q`` once.
    Pure integer multiplication: nothing is divided, so any ``q`` is accepted.
    """
    if length < 3:
        return (0, 1)[:length]
    s = c % len(q)
    steps = (q[s:] + q[:s]) * ((length - 2) // len(q) + 1)
    a, b = 0, 1
    d = [0, 1]
    for x in steps[: length - 2]:
        a, b = b, x * b - a
        d.append(b)
    return tuple(d)


def rotation_period(seq: tuple) -> int:
    """Least ``p >= 1`` with ``seq[p:] + seq[:p] == seq``; divides len(seq).

    The shifts that fix ``seq`` form a subgroup of the cyclic group of
    order ``len(seq)``, so its least positive member divides ``len(seq)``
    and only the divisors are tried.
    """
    N = len(seq)
    return next(p for p in range(1, N + 1) if N % p == 0 and seq[p:] + seq[:p] == seq)


def _frieze_rows(q) -> tuple[tuple[Vector, ...], bool]:
    """Rows 0..N-1 of the frieze of the integer sequence ``q`` of length
    N >= 2, entry (r, c) being ``diagonal(q, c, N)[r]``, and whether rows
    N//2 and N//2 + 1 match their glide images, row N - r turned by r: for
    N >= 3, whether every row does.

    Row 0 is zeros, row 1 ones, and row r is ``q`` turned by r - 2 times
    row r - 1, minus row r - 2, one C-level map per row.  Once rows
    m = N//2 and m + 1 are computed, each is compared with its glide image;
    if both match, every row does and row r > m + 1 is read off the glide,
    and otherwise the recurrence runs through row N - 1.  That is exact for
    any integer q.  Read with an absolute index j, column c is the
    solution D_c of ``x_{j+1} = q_j x_j - x_{j-1}`` with ``D_c(c-1) = 0``,
    ``D_c(c) = 1``, and entry (r, c) is ``D_c(c+r-1)``.  The Casoratian
    ``x_{j+1} y_j - x_j y_{j+1}`` of two solutions does not depend on j,
    since each step matrix has determinant 1.  So for two solutions A, B of
    Casoratian 1, ``D_c(j) = A(j) B(c-1) - A(c-1) B(j)``: both sides solve the
    recurrence and agree at j = c - 1 and c.  Swapping j and c - 1 flips the
    sign, ``D_c(j) = -D_{j+1}(c-1)``, and q has period N, so the glide image
    of entry (r, c), entry (N - r, c + r), is ``-D_c(c+r-1-N)``.  For fixed c
    both sides solve the recurrence in r, so two consecutive rows that
    match their glide images make every row match.

    The same vectors decide closure by the sum.  Lemma: if the rows of an
    integer q of length N >= 3 glide, then ``sum(q) = 3N - 6k``, where the
    odd k >= 1 counts the half-turns that the vectors ``v_j = (A(j), B(j))``
    make over N steps, and k = 1 makes every entry of rows 1..N - 1
    positive.  So rows that glide with q summing to 3N - 6 are a closed
    positive frieze, a triangulation's (Conway & Coxeter, 1973), with no
    scan.  Proof: write ``[x, y] = x_0 y_1 - x_1 y_0``.  Then entry (r, c)
    is ``[v_{c+r-1}, v_{c-1}]``, so ``q_j = [v_{j+1}, v_{j-1}]``, and the
    Casoratian is ``[v_{j+1}, v_j] = 1``: each step turns v_j clockwise by
    an angle in (0, pi).  Rows N and N - 1 of the recurrence, the glide
    images of rows 0 and 1, are zeros and ones, so ``v_{j+N}`` is a
    multiple of v_j and then ``-v_j``: q has monodromy -I, and N steps make
    an odd number k of half-turns.  If k = 1, the r < N steps from
    ``v_{c-1}`` to ``v_{c+r-1}`` turn it by less than a half-turn, so entry
    (r, c) is positive.  For the sum, take any integer q with ``v_{j+N} =
    ±v_j``, so ± is (-1)^k, and ``s = sum(q) - 3N + 6k``.  Any list of
    integer vectors with ``v_{j+N} = ±v_j`` and ``[v_{j+1}, v_j] = 1`` is
    one of these, with ``q_j = [v_{j+1}, v_{j-1}]``, since ``v_{j-1} +
    v_{j+1}`` is then a multiple of v_j, and three moves on it keep s.
    Where q_j = 1, ``v_j = v_{j-1} + v_{j+1}`` lies inside the turn from
    v_{j-1} to v_{j+1}: drop it, k stays, and q_{j-1} and q_{j+1} each
    lose 1.
    Inversely, insert ``v_j + v_{j+1}`` after v_j: a new entry 1, whose
    neighbours each gain 1.  Where q_j = 0, ``v_{j+1} = -v_{j-1}`` is
    exactly a half-turn on: drop v_j and v_{j+1} and negate the rest of the
    period, so (q_{j-1}, 0, q_{j+1}) becomes q_{j-1} + q_{j+1}, the sum
    stays, N falls by 2, k by 1, and ± flips.  At N >= 3 one of them
    applies: an entry 1 or 0 is dropped (at N = 3, q_j = 0 would make
    ``v_{j+2} = ±v_{j-1} = ∓v_{j+1}``, against the Casoratian); an entry
    q_j < 0 becomes 0 after -q_j insertions after v_j, and is dropped; and
    if every entry is >= 2, the solution ``[v_j, v_0]``, 0 and then 1 at
    j = 0, 1, grows by at least 1 at each step, so it is not 0 at j = N,
    against ``v_N = ±v_0``.  A dropped 1 lowers N at the same k, and a
    dropped 0, with the insertions before it, lowers k >= 1, so the moves
    end, at N = 2.  There ``v_2 = q_1 v_1 - v_0 = ±v_0`` forces q_1 = 0
    and the sign -, and likewise ``v_3 = -v_1`` forces q_0 = 0: q = (0, 0),
    with k = 1 and s = 0 - 6 + 6 = 0.  So s = 0 for every such q.
    """
    N = len(q)
    m = N // 2
    rows = [(0,) * N, (1,) * N]
    for r in range(2, N):
        turned = q[r - 2 :] + q[: r - 2]
        rows.append(tuple(map(sub, map(mul, turned, rows[r - 1]), rows[r - 2])))
        if r == m + 1:
            a, b = rows[N - m], rows[N - m - 1]
            if rows[m] == a[m:] + a[:m] and rows[m + 1] == b[m + 1 :] + b[: m + 1]:
                break
    else:
        return tuple(rows), False
    for r in range(m + 2, N):
        image = rows[N - r]
        rows.append(image[r:] + image[:r])
    return tuple(rows), True


def minimal_cycle(d0: Diamond) -> Cycle:
    """The coupling cycle through ``d0``, read off the frieze it generates.

    The quiddity ``q`` of order N = n + 3 comes from the two columns as a
    Wronskian, without division.  ``m`` is the diagonal through ``col1``
    and ``w`` the one through ``col2``, both framed by the frieze borders
    and shifted to solve the same recurrence, so
    ``q_k = m_k * w_{k+2} - m_{k+2} * w_k``.  The period of ``q`` is the
    cycle length p, and member t pairs band columns t and t + 1 of the
    frieze rows ``_frieze_rows(q)``.

    One guard stands for every check: the rows glide, q sums to 3N - 6,
    and columns 0 and 1 are ``d0``'s.  Then the rows are a closed positive
    frieze, by the winding lemma of ``_frieze_rows``, with ``d0`` as two
    adjacent diagonals, so every member is a positive diamond and the cycle
    is built without ``Cycle``'s check, because it holds by construction.
    A ``Diamond`` never trips the guard.  Lemma: let ``u_k = (m_k, w_k)``
    and ``[x, y] = x_0 y_1 - x_1 y_0``.  The rule at j = 1..n and the
    framing give ``[u_k, u_{k+1}] = 1`` for k = 0..N, so ``u_k + u_{k+2}``
    is a multiple of u_{k+1}, namely ``u_{k+2} = q_k u_{k+1} - u_k``.  So
    ``m_r`` and ``w_{r+1}`` are entries (r, 0) and (r, 1) of the rows of q.
    Then ``u_N = -u_0`` and ``u_{N+1} = -u_1``: the monodromy is -I, and
    the rows glide.  Column 0 is positive on rows 1..N - 1, so
    ``u_1..u_{N-1}`` lie strictly on one side of the line through ``u_0``
    and ``u_N``, and the vectors turn through exactly one half-turn; by the
    winding lemma, q then sums to 3N - 6.  Any ``Diamond._trusted`` whose
    columns break the rule trips the guard, since passing it makes them two
    adjacent diagonals of a closed positive frieze.
    Members are coupled: member t's second column is member t + 1's first,
    and member p - 1's second is column p, which is column 0 since q has
    period p.  ``p = rotation_period(q)`` divides N.  Members are distinct:
    if members s < t were equal, diagonals s, s + 1 would equal diagonals
    t, t + 1, so N - 1 consecutive entries of q, read off those diagonals by
    the recurrence, would agree under a shift by t - s, and so would the
    last one, because q sums to 3N - 6; p would then divide t - s < p.
    """
    N = expect(d0, Diamond).n + 3
    m = (0, 1, *d0.col1, 1, 0, -1)
    w = (-1, 0, 1, *d0.col2, 1, 0)
    q = tuple(m[k] * w[k + 2] - m[k + 2] * w[k] for k in range(N))
    p = rotation_period(q)
    rows, glided = _frieze_rows(q)
    cols = list(zip(*rows[2 : N - 1]))
    if not glided or sum(q) != 3 * N - 6 or cols[:2] != [d0.col1, d0.col2]:
        shown = format_int(d0.col1)
        raise InvariantViolation(f"frieze of {shown} does not close through it")
    members = tuple(Diamond._trusted(cols[t], cols[(t + 1) % p]) for t in range(p))
    return Cycle._trusted(members)


def cycle_heads(c: Cycle) -> Vector:
    """Top entries ``a[1,1]`` of the cycle members, in cycle order.

    Repeated ``(n + 3) / p`` times this is the quiddity row of the frieze
    the cycle generates.
    """
    return tuple(d.col1[0] for d in expect(c, Cycle).diamonds)
