"""Dyck words, their two integer encodings, and the path map for diamond
vectors.

A Dyck word over {U, D} is balanced and never has a prefix with more Ds
than Us.  Canonical text form is the plain uppercase string, e.g.
``"UUDUDD"``.

Two vector encodings are used.  The profile vector of a path of length 2k
lists, for the first k-1 Ds, the number of Us seen before that D minus its
position offset; the descent vector of a path of length 2(n+1) lists, for
i = 1..n, how many Ds occur before the (n+2-i)-th U.  The former drives the
bijection with diamond vectors, the latter drives polygon triangulations
through ``lambda_diagonals``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .diamond import as_vector, complete_diamond, diagonal
from .errors import (
    BadSymbol,
    IndexOutOfRange,
    InputError,
    InvalidVG,
    InvariantViolation,
    NotBalanced,
    PositionOutOfRange,
    PrefixViolation,
    TooShort,
)


def _validate_word(word: str) -> None:
    height = 0
    for pos, ch in enumerate(word, start=1):
        if ch == "U":
            height += 1
        elif ch == "D":
            height -= 1
            if height < 0:
                raise PrefixViolation(pos)
        else:
            raise BadSymbol(pos, ch)
    if height != 0:
        raise NotBalanced(f"{word.count('U')} Us vs {word.count('D')} Ds")


@dataclass(frozen=True)
class DyckPath:
    """Validated Dyck word; construction rejects anything else."""

    word: str

    def __post_init__(self):
        _validate_word(self.word)

    @property
    def half_length(self) -> int:
        return len(self.word) // 2

    def __str__(self) -> str:
        return self.word


def parse_path(text: str) -> DyckPath:
    """Parse a Dyck word, accepting lowercase and canonicalizing to upper."""
    return DyckPath(str(text).upper())


def all_paths(half_length: int):
    """Yield every Dyck path of length ``2 * half_length`` in lexicographic
    order with U < D."""
    if half_length < 0:
        raise InputError("half length must be >= 0")
    word = ["U"] * half_length + ["D"] * half_length
    while True:
        yield DyckPath("".join(word))
        # The successor turns the rightmost U entered at height >= 1 into a
        # D, then completes with the smallest suffix: its Us, then its Ds.
        height = 0
        ups = downs = 0
        for pos in range(len(word) - 1, -1, -1):
            if word[pos] == "U":
                height -= 1
                ups += 1
                if height >= 1:
                    word[pos:] = ["D"] + ["U"] * ups + ["D"] * (downs - 1)
                    break
            else:
                height += 1
                downs += 1
        else:
            return


def path_rank(p) -> int:
    """Position of a Dyck word in ``all_paths`` order, in ``[0, catalan(k))``.

    Each D adds the number of words that share the prefix before it and
    take a U there instead: the ballot number of paths from the raised
    height back to 0 in the remaining steps (Knuth, TAOCP Vol. 4A,
    7.2.1.6), a difference of two binomials by the reflection principle.
    No table is kept, so memory stays O(length).  A word that is not a
    ``DyckPath`` is validated as one.
    """
    word = p.word if isinstance(p, DyckPath) else DyckPath(str(p)).word
    rank = height = 0
    remaining = len(word)
    for ch in word:
        remaining -= 1
        if ch == "U":
            height += 1
        else:
            downs = (remaining + height + 1) // 2
            rank += comb(remaining, downs) - comb(remaining, downs + 1)
            height -= 1
    return rank


def catalan(n: int) -> int:
    """Exact n-th Catalan number."""
    if n < 0:
        raise InputError("catalan is defined for n >= 0")
    return comb(2 * n, n) // (n + 1)


def peaks(p: DyckPath) -> int:
    """Number of UD factors (north-then-east turns)."""
    return p.word.count("UD")


def _blocks(p: DyckPath) -> list[str]:
    # factor as U w_1 ... w_{n-1} D into two-letter blocks
    n = p.half_length
    if n < 2:
        raise TooShort("block factorization needs length >= 4")
    return [p.word[2 * q - 1 : 2 * q + 1] for q in range(1, n)]


def support(p: DyckPath) -> set[int]:
    """Block indices q where the two-letter block is UD or UU."""
    return {q for q, w in enumerate(_blocks(p), start=1) if w in ("UD", "UU")}


def unitary_shift(p: DyckPath, i: int) -> DyckPath:
    """Reverse the i-th two-letter block; always yields a valid path.

    The height entering a block is odd, hence >= 1, so the reversal cannot
    dip below the diagonal; that is asserted rather than assumed.
    """
    n = p.half_length
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"block index {i} not in 1..{n - 1}")
    w = p.word
    lo = 2 * i - 1
    flipped = w[:lo] + w[lo + 1] + w[lo] + w[lo + 2 :]
    try:
        return DyckPath(flipped)
    except InputError as exc:
        raise InvariantViolation(f"shift broke path validity: {exc}") from exc


def to_v_vector(p: DyckPath) -> tuple[int, ...]:
    """Profile encoding: for i = 1..k-1, (Us before the i-th D) - i + 1."""
    k = p.half_length
    ups = 0
    seen_d = 0
    out = []
    for ch in p.word:
        if ch == "U":
            ups += 1
        else:
            seen_d += 1
            if seen_d == k:
                break
            out.append(ups - seen_d + 1)
    return tuple(out)


def from_v_vector(v) -> DyckPath:
    """Inverse of ``to_v_vector``; raises InvalidVG on vectors that encode
    no path."""
    v = tuple(v)
    k = len(v) + 1
    m_prev = 0
    parts = []
    for i, vi in enumerate(v, start=1):
        if not isinstance(vi, int) or isinstance(vi, bool) or vi < 1:
            raise InvalidVG(f"entry {i}: {vi!r} must be an integer >= 1")
        m_i = vi + i - 1
        if m_i < m_prev:
            raise InvalidVG(f"entry {i}: U-count profile decreases")
        if m_i > k:
            raise InvalidVG(f"entry {i}: profile exceeds half length {k}")
        parts.append("U" * (m_i - m_prev) + "D")
        m_prev = m_i
    parts.append("U" * (k - m_prev) + "D")
    try:
        return DyckPath("".join(parts))
    except InputError as exc:
        raise InvalidVG(str(exc)) from exc


def to_lambda(p: DyckPath) -> tuple[int, ...]:
    """Descent encoding: entry i counts Ds before the (n+2-i)-th U, where
    the path has length 2(n+1)."""
    n = p.half_length - 1
    if n < 1:
        raise TooShort("descent encoding needs length >= 4")
    ds_before = []
    downs = 0
    for ch in p.word:
        if ch == "U":
            ds_before.append(downs)
        else:
            downs += 1
    return tuple(ds_before[n + 1 - i] for i in range(1, n + 1))


def reduce_coordinate(u, i: int) -> int:
    """Greedy subtraction residue of the i-th coordinate of ``u``.

    Repeatedly subtract the entry with the largest index l <= i that keeps
    the remainder positive; after t subtractions the result is remainder
    plus t.  With no qualifying index the coordinate itself is returned.
    ``u`` must be a non-empty vector of positive ints.
    """
    u = as_vector(u)
    if not (isinstance(i, int) and not isinstance(i, bool) and 1 <= i <= len(u)):
        raise IndexOutOfRange(f"coordinate {i!r} not in 1..{len(u)}")
    return _reduce(u, i)


def _reduce(u: tuple[int, ...], i: int) -> int:
    # Once index l stops qualifying it never qualifies again, so each index
    # is taken as often as it fits in one division: at most i steps.
    r = u[i - 1]
    t = 0
    for l in range(i, 0, -1):
        if u[l - 1] < r:
            k = (r - 1) // u[l - 1]
            r -= k * u[l - 1]
            t += k
    return r + t


def lambda_diagonals(lambda_vector) -> list[tuple[int, int]]:
    """Diagonals of the (n+3)-gon drawn by a descent encoding of length n.

    The active polygon is kept as an ordered list of original labels: step
    i joins the vertices at current positions lambda_i and lambda_i + 2 and
    removes the vertex between them.  Recording original labels avoids
    off-by-one drift from relabeling arithmetic, and as the list stays
    sorted each diagonal comes out as ``(low, high)``.
    """
    lam = tuple(lambda_vector)
    active = list(range(len(lam) + 3))
    diagonals = []
    for step, li in enumerate(lam, start=1):
        if not isinstance(li, int) or isinstance(li, bool) or li < 0:
            raise InputError(f"step {step}: {li!r} is not a valid position")
        if li + 2 > len(active) - 1:
            raise PositionOutOfRange(step, li, len(active))
        diagonals.append((active[li], active[li + 2]))
        del active[li + 1]
    return diagonals


def degree_quiddity(N: int, diagonals) -> tuple[int, ...]:
    """Quiddity of the N-gon cut by ``diagonals``: 1 + degree per vertex."""
    q = [1] * N
    for i, j in diagonals:
        q[i] += 1
        q[j] += 1
    return tuple(q)


def vector_to_path(v) -> DyckPath:
    """Map a diamond vector of rank n to its Dyck path of length 2(n+1).

    The reduced coordinates are read as the profile encoding of the path.
    A vector not associated to a positive integral diamond is rejected by
    ``complete_diamond`` with NonExactDivision or NonPositiveEntry.
    """
    v = complete_diamond(v).col1
    profile = tuple(_reduce(v, i) for i in range(1, len(v) + 1))
    return from_v_vector(profile)


def path_to_vector(p: DyckPath, n: int) -> tuple[int, ...]:
    """Unique diamond vector of rank n mapped to ``p`` by ``vector_to_path``.

    The vector is entries 2..n+1 of the frieze diagonal at column 0 of the
    quiddity of the path's triangulation.
    """
    if p.half_length != n + 1:
        raise InputError(
            f"path of length {2 * p.half_length} does not match rank {n}"
        )
    q = degree_quiddity(n + 3, lambda_diagonals(to_lambda(p)))
    return diagonal(q, 0, n + 2)[2:]
