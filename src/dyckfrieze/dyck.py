"""Dyck words, their two integer encodings, and the path map for diamond
vectors.

A Dyck word over {U, D} is balanced and never has a prefix with more Ds
than Us.  Canonical text form is the plain uppercase string, e.g.
``"UUDUDD"``.  A function that takes a ``DyckPath`` validates anything
else as one, so a plain word is accepted.

Two vector encodings are used.  The profile vector of a path of length 2k
lists, for the first k-1 Ds, the number of Us seen before that D minus its
position offset; the descent vector of a path of length 2(n+1) lists, for
i = 1..n, how many Ds occur before the (n+2-i)-th U.  The former drives the
bijection with diamond vectors, the latter drives polygon triangulations
through ``_clip``.  Both encodings and the rank in ``all_paths`` order
are read off the profile m (the Us before each D) that the constructor's
validating walk computes, with no walk of their own.  ``_profile_of``
reduces every coordinate of a diamond vector in one pass, along the chain
of previous-smaller entries, and checks the profile once, for
``vector_to_path``, which builds its word unchecked by
``DyckPath._trusted``, as ``all_paths`` does from the profiles it steps
through, and for the invariant sweep's walk in ``checks``, which composes
``_profile_of``, ``_descents``, ``_clip`` and ``degree_quiddity`` with no
word in between.  ``_clip`` is the one ear clipper.  ``_ballot_rows`` lays
out ``path_rank``'s terms as a table for the sweep, which builds it once
per share of the cycles it checks.  A descent encoding is checked only
where it enters, in ``triangulation.realize``.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from math import comb

from .diamond import as_vector, complete_diamond, diagonal
from .errors import (
    BadSymbol,
    IndexOutOfRange,
    InputError,
    InvalidVG,
    InvariantViolation,
    NotBalanced,
    PrefixViolation,
    Record,
    TooShort,
    as_tuple,
    expect,
    format_int,
    int_in,
    is_int,
)


def _profile(word: str) -> tuple[int, ...]:
    m = []
    ups = downs = 0
    for ch in word:
        if ch == "U":
            ups += 1
        elif ch == "D":
            downs += 1
            if ups < downs:
                raise PrefixViolation(ups + downs)
            m.append(ups)
        else:
            raise BadSymbol(ups + downs + 1, ch)
    if ups != downs:
        raise NotBalanced(f"{ups} Us vs {downs} Ds")
    return tuple(m)


class DyckPath(Record):
    """Validated Dyck word; construction rejects anything else.  The
    package builds the word of a profile it has already checked through
    ``_trusted``."""

    __match_args__ = ("word",)

    def __init__(self, word: str):
        # _m, the profile (Us before each D), is a function of word, so it
        # is neither shown nor compared
        m = _profile(expect(word, str))
        self._fill(word)
        object.__setattr__(self, "_m", m)

    @classmethod
    def _trusted(cls, m) -> DyckPath:
        """Build without validation from a profile ``m`` that encodes a
        path: non-decreasing, ``i <= m_i`` for the i-th D, closed by k."""
        # the runs of Us between Ds, joined by D: faster than one
        # concatenation per D
        ups = ["U" * (b - a) for a, b in zip([0, *m], m)]
        word = "D".join(ups) + "D" if ups else ""
        p = object.__new__(cls)._fill(word)
        object.__setattr__(p, "_m", tuple(m))
        return p

    @property
    def half_length(self) -> int:
        return len(self.word) // 2

    def __str__(self) -> str:
        return self.word


def _as_path(p) -> DyckPath:
    """``p`` itself if it is a ``DyckPath``, otherwise ``p`` validated as one."""
    return p if isinstance(p, DyckPath) else DyckPath(p)


def parse_path(text: str) -> DyckPath:
    """Parse a Dyck word, accepting lowercase and canonicalizing to upper."""
    return DyckPath(expect(text, str).upper())


def all_paths(half_length: int):
    """Yield every Dyck path of length ``2 * half_length`` in lexicographic
    order with U < D."""
    # turns a list's OverflowError past sys.maxsize into an InputError; a
    # shorter word that memory cannot hold still raises MemoryError
    k = int_in(half_length, "half length", 0, sys.maxsize)
    m = [0] + [k] * k  # m[j]: the Us before the j-th D, after a sentinel 0
    while True:
        yield DyckPath._trusted(m[1:])
        # Two words first differ at a D of one and a U of the other, so the
        # smaller word has more Us before that D: word order is reverse
        # lexicographic order of profiles.  The successor lowers the
        # rightmost entry that stays at least j and its left neighbour, and
        # raises every later entry to k, the largest suffix; m[k] stays k.
        for j in range(k - 1, 0, -1):
            if m[j] > j and m[j] > m[j - 1]:
                m[j] -= 1
                m[j + 1 : k] = [k] * (k - 1 - j)
                break
        else:
            return


def path_rank(p) -> int:
    """Position of a Dyck word in ``all_paths`` order, in ``[0, catalan(k))``.

    Each D adds the number of words that share the prefix before it and
    take a U there instead: the ballot number of paths from the raised
    height back to 0 in the remaining steps (Knuth, TAOCP Vol. 4A,
    7.2.1.6), a difference of two binomials by the reflection principle.
    The i-th D (from 0) with m Us before it leaves 2k - m - i - 1 steps,
    k - i of them Ds once a U takes its place.  No table is kept.
    """
    m = _as_path(p)._m
    k = len(m)
    return sum(_ballot_term(k, i, mi) for i, mi in enumerate(m))


def _ballot_term(k: int, i: int, mi: int) -> int:
    # the term of ``path_rank`` for the i-th D of a word of half length k
    return comb(2 * k - mi - i - 1, k - i) - comb(2 * k - mi - i - 1, k - i + 1)


def _ballot_rows(k: int) -> list[list[int]]:
    """``rows[i][mi]``: ``path_rank``'s term for the i-th D with mi Us
    before it, so a profile m of length k ranks as the sum of
    ``rows[i][m[i]]``."""
    return [[_ballot_term(k, i, mi) for mi in range(k + 1)] for i in range(k)]


def catalan(n: int) -> int:
    """Exact n-th Catalan number."""
    # past sys.maxsize math.comb raises OverflowError, not InputError
    int_in(n, "catalan index", 0, sys.maxsize)
    return comb(2 * n, n) // (n + 1)


def peaks(p: DyckPath) -> int:
    """Number of UD factors (north-then-east turns)."""
    return _as_path(p).word.count("UD")


def support(p: DyckPath) -> set[int]:
    """Block indices q where the two-letter block w_q is UD or UU, for the
    path factored as U w_1 ... w_{n-1} D."""
    w = _as_path(p).word
    n = int_in(len(w) // 2, "half length of a block factorization", 2, error=TooShort)
    return {q for q in range(1, n) if w[2 * q - 1 : 2 * q + 1] in ("UD", "UU")}


def unitary_shift(p: DyckPath, i: int) -> DyckPath:
    """Reverse the i-th two-letter block; always yields a valid path.

    The height entering a block is odd, hence >= 1, so the reversal cannot
    dip below the diagonal; that is asserted rather than assumed.
    """
    w = _as_path(p).word
    int_in(i, "block index", 1, len(w) // 2 - 1, IndexOutOfRange)
    lo = 2 * i - 1
    flipped = w[:lo] + w[lo + 1] + w[lo] + w[lo + 2 :]
    try:
        return DyckPath(flipped)
    except InputError as exc:
        raise InvariantViolation(f"shift broke path validity: {exc}") from exc


def to_v_vector(p: DyckPath) -> tuple[int, ...]:
    """Profile encoding: for i = 1..k-1, (Us before the i-th D) - i + 1."""
    m = _as_path(p)._m
    return tuple(m[i] - i for i in range(len(m) - 1))


def from_v_vector(v) -> DyckPath:
    """Inverse of ``to_v_vector``; raises InvalidVG on vectors that encode
    no path."""
    v = as_tuple(v, "vector")
    k = len(v) + 1
    m = [0]
    for i, vi in enumerate(v, start=1):
        if not is_int(vi) or vi < 1:
            raise InvalidVG(f"entry {i}: {format_int(vi)} must be an integer >= 1")
        m.append(vi + i - 1)
        if m[i] < m[i - 1]:
            raise InvalidVG(f"entry {i}: U-count profile decreases")
        if m[i] > k:
            raise InvalidVG(f"entry {i}: profile exceeds half length {k}")
    return DyckPath._trusted(m[1:] + [k])


def to_lambda(p: DyckPath) -> tuple[int, ...]:
    """Descent encoding: entry i counts Ds before the (n+2-i)-th U, where
    the path has length 2(n+1)."""
    m = _as_path(p)._m
    n = int_in(len(m) - 1, "rank of a descent encoding", 1, error=TooShort)
    return _descents(m, n)


def _descents(m, n: int) -> tuple[int, ...]:
    # Ds before the j-th U are those with at most j - 1 Us before them
    return tuple(bisect_right(m, n + 1 - i) for i in range(1, n + 1))


def reduce_coordinate(u, i: int) -> int:
    """Greedy subtraction residue of the i-th coordinate of ``u``.

    Repeatedly subtract the entry with the largest index l <= i that keeps
    the remainder positive; after t subtractions the result is remainder
    plus t.  With no qualifying index the coordinate itself is returned.
    ``u`` must be a non-empty vector of positive ints.
    """
    u = as_vector(u)
    i = int_in(i, "coordinate", 1, len(u), IndexOutOfRange)
    return _reduced(u[:i])[-1]


def _reduced(u: tuple[int, ...]) -> list[int]:
    """Every reduced coordinate of ``u``, in one pass.

    Once index l stops qualifying it never qualifies again, so each index
    is taken as often as it fits in one division.  After a subtraction at
    index j the remainder is at most u_j, and the entries between j and
    the nearest smaller one before it are at least u_j, so only the chain
    of previous-smaller entries can qualify: it is the stack kept below.
    """
    reduced = []
    chain = []  # earlier entries, each smaller than every entry after it
    for x in u:
        while chain and chain[-1] >= x:
            chain.pop()
        r = x
        t = 0
        for s in reversed(chain):
            if s < r:
                k = (r - 1) // s
                r -= k * s
                t += k
        reduced.append(r + t)
        chain.append(x)
    return reduced


def _clip(lam) -> list[tuple[int, int]]:
    """Diagonals of the (n+3)-gon drawn by a checked descent encoding of length n.

    The active polygon is kept as an ordered list of original labels: step
    i joins the vertices at current positions lambda_i and lambda_i + 2 and
    removes the vertex between them.  Recording original labels avoids
    off-by-one drift from relabeling arithmetic, and as the list stays
    sorted each diagonal comes out as ``(low, high)``.
    """
    active = list(range(len(lam) + 3))
    diagonals = []
    for li in lam:
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
    return DyckPath._trusted(_profile_of(complete_diamond(v).col1))


def _profile_of(u: tuple[int, ...]) -> list[int]:
    """Profile of the path of a checked diamond vector ``u``: its reduced
    coordinates plus their offsets, closed by n + 1.  One that encodes no
    path raises InvariantViolation, as the path map's theorem failed."""
    n = len(u)
    m = [r + i for i, r in enumerate(_reduced(u))] + [n + 1]
    # i <= m_i, non-decreasing, so at most m_{n+1} = n + 1 (``from_v_vector``)
    for i in range(1, n + 1):
        if not i <= m[i - 1] <= m[i]:
            shown = f"{format_int(m)} of {format_int(u)}"
            raise InvariantViolation(f"profile {shown} encodes no Dyck path")
    return m


def path_to_vector(p: DyckPath, n: int) -> tuple[int, ...]:
    """Unique diamond vector of rank n mapped to ``p`` by ``vector_to_path``.

    The vector is entries 2..n+1 of the frieze diagonal at column 0 of the
    quiddity of the path's triangulation.
    """
    p = _as_path(p)
    int_in(n, "rank of the path", p.half_length - 1, p.half_length - 1)
    q = degree_quiddity(n + 3, _clip(to_lambda(p)))
    return diagonal(q, 0, n + 2)[2:]
