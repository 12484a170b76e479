"""Triangulations of a labeled convex polygon and their rotation orbits.

Vertices of an N-gon are labeled 0..N-1 in circular order.  A triangulation
is the set of its N-3 pairwise non-crossing diagonals; with that count,
non-crossing already forces every face to be a triangle.

Realization turns the descent encoding of a Dyck path of length 2(n+1)
into a triangulation of the (n+3)-gon by the ear clipping ``dyck._clip``.

The constructor validates in full.  Four constructions skip that check,
because a theorem guarantees the result: ``rotate`` and ``rotation_orbit``
(a rotation of a triangulation is a triangulation, and each normalizes
its own pairs), ``realize`` (each step clips one ear of the active
polygon of at least four vertices, so the n chords are distinct,
non-crossing diagonals) and ``path_to_triangulation`` (a validated path's
descent encoding always clips: entry i is at most n + 1 - i).  They call
``Triangulation._trusted``, inherited from ``errors.Record``, with
diagonals already normalized to ``(low, high)`` int pairs.
"""

from __future__ import annotations

from .dyck import DyckPath, _clip, degree_quiddity, to_lambda, vector_to_path
from .errors import InputError, PositionOutOfRange, Record, SizeMismatch
from .errors import as_tuple, expect, format_int, int_in, is_int

Diagonal = tuple[int, int]


def _normalize_pair(pair) -> Diagonal:
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise InputError(f"{format_int(pair)} is not a pair of vertex labels") from None
    if not (is_int(a) and is_int(b)):
        raise InputError(f"diagonal {format_int(pair)} has a non-integer vertex label")
    return (a, b) if a < b else (b, a)


class Triangulation(Record):
    """N-3 non-crossing diagonals of the labeled N-gon."""

    __match_args__ = ("polygon_size", "diagonals")

    def __init__(self, polygon_size: int, diagonals: frozenset[Diagonal]):
        N = int_in(polygon_size, "polygon size", 3)
        diags = frozenset(map(_normalize_pair, as_tuple(diagonals, "diagonals")))
        if len(diags) != N - 3:
            raise InputError(f"expected {format_int(N - 3)} diagonals, got {len(diags)}")
        for i, j in diags:
            if not (0 <= i < j <= N - 1) or (j - i) % N in (1, N - 1):
                shown = f"{format_int(i)}-{format_int(j)}"
                raise InputError(f"{shown} is not a diagonal of the {N}-gon")
        # Non-crossing chords form a laminar family of intervals (shared
        # endpoints do not cross).  In (i, -j) order, once the open chords
        # ending at or before i are closed, chord (i, j) must end no later
        # than the innermost chord still open.
        open_chords = []
        for i, j in sorted(diags, key=lambda d: (d[0], -d[1])):
            while open_chords and open_chords[-1][1] <= i:
                open_chords.pop()
            if open_chords and j > open_chords[-1][1]:
                raise InputError(f"diagonals {open_chords[-1]} and {(i, j)} cross")
            open_chords.append((i, j))
        self._fill(polygon_size, diags)

    def to_text(self) -> str:
        """Canonical text form, e.g. ``N=6; 1-5,2-4,2-5``."""
        pairs = ",".join(f"{i}-{j}" for i, j in sorted(self.diagonals))
        return f"N={self.polygon_size}; {pairs}"


def realize(lambda_vector) -> Triangulation:
    """Triangulation realized by the descent encoding of a Dyck path."""
    lam = as_tuple(lambda_vector, "descent encoding")
    size = len(lam) + 3
    for step, li in enumerate(lam, start=1):
        # the active polygon has size - step + 1 vertices at this step
        if not is_int(li) or li < 0:
            raise InputError(f"step {step}: {format_int(li)} is not a valid position")
        if li + 2 > size - step:
            raise PositionOutOfRange(step, li, size - step + 1)
    return Triangulation._trusted(size, frozenset(_clip(lam)))


def triangles(t: Triangulation) -> list[tuple[int, int, int]]:
    """The N-2 triangular faces, each a sorted vertex triple, in sorted order.

    The ring of v is its two polygon neighbours and its diagonals' other
    ends.  Two ring members consecutive in circular order from v bound a
    face with v; those above v come first, in increasing order, so their
    consecutive pairs a < b are the faces (v, a, b) with smallest corner v.
    """
    N = expect(t, Triangulation).polygon_size
    rings = [{(v - 1) % N, (v + 1) % N} for v in range(N)]
    for i, j in t.diagonals:
        rings[i].add(j)
        rings[j].add(i)
    faces = []
    for v, ring in enumerate(rings):
        above = sorted(w for w in ring if w > v)
        faces += [(v, a, b) for a, b in zip(above, above[1:])]
    return faces


def quiddity(t: Triangulation) -> tuple[int, ...]:
    """Triangles at each vertex, 1 + its diagonals; entries sum to 3(N-2)."""
    return degree_quiddity(expect(t, Triangulation).polygon_size, t.diagonals)


def rotate(t: Triangulation, k: int) -> Triangulation:
    """Shift every vertex label by k modulo the polygon size."""
    if not is_int(k):
        raise InputError(f"shift {format_int(k)} is not an integer")
    N = expect(t, Triangulation).polygon_size
    moved = []
    for i, j in t.diagonals:
        i, j = (i + k) % N, (j + k) % N
        moved.append((i, j) if i < j else (j, i))
    return Triangulation._trusted(N, frozenset(moved))


def same_rotation_orbit(t1: Triangulation, t2: Triangulation) -> bool:
    """True iff some label rotation carries t1 onto t2."""
    if expect(t1, Triangulation).polygon_size != expect(t2, Triangulation).polygon_size:
        raise SizeMismatch(
            f"polygon sizes differ: {t1.polygon_size} vs {t2.polygon_size}"
        )
    return t2 in rotation_orbit(t1)


def rotation_orbit(t: Triangulation) -> set[Triangulation]:
    """All distinct label rotations of ``t``; size divides the polygon size.

    Rotation by k carries a diagonal (i, i + d) to the image of (0, d)
    under rotation by i + k.  So each length d present gets one list of
    the N normalized images of (0, d), written out twice, and diagonal
    (i, j) reads its N images as the slice of length N at i.  Rotation k
    is column k of those slices.  A polygon with no diagonals (N = 3) is
    its own orbit.
    """
    N = expect(t, Triangulation).polygon_size
    if not t.diagonals:
        return {t}
    tables = {}
    for d in {j - i for i, j in t.diagonals}:
        images = [(s, s + d) if s + d < N else (s + d - N, s) for s in range(N)]
        tables[d] = images + images
    moved = [tables[j - i][i : i + N] for i, j in t.diagonals]
    return {Triangulation._trusted(N, frozenset(turned)) for turned in zip(*moved)}


def vector_to_triangulation(v) -> Triangulation:
    """Composite map from a rank-n diamond vector to a triangulation of the
    (n+3)-gon, via its Dyck path and descent encoding."""
    return path_to_triangulation(vector_to_path(v))


def path_to_triangulation(p: DyckPath) -> Triangulation:
    """Triangulation realized by a Dyck path of length 2(n+1)."""
    lam = to_lambda(p)
    return Triangulation._trusted(len(lam) + 3, frozenset(_clip(lam)))
