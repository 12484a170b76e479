"""Seed vectors, the expansion move, exhaustive generation of diamond
vectors, and ballot-number counting.

Generation is a breadth-first closure of the n+1 seed vectors under the
expansion move, deduplicated and emitted in sorted order so output is
deterministic.  The closure has exactly catalan(n+1) members, one per Dyck
path of length 2(n+1).  Those whose first entry is z number
``ballot_count(n, z) = comb(2n+1-z, n) - comb(2n+1-z, n+1)``, the Dyck
paths of half length n+1 whose first D comes after exactly z Us.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import lru_cache
from math import comb

from .diamond import Vector, as_vector, complete_diamond, minimal_cycle
from .dyck import DyckPath, vector_to_path
from .errors import IndexOutOfRange, LastEntryNotOne, RangeError, int_in


def seed_vector(n: int, z: int) -> Vector:
    """The vector (z, z-1, ..., 2, 1, ..., 1) of rank n, for z in 1..n+1."""
    _check_range(n, z)
    return tuple(z + 1 - i if i < z else 1 for i in range(1, n + 1))


def companion_vector(n: int, z: int) -> Vector:
    """First column of the diamond coupled to the rank-n seed: ones up to
    position z, then 2, 3, ... afterwards."""
    _check_range(n, z)
    return tuple(1 if i < z else i + 2 - z for i in range(1, n + 1))


def _check_range(n: int, z: int) -> None:
    # past sys.maxsize math.comb raises OverflowError, not InputError
    int_in(n, "rank", 1, sys.maxsize, RangeError)
    int_in(z, "z", 1, n + 1, RangeError)


def expand(v, i: int) -> Vector:
    """Expansion move at position i: insert the sum of neighbors i and i+1
    after position i and drop the trailing 1.

    Requires positive int entries, the last one 1, and 1 <= i < n.  When v
    is a diamond vector, so is the result, by one ear move.  Write m(a, b)
    for the frieze entries of a triangulation T of the N-gon, N = n + 3
    (Conway & Coxeter, 1973): m(a, a + 1) = 1, and v_k = m(N - 1, k), the
    column-0 diagonal of T's frieze, as ``dyck.path_to_vector`` reads it.
    So v_n = 1 is the diagonal (N - 3, N - 1): vertex N - 2 is an ear.  Cut
    it, which leaves m unchanged on the other vertices, and glue an ear x
    on side (i, i + 1).  Ptolemy's relation on the quadrilateral of y, i,
    x, i + 1 gives m(y, x) = m(y, i) + m(y, i + 1), as m(i, x) = m(x, i + 1)
    = m(i, i + 1) = 1.  Relabelled, x is vertex i + 1 of a triangulation
    of the N-gon, and its column-0 diagonal is v_1..v_i, v_i + v_{i+1},
    v_{i+1}..v_{n-1}: the result, the first column of a positive integral
    diamond.
    """
    v = as_vector(v)
    if v[-1] != 1:
        raise LastEntryNotOne("vector does not end in 1")
    return _expand(v, int_in(i, "position", 1, len(v) - 1, IndexOutOfRange))


def _expand(v: Vector, i: int) -> Vector:
    return v[:i] + (v[i - 1] + v[i],) + v[i:-1]


def enumerate_all(n: int) -> tuple[Vector, ...]:
    """All rank-n diamond vectors, sorted lexicographically.

    BFS closure of the seed vectors under ``expand`` at every legal
    position; cardinality is catalan(n+1).  The rank is checked before the
    cache is asked, and ``enumerate_all.cache_info`` reports that cache.
    The vector at sorted position i has the path of rank catalan(n+1) - 1 - i
    (``path_rank(vector_to_path(v))``), so this order is the reverse of
    ``all_paths``: checked at ranks 1-10, not proved.
    """
    return _enumerate_all(int_in(n, "rank", 1, error=RangeError))


@lru_cache(maxsize=None)
def _enumerate_all(n: int) -> tuple[Vector, ...]:
    seeds = [seed_vector(n, z) for z in range(1, n + 2)]
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        v = queue.popleft()
        if v[-1] != 1:
            continue
        for i in range(1, n):
            w = _expand(v, i)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return tuple(sorted(seen))


enumerate_all.cache_info = _enumerate_all.cache_info


def ballot_count(n: int, z: int) -> int:
    """Ballot number ``comb(2n+1-z, n) - comb(2n+1-z, n+1)``: the Dyck paths
    of half length n+1 whose first D comes after exactly z Us.  The rows
    form the Catalan triangle and sum to catalan(n+1)."""
    _check_range(n, z)
    return comb(2 * n + 1 - z, n) - comb(2 * n + 1 - z, n + 1)


def cycle_paths(v) -> tuple[DyckPath, ...]:
    """Dyck paths of the members of the minimal cycle through ``v``, in
    cycle order; one path per member, p in total."""
    cycle = minimal_cycle(complete_diamond(v))
    return tuple(vector_to_path(d.col1) for d in cycle.diamonds)
