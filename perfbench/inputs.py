"""Seeded benchmark inputs, built with the standard library only.

Nothing here imports ``dyckfrieze``: the expected answers the benchmark
checks against come from elementary constructions, not from the program
under test.

- ``random_triangulation`` draws a triangulation of the N-gon uniformly at
  random by Catalan-weighted splitting of the edge (0, N-1).
- ``quiddity_by_degree`` counts triangles per vertex as diagonal degree
  plus one.
- ``diagonal_vector`` runs the Conway-Coxeter recurrence
  m_{k+1} = q * m_k - m_{k-1} down the frieze diagonal that starts at
  vertex 0 and keeps entries 2..N-2, the rank-(N-3) diamond vector of the
  triangulation.
- ``random_dyck_word`` draws a uniform Dyck word by the cycle lemma.
"""

from __future__ import annotations

import random
from math import comb


def rng_for(seed: int, workload: str, round_index: int) -> random.Random:
    """Independent generator per (seed, workload, round)."""
    return random.Random(f"{seed}:{workload}:{round_index}")


def _catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def random_triangulation(rng: random.Random, N: int) -> frozenset[tuple[int, int]]:
    """Uniform random triangulation of the labeled N-gon, as its N-3
    diagonals ``(i, j)`` with ``i < j``.

    The triangle on edge (i, j) has apex k with probability
    C(k-i-1) * C(j-k-1) / C(j-i-1), C the Catalan numbers, which makes
    every triangulation equally likely.
    """
    diagonals = set()
    stack = [(0, N - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        pick = rng.randrange(_catalan(j - i - 1))
        for k in range(i + 1, j):
            weight = _catalan(k - i - 1) * _catalan(j - k - 1)
            if pick < weight:
                break
            pick -= weight
        for a, b in ((i, k), (k, j)):
            if b - a >= 2:
                diagonals.add((a, b))
                stack.append((a, b))
    return frozenset(diagonals)


def quiddity_by_degree(N: int, diagonals) -> tuple[int, ...]:
    """Triangles at each vertex: diagonal degree plus one."""
    q = [1] * N
    for i, j in diagonals:
        q[i] += 1
        q[j] += 1
    return tuple(q)


def diagonal_vector(q) -> tuple[int, ...]:
    """Entries 2..N-2 of the frieze diagonal m_0=0, m_1=1,
    m_{k+1} = q_{k-1} * m_k - m_{k-1}."""
    N = len(q)
    d = [0, 1]
    for k in range(N - 1):
        d.append(q[k] * d[-1] - d[-2])
    return tuple(d[2 : N - 1])


def random_dyck_word(rng: random.Random, half_length: int) -> str:
    """Uniform Dyck word of length ``2 * half_length`` (cycle lemma).

    A uniform arrangement of k+1 Us and k Ds has exactly one rotation whose
    every proper prefix has more Us than Ds; that rotation minus its
    leading U is a uniform Dyck word.
    """
    k = half_length
    steps = [1] * (k + 1) + [-1] * k
    rng.shuffle(steps)
    height, low, start = 0, 0, 0
    for pos, s in enumerate(steps):
        height += s
        if height <= low:
            low, start = height, pos + 1
    rotated = steps[start:] + steps[:start]
    return "".join("U" if s == 1 else "D" for s in rotated[1:])


def is_dyck_word(word: str, half_length: int) -> bool:
    height = 0
    for ch in word:
        if ch not in "UD":
            return False
        height += 1 if ch == "U" else -1
        if height < 0:
            return False
    return height == 0 and len(word) == 2 * half_length
