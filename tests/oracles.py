"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: counting by direct
filtering, rule checks by literal arithmetic, quiddity by diagonal degree,
crossing by comparing every pair of chords, greedy reduction one
subtraction at a time.
"""

import itertools


def unimodular_holds(col1, col2):
    """Literal check of the staircase rule with boundary ones."""
    n = len(col1)
    for j in range(1, n + 1):
        left = col2[j - 2] if j >= 2 else 1
        right = col1[j] if j < n else 1
        if col1[j - 1] * col2[j - 1] - left * right != 1:
            return False
    return True


def is_dyck_word(word):
    height = 0
    for ch in word:
        if ch == "U":
            height += 1
        elif ch == "D":
            height -= 1
            if height < 0:
                return False
        else:
            return False
    return height == 0


def brute_paths(half_length):
    """Every Dyck word of the given half length, by filtering all words."""
    return [
        "".join(w)
        for w in itertools.product("UD", repeat=2 * half_length)
        if is_dyck_word("".join(w))
    ]


def catalan_by_convolution(n):
    """Catalan numbers via the convolution recurrence, no binomials."""
    cs = [1]
    for m in range(1, n + 1):
        cs.append(sum(cs[i] * cs[m - 1 - i] for i in range(m)))
    return cs[n]


def quiddity_by_degree(t):
    """Triangle counts per vertex equal diagonal degree plus one."""
    counts = [1] * t.polygon_size
    for i, j in t.diagonals:
        counts[i] += 1
        counts[j] += 1
    return tuple(counts)


def _crosses(d1, d2):
    if set(d1) & set(d2):
        return False
    a, b = d1
    c, d = d2
    return (a < c < b) != (a < d < b)


def pairwise_non_crossing(diagonals):
    """True iff no two of the normalized chords strictly interleave."""
    return all(not _crosses(a, b) for a, b in itertools.combinations(diagonals, 2))


def polygon_chords(N):
    """Every diagonal (i, j), i < j, of the labeled N-gon."""
    return [
        (i, j)
        for i in range(N)
        for j in range(i + 1, N)
        if (j - i) % N not in (1, N - 1)
    ]


def brute_triangulation_diagonal_sets(N):
    """All triangulations of the N-gon as frozensets of diagonals, found by
    filtering every (N-3)-subset of chords for pairwise non-crossing."""
    return [
        frozenset(combo)
        for combo in itertools.combinations(polygon_chords(N), N - 3)
        if pairwise_non_crossing(combo)
    ]


def reduce_coordinate_stepwise(u, i):
    """Greedy residue by literal one-at-a-time subtraction of the entry
    with the largest index l <= i that keeps the remainder positive."""
    r = u[i - 1]
    t = 0
    while True:
        pick = None
        for l in range(i, 0, -1):
            if r - u[l - 1] > 0:
                pick = l
                break
        if pick is None:
            return r + t
        r -= u[pick - 1]
        t += 1
