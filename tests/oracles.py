"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: counting by direct
filtering, rule checks by literal arithmetic, crossing by comparing every
pair of chords, greedy reduction one subtraction at a time.  The rest are
the library's earlier implementations, kept as differential references:
the quiddity by counting ear-clipped faces (against the degree count),
and, for the frieze-diagonal recurrence, frieze completion by row
division, coupling cycles by iterated completion, and the path inverse by
a table over the whole enumeration; and the rank-n invariant suite as it
was before it streamed one coupling cycle at a time, holding every path,
word set and triangulation until the end.
"""

import functools
import itertools

from dyckfrieze import (
    all_paths,
    ballot_count,
    catalan,
    complete_diamond,
    couple_next,
    cycle_heads,
    enumerate_all,
    from_cycle,
    from_quiddity,
    minimal_cycle,
    path_to_triangulation,
    path_to_vector,
    quiddity,
    rotation_orbit,
    triangles,
    vector_to_path,
    verify,
)
from dyckfrieze.checks import CheckResult
from dyckfrieze.diamond import Cycle
from dyckfrieze.errors import (
    FailsToClose,
    InputError,
    InvariantViolation,
    NonPositiveEntry,
    RangeError,
)


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


def quiddity_by_faces(t):
    """Triangles at each vertex, counted over the faces that ear clipping
    finds."""
    counts = [0] * t.polygon_size
    for face in triangles(t):
        for v in face:
            counts[v] += 1
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


def random_triangulation_diagonals(N, rng):
    """Diagonals of a random triangulation of the N-gon: the side (lo, hi)
    of each remaining polygon takes a random apex, splitting it in two."""
    diagonals = set()
    stack = [(0, N - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        apex = rng.randint(lo + 1, hi - 1)
        for a, b in ((lo, apex), (apex, hi)):
            if b - a >= 2:
                diagonals.add((a, b))
                stack.append((a, b))
    return frozenset(diagonals)


def frieze_rows_by_division(q):
    """Frieze rows completed downward one row at a time by exact division,
    ``(left * right - 1) / top``; raises the library's errors for a
    sequence that is not a quiddity."""
    q = tuple(q)
    N = len(q)
    if N < 3:
        raise RangeError("quiddity must have length >= 3")
    for c, x in enumerate(q):
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"quiddity entry {c}: {x!r} is not an integer")
        if x < 1:
            raise NonPositiveEntry(c, x, row=2)
    ones = (1,) * N
    rows = [(0,) * N, ones, q]
    for r in range(3, N):
        if rows[r - 1] == ones:
            raise FailsToClose(f"row of ones appeared early, at row {r - 1}")
        prev, above = rows[r - 1], rows[r - 2]
        new = []
        for c in range(N):
            quotient, remainder = divmod(
                prev[c] * prev[(c + 1) % N] - 1, above[(c + 1) % N]
            )
            assert not remainder, f"row {r}, column {c}: inexact division"
            if quotient < 1:
                raise NonPositiveEntry(c, quotient, row=r)
            new.append(quotient)
        rows.append(tuple(new))
    if rows[N - 1] != ones:
        raise FailsToClose(f"row {N - 1} is {rows[N - 1]}, not all ones")
    rows.append((0,) * N)
    return tuple(rows)


def minimal_cycle_by_coupling(d0):
    """Iterate ``couple_next`` from ``d0`` until it recurs, within the
    n + 3 couplings the period theorem allows."""
    members = [d0]
    current = couple_next(d0)
    while current != d0:
        assert len(members) < d0.n + 3, f"no recurrence from {d0.col1}"
        members.append(current)
        current = couple_next(current)
    return Cycle(tuple(members))


@functools.lru_cache(maxsize=None)
def _inverse_table(n):
    return {vector_to_path(v).word: v for v in enumerate_all(n)}


def path_to_vector_by_table(p, n):
    """Preimage of ``p`` found by mapping every rank-n diamond vector."""
    return _inverse_table(n)[p.word]


def run_checks_with_global_tables(n):
    """The rank-n invariant suite over whole-enumeration tables: the set of
    all path words, every triangulation in a dict, and set equality of each
    cycle's images with a rotation orbit."""
    results = []
    vectors = enumerate_all(n)
    expected = catalan(n + 1)

    results.append(
        CheckResult(
            "enumeration_count",
            len(vectors) == expected,
            f"count={len(vectors)} expected={expected}",
        )
    )

    paths = [vector_to_path(v) for v in vectors]
    words = [p.word for p in paths]
    all_words = {p.word for p in all_paths(n + 1)}
    results.append(
        CheckResult(
            "path_map_injective",
            len(set(words)) == len(words),
            f"distinct={len(set(words))} of {len(words)}",
        )
    )
    results.append(
        CheckResult(
            "path_map_image_complete",
            set(words) == all_words,
            f"image={len(set(words))} paths={len(all_words)}",
        )
    )
    results.append(
        CheckResult(
            "path_map_roundtrip",
            all(path_to_vector(p, n) == v for v, p in zip(vectors, paths)),
        )
    )

    cycles = []
    position = {}  # member col1 -> (its cycle, its offset in that cycle)
    for v in vectors:
        if v not in position:
            c = minimal_cycle(complete_diamond(v))
            cycles.append(c)
            for t, d in enumerate(c.diamonds):
                position[d.col1] = (c, t)
    members = sorted(d.col1 for c in cycles for d in c.diamonds)
    results.append(
        CheckResult(
            "cycle_period_divides",
            all((n + 3) % c.p == 0 for c in cycles) and members == sorted(vectors),
            f"order={n + 3}",
        )
    )

    friezes_ok = True
    for c in cycles:
        try:
            from_cycle(c)
        except InvariantViolation:
            friezes_ok = False
    results.append(CheckResult("frieze_from_cycle_valid", friezes_ok))

    tris = {v: path_to_triangulation(p) for v, p in zip(vectors, paths)}
    results.append(
        CheckResult(
            "triangulation_map_injective",
            len(set(tris.values())) == expected,
            f"distinct={len(set(tris.values()))} expected={expected}",
        )
    )

    quiddity_ok = True
    closes = {}  # quiddity rotated back by the member offset -> it closes
    for v, t in tris.items():
        c, offset = position[v]
        heads = cycle_heads(c)
        q = quiddity(t)
        if (heads[offset:] + heads[:offset]) * ((n + 3) // c.p) != q:
            quiddity_ok = False
        key = q[-offset:] + q[:-offset]
        if key not in closes:
            try:
                closes[key] = verify(from_quiddity(key))
            except InputError:
                closes[key] = False
    orbit_ok = True
    for c in cycles:
        member_images = {tris.get(d.col1) for d in c.diamonds}
        if (
            member_images != rotation_orbit(tris[c.diamonds[0].col1])
            or len(member_images) != c.p
        ):
            orbit_ok = False
    results.append(CheckResult("quiddity_matches_heads", quiddity_ok))
    results.append(CheckResult("cycle_orbit_consistent", orbit_ok))
    results.append(CheckResult("quiddity_friezes_close", all(closes.values())))

    results.append(
        CheckResult(
            "ballot_row_sum",
            sum(ballot_count(n, z) for z in range(1, n + 2)) == expected,
            f"expected={expected}",
        )
    )
    return results
