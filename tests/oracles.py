"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: counting by direct
filtering, rule checks by literal arithmetic, frieze invariants by the
lattice neighbours of each cell of a pattern laid out over two periods,
crossing by comparing every pair of chords, greedy reduction one
subtraction at a time.  The rest are
the library's earlier implementations, kept as differential references:
the faces of a triangulation by clipping ears (against the faces read off
each vertex's neighbour ring), the quiddity by counting those faces
(against the degree count), the head relation by searching its parameters
(against the closed form), and, for the frieze-diagonal recurrence, frieze
completion by row division, coupling cycles by iterated completion, and
the path inverse by a table over the whole enumeration, the path map
composed through the public profile check ``from_v_vector``; and the rank-n
invariant suite as it was before it streamed one coupling cycle at a time,
holding every path, word set and triangulation until the end.  The
kernel's earlier forms are kept as well: the diagonal recurrence indexing
``q`` modulo its length at every step, coupling cycles that validate each
member as a ``Diamond`` or read each member off its own diagonal, and the
frieze checks walked entry by entry, the check's shortcut by the
monodromy and the kernel's rows, the monodromy test that once told the
kernel when to fill rows by the glide, and the cycle frieze built from the
members and then scanned, or built from the repeated heads and then
compared with the members.  So are the word walks that read each of the two
encodings and the rank off a Dyck word, one walk per answer, and ballot
numbers by their recursion over the rank.  So are the sweep's per-vector
formulas before they became table lookups: each coordinate reduced by its
own scan over every earlier index, and a triangulation's key summed from
its diagonals.  So are the symmetry checks before they used the group
structure: a rotation orbit made of one ``rotate`` per shift, and a
rotation period found by trying every shift.  One more reads a triangulation
move by hand: expansion as cutting one ear and gluing another.  One table,
cached per length, holds the oracle values of every short integer sequence
that the exhaustive kernel tests read, so each is computed once.
"""

import functools
import itertools
import math
from collections import Counter

from dyckfrieze import (
    FriezePattern,
    all_paths,
    ballot_count,
    catalan,
    complete_diamond,
    couple_next,
    cycle_heads,
    enumerate_all,
    from_cycle,
    from_quiddity,
    from_v_vector,
    minimal_cycle,
    path_to_triangulation,
    path_to_vector,
    quiddity,
    rotate,
    rotation_orbit,
    vector_to_path,
    verify,
    violations,
)
from dyckfrieze.checks import CheckResult
from dyckfrieze.diamond import (
    Cycle,
    Diamond,
    _frieze_rows,
    diagonal,
    rotation_period,
)
from dyckfrieze.errors import (
    FailsToClose,
    InputError,
    InvariantViolation,
    NonPositiveEntry,
    RangeError,
    format_int,
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


def triangles_by_ear_clipping(t):
    """The N-2 faces, each a sorted vertex triple, in the order found by
    repeatedly clipping an ear: a vertex with no incident remaining
    diagonal, whose neighbours' chord then becomes boundary."""
    active = list(range(t.polygon_size))
    remaining = set(t.diagonals)
    faces = []
    while len(active) > 3:
        for j, v in enumerate(active):
            if any(v in d for d in remaining):
                continue
            u = active[j - 1]
            w = active[(j + 1) % len(active)]
            faces.append(tuple(sorted((u, v, w))))
            remaining.discard((min(u, w), max(u, w)))
            del active[j]
            break
        else:
            raise InvariantViolation("no ear found in a valid triangulation")
    faces.append(tuple(sorted(active)))
    return faces


def quiddity_by_faces(t):
    """Triangles at each vertex, counted over the faces that ear clipping
    finds."""
    counts = [0] * t.polygon_size
    for face in triangles_by_ear_clipping(t):
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


def head_form_by_search(a11, a21, a12, n):
    """The quadratic head relation of a rank-n diamond by search: true iff
    some ``a, m`` in range give ``{a11, a21} = {a, a+m}`` and
    ``a12 = a*a + a*m - 1``."""
    head = sorted((a11, a21))
    for a in range(1, (n + 2) // 2 + 1):
        lo, hi = (1, n) if a == 1 else (0, n + 2 * (1 - a))
        for m in range(lo, hi + 1):
            if head == sorted((a, a + m)) and a12 == a * a + a * m - 1:
                return True
    return False


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


def reduce_coordinate_by_scan(u, i):
    """Greedy residue scanning every index l <= i from the right, each taken
    as often as it fits in one division: one coordinate per call."""
    r = u[i - 1]
    t = 0
    for l in range(i, 0, -1):
        if u[l - 1] < r:
            k = (r - 1) // u[l - 1]
            r -= k * u[l - 1]
            t += k
    return r + t


def profile_by_coordinate(u):
    """Profile of the path of a diamond vector ``u``, each coordinate
    reduced on its own: reduced coordinates plus their offsets, closed by
    n + 1."""
    n = len(u)
    return [reduce_coordinate_by_scan(u, i) + i - 1 for i in range(1, n + 1)] + [n + 1]


def triangulation_key(diagonals, N):
    """The sweep's key of the triangulation of the N-gon with these
    diagonals, summed one end at a time: end x of (i, j) whose partner y
    lies e = (y - x) % N <= N // 2 steps on sets bit e - 2 of block x, each
    block N // 2 - 1 bits wide.  One end of a diagonal qualifies, both of a
    diameter; no two ends set the same bit."""
    D = N // 2 - 1
    return sum(
        1 << x * D + (y - x) % N - 2
        for i, j in diagonals
        for x, y in ((i, j), (j, i))
        if (y - x) % N <= N // 2
    )


def ear_move(q, diagonals, i):
    """Quiddity and diagonals of the N-gon after one ear move: the ear at
    vertex N - 2 is cut, joining N - 3 to N - 1, and an ear is glued on
    side (i, i + 1) of what is left, 1 <= i <= N - 4, its new vertex taking
    label i + 1 and vertices i + 1..N - 3 moving up one.  The new vertex
    has quiddity 1, its two neighbours gain 1 and (i, i + 2) becomes a
    diagonal (Conway & Coxeter, 1973).  Diagonals are pairs (low, high)."""
    N = len(q)
    diagonals = set(diagonals)
    if q[N - 2] != 1 or (N - 3, N - 1) not in diagonals:
        raise InvariantViolation(f"vertex {N - 2} is not an ear")
    diagonals.remove((N - 3, N - 1))
    q = list(q)
    q[N - 3] -= 1
    q[N - 1] -= 1
    del q[N - 2]
    q[i] += 1
    q[i + 1] += 1
    q.insert(i + 1, 1)
    label = [x + (i < x <= N - 3) for x in range(N)]
    moved = [(label[a], label[b]) for a, b in diagonals]
    return tuple(q), sorted(moved + [(i, i + 2)])


def vector_to_path_by_v_vector(v):
    """Dyck path of a diamond vector: each coordinate reduced one
    subtraction at a time, the reduced vector read as a profile vector by
    the checking ``from_v_vector``."""
    return from_v_vector(
        tuple(reduce_coordinate_stepwise(v, i) for i in range(1, len(v) + 1))
    )


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

    friezes_ok = all(verify(from_cycle(c)) for c in cycles)
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

    firsts = Counter(v[0] for v in vectors)
    row = Counter({z: ballot_count(n, z) for z in range(1, n + 2)})
    off = sorted(z for z in set(firsts) | set(row) if firsts[z] != row[z])
    results.append(
        CheckResult(
            "ballot_row_sum",
            not off,
            f"z={off[0]} count={firsts[off[0]]} ballot={row[off[0]]}"
            if off
            else f"expected={expected}",
        )
    )
    return results


def diagonal_by_index(q, c, length):
    """The frieze diagonal by its recurrence, reading ``q[(c + k - 1) % N]``
    afresh at every step."""
    N = len(q)
    d = [0, 1]
    for k in range(1, length - 1):
        d.append(q[(c + k - 1) % N] * d[k] - d[k - 1])
    return tuple(d[:length])


def minimal_cycle_validated(d0):
    """The coupling cycle through ``d0`` from the Wronskian quiddity, each
    member validated in full by ``Diamond(...)``."""
    N = d0.n + 3
    m = (0, 1, *d0.col1, 1, 0, -1)
    w = (-1, 0, 1, *d0.col2, 1, 0)
    q = tuple(m[k] * w[k + 2] - m[k + 2] * w[k] for k in range(N))
    p = rotation_period(q)
    cols = [diagonal_by_index(q, t, N - 1)[2:] for t in range(p + 1)]
    if (cols[0], cols[1]) != (d0.col1, d0.col2):
        raise InvariantViolation(f"frieze of {d0.col1} does not reproduce it")
    return Cycle(tuple(Diamond(cols[t], cols[t + 1]) for t in range(p)))


def minimal_cycle_by_diagonals(d0):
    """The coupling cycle through ``d0`` with one ``diagonal`` per member,
    t = 0..p, each member checked to close and be positive, then built
    unchecked, with the same messages as ``minimal_cycle``."""
    N = d0.n + 3
    m = (0, 1, *d0.col1, 1, 0, -1)
    w = (-1, 0, 1, *d0.col2, 1, 0)
    q = tuple(m[k] * w[k + 2] - m[k + 2] * w[k] for k in range(N))
    p = rotation_period(q)
    diags = [diagonal(q, t, N) for t in range(p + 1)]
    cols = [d[2 : N - 1] for d in diags]
    if (cols[0], cols[1]) != (d0.col1, d0.col2):
        shown = format_int(d0.col1)
        raise InvariantViolation(f"frieze of {shown} does not reproduce it")
    for t in range(p):
        if diags[t][N - 1] != 1 or min(cols[t]) < 1:
            raise InvariantViolation(f"cycle member {t} is not a positive diamond")
    members = tuple(Diamond._trusted(cols[t], cols[t + 1]) for t in range(p))
    return Cycle._trusted(members)


def violations_by_entry(fp):
    """Every broken frieze invariant, found by visiting each entry of the
    fundamental domain with its column indices taken modulo N."""
    N = fp.order
    rows = fp.rows
    if set(map(type, itertools.chain.from_iterable(rows))) != {int}:
        return [
            f"entry at row {r}, column {c} is {x!r}, not an integer"
            for r, row in enumerate(rows)
            for c, x in enumerate(row)
            if type(x) is not int
        ]
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
            left = rows[r][c]
            right = rows[r][(c + 1) % N]
            top = rows[r - 1][(c + 1) % N]
            bottom = rows[r + 1][c]
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


def violations_by_lattice(fp):
    """Every broken frieze invariant, read off the pattern laid out as
    staggered lattice cells over two periods: entry (r, c) is the cell at
    height r and position 2c + r, in half cells.  The diamond whose left
    cell is (r, x) has its right cell at (r, x + 2), its top at
    (r - 1, x + 1) and its bottom at (r + 1, x + 1), and the glide carries
    cell (r, x) to cell (N - r, x + N), so no index is taken modulo N.
    Diagnostics as ``violations``, in its order: each invariant over the
    cells of the fundamental domain, row by row from the left."""
    N = fp.order
    cell = {}
    for r, row in enumerate(fp.rows):
        for x, value in zip(itertools.count(r, 2), row + row):
            cell[r, x] = value

    def domain(*heights):
        # each cell of the fundamental domain at these heights, with its column
        return [
            (r, x, (x - r) // 2) for r in heights for x in range(r, r + 2 * N, 2)
        ]

    problems = []
    if {cell[r, x] for r, x, _ in domain(0, N)} != {0}:
        problems.append("border rows 0 and N must be all zeros")
    if {cell[r, x] for r, x, _ in domain(1, N - 1)} != {1}:
        problems.append("rows 1 and N-1 must be all ones")
    for r, x, c in domain(*range(2, N - 1)):
        if cell[r, x] < 1:
            shown = format_int(cell[r, x])
            problems.append(f"band entry at row {r}, column {c} is {shown}")
    for r, x, c in domain(*range(1, N)):
        left, right = cell[r, x], cell[r, x + 2]
        top, bottom = cell[r - 1, x + 1], cell[r + 1, x + 1]
        if left * right - top * bottom != 1:
            problems.append(
                f"rule fails at rows {r - 1}..{r + 1}, column {c}: "
                f"{format_int(left)}*{format_int(right)} - "
                f"{format_int(top)}*{format_int(bottom)} != 1"
            )
    for r, x, c in domain(*range(N + 1)):
        if cell[r, x] != cell[N - r, x + N]:
            problems.append(f"glide reflection fails at row {r}, column {c}")
    return problems


def monodromy_is_minus_identity(q):
    """True iff ``M_{N-1} ... M_1 M_0 == -I`` for ``M_i = [[q_i, -1], [1, 0]]``.

    The product carries ``(x_j, x_{j-1})`` to ``(x_{j+N}, x_{j+N-1})`` for
    every solution x of the frieze recurrence, so it is -I exactly when
    every solution changes sign over N steps; then each diagonal closes,
    ``d_{N-1} = 1`` and ``d_N = 0``, and conversely.
    """
    a, b, c, d = 1, 0, 0, 1
    for x in q:
        a, b, c, d = x * a - c, x * b - d, a, b
    return a == d == -1 and b == c == 0


def winding(q):
    """Full turns that the vectors ``v_j`` of the frieze recurrence make
    over 2N steps, from ``v_0 = (1, 0)``, ``v_1 = (0, 1)`` by ``v_{j+1} =
    q_j v_j - v_{j-1}``, indices into ``q`` taken modulo N; for q of
    monodromy -I, the half-turns they make over N steps.

    Each step turns v_j counterclockwise by less than a half-turn, since
    ``det(v_j, v_{j+1}) = 1``, and ``v_{2N} = v_0`` when the monodromy is
    -I.  Only the second coordinates b_j are run: v_j crosses the positive
    x-axis counterclockwise, or lands on it, exactly when ``b_j < 0 <=
    b_{j+1}``, once per full turn.
    """
    N = len(q)
    b = [0, 1]
    for j in range(1, 2 * N):
        b.append(q[j % N] * b[j] - b[j - 1])
    return sum(b[j] < 0 <= b[j + 1] for j in range(2 * N))


@functools.lru_cache(maxsize=None)
def small_sequences(N):
    """Every q of length N with entries -1..3, in ``itertools.product``
    order, as ``(q, least, closes, diagonals)``: whether q is the least of
    its turns, ``monodromy_is_minus_identity(q)``, and the N diagonals
    ``diagonal(q, c, N + 1)`` for c = 0..N-1, whose entries r, read across
    the columns, are row r of the pattern.  The exhaustive kernel tests
    share this table, so each value is computed once per N in a run.

    The product order is lexicographic, so the first member of a rotation
    class met is its least.  ``diagonal`` reads q from column c on, so the
    diagonals of q turned k places are its diagonals turned k places: the
    least member computes them once, for every turn of itself.
    """
    turned = {}  # every turn of a least member met so far -> its diagonals
    table = []
    for q in itertools.product(range(-1, 4), repeat=N):
        least = q not in turned
        if least:
            ds = tuple(diagonal(q, c, N + 1) for c in range(N))
            for k in range(N):
                turned[q[k:] + q[:k]] = ds[k:] + ds[:k]
        table.append((q, least, monodromy_is_minus_identity(q), turned[q]))
    return tuple(table)


def closed_by_monodromy_gate(fp):
    """Whether ``fp`` passes the frieze check's earlier shortcut: row N all
    zeros, the quiddity row within ``from_quiddity``'s bounds and of
    monodromy -I, rows 0..N-1 the kernel's rows of that quiddity, and the
    band positive down to the middle row (the rest are its glide images)."""
    N = fp.order
    rows = fp.rows
    q = rows[2]
    return (
        rows[N] == (0,) * N
        and min(q) >= 1
        and max(q) <= N - 2
        and sum(q) == 3 * (N - 2)
        and monodromy_is_minus_identity(q)
        and rows[:N] == _frieze_rows(q)[0]
        and all(min(row) >= 1 for row in rows[3 : N // 2 + 1])
    )


def from_cycle_by_scan(c):
    """The frieze of a coupling cycle, its band read off the members' first
    columns and the whole pattern checked by ``violations``."""
    N = c.n + 3
    zeros = (0,) * N
    ones = (1,) * N
    band = zip(*(c.diamonds[col % c.p].col1 for col in range(N)))
    fp = FriezePattern(N, (zeros, ones, *band, ones, zeros))
    problems = violations(fp)
    if problems:
        raise InvariantViolation(
            "cycle produced an invalid pattern: " + "; ".join(problems)
        )
    return fp


def from_cycle_by_quiddity(c):
    """The frieze of a coupling cycle as ``from_quiddity`` of its repeated
    heads, its band then compared with the members' first columns."""
    N = c.n + 3
    columns = [c.diamonds[col % c.p].col1 for col in range(N)]
    band = tuple(zip(*columns))
    try:
        fp = from_quiddity(band[0])
    except InputError as exc:
        raise InvariantViolation(f"cycle produced an invalid pattern: {exc}") from exc
    if fp.rows[2 : N - 1] != band:
        built = list(zip(*fp.rows[2 : N - 1]))
        col = next(col for col in range(N) if built[col] != columns[col])
        raise InvariantViolation(
            f"cycle produced an invalid pattern: column {col}, of member "
            f"{col % c.p}, is not a diagonal of the quiddity row"
        )
    return fp


def v_vector_by_walk(word):
    """Profile encoding by walking the word: for the i-th D but the last,
    the Us before it minus i - 1."""
    k = len(word) // 2
    ups = seen_d = 0
    out = []
    for ch in word:
        if ch == "U":
            ups += 1
        else:
            seen_d += 1
            if seen_d == k:
                break
            out.append(ups - seen_d + 1)
    return tuple(out)


def lambda_by_walk(word):
    """Descent encoding by walking the word: the Ds before each U, read
    from the (n+1)-th U back to the 2nd."""
    n = len(word) // 2 - 1
    ds_before = []
    downs = 0
    for ch in word:
        if ch == "U":
            ds_before.append(downs)
        else:
            downs += 1
    return tuple(ds_before[n + 1 - i] for i in range(1, n + 1))


def path_rank_by_walk(word):
    """Rank in ``all_paths`` order by walking the word with its height,
    adding at each D the ballot number of the words taking a U there."""
    rank = height = 0
    remaining = len(word)
    for ch in word:
        remaining -= 1
        if ch == "U":
            height += 1
        else:
            downs = (remaining + height + 1) // 2
            rank += math.comb(remaining, downs) - math.comb(remaining, downs + 1)
            height -= 1
    return rank


@functools.lru_cache(maxsize=None)
def ballot_count_by_recursion(n, z):
    """Expansion-history count f(n, z), summed from the row of rank n - 1."""
    if n == 1:
        return 1
    lo = 1 if z == 1 else z - 1
    return sum(ballot_count_by_recursion(n - 1, i) for i in range(lo, n + 1))


def rotation_orbit_by_rotate(t):
    """Every label rotation of ``t``, one ``rotate`` call per shift."""
    return {rotate(t, k) for k in range(t.polygon_size)}


def rotation_period_by_scan(seq):
    """Least ``p >= 1`` with ``seq[p:] + seq[:p] == seq``, trying every p."""
    return next(p for p in range(1, len(seq) + 1) if seq[p:] + seq[:p] == seq)
