"""Cross-module invariant suite for a given rank.

Each check exercises one structural guarantee over the full rank-n
enumeration: counting, both bijections, cycle periods, frieze validity,
and the orbit/quiddity consistency between cycles and triangulations.

The sweep streams the rank-n vectors one coupling cycle at a time.  The
first vector of each cycle not yet visited gives its minimal cycle and
that cycle's frieze, which ``from_cycle`` verifies as it builds it.  Each
member u is then walked once: its path, the path's triangulation and that
triangulation's quiddity q.  ``diagonal(q, 0, n + 2)[2:] == u`` is the
round trip, because ``path_to_vector`` is exactly that composition.  The
quiddity must equal the cycle heads rotated to the member's offset, and
the triangulation of member t must be member 0's rotated by -t, with
member 0's returning after p rotations.  Closure is checked once per
quiddity rotated back to member 0: ``from_quiddity`` and ``verify`` read
columns cyclically, so a rotation closes iff it does, and a frieze with
the rows of the verified cycle frieze needs no second ``verify``.

Everything built for a cycle is dropped once the cycle is done.  Across
cycles the sweep keeps only compact keys: a ``bytearray`` over the sorted
vectors marks the cycle members seen, a ``bytearray`` over path ranks
(``dyck.path_rank``) marks the image of the path map, and one int bitmask
per triangulation, bit ``i * N + j`` for diagonal ``(i, j)``, decides the
injectivity of the triangulation map.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .diamond import complete_diamond, cycle_heads, diagonal, minimal_cycle
from .dyck import catalan, path_rank, vector_to_path
from .enumeration import ballot_count, enumerate_all
from .errors import InputError, InvariantViolation
from .frieze import from_cycle, from_quiddity, verify
from .triangulation import path_to_triangulation, quiddity, rotate


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_checks(n: int) -> list[CheckResult]:
    """Run every rank-n check and report one result per check."""
    vectors = enumerate_all(n)
    expected = catalan(n + 1)
    N = n + 3

    visited = bytearray(len(vectors))
    ranks = bytearray(expected)
    tri_keys = set()
    walked = 0
    paths_injective = roundtrip_ok = members_ok = periods_ok = True
    friezes_ok = quiddity_ok = orbit_ok = closes_ok = True

    for index, v in enumerate(vectors):
        if visited[index]:
            continue
        c = minimal_cycle(complete_diamond(v))
        p = c.p
        periods_ok &= N % p == 0
        try:
            cycle_rows = from_cycle(c).rows
        except InvariantViolation:
            friezes_ok = False
            cycle_rows = None
        heads = cycle_heads(c)

        images = []
        cycle_tri_keys = set()
        closing_keys = set()
        for offset, d in enumerate(c.diamonds):
            u = d.col1
            at = bisect_left(vectors, u)
            if at == len(vectors) or vectors[at] != u or visited[at]:
                members_ok = False
            else:
                visited[at] = 1

            path = vector_to_path(u)
            rank = path_rank(path)
            paths_injective &= not ranks[rank]
            ranks[rank] = 1
            walked += 1

            t = path_to_triangulation(path)
            q = quiddity(t)
            roundtrip_ok &= diagonal(q, 0, n + 2)[2:] == u
            quiddity_ok &= (heads[offset:] + heads[:offset]) * (N // p) == q
            closing_keys.add(q[-offset:] + q[:-offset])
            images.append(t)
            cycle_tri_keys.add(sum(1 << (i * N + j) for i, j in t.diagonals))

        orbit_ok &= (
            len(cycle_tri_keys) == p
            and rotate(images[0], -p) == images[0]
            and all(images[k] == rotate(images[0], -k) for k in range(1, p))
        )
        tri_keys |= cycle_tri_keys
        for key in closing_keys:
            try:
                fp = from_quiddity(key)
            except InputError:
                closes_ok = False
                continue
            closes_ok &= fp.rows == cycle_rows or verify(fp)

    distinct = expected - ranks.count(0)
    return [
        CheckResult(
            "enumeration_count",
            len(vectors) == expected,
            f"count={len(vectors)} expected={expected}",
        ),
        CheckResult(
            "path_map_injective",
            paths_injective,
            f"distinct={distinct} of {walked}",
        ),
        CheckResult(
            "path_map_image_complete",
            distinct == expected,
            f"image={distinct} paths={expected}",
        ),
        CheckResult("path_map_roundtrip", roundtrip_ok),
        CheckResult(
            "cycle_period_divides",
            periods_ok and members_ok and walked == len(vectors),
            f"order={N}",
        ),
        CheckResult("frieze_from_cycle_valid", friezes_ok),
        CheckResult(
            "triangulation_map_injective",
            len(tri_keys) == expected,
            f"distinct={len(tri_keys)} expected={expected}",
        ),
        CheckResult("quiddity_matches_heads", quiddity_ok),
        CheckResult("cycle_orbit_consistent", orbit_ok),
        CheckResult("quiddity_friezes_close", closes_ok),
        CheckResult(
            "ballot_row_sum",
            sum(ballot_count(n, z) for z in range(1, n + 2)) == expected,
            f"expected={expected}",
        ),
    ]
