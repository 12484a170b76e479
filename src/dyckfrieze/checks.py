"""Cross-module invariant suite for a given rank.

Each check exercises one structural guarantee over the full rank-n
enumeration: counting, both bijections, cycle periods, frieze validity,
and the orbit/quiddity consistency between cycles and triangulations.

The rank-n vectors fall into coupling cycles, so cycle-level work runs
once per distinct cycle: its minimal cycle, its frieze (which
``from_cycle`` verifies as it builds it) and its rotation orbit.  A
rotated cycle gives a shifted frieze and the same orbit, so nothing is
lost.  Each vector gets its own path, triangulation and quiddity, which
must equal the cycle heads rotated to that vector's offset.  Closure is
checked once per quiddity rotated back by that offset: ``from_quiddity``
and ``verify`` read columns cyclically, so a rotation closes iff it does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diamond import complete_diamond, cycle_heads, minimal_cycle
from .dyck import all_paths, catalan, path_to_vector, vector_to_path
from .enumeration import ballot_count, enumerate_all
from .errors import InputError, InvariantViolation
from .frieze import from_cycle, from_quiddity, verify
from .triangulation import path_to_triangulation, quiddity, rotation_orbit


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_checks(n: int) -> list[CheckResult]:
    """Run every rank-n check and report one result per check."""
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
