"""Fault injection, differential oracles and a memory bound for the
rank-n invariant suite.

``run_checks`` builds each coupling cycle once, from the cycle's first
enumerated member, and its one closed frieze once, from the cycle heads,
walks each member's profile once (``dyck._walk``) for its path rank,
triangulation key and quiddity, and checks every member in member 0's
frame.  A fault planted on another member must still fail its check.  The
walk reads the rank from a table and sets the key bits of each ear it clips;
both are compared with ``path_rank`` and with the key summed diagonal by
diagonal, and the keys that the orbit check turns are compared with
``rotate``.  The cycles' period histogram is compared with a count of each
triangulation's stabiliser.
"""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckfrieze import (
    FriezePattern,
    Triangulation,
    all_paths,
    catalan,
    checks,
    complete_diamond,
    diamond,
    frieze,
    enumerate_all,
    minimal_cycle,
    path_rank,
    path_to_vector,
    quiddity,
    realize,
    rotate,
    to_lambda,
    vector_to_path,
    vector_to_triangulation,
)
from dyckfrieze.dyck import _ballot_rows
from dyckfrieze.errors import FailsToClose
from oracles import (
    random_triangulation_diagonals,
    run_checks_with_global_tables,
    triangulation_key,
)

RANK = 5


def _failed_checks():
    return [r.name for r in checks.run_checks(RANK) if not r.passed]


def _non_representative_vector():
    # the first enumerated vector represents its cycle; its successor is a
    # member whose cycle is never built from it
    c = minimal_cycle(complete_diamond(enumerate_all(RANK)[0]))
    assert c.p > 1
    return c.diamonds[1].col1


def _non_representative_triangulation():
    return vector_to_triangulation(_non_representative_vector())


def _plant_on_walk(monkeypatch, plants):
    """Make the sweep's walk of each vector u in ``plants`` report
    ``plants[u](rank, key, q)`` in place of its path rank, triangulation key
    and quiddity."""
    original = checks._walk

    def planted(u, rows):
        found = original(u, rows)
        return plants[u](*found) if u in plants else found

    monkeypatch.setattr(checks, "_walk", planted)


def _reporting(diagonals):
    # a plant reporting the triangulation with these diagonals, keyed by
    # the oracle
    N = len(diagonals) + 3
    return lambda rank, key, q: (rank, triangulation_key(diagonals, N), q)


def test_unplanted_suite_passes():
    assert _failed_checks() == []


def test_corrupt_quiddity_of_one_member_fails(monkeypatch):
    target = _non_representative_vector()
    _plant_on_walk(
        monkeypatch, {target: lambda rank, key, q: (rank, key, (q[0] + 1,) + q[1:])}
    )
    # the round trip reads the member's vector off that quiddity
    assert _failed_checks() == [
        "path_map_roundtrip",
        "quiddity_matches_heads",
        "quiddity_friezes_close",
    ]


def test_closing_frieze_unlike_the_cycle_frieze_is_verified(monkeypatch):
    # a member reporting a rotation of its quiddity, itself a quiddity,
    # closes a frieze whose rows differ from the cycle frieze's; the sweep
    # builds it by from_quiddity, which alone decides that it closes
    member = _non_representative_vector()
    target = vector_to_triangulation(member)
    heads = quiddity(vector_to_triangulation(enumerate_all(RANK)[0]))
    turns = {heads[k:] + heads[:k] for k in range(1, len(heads))} - {heads}
    original = checks.from_quiddity
    verified = []

    def rejecting(q):
        # refuse each quiddity of this cycle but its heads row
        if q in turns:
            verified.append(q)
            raise FailsToClose("planted")
        return original(q)

    _plant_on_walk(
        monkeypatch, {member: lambda rank, key, q: (rank, key, q[1:] + q[:1])}
    )
    monkeypatch.setattr(checks, "from_quiddity", rejecting)
    assert _failed_checks() == [
        "path_map_roundtrip",
        "quiddity_matches_heads",
        "quiddity_friezes_close",
    ]
    # rotated back by its offset, the reported quiddity is the true one
    assert verified == [quiddity(target)]


def test_member_reporting_another_members_path_rank_fails(monkeypatch):
    # the non-representative member takes its cycle head's rank, so one
    # rank is hit twice and one is never hit
    head = enumerate_all(RANK)[0]
    taken = path_rank(vector_to_path(head))
    target = _non_representative_vector()
    _plant_on_walk(monkeypatch, {target: lambda rank, key, q: (taken, key, q)})
    results = {r.name: r for r in checks.run_checks(RANK)}
    assert [name for name, r in results.items() if not r.passed] == [
        "path_map_injective",
        "path_map_image_complete",
    ]
    expected = catalan(RANK + 1)
    assert results["path_map_injective"].detail == (
        f"distinct={expected - 1} of {expected}"
    )


def test_orbit_missing_one_member_fails(monkeypatch):
    t = _non_representative_triangulation()
    target = triangulation_key(t.diagonals, t.polygon_size)
    original = checks._turn

    def skewed(key, k, N):
        moved = original(key, k, N)
        return original(moved, 1, N) if key == target else moved

    monkeypatch.setattr(checks, "_turn", skewed)
    assert _failed_checks() == ["cycle_orbit_consistent"]


def test_member_reporting_member_0s_triangulation_fails(monkeypatch):
    # the non-representative member takes its cycle head's diagonals, so
    # one triangulation is hit twice and the cycle's orbit is one short
    taken = vector_to_triangulation(enumerate_all(RANK)[0]).diagonals
    _plant_on_walk(monkeypatch, {_non_representative_vector(): _reporting(taken)})
    results = {r.name: r for r in checks.run_checks(RANK)}
    assert [name for name, r in results.items() if not r.passed] == [
        "triangulation_map_injective",
        "cycle_orbit_consistent",
    ]
    expected = catalan(RANK + 1)
    assert results["triangulation_map_injective"].detail == (
        f"distinct={expected - 1} expected={expected}"
    )


def test_member_0_not_returning_after_p_turns_fails(monkeypatch):
    # the members of a cycle of period p < N report the rotations of an
    # asymmetric triangulation, each turned back to member 0 as the orbit
    # asks; only the p-th turn of member 0 tells them apart
    cycles = [minimal_cycle(complete_diamond(v)) for v in enumerate_all(RANK)]
    short = next(c for c in cycles if c.p < RANK + 3)
    full = next(c for c in cycles if c.p == RANK + 3)
    t0 = vector_to_triangulation(full.diamonds[0].col1)
    reported = {
        d.col1: _reporting(rotate(t0, -t).diagonals)
        for t, d in enumerate(short.diamonds)
    }
    _plant_on_walk(monkeypatch, reported)
    # the reported triangulations are also members of the full cycle
    assert _failed_checks() == [
        "triangulation_map_injective",
        "cycle_orbit_consistent",
    ]


@pytest.mark.parametrize("N", range(4, 11))
def test_turned_key_is_the_key_of_the_rotation(N):
    # every triangulation of the N-gon, every turn up to a full one
    keys = set()
    for p in all_paths(N - 2):
        t = realize(to_lambda(p))
        key = triangulation_key(t.diagonals, N)
        keys.add(key)
        for k in range(N + 1):
            turned = triangulation_key(rotate(t, k).diagonals, N)
            assert checks._turn(key, k, N) == turned
    assert len(keys) == catalan(N - 2)


@pytest.mark.parametrize("N", range(4, 11))
def test_walk_reads_rank_and_key_of_every_path(N):
    # the walk's rank lookups and key bits against path_rank and the oracle key
    n = N - 3
    rows = _ballot_rows(n + 1)
    for p in all_paths(n + 1):
        rank, key, _ = checks._walk(path_to_vector(p, n), rows)
        assert rank == path_rank(p)
        assert key == triangulation_key(realize(to_lambda(p)).diagonals, N)


@given(st.integers(4, 60), st.integers(-120, 120), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_turned_key_is_the_key_of_the_rotation_property(N, k, rng):
    t = Triangulation(N, random_triangulation_diagonals(N, rng))
    key = triangulation_key(t.diagonals, N)
    assert checks._turn(key, k, N) == triangulation_key(rotate(t, k).diagonals, N)


def test_cycle_frieze_failing_to_build_fails(monkeypatch):
    # from_cycle builds unchecked, so the sweep verifies what it returns:
    # member 0's pattern with one band entry raised is refused
    first = minimal_cycle(complete_diamond(enumerate_all(RANK)[0]))
    original = checks.from_cycle

    def tampered(c):
        fp = original(c)
        if c != first:
            return fp
        rows = [list(row) for row in fp.rows]
        rows[3][1] += 1
        return FriezePattern(fp.order, tuple(map(tuple, rows)))

    monkeypatch.setattr(checks, "from_cycle", tampered)
    # the heads' frieze still closes every member
    assert _failed_checks() == ["frieze_from_cycle_valid"]


def test_heads_failing_to_close_fail_both_frieze_checks(monkeypatch):
    # the one frieze built from the heads decides the band and the closure
    # of every member on the heads, so refusing it fails both, and nothing
    # else: each member's quiddity is still the heads
    heads = quiddity(vector_to_triangulation(enumerate_all(RANK)[0]))
    original = checks.from_quiddity

    def refusing(q):
        if q == heads:
            raise FailsToClose("planted")
        return original(q)

    monkeypatch.setattr(checks, "from_quiddity", refusing)
    assert _failed_checks() == [
        "frieze_from_cycle_valid",
        "quiddity_friezes_close",
    ]


def test_member_outside_the_enumeration_fails(monkeypatch):
    vectors = enumerate_all(RANK)
    missing = _non_representative_triangulation()
    kept = tuple(v for v in vectors if vector_to_triangulation(v) != missing)
    assert len(kept) == len(vectors) - 1
    monkeypatch.setattr(checks, "enumerate_all", lambda n: kept)
    # the missing vector also leaves its first entry's ballot count one short
    assert _failed_checks() == [
        "enumeration_count",
        "cycle_period_divides",
        "ballot_row_sum",
    ]
    (gone,) = set(vectors) - set(kept)
    z = gone[0]
    want = sum(v[0] == z for v in vectors)
    ballot = checks.run_checks(RANK)[-1]
    assert ballot.detail == f"z={z} count={want - 1} ballot={want}"


def test_missing_symmetric_cycle_fails_the_period_count(monkeypatch):
    # every member of one half-turn symmetric cycle is gone, so each cycle
    # still built partitions what is left, but one period-N/2 cycle is short
    vectors = enumerate_all(RANK)
    N = RANK + 3
    cycles = [minimal_cycle(complete_diamond(v)) for v in vectors]
    gone = {d.col1 for d in next(c for c in cycles if c.p == N // 2).diamonds}
    kept = tuple(v for v in vectors if v not in gone)
    monkeypatch.setattr(checks, "enumerate_all", lambda n: kept)
    results = {r.name: r for r in checks.run_checks(RANK)}
    assert [name for name, r in results.items() if not r.passed] == [
        "enumeration_count",
        "path_map_image_complete",
        "cycle_period_divides",
        "triangulation_map_injective",
        "ballot_row_sum",
    ]
    want = catalan(N // 2 - 1)
    assert results["cycle_period_divides"].detail == (
        f"period={N // 2} cycles={want - 1} expected={want}"
    )


@pytest.mark.parametrize("N", range(4, 11))
def test_period_counts_match_stabilisers_by_rotation(N):
    # a triangulation's period is its first turn that fixes it, and a
    # cycle of period p holds p triangulations
    periods = Counter()
    for p in all_paths(N - 2):
        t = realize(to_lambda(p))
        periods[next(k for k in range(1, N + 1) if rotate(t, k) == t)] += 1
    assert periods == Counter(
        {k: k * cycles for k, cycles in checks._period_counts(N).items()}
    )


def test_closing_frieze_built_once_per_cycle(monkeypatch):
    # one from_quiddity of the heads per cycle, and two kernel runs: one in
    # minimal_cycle, one in that from_quiddity
    built = []
    kernel_runs = []
    original = checks.from_quiddity

    def counted(q):
        built.append(q)
        return original(q)

    monkeypatch.setattr(checks, "from_quiddity", counted)
    for module in (diamond, frieze):
        kernel = module._frieze_rows
        monkeypatch.setattr(
            module,
            "_frieze_rows",
            lambda q, kernel=kernel: kernel_runs.append(q) or kernel(q),
        )
    cycles = {
        frozenset(minimal_cycle(complete_diamond(v)).diamonds)
        for v in enumerate_all(6)
    }
    kernel_runs.clear()
    assert all(r.passed for r in checks.run_checks(6))
    assert len(built) == len(set(built)) == len(cycles) == 49
    assert len(kernel_runs) == 2 * len(cycles) == 98


@pytest.mark.parametrize("n", range(1, 8))
def test_streamed_suite_matches_global_tables(n):
    # names, order, pass flags and details
    assert checks.run_checks(n) == run_checks_with_global_tables(n)


def test_suite_keeps_only_compact_keys_across_cycles():
    # with the enumeration cached, whole-enumeration tables of paths, words
    # and triangulations take about 3 MiB at rank 7
    enumerate_all(7)
    tracemalloc.start()
    try:
        results = checks.run_checks(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 1.5 * 2**20, peak


def test_suite_keeps_one_class_key_per_cycle():
    # with the enumeration cached, a rank-8 sweep peaks near 0.5 MiB; one
    # key per triangulation, 4862 keys of 121 bits, takes it to about
    # 0.77 MiB
    enumerate_all(8)
    tracemalloc.start()
    try:
        results = checks.run_checks(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 0.65 * 2**20, peak
