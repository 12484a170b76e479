"""Fault injection, a differential oracle and a memory bound for the
rank-n invariant suite.

``run_checks`` builds each coupling cycle once, from the cycle's first
enumerated member, checks every member's triangulation against member 0's
rotated, and builds each closing frieze once per quiddity rotated back to
member 0.  A fault planted on another member must still fail its check.
"""

import tracemalloc

import pytest

from dyckfrieze import (
    checks,
    complete_diamond,
    enumerate_all,
    minimal_cycle,
    quiddity,
    rotate,
    vector_to_triangulation,
)
from oracles import run_checks_with_global_tables

RANK = 5


def _failed_checks():
    return [r.name for r in checks.run_checks(RANK) if not r.passed]


def _non_representative_triangulation():
    # the first enumerated vector represents its cycle; its successor is a
    # member whose cycle is never built from it
    c = minimal_cycle(complete_diamond(enumerate_all(RANK)[0]))
    assert c.p > 1
    return vector_to_triangulation(c.diamonds[1].col1)


def test_unplanted_suite_passes():
    assert _failed_checks() == []


def test_corrupt_quiddity_of_one_member_fails(monkeypatch):
    target = _non_representative_triangulation()

    def corrupted(t):
        q = quiddity(t)
        return (q[0] + 1,) + q[1:] if t == target else q

    monkeypatch.setattr(checks, "quiddity", corrupted)
    # the round trip reads the member's vector off that quiddity
    assert _failed_checks() == [
        "path_map_roundtrip",
        "quiddity_matches_heads",
        "quiddity_friezes_close",
    ]


def test_closing_frieze_unlike_the_cycle_frieze_is_verified(monkeypatch):
    # a member reporting a rotation of its quiddity, itself a quiddity,
    # builds a frieze whose rows differ from the verified cycle frieze's
    target = _non_representative_triangulation()
    verified = []

    def rotated(t):
        q = quiddity(t)
        return q[1:] + q[:1] if t == target else q

    def rejecting(fp):
        verified.append(fp.quiddity)
        return False

    monkeypatch.setattr(checks, "quiddity", rotated)
    monkeypatch.setattr(checks, "verify", rejecting)
    assert _failed_checks() == [
        "path_map_roundtrip",
        "quiddity_matches_heads",
        "quiddity_friezes_close",
    ]
    # rotated back by its offset, the reported quiddity is the true one
    assert verified == [quiddity(target)]


def test_orbit_missing_one_member_fails(monkeypatch):
    target = _non_representative_triangulation()

    def skewed(t, k):
        moved = rotate(t, k)
        return rotate(moved, 1) if moved == target else moved

    monkeypatch.setattr(checks, "rotate", skewed)
    assert _failed_checks() == ["cycle_orbit_consistent"]


def test_closing_frieze_built_once_per_cycle(monkeypatch):
    built = []
    original = checks.from_quiddity

    def counted(q):
        built.append(q)
        return original(q)

    monkeypatch.setattr(checks, "from_quiddity", counted)
    cycles = {
        frozenset(minimal_cycle(complete_diamond(v)).diamonds)
        for v in enumerate_all(RANK)
    }
    assert _failed_checks() == []
    assert len(built) == len(set(built)) == len(cycles)


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
