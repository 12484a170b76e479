"""Fault injection for the rank-n invariant suite.

``run_checks`` builds each coupling cycle and its rotation orbit once, from
the cycle's first enumerated member, and each closing frieze once per
quiddity rotated back to member 0.  A fault planted on another member
must still fail its check.
"""

from dyckfrieze import (
    checks,
    complete_diamond,
    enumerate_all,
    minimal_cycle,
    quiddity,
    rotation_orbit,
    vector_to_triangulation,
)

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
    assert _failed_checks() == ["quiddity_matches_heads", "quiddity_friezes_close"]


def test_orbit_missing_one_member_fails(monkeypatch):
    target = _non_representative_triangulation()
    target_orbit = rotation_orbit(target)

    def short(t):
        orbit = rotation_orbit(t)
        if orbit == target_orbit:
            orbit.discard(target)
        return orbit

    monkeypatch.setattr(checks, "rotation_orbit", short)
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
