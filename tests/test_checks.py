"""Fault injection, differential oracles and a memory bound for the
rank-n invariant suite.

``run_checks`` builds each coupling cycle once, from the cycle's first
enumerated member, and its one closed frieze once, from the cycle heads,
walks each member's reduced profile once (``checks._walk``) for its path's
profile, triangulation key and quiddity, and checks every member in member 0's
frame, by one list of member 0's turns that also gives the cycle's class
key.  A fault planted on another member must still fail its check.
The sweep runs in two processes where it may, the first share of the
cycles here and the rest in one forked child; every suite runs both split
and in one process, which must agree name for name and detail for detail,
with faults planted in either share, and no child may outlive the call; a
pipe or fork that cannot be had falls back to one process.  The walk
returns the path's profile, which the sweep ranks by a table, and keys the
diagonals that ``dyck._clip`` draws; both are compared with ``path_rank``
and with the key summed end by end, and the keys that the orbit check
turns are compared with ``rotate``.
The cycles' period histogram is compared with a count of each
triangulation's stabiliser.
"""

import errno
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from collections import Counter
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckfrieze import (
    Cycle,
    FriezePattern,
    Triangulation,
    all_paths,
    catalan,
    checks,
    cli,
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
from dyckfrieze.errors import FailsToClose, RangeError
from oracles import (
    random_triangulation_diagonals,
    run_checks_with_global_tables,
    triangulation_key,
)

RANK = 5
ROOT = Path(__file__).resolve().parent.parent


def _one_process(monkeypatch):
    monkeypatch.setattr(checks, "_cpus", lambda: 1)


def _two_processes(monkeypatch):
    # also below rank 6, where run_checks would not fork
    monkeypatch.setattr(checks, "_cpus", lambda: 2)
    monkeypatch.setattr(checks, "_FORK_FROM", 1)


def _splits(monkeypatch):
    """The arguments of each split sweep from here on."""
    split = checks._split
    shares = []
    monkeypatch.setattr(checks, "_split", lambda *a: shares.append(a) or split(*a))
    return shares


def _results(monkeypatch, n=RANK):
    """run_checks(n) split across two processes, by name, which must equal
    it run in one."""
    _two_processes(monkeypatch)
    shares = _splits(monkeypatch)
    results = checks.run_checks(n)
    assert len(shares) == 1
    _no_child_left()
    _one_process(monkeypatch)
    assert checks.run_checks(n) == results
    return {r.name: r for r in results}


def _failed_checks(monkeypatch):
    return [r.name for r in _results(monkeypatch).values() if not r.passed]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cycles(n=RANK):
    """The coupling cycles in the order the sweep meets them, and the
    number of the first one in the forked child's share."""
    seen, cycles = set(), []
    for v in enumerate_all(n):
        if v not in seen:
            cycles.append(minimal_cycle(complete_diamond(v)))
            seen.update(d.col1 for d in cycles[-1].diamonds)
    assert len(cycles) == sum(checks._period_counts(n + 3).values())
    return cycles, -(-4 * len(cycles) // 7)


def _child_share_member():
    # a member, not member 0, of the last cycle, which the child checks
    cycles, share = _cycles()
    assert len(cycles) - 1 >= share and cycles[-1].p > 1
    return cycles[-1].diamonds[1].col1


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
    ``plants[u](m, key, q)`` in place of its path's profile, triangulation
    key and quiddity."""
    original = checks._walk

    def planted(u):
        found = original(u)
        return plants[u](*found) if u in plants else found

    monkeypatch.setattr(checks, "_walk", planted)


def _reporting(diagonals):
    # a plant reporting the triangulation with these diagonals, keyed by
    # the oracle
    N = len(diagonals) + 3
    return lambda m, key, q: (m, triangulation_key(diagonals, N), q)


def test_unplanted_suite_passes(monkeypatch):
    # and, split, leaves no child behind
    assert _failed_checks(monkeypatch) == []


def test_corrupt_quiddity_of_one_member_fails(monkeypatch):
    target = _non_representative_vector()
    _plant_on_walk(
        monkeypatch, {target: lambda m, key, q: (m, key, (q[0] + 1,) + q[1:])}
    )
    # the round trip reads the member's vector off that quiddity
    assert _failed_checks(monkeypatch) == [
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
        monkeypatch, {member: lambda m, key, q: (m, key, q[1:] + q[:1])}
    )
    monkeypatch.setattr(checks, "from_quiddity", rejecting)
    assert _failed_checks(monkeypatch) == [
        "path_map_roundtrip",
        "quiddity_matches_heads",
        "quiddity_friezes_close",
    ]
    # rotated back by its offset, the reported quiddity is the true one;
    # the member is in the first share, checked here, once split and once
    # in one process
    assert verified == [quiddity(target)] * 2


def test_member_reporting_another_members_path_rank_fails(monkeypatch):
    # the non-representative member takes its cycle head's profile, and so
    # its rank, so one rank is hit twice and one is never hit
    taken = vector_to_path(enumerate_all(RANK)[0])._m
    target = _non_representative_vector()
    _plant_on_walk(monkeypatch, {target: lambda m, key, q: (taken, key, q)})
    results = _results(monkeypatch)
    assert [name for name, r in results.items() if not r.passed] == [
        "path_map_injective",
        "path_map_image_complete",
    ]
    expected = catalan(RANK + 1)
    assert results["path_map_injective"].detail == (
        f"distinct={expected - 1} of {expected}"
    )


def test_orbit_missing_one_member_fails(monkeypatch):
    # member 0's turn back by the target's offset, 1, goes one turn on, so
    # the target is not member 0's turn; the skewed turn is still in the
    # class, which keeps the triangulation count
    t = vector_to_triangulation(enumerate_all(RANK)[0])
    head = triangulation_key(t.diagonals, t.polygon_size)
    original = checks._turn

    def skewed(key, k, N):
        moved = original(key, k, N)
        return original(moved, 1, N) if key == head and k == -1 else moved

    monkeypatch.setattr(checks, "_turn", skewed)
    assert _failed_checks(monkeypatch) == ["cycle_orbit_consistent"]


def test_member_reporting_member_0s_triangulation_fails(monkeypatch):
    # the non-representative member takes its cycle head's diagonals, so
    # one triangulation is hit twice and the cycle's orbit is one short
    taken = vector_to_triangulation(enumerate_all(RANK)[0]).diagonals
    _plant_on_walk(monkeypatch, {_non_representative_vector(): _reporting(taken)})
    results = _results(monkeypatch)
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
    assert _failed_checks(monkeypatch) == [
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
    # the sweep's rank lookups over the walk's profile and its key bits
    # against path_rank and the oracle key
    n = N - 3
    rows = _ballot_rows(n + 1)
    for p in all_paths(n + 1):
        m, key, _ = checks._walk(path_to_vector(p, n))
        assert sum(map(getitem, rows, m)) == path_rank(p)
        assert key == triangulation_key(realize(to_lambda(p)).diagonals, N)


@given(st.integers(4, 60), st.integers(-120, 120), st.randoms(use_true_random=False))
@example(402, 77, random.Random(9))  # this draw has a diameter
@example(403, -119, random.Random(0))  # an odd N has none
@settings(max_examples=200)
def test_turned_key_is_the_key_of_the_rotation_property(N, k, rng):
    # the key's branch on the span against the oracle's end-by-end sum, past
    # N = 60 in the examples
    t = Triangulation(N, random_triangulation_diagonals(N, rng))
    key = triangulation_key(t.diagonals, N)
    assert checks._key(t.diagonals, N) == key
    assert checks._turn(key, k, N) == triangulation_key(rotate(t, k).diagonals, N)


def _tamper_first_band(monkeypatch):
    """Make ``from_cycle`` of the first cycle met raise one band entry, and
    return that cycle."""
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
    return first


def test_cycle_frieze_failing_to_build_fails(monkeypatch):
    # from_cycle builds unchecked, so the sweep verifies what it returns:
    # member 0's pattern with one band entry raised is refused
    _tamper_first_band(monkeypatch)
    # the heads' frieze still closes every member
    assert _failed_checks(monkeypatch) == ["frieze_from_cycle_valid"]


def test_round_trips_are_read_off_the_frieze_where_the_band_holds(monkeypatch):
    # a member on the heads of a cycle whose band is the heads' frieze has
    # its round trip as a column of that frieze: a passing rank-8 sweep
    # calls no diagonal, where one per member made 4,862 calls
    calls = []
    original = checks.diagonal
    monkeypatch.setattr(checks, "diagonal", lambda *a: calls.append(a) or original(*a))
    _one_process(monkeypatch)  # a child's calls are not counted here
    assert all(r.passed for r in checks.run_checks(8))
    assert calls == []
    # a cycle whose band fails walks the round trip of each of its p
    # members, which still pass
    first = _tamper_first_band(monkeypatch)
    failed = [r.name for r in checks.run_checks(RANK) if not r.passed]
    assert failed == ["frieze_from_cycle_valid"]
    assert len(calls) == first.p > 1


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
    assert _failed_checks(monkeypatch) == [
        "frieze_from_cycle_valid",
        "quiddity_friezes_close",
    ]


def test_corrupt_quiddity_in_the_childs_share_fails(monkeypatch):
    target = _child_share_member()
    _plant_on_walk(
        monkeypatch, {target: lambda m, key, q: (m, key, (q[0] + 1,) + q[1:])}
    )
    assert _failed_checks(monkeypatch) == [
        "path_map_roundtrip",
        "quiddity_matches_heads",
        "quiddity_friezes_close",
    ]


def test_flipped_key_bit_in_the_childs_share_fails(monkeypatch):
    target = _child_share_member()
    _plant_on_walk(monkeypatch, {target: lambda m, key, q: (m, key ^ 2, q)})
    assert _failed_checks(monkeypatch) == ["cycle_orbit_consistent"]


def test_heads_failing_to_close_in_the_childs_share_fail(monkeypatch):
    cycles, _ = _cycles()
    heads = quiddity(vector_to_triangulation(cycles[-1].diamonds[0].col1))
    original = checks.from_quiddity

    def refusing(q):
        if q == heads:
            raise FailsToClose("planted")
        return original(q)

    monkeypatch.setattr(checks, "from_quiddity", refusing)
    assert _failed_checks(monkeypatch) == [
        "frieze_from_cycle_valid",
        "quiddity_friezes_close",
    ]


def test_child_share_member_reporting_a_first_share_rank_fails(monkeypatch):
    # the rank sets of the two shares overlap in one rank, and miss one:
    # the member reports the first cycle's member 0's profile
    taken = vector_to_path(enumerate_all(RANK)[0])._m
    _plant_on_walk(
        monkeypatch, {_child_share_member(): lambda m, key, q: (taken, key, q)}
    )
    results = _results(monkeypatch)
    assert [name for name, r in results.items() if not r.passed] == [
        "path_map_injective",
        "path_map_image_complete",
    ]
    expected = catalan(RANK + 1)
    assert results["path_map_injective"].detail == (
        f"distinct={expected - 1} of {expected}"
    )
    assert results["path_map_image_complete"].detail == (
        f"image={expected - 1} paths={expected}"
    )


def test_child_share_cycle_taking_a_first_share_class_key_fails(monkeypatch):
    # the last cycle's member 0 reports the first cycle's member 0, so the
    # last cycle's class key is the first's and its triangulations go
    # uncounted
    cycles, _ = _cycles()
    taken = vector_to_triangulation(cycles[0].diamonds[0].col1).diagonals
    _plant_on_walk(monkeypatch, {cycles[-1].diamonds[0].col1: _reporting(taken)})
    results = _results(monkeypatch)
    assert [name for name, r in results.items() if not r.passed] == [
        "triangulation_map_injective",
        "cycle_orbit_consistent",
    ]
    expected = catalan(RANK + 1)
    assert results["triangulation_map_injective"].detail == (
        f"distinct={expected - cycles[-1].p} expected={expected}"
    )


class Planted(Exception):
    """Raised by a planted walk."""


def _raising_on(monkeypatch, target):
    def raising(m, key, q):
        raise Planted(f"walk of {target}")

    _plant_on_walk(monkeypatch, {target: raising})


def test_a_raise_in_the_first_share_kills_and_reaps_the_child(monkeypatch):
    _raising_on(monkeypatch, enumerate_all(RANK)[0])
    _two_processes(monkeypatch)
    with pytest.raises(Planted):
        checks.run_checks(RANK)
    _no_child_left()


def test_a_raise_in_the_childs_share_is_raised_as_in_one_process(monkeypatch):
    # the child exits, and this process sweeps its share again
    _raising_on(monkeypatch, _child_share_member())
    raised = []
    for force in (_two_processes, _one_process):
        force(monkeypatch)
        with pytest.raises(Planted) as info:
            checks.run_checks(RANK)
        _no_child_left()
        raised.append((type(info.value), str(info.value), info.traceback[-1].name))
    assert raised[0] == raised[1]
    assert raised[0][2] == "raising"


@pytest.mark.parametrize("n", [0, True, "8"])
def test_an_invalid_rank_is_refused_before_any_fork(monkeypatch, n):
    _two_processes(monkeypatch)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    with pytest.raises(RangeError):
        checks.run_checks(n)
    _no_child_left()


@pytest.mark.parametrize("n, forks", [(5, False), (6, True)])
def test_the_sweep_forks_from_rank_6(monkeypatch, n, forks):
    # split, rank 5's 19 cycles take longer than in one process, and rank
    # 6's 49 take less
    assert sum(checks._period_counts(n + 3).values()) == (49 if forks else 19)
    monkeypatch.setattr(checks, "_cpus", lambda: 2)
    shares = _splits(monkeypatch)
    assert all(r.passed for r in checks.run_checks(n))
    assert len(shares) == forks
    _no_child_left()


def _raising(error):
    def raising():
        raise error

    return raising


@pytest.mark.parametrize(
    "call, error",
    [
        ("fork", BlockingIOError(errno.EAGAIN, "planted")),
        ("pipe", OSError(errno.EMFILE, "planted")),
    ],
)
def test_a_failed_pipe_or_fork_sweeps_in_one_process(monkeypatch, call, error):
    # the fork only saves time, so a pipe or child that cannot be had is no
    # error: the results are one process's, and no descriptor stays open
    _one_process(monkeypatch)
    alone = checks.run_checks(6)
    opened = []
    pipe = os.pipe
    monkeypatch.setattr(os, "pipe", lambda: opened.extend(pipe()) or tuple(opened))
    monkeypatch.setattr(os, call, _raising(error))
    _two_processes(monkeypatch)
    shares = _splits(monkeypatch)
    assert checks.run_checks(6) == alone
    assert len(shares) == 1
    assert len(opened) == (call == "fork") * 2
    for fd in opened:
        with pytest.raises(OSError) as info:
            os.fstat(fd)
        assert info.value.errno == errno.EBADF
    _no_child_left()


def test_verify_with_no_fork_to_be_had_prints_the_golden_report(monkeypatch, capsys):
    monkeypatch.setattr(checks, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _raising(BlockingIOError(errno.EAGAIN, "planted")))
    assert cli.main(["verify", "--n", "8"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (ROOT / "perfbench" / "golden" / "verify-n8.out").read_text()


def test_verify_below_the_fork_threshold_prints_the_n3_golden(monkeypatch, capsys):
    # rank 3 has fewer cycles than _FORK_FROM, so even with two CPUs the
    # report comes from one process, and it is the committed golden
    monkeypatch.setattr(checks, "_cpus", lambda: 2)
    shares = _splits(monkeypatch)
    assert cli.main(["verify", "--n", "3"]) == 0
    out, err = capsys.readouterr()
    assert (shares, err) == ([], "")
    assert out == (ROOT / "perfbench" / "golden" / "verify-n3.out").read_text()


def test_verify_in_a_fresh_process_prints_its_report_once():
    # the child never flushes the stdout buffer it inherits, and under
    # -X dev -W error a warning on the fork path fails the run
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["-X", "dev", "-W", "error", "-m", "dyckfrieze.cli", "verify", "--n", "8"]
    done = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (ROOT / "perfbench" / "golden" / "verify-n8.out").read_bytes()


def test_member_outside_the_enumeration_fails(monkeypatch):
    vectors = enumerate_all(RANK)
    missing = _non_representative_triangulation()
    kept = tuple(v for v in vectors if vector_to_triangulation(v) != missing)
    assert len(kept) == len(vectors) - 1
    monkeypatch.setattr(checks, "enumerate_all", lambda n: kept)
    # the missing vector also leaves its first entry's ballot count one short
    assert _failed_checks(monkeypatch) == [
        "enumeration_count",
        "cycle_period_divides",
        "ballot_row_sum",
    ]
    (gone,) = set(vectors) - set(kept)
    z = gone[0]
    want = sum(v[0] == z for v in vectors)
    ballot = _results(monkeypatch)["ballot_row_sum"]
    assert ballot.detail == f"z={z} count={want - 1} ballot={want}"


def test_member_outside_the_enumeration_in_the_childs_share_fails(monkeypatch):
    # the child still walks every member of the last cycle, so the members
    # walked outnumber the vectors left by one
    gone = _child_share_member()
    kept = tuple(v for v in enumerate_all(RANK) if v != gone)
    monkeypatch.setattr(checks, "enumerate_all", lambda n: kept)
    assert _failed_checks(monkeypatch) == [
        "enumeration_count",
        "cycle_period_divides",
        "ballot_row_sum",
    ]


def _walked_twice(results, p):
    # every rank is hit, but one cycle of period p too many is walked
    expected = catalan(RANK + 1)
    want = checks._period_counts(RANK + 3)[p]
    assert results["path_map_injective"].detail == (
        f"distinct={expected} of {expected + p}"
    )
    assert results["cycle_period_divides"].detail == (
        f"period={p} cycles={want + 1} expected={want}"
    )


@pytest.mark.parametrize("k", [1, -1])  # in this process's share, the child's
def test_member_met_twice_fails(monkeypatch, k):
    # cycle k reports cycle 0's member 1, met again, in place of its own
    # member 1, which then starts a second copy of cycle k
    cycles, share = _cycles()
    assert (k % len(cycles) >= share) == (k == -1)
    target, met = cycles[k], cycles[0].diamonds[1]
    original = checks.minimal_cycle

    def planted(d0):
        c = original(d0)
        if c != target:
            return c
        return Cycle._trusted(c.diamonds[:1] + (met,) + c.diamonds[2:])

    monkeypatch.setattr(checks, "minimal_cycle", planted)
    results = _results(monkeypatch)
    failed = [name for name, r in results.items() if not r.passed]
    assert failed == [
        "path_map_injective",
        "cycle_period_divides",
        "frieze_from_cycle_valid",
        "quiddity_matches_heads",
        "cycle_orbit_consistent",
    ] + ["quiddity_friezes_close"] * (k == -1)
    _walked_twice(results, target.p)


@pytest.mark.parametrize("at", [0, 3, -1])
def test_vector_enumerated_twice_fails(monkeypatch, at):
    # the second copy starts a second copy of its cycle
    vectors = enumerate_all(RANK)
    at %= len(vectors)
    twice = vectors[: at + 1] + vectors[at:]
    monkeypatch.setattr(checks, "enumerate_all", lambda n: twice)
    results = _results(monkeypatch)
    assert [name for name, r in results.items() if not r.passed] == [
        "enumeration_count",
        "path_map_injective",
        "cycle_period_divides",
        "ballot_row_sum",
    ]
    _walked_twice(results, minimal_cycle(complete_diamond(vectors[at])).p)
    z = vectors[at][0]
    want = sum(v[0] == z for v in vectors)
    assert results["ballot_row_sum"].detail == f"z={z} count={want + 1} ballot={want}"


def test_missing_symmetric_cycle_fails_the_period_count(monkeypatch):
    # every member of one half-turn symmetric cycle is gone, so each cycle
    # still built partitions what is left, but one period-N/2 cycle is short
    vectors = enumerate_all(RANK)
    N = RANK + 3
    cycles = [minimal_cycle(complete_diamond(v)) for v in vectors]
    gone = {d.col1 for d in next(c for c in cycles if c.p == N // 2).diamonds}
    kept = tuple(v for v in vectors if v not in gone)
    monkeypatch.setattr(checks, "enumerate_all", lambda n: kept)
    results = _results(monkeypatch)
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
    _one_process(monkeypatch)  # a child's calls are not counted here
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


@pytest.mark.parametrize("n", range(1, 9))
def test_every_cycle_starts_in_the_first_ballot_row(n):
    # member 0 is its cycle's least member, and starts with 1, so it lies
    # among the first catalan(n) sorted vectors, those starting with 1
    vectors = enumerate_all(n)
    for c in _cycles(n)[0]:
        first = c.diamonds[0].col1
        assert first == min(d.col1 for d in c.diamonds)
        assert first[0] == 1
        assert bisect_left(vectors, first) < catalan(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_streamed_suite_matches_global_tables(monkeypatch, n):
    # names, order, pass flags and details, split and in one process
    results = _results(monkeypatch, n)
    assert list(results.values()) == run_checks_with_global_tables(n)


def test_split_suite_matches_one_process_at_rank_8(monkeypatch):
    assert all(r.passed for r in _results(monkeypatch, 8).values())


def test_one_list_of_turns_per_cycle(monkeypatch):
    # member 0's N turns decide the orbit test and the class key, and no
    # member is turned: 442 cycles of 11 turns at rank 8
    turned = []
    original = checks._turn
    monkeypatch.setattr(checks, "_turn", lambda *a: turned.append(a) or original(*a))
    _one_process(monkeypatch)
    assert all(r.passed for r in checks.run_checks(8))
    assert len(turned) == 442 * 11 == 4862


def test_suite_keeps_only_compact_keys_across_cycles(monkeypatch):
    # with the enumeration cached, whole-enumeration tables of paths, words
    # and triangulations take about 3 MiB at rank 7; in one process, as a
    # child's memory is not traced here
    enumerate_all(7)
    _one_process(monkeypatch)
    tracemalloc.start()
    try:
        results = checks.run_checks(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 1.5 * 2**20, peak


def test_suite_keeps_one_class_key_per_cycle(monkeypatch):
    # with the enumeration cached, a rank-8 sweep in one process peaks near
    # 0.5 MiB; one key per triangulation, 4862 keys of 121 bits, takes it
    # to about 0.77 MiB
    enumerate_all(8)
    _one_process(monkeypatch)
    tracemalloc.start()
    try:
        results = checks.run_checks(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 0.65 * 2**20, peak
