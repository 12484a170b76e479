"""Acceptance suite: one test per exit criterion, exact arithmetic only.

Every check is an integer identity or a set equality; there are no
tolerances anywhere.  Each test prints a summary line; the pytest -v
status line per test is the pass/fail record.
"""

import random
import time

from dyckfrieze import (
    all_paths,
    ballot_count,
    catalan,
    complete_diamond,
    cycle_heads,
    enumerate_all,
    from_cycle,
    from_quiddity,
    minimal_cycle,
    parse_path,
    path_to_vector,
    peaks,
    quiddity,
    reduce_coordinate,
    rotation_orbit,
    to_lambda,
    to_v_vector,
    unitary_shift,
    vector_to_path,
    vector_to_triangulation,
    verify,
)
from dyckfrieze.errors import InputError
from dyckfrieze.frieze import violations

RANKS = range(1, 9)
EXPECTED_COUNTS = {1: 2, 2: 5, 3: 14, 4: 42, 5: 132, 6: 429, 7: 1430, 8: 4862}

RANK3_VECTORS = [
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 3), (1, 3, 2), (2, 1, 1), (2, 1, 2),
    (2, 3, 1), (2, 3, 4), (2, 5, 3), (3, 2, 1), (3, 2, 3), (3, 5, 2), (4, 3, 2),
]


def _rotations(seq):
    n = len(seq)
    return {tuple(seq[(c + k) % n] for c in range(n)) for k in range(n)}


def test_01_enumeration_counts():
    start = time.monotonic()
    for n in RANKS:
        vectors = enumerate_all(n)
        assert len(vectors) == EXPECTED_COUNTS[n] == catalan(n + 1)
    assert enumerate_all(3) == tuple(RANK3_VECTORS)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1: counts 2..4862 exact, rank-3 list verbatim, {elapsed:.2f}s")


def test_02_bijection_suite():
    for n in RANKS:
        vectors = enumerate_all(n)
        paths = [vector_to_path(v) for v in vectors]
        words = [p.word for p in paths]
        assert len(set(words)) == len(words)
        assert set(words) == {p.word for p in all_paths(n + 1)}
        for v, p in zip(vectors, paths):
            assert path_to_vector(p, n) == v
        images = {vector_to_triangulation(v) for v in vectors}
        assert len(images) == catalan(n + 1)
    print("criterion 2: both bijections exhaustive for ranks 1..8")


def test_03_reduction_worked_example():
    u = (14, 52, 4, 23, 9, 2)
    got = tuple(reduce_coordinate(u, i) for i in range(1, 7))
    assert got == (14, 13, 4, 8, 3, 2)
    print("criterion 3: reduction of (14,52,4,23,9,2) exact")


def test_04_golden_correspondences():
    d = complete_diamond((2, 3, 4, 1))
    assert d.col2 == (2, 3, 1, 2)
    path = vector_to_path((2, 3, 4, 1))
    assert path.word == "UUDUDUDDUD"
    assert path_to_vector(path, 4) == (2, 3, 4, 1)

    long_path = parse_path("UUUUUDDDUDUUUDDDDD")
    assert to_v_vector(long_path) == (5, 4, 3, 3, 5, 4, 3, 2)
    assert to_lambda(long_path) == (4, 4, 4, 3, 0, 0, 0, 0)

    assert to_lambda(parse_path("UDUDUUDD")) == (2, 2, 1)
    print("criterion 4: column, path and encoding goldens all match")


def test_05_cycle_divisibility():
    for n in RANKS:
        for v in enumerate_all(n):
            c = minimal_cycle(complete_diamond(v))
            assert (n + 3) % c.p == 0
    assert minimal_cycle(complete_diamond((1,))).p == 2
    c = minimal_cycle(complete_diamond((1, 2, 3)))
    assert c.p == 3
    assert cycle_heads(c) == (1, 3, 2)
    print("criterion 5: every period divides n+3; golden periods and heads")


def test_06_frieze_validity():
    for n in RANKS:
        for v in enumerate_all(n):
            fp = from_cycle(minimal_cycle(complete_diamond(v)))
            assert verify(fp), violations(fp)
    fp = from_quiddity((2, 3, 1, 2, 3, 1))
    assert fp.rows[2] == (2, 3, 1, 2, 3, 1)
    assert fp.rows[3] == (5, 2, 1, 5, 2, 1)
    print("criterion 6: all cycle friezes verify; known band rows reproduced")


def test_07_quiddity_friezes_and_fuzz():
    for n in RANKS:
        N = n + 3
        quiddities = {quiddity(vector_to_triangulation(v)) for v in enumerate_all(n)}
        assert len(quiddities) == catalan(n + 1)  # triangulation -> frieze injective
        domains = set()
        for q in quiddities:
            fp = from_quiddity(q)
            assert verify(fp)
            domains.add(fp.rows)
        assert len(domains) == len(quiddities)

        rng = random.Random(97 + n)
        rejected = 0
        while rejected < 1000:
            q = tuple(rng.randint(1, n + 2) for _ in range(N))
            if q in quiddities:
                continue
            try:
                from_quiddity(q)
                raise AssertionError(f"non-quiddity {q} was accepted")
            except InputError:
                rejected += 1
    print("criterion 7: all quiddities close, 8000 fuzzed non-quiddities rejected")


def test_08_heads_match_quiddity_and_orbits():
    # each cycle and its rotation orbit are built once, from its first
    # member; orbits partition the triangulations, so every member's
    # triangulation lying in that orbit gives images == its own orbit
    for n in RANKS:
        cycle_of = {}  # member col1 -> (its cycle, the members' triangulations)
        for v in enumerate_all(n):
            t = vector_to_triangulation(v)
            if v not in cycle_of:
                c = minimal_cycle(complete_diamond(v))
                images = {vector_to_triangulation(d.col1) for d in c.diamonds}
                assert len(images) == c.p
                assert images == rotation_orbit(t)
                cycle_of.update((d.col1, (c, images)) for d in c.diamonds)
            c, images = cycle_of[v]
            full = cycle_heads(c) * ((n + 3) // c.p)
            assert full in _rotations(quiddity(t))
            assert t in images
    print("criterion 8: heads equal quiddity up to rotation; orbits have size p")


def test_09_counting_identities():
    triangle = {
        1: (1, 1),
        2: (1, 2, 2),
        3: (1, 3, 5, 5),
        4: (1, 4, 9, 14, 14),
        5: (1, 5, 14, 28, 42, 42),
        6: (1, 6, 20, 48, 90, 132, 132),
    }
    for n, row in triangle.items():
        assert tuple(ballot_count(n, z) for z in range(n + 1, 0, -1)) == row
        assert sum(row) == catalan(n + 1)
    for n in range(1, 11):
        assert sum(ballot_count(n, z) for z in range(1, n + 2)) == catalan(n + 1)
    for n in range(2, 11):
        count = sum(1 for p in all_paths(n) if peaks(p) == n - 1)
        assert count == n * (n - 1) // 2
    print("criterion 9: ballot triangle rows and peak counts exact")


def test_10_shift_involution():
    for n in range(2, 9):
        for p in all_paths(n):
            for i in range(1, n):
                shifted = unitary_shift(p, i)  # construction validates the result
                assert unitary_shift(shifted, i) == p
    print("criterion 10: shift is a validity-preserving involution up to length 16")
